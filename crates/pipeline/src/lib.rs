//! The DL preprocessing pipeline: operations, split execution, measurement.
//!
//! This crate reproduces the five-operation image-classification pipeline the
//! SOPHON paper analyzes (§2):
//!
//! 1. **Decode** — encoded bytes → raster image
//! 2. **RandomResizedCrop** — random scale/aspect crop, resized to 224×224
//! 3. **RandomHorizontalFlip** — 50 % mirror
//! 4. **ToTensor** — `u8` raster → `f32` tensor in `[0, 1]` (4× size blow-up)
//! 5. **Normalize** — per-channel mean/std normalization
//!
//! The pieces SOPHON needs on top of plain execution:
//!
//! * [`StageData`] — the typed value flowing between stages, with an exact
//!   wire size ([`StageData::byte_len`]) at every stage; sizes at
//!   intermediate stages are the paper's Figure 1a.
//! * [`PipelineSpec`] + [`SplitPoint`] — run a *prefix* of the pipeline on
//!   the storage node and the *suffix* on the compute node
//!   ([`PipelineSpec::run_prefix`] / [`PipelineSpec::run_suffix`]).
//! * [`AugmentRng`] — per-(sample, epoch) deterministic augmentation
//!   randomness, so a split pipeline applies exactly the augmentations the
//!   unsplit pipeline would have (and they still vary every epoch, which §3.3
//!   identifies as essential for accuracy).
//! * [`measure`] — per-sample stage sizes and operation costs, both modeled
//!   (virtual seconds, used by the cluster simulator and the decision
//!   engine) and wall-clock (used by the live demo).
//!
//! # Example
//!
//! ```
//! use pipeline::{PipelineSpec, StageData, SampleKey, SplitPoint};
//! use imagery::synth::SynthSpec;
//! use codec::{encode, Quality};
//!
//! let img = SynthSpec::new(640, 480).complexity(0.5).render(1);
//! let raw = StageData::Encoded(encode(&img, Quality::default()).into());
//!
//! let spec = PipelineSpec::standard_train();
//! let key = SampleKey::new(99, 7, 0); // dataset seed, sample, epoch
//! let out = spec.run(raw.clone(), key)?;
//! assert!(matches!(out, StageData::Tensor(_)));
//!
//! // Split execution produces an identical tensor: the storage node runs
//! // Decode + RandomResizedCrop, the compute node the rest.
//! let split = SplitPoint::new(2);
//! let mid = spec.run_prefix(raw, split, key)?;
//! assert_eq!(mid.byte_len(), 150_528); // the 151 KB of Figure 1a
//! let out2 = spec.run_suffix(mid, split, key)?;
//! assert_eq!(format!("{out2:?}"), format!("{out:?}"));
//! # Ok::<(), pipeline::PipelineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod batch;
mod cost;
mod data;
mod error;
pub mod measure;
mod modality;
pub mod ops;
mod rng;
mod spec;

pub use batch::{BatchAssembly, CollateError, TensorBatch};
pub use cost::CostModel;
pub use data::{DataKind, StageData};
pub use error::PipelineError;
pub use measure::{measure_corpus, SampleProfile, StageMeasurement};
pub use modality::Modality;
pub use ops::OpKind;
pub use rng::{AugmentRng, SampleKey};
pub use spec::{PipelineSpec, SplitPoint};

/// The spatial output size of the standard training pipeline (224×224).
const CROP_SIZE: u32 = 224;
/// Raw byte size of a `CROP_SIZE`² RGB raster: 150 528 bytes (the paper's
/// "151 KB post RandomResizedCrop").
pub const CROPPED_RAW_BYTES: u64 = (CROP_SIZE as u64) * (CROP_SIZE as u64) * 3;
/// The largest `size` a sized operation ([`OpKind::RandomResizedCrop`],
/// [`OpKind::Resize`], [`OpKind::CenterCrop`]) may carry in a
/// [`PipelineSpec`]: a `size × size` `f32` tensor, 12 bytes a pixel, still
/// fits one 64 MiB wire frame (`storage::wire::MAX_PAYLOAD`, which checks
/// this bound against itself).
pub const MAX_OP_SIZE: u32 = 2_364;
