//! Deterministic synthetic corpora modeled on the paper's datasets.
//!
//! The SOPHON evaluation uses a 12 GB subset of OpenImages (average sample
//! ≈ 300 KB, **76 %** of samples shrink below their raw size after
//! Decode + RandomResizedCrop) and an 11 GB subset of ImageNet (average
//! ≈ 120 KB, only **26 %** shrink). Neither dataset is available here, so
//! this crate generates corpora with matching *statistics*:
//!
//! * [`DatasetSpec`] describes a corpus: a log-normal encoded-size
//!   distribution, a content-complexity distribution, an aspect-ratio mix,
//!   and a seed. [`DatasetSpec::openimages_like`] and
//!   [`DatasetSpec::imagenet_like`] carry the calibrated parameters.
//! * [`SampleRecord`] is the O(1), deterministic metadata of one sample
//!   (dimensions, complexity, modeled encoded size). Large-scale experiments
//!   (40 000+ samples) work from records and their analytic
//!   [`SampleRecord::analytic_profile`]s without rendering a single pixel.
//! * [`DatasetSpec::materialize`] renders the actual image and encodes it
//!   with the real [`codec`], for functional tests, examples, and the live
//!   storage server. The [`model`] module keeps the modeled sizes honest: it
//!   is calibrated against the real codec and tested to stay within
//!   tolerance.
//!
//! # Example
//!
//! ```
//! use datasets::DatasetSpec;
//!
//! let ds = DatasetSpec::openimages_like(1_000, 42);
//! let benefit = ds.records()
//!     .filter(|r| r.encoded_bytes > 150_528)
//!     .count();
//! // ~76 % of samples are larger than the post-crop raster.
//! assert!((650..850).contains(&benefit), "benefit = {benefit}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod model;
mod record;
mod spec;
pub mod stats;

pub use record::SampleRecord;
pub use spec::DatasetSpec;
