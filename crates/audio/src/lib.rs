//! Audio-domain substrate for SOPHON.
//!
//! The paper's future work plans to "study a wider variety of DL training
//! workloads across various domains". This crate demonstrates that SOPHON's
//! decision machinery is *domain-agnostic*: everything the engine consumes
//! is a [`pipeline::SampleProfile`] — per-stage byte sizes and CPU costs —
//! so a completely different preprocessing pipeline plugs in untouched.
//!
//! The audio pipeline mirrors a speech/audio-classification loader:
//!
//! 1. **Decode** — Rice-coded lossless bytes → 16-bit PCM ([`codec`], a
//!    FLAC-style fixed-predictor + Rice-residual coder whose output size is
//!    genuinely content-dependent: tonal clips compress far better than
//!    noisy ones);
//! 2. **Resample** — to the model's rate (linear interpolation);
//! 3. **RandomCrop** — a random fixed-length window (epoch-varying, keyed
//!    like the image pipeline's augmentations);
//! 4. **MelSpectrogram** — radix-2 FFT (`fft`) → mel filterbank
//!    ([`mel`]) → log power, the classic feature front-end;
//! 5. **Normalize** — per-clip standardization.
//!
//! The size profile differs from images in an instructive way: the mel
//! spectrogram is *smaller* than the PCM it came from, so for most clips
//! the minimum lies at the **end** of the pipeline — SOPHON offloads the
//! whole front-end to storage — while strongly tonal clips are smallest in
//! their compressed form and stay un-offloaded. Same engine, opposite
//! split structure.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod codec;
pub mod corpus;
mod data;
mod fft;
pub mod mel;
mod ops;
mod profile;
mod waveform;

pub use corpus::AudioDatasetSpec;
pub use data::AudioData;
pub use ops::{AudioOp, AudioPipeline, AudioPipelineError};
pub use profile::profile_clip;
pub use waveform::{SynthAudioSpec, Waveform, WaveformError};
