//! SJPG — a from-scratch lossy image codec with JPEG-like structure.
//!
//! The SOPHON paper's datasets are JPEG photographs; every offloading decision
//! is driven by the gap between a sample's *encoded* size and its size at
//! later preprocessing stages. To reproduce that faithfully without real
//! JPEGs, this crate implements a genuine transform codec:
//!
//! 1. RGB → YCbCr color transform ([`color`]) of each 8×8 block, built
//!    straight from the raster with edge replication
//! 2. Forward DCT-II per block (`dct`)
//! 3. Quality-scaled quantization, heavier on chroma (`quant`), into
//!    zigzag order ([`zigzag`])
//! 4. DC prediction + zero-run-length + signed-varint entropy coding
//!    (`entropy`)
//!
//! Encoded size is therefore *content-dependent*: smooth gradients collapse
//! to a few hundred bytes per megapixel while noisy images stay large —
//! exactly the variance SOPHON's per-sample profiling exploits.
//!
//! There is one encoding, full-resolution (4:4:4) chroma with that entropy
//! coder, in one container, the classic stream ([`encode`], [`decode`]).
//! The header's flags byte is reserved and must be 0; a stream that sets it
//! is rejected with [`CodecError::UnsupportedFlags`], and a version byte
//! other than 2 with [`CodecError::UnsupportedVersion`].
//!
//! # Example
//!
//! ```
//! use imagery::synth::SynthSpec;
//! use codec::{encode, decode, Quality};
//!
//! let img = SynthSpec::new(160, 120).complexity(0.3).render(1);
//! let bytes = encode(&img, Quality::default());
//! let back = decode(&bytes)?;
//! assert_eq!((back.width(), back.height()), (160, 120));
//! # Ok::<(), codec::CodecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

#[cfg(test)]
mod block;
pub mod color;
mod dct;
mod decoder;
mod encoder;
mod entropy;
mod error;
mod header;
mod quant;
pub mod zigzag;

pub use decoder::{decode, decode_region, decode_region_rows};
pub use encoder::encode;
pub use error::CodecError;
pub use header::Header;
pub use quant::Quality;

/// Side length of the transform blocks (8, as in JPEG).
const BLOCK: usize = 8;
/// Number of coefficients per block.
pub const BLOCK_AREA: usize = BLOCK * BLOCK;
