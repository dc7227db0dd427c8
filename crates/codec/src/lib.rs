//! SJPG — a from-scratch lossy image codec with JPEG-like structure.
//!
//! The SOPHON paper's datasets are JPEG photographs; every offloading decision
//! is driven by the gap between a sample's *encoded* size and its size at
//! later preprocessing stages. To reproduce that faithfully without real
//! JPEGs, this crate implements a genuine transform codec:
//!
//! 1. RGB → YCbCr color transform ([`color`]) of each 8×8 block, built
//!    straight from the raster with edge replication
//! 2. Forward DCT-II per block ([`dct`])
//! 3. Quality-scaled quantization, heavier on chroma ([`quant`]), into
//!    zigzag order ([`zigzag`])
//! 4. DC prediction + zero-run-length + signed-varint entropy coding
//!    ([`entropy`])
//!
//! Encoded size is therefore *content-dependent*: smooth gradients collapse
//! to a few hundred bytes per megapixel while noisy images stay large —
//! exactly the variance SOPHON's per-sample profiling exploits.
//!
//! There is one encoding, full-resolution (4:4:4) chroma with that entropy
//! coder, in two containers: the classic stream ([`encode`], [`decode`])
//! and the tier-truncatable one ([`tiered`]). The header's flags byte is
//! reserved and must be 0; a stream that sets it is rejected with
//! [`CodecError::UnsupportedFlags`].
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
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod block;
pub mod color;
pub mod dct;
mod decoder;
mod encoder;
pub mod entropy;
mod error;
mod header;
pub mod quant;
pub mod tiered;
pub mod zigzag;

pub use decoder::{decode, decode_region};
pub use encoder::{encode, worst_case_len};
pub use error::CodecError;
pub use header::{Header, FORMAT_MAGIC, FORMAT_VERSION, FORMAT_VERSION_TIERED};
pub use quant::Quality;
pub use tiered::{
    decode_tiered, decode_tiered_region, encode_tiered, is_tiered, truncate_to_tier, DecodeError,
    TierBound, TierIndex, TierSpec, TieredImage, MAX_TIERS,
};

/// Side length of the transform blocks (8, as in JPEG).
pub const BLOCK: usize = 8;
/// Number of coefficients per block.
pub const BLOCK_AREA: usize = BLOCK * BLOCK;
