//! Raster images, float tensors, and synthetic image generation.
//!
//! This crate is the lowest substrate of the SOPHON reproduction. It provides:
//!
//! * [`RasterImage`] — an 8-bit interleaved RGB raster with the geometric
//!   operations the preprocessing pipeline needs (crop, bilinear resize,
//!   horizontal flip), and [`BilinearResizer`], the resize fed one source
//!   row at a time.
//! * [`Tensor`] — a CHW `f32` tensor, the output format of `ToTensor` /
//!   `Normalize`.
//! * [`synth`] — deterministic synthetic image generators with a tunable
//!   *complexity* knob. Complexity controls high-frequency content, which in
//!   turn controls how well the `codec` crate's DCT codec compresses the
//!   image; this is what makes per-sample encoded sizes realistically varied.
//!
//! # Example
//!
//! ```
//! use imagery::{synth::SynthSpec, RasterImage};
//!
//! let spec = SynthSpec::new(640, 480).complexity(0.5);
//! let img: RasterImage = spec.render(42);
//! assert_eq!((img.width(), img.height()), (640, 480));
//! let cropped = img.crop(imagery::Rect::new(10, 10, 224, 224)).unwrap();
//! let resized = cropped.resize_bilinear(224, 224);
//! assert_eq!(resized.raw_len(), 224 * 224 * 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod adjust;
mod color;
mod error;
mod geometry;
mod image;
mod resize;
pub mod rng;
mod round;
pub mod synth;
mod tensor;

pub use color::Rgb;
pub use error::ImageError;
pub use geometry::Rect;
pub use image::RasterImage;
pub use resize::BilinearResizer;
pub use round::round_f32_to_u8;
pub use tensor::{Tensor, IMAGENET_MEAN, IMAGENET_STD};

/// Number of color channels in every image and tensor in this workspace.
pub const CHANNELS: usize = 3;
