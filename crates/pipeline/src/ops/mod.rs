//! The preprocessing operations.
//!
//! Each operation is a pure function from [`StageData`] to [`StageData`]
//! driven by an explicit random stream, so the same operation applied on the
//! storage node and on the compute node produces bit-identical results.

mod center_crop;
mod color_jitter;
mod decode;
mod grayscale;
mod normalize;
mod random_horizontal_flip;
mod random_resized_crop;
mod resize;
mod to_tensor;

pub(crate) use random_resized_crop::decode_crop_and_resize;

use crate::{AugmentRng, DataKind, PipelineError, StageData};

/// A preprocessing operation, with its parameters.
///
/// The standard training pipeline is
/// `[Decode, RandomResizedCrop{224}, RandomHorizontalFlip, ToTensor,
/// Normalize]`; the evaluation pipeline replaces the two random ops with
/// `Resize{256}` + `CenterCrop{224}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Encoded bytes → raster image.
    Decode,
    /// Random scale/aspect crop resized to `size`×`size` (torchvision
    /// semantics: area scale in `[0.08, 1.0]`, aspect in `[3/4, 4/3]`,
    /// 10 attempts then center-crop fallback).
    RandomResizedCrop {
        /// Output side length in pixels.
        size: u32,
    },
    /// Mirrors the image horizontally with probability 1/2.
    RandomHorizontalFlip,
    /// Raster → `f32` tensor scaled to `[0, 1]` (4× byte size).
    ToTensor,
    /// Per-channel `(v - mean) / std` with the ImageNet constants.
    Normalize,
    /// Deterministic resize of the *shorter* side to `size` (aspect kept).
    Resize {
        /// Target shorter-side length in pixels.
        size: u32,
    },
    /// Deterministic central crop to `size`×`size` (padding never needed for
    /// the standard 256→224 combination).
    CenterCrop {
        /// Output side length in pixels.
        size: u32,
    },
    /// Random brightness/contrast/saturation jitter; strengths in percent
    /// (torchvision `ColorJitter` with `s/100` ranges).
    ColorJitter {
        /// Brightness strength in percent.
        brightness_pct: u8,
        /// Contrast strength in percent.
        contrast_pct: u8,
        /// Saturation strength in percent.
        saturation_pct: u8,
    },
    /// Deterministic three-channel grayscale conversion.
    Grayscale,
}

impl OpKind {
    /// The data kind this operation consumes.
    pub fn input_kind(self) -> DataKind {
        match self {
            OpKind::Decode => DataKind::Encoded,
            OpKind::RandomResizedCrop { .. }
            | OpKind::RandomHorizontalFlip
            | OpKind::ToTensor
            | OpKind::Resize { .. }
            | OpKind::CenterCrop { .. }
            | OpKind::ColorJitter { .. }
            | OpKind::Grayscale => DataKind::Image,
            OpKind::Normalize => DataKind::Tensor,
        }
    }

    /// The data kind this operation produces.
    pub fn output_kind(self) -> DataKind {
        match self {
            OpKind::Decode
            | OpKind::RandomResizedCrop { .. }
            | OpKind::RandomHorizontalFlip
            | OpKind::Resize { .. }
            | OpKind::CenterCrop { .. }
            | OpKind::ColorJitter { .. }
            | OpKind::Grayscale => DataKind::Image,
            OpKind::ToTensor | OpKind::Normalize => DataKind::Tensor,
        }
    }

    /// The output side length a sized operation carries, `None` for the
    /// others.
    pub(crate) fn size(self) -> Option<u32> {
        match self {
            OpKind::RandomResizedCrop { size }
            | OpKind::Resize { size }
            | OpKind::CenterCrop { size } => Some(size),
            _ => None,
        }
    }

    /// Whether this operation draws from the augmentation stream.
    ///
    /// Deterministic ops still *receive* a stream (each op gets its own
    /// substream, so unused draws never shift later ops).
    pub(crate) fn is_random(self) -> bool {
        matches!(
            self,
            OpKind::RandomResizedCrop { .. }
                | OpKind::RandomHorizontalFlip
                | OpKind::ColorJitter { .. }
        )
    }

    /// Short lowercase name used in reports and traces.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Decode => "decode",
            OpKind::RandomResizedCrop { .. } => "random_resized_crop",
            OpKind::RandomHorizontalFlip => "random_horizontal_flip",
            OpKind::ToTensor => "to_tensor",
            OpKind::Normalize => "normalize",
            OpKind::Resize { .. } => "resize",
            OpKind::CenterCrop { .. } => "center_crop",
            OpKind::ColorJitter { .. } => "color_jitter",
            OpKind::Grayscale => "grayscale",
        }
    }

    /// Applies the operation.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::KindMismatch`] when `data` is of the wrong
    /// kind, and propagates decode or geometry failures.
    pub fn apply(self, data: StageData, rng: &mut AugmentRng) -> Result<StageData, PipelineError> {
        let got = data.kind();
        let expected = self.input_kind();
        if got != expected {
            return Err(PipelineError::KindMismatch { op: self, expected, got });
        }
        match self {
            OpKind::Decode => decode::apply(data),
            OpKind::RandomResizedCrop { size } => random_resized_crop::apply(data, size, rng),
            OpKind::RandomHorizontalFlip => random_horizontal_flip::apply(data, rng),
            OpKind::ToTensor => to_tensor::apply(data),
            OpKind::Normalize => normalize::apply(data),
            OpKind::Resize { size } => resize::apply(data, size),
            OpKind::CenterCrop { size } => center_crop::apply(data, size),
            OpKind::ColorJitter { brightness_pct, contrast_pct, saturation_pct } => {
                color_jitter::apply(data, brightness_pct, contrast_pct, saturation_pct, rng)
            }
            OpKind::Grayscale => grayscale::apply(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AugmentRng;
    use imagery::{RasterImage, Rgb};

    fn rng() -> AugmentRng {
        AugmentRng::for_sample(0, 0, 0)
    }

    #[test]
    fn kind_mismatch_is_reported() {
        let img = RasterImage::filled(8, 8, Rgb::BLACK);
        let err = OpKind::Decode.apply(StageData::Image(img), &mut rng()).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::KindMismatch {
                op: OpKind::Decode,
                expected: DataKind::Encoded,
                got: DataKind::Image
            }
        ));
    }

    #[test]
    fn io_kinds_are_consistent() {
        // Chaining output kind -> input kind must hold for the standard order.
        let chain = [
            OpKind::Decode,
            OpKind::RandomResizedCrop { size: 224 },
            OpKind::RandomHorizontalFlip,
            OpKind::ToTensor,
            OpKind::Normalize,
        ];
        let mut kind = DataKind::Encoded;
        for op in chain {
            assert_eq!(op.input_kind(), kind, "op {op:?}");
            kind = op.output_kind();
        }
        assert_eq!(kind, DataKind::Tensor);
    }

    #[test]
    fn names_are_unique() {
        let ops = [
            OpKind::Decode,
            OpKind::RandomResizedCrop { size: 224 },
            OpKind::RandomHorizontalFlip,
            OpKind::ToTensor,
            OpKind::Normalize,
            OpKind::Resize { size: 256 },
            OpKind::CenterCrop { size: 224 },
            OpKind::ColorJitter { brightness_pct: 40, contrast_pct: 40, saturation_pct: 40 },
            OpKind::Grayscale,
        ];
        let mut names: Vec<_> = ops.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ops.len());
    }

    #[test]
    fn randomness_flags() {
        assert!(OpKind::RandomResizedCrop { size: 224 }.is_random());
        assert!(OpKind::RandomHorizontalFlip.is_random());
        assert!(!OpKind::Decode.is_random());
        assert!(!OpKind::ToTensor.is_random());
        assert!(!OpKind::Normalize.is_random());
        assert!(!OpKind::Resize { size: 256 }.is_random());
    }
}
