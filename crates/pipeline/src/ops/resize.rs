//! `Resize`: deterministic shorter-side resize preserving aspect ratio.

use crate::{OpKind, PipelineError, StageData, MAX_OP_SIZE};

/// The largest raster `Resize` may produce: the `MAX_OP_SIZE`² square whose
/// `f32` tensor still fits one wire frame. Keeping the aspect ratio, the
/// longer side is unbounded by `size`, so the area is what is checked.
const MAX_OUTPUT_PIXELS: u64 = MAX_OP_SIZE as u64 * MAX_OP_SIZE as u64;

/// The shorter side scaled to `size` and the longer one in proportion
/// (rounded, at least 1). In `u64`, so no side truncates.
fn output_dims(w: u32, h: u32, size: u32) -> (u64, u64) {
    let (w, h, size) = (u64::from(w), u64::from(h), u64::from(size));
    if w <= h {
        (size, ((h * size + w / 2) / w).max(1))
    } else {
        (((w * size + h / 2) / h).max(1), size)
    }
}

pub(super) fn apply(data: StageData, size: u32) -> Result<StageData, PipelineError> {
    let StageData::Image(img) = data else { unreachable!("kind checked by caller") };
    let (width, height) = output_dims(img.width(), img.height(), size);
    if width.saturating_mul(height) > MAX_OUTPUT_PIXELS {
        return Err(PipelineError::OutputTooLarge { op: OpKind::Resize { size }, width, height });
    }
    // Within the area bound, both sides are far inside `u32`.
    Ok(StageData::Image(img.resize_bilinear(width as u32, height as u32)))
}

#[cfg(test)]
mod tests {
    use super::output_dims;
    use crate::{AugmentRng, OpKind, PipelineError, StageData, MAX_OP_SIZE};
    use imagery::synth::SynthSpec;

    #[test]
    fn shorter_side_hits_target() {
        let img = SynthSpec::new(800, 600).complexity(0.2).render(1);
        let out = OpKind::Resize { size: 256 }
            .apply(StageData::Image(img), &mut AugmentRng::for_sample(0, 0, 0))
            .unwrap();
        let img = out.as_image().unwrap();
        assert_eq!(img.height(), 256);
        assert_eq!(img.width(), 341); // 800 * 256 / 600 rounded
    }

    #[test]
    fn portrait_orientation() {
        let img = SynthSpec::new(300, 900).complexity(0.2).render(1);
        let out = OpKind::Resize { size: 128 }
            .apply(StageData::Image(img), &mut AugmentRng::for_sample(0, 0, 0))
            .unwrap();
        let img = out.as_image().unwrap();
        assert_eq!(img.width(), 128);
        assert_eq!(img.height(), 384);
    }

    #[test]
    fn an_extreme_aspect_raster_past_the_frame_is_rejected_before_allocating() {
        // 2 x 300 at the largest valid size: 2364 x 354 600, about 2.5 GB.
        let img = SynthSpec::new(2, 300).complexity(0.2).render(1);
        let op = OpKind::Resize { size: MAX_OP_SIZE };
        let err = op
            .apply(StageData::Image(img.clone()), &mut AugmentRng::for_sample(0, 0, 0))
            .unwrap_err();
        assert_eq!(err, PipelineError::OutputTooLarge { op, width: 2_364, height: 354_600 });
        // The same image resized within the bound still runs.
        let out = OpKind::Resize { size: 8 }
            .apply(StageData::Image(img), &mut AugmentRng::for_sample(0, 0, 0))
            .unwrap();
        let img = out.as_image().unwrap();
        assert_eq!((img.width(), img.height()), (8, 1_200));
    }

    #[test]
    fn output_dims_do_not_truncate_past_u32() {
        // A longer side past `u32::MAX` is kept whole, not wrapped.
        let long = u64::from(u32::MAX) * 1_182;
        assert!(long > u64::from(u32::MAX));
        assert_eq!(output_dims(2, u32::MAX, 2_364), (2_364, long));
        assert_eq!(output_dims(u32::MAX, 2, 2_364), (long, 2_364));
        // Both orientations round the longer side to nearest.
        assert_eq!(output_dims(600, 800, 256), (256, 341));
        assert_eq!(output_dims(800, 600, 256), (341, 256));
        assert_eq!(output_dims(6_000, 1, 1), (6_000, 1));
    }
}
