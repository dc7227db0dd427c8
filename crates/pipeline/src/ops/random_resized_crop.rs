//! `RandomResizedCrop`: random scale/aspect crop resized to a square.
//!
//! Faithful to `torchvision.transforms.RandomResizedCrop`: sample a target
//! area in `[0.08, 1.0]` of the source area and a log-uniform aspect ratio in
//! `[3/4, 4/3]`; retry up to ten times until the rectangle fits; otherwise
//! fall back to a central crop of the largest in-range aspect.

use imagery::{BilinearResizer, RasterImage, Rect};

use crate::{AugmentRng, PipelineError, StageData};

/// Scale range of the sampled crop area, relative to the source area.
pub(crate) const SCALE_RANGE: (f64, f64) = (0.08, 1.0);
/// Aspect-ratio range of the sampled crop (log-uniform).
pub(crate) const RATIO_RANGE: (f64, f64) = (3.0 / 4.0, 4.0 / 3.0);
/// Number of rejection-sampling attempts before the deterministic fallback.
pub(crate) const MAX_ATTEMPTS: u32 = 10;

/// The crop rectangle chosen for a sample (exposed for tests and traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CropParams {
    /// Region of the source image that was kept.
    pub(crate) rect: Rect,
}

/// Draws torchvision-style crop parameters for a `width × height` source.
pub(crate) fn sample_params(width: u32, height: u32, rng: &mut AugmentRng) -> CropParams {
    let area = f64::from(width) * f64::from(height);
    for _ in 0..MAX_ATTEMPTS {
        let target_area = area * rng.next_range_f64(SCALE_RANGE.0, SCALE_RANGE.1);
        let log_ratio = rng.next_range_f64(RATIO_RANGE.0.ln(), RATIO_RANGE.1.ln());
        let ratio = log_ratio.exp();
        let w = (target_area * ratio).sqrt().round() as u32;
        let h = (target_area / ratio).sqrt().round() as u32;
        if w > 0 && h > 0 && w <= width && h <= height {
            let x = rng.next_below(u64::from(width - w) + 1) as u32;
            let y = rng.next_below(u64::from(height - h) + 1) as u32;
            return CropParams { rect: Rect::new(x, y, w, h) };
        }
    }
    // Fallback: central crop with the aspect clamped into range.
    let in_ratio = f64::from(width) / f64::from(height);
    let (w, h) = if in_ratio < RATIO_RANGE.0 {
        let w = width;
        let h = ((f64::from(w) / RATIO_RANGE.0).round() as u32).min(height).max(1);
        (w, h)
    } else if in_ratio > RATIO_RANGE.1 {
        let h = height;
        let w = ((f64::from(h) * RATIO_RANGE.1).round() as u32).min(width).max(1);
        (w, h)
    } else {
        (width, height)
    };
    CropParams { rect: Rect::new((width - w) / 2, (height - h) / 2, w, h) }
}

pub(super) fn apply(
    data: StageData,
    size: u32,
    rng: &mut AugmentRng,
) -> Result<StageData, PipelineError> {
    let StageData::Image(img) = data else { unreachable!("kind checked by caller") };
    Ok(StageData::Image(crop_and_resize(&img, size, rng)?))
}

/// `Decode` and `RandomResizedCrop` as one step: draws the crop from the
/// stream's dimensions first, then decodes only that rectangle, streaming
/// its rows into the resize. The image equals [`crop_and_resize`] of the
/// full decode, bit for bit, when `rng` is the crop's own substream.
///
/// # Errors
///
/// The errors `Decode` reports for the same bytes.
pub(crate) fn decode_crop_and_resize(
    bytes: &[u8],
    size: u32,
    rng: &mut AugmentRng,
) -> Result<RasterImage, PipelineError> {
    let header = codec::Header::parse(bytes)?;
    decode_rect_resized(bytes, sample_params(header.width, header.height, rng).rect, size)
}

/// Decodes `rect` of `bytes` straight into a `size × size` bilinear resize:
/// each row of the crop goes from the decoder to the resizer as it is
/// reconstructed, so neither the crop nor a plane of it is ever built.
fn decode_rect_resized(bytes: &[u8], rect: Rect, size: u32) -> Result<RasterImage, PipelineError> {
    // An empty rectangle is the decoder's to reject, with a typed error.
    let mut resizer = BilinearResizer::new(rect.width.max(1), rect.height.max(1), size, size);
    codec::decode_region_rows(bytes, rect, |row| resizer.push_row(row))?;
    Ok(resizer.finish())
}

/// Crops with sampled parameters and resizes to `size × size`.
///
/// # Errors
///
/// Propagates crop geometry failures (impossible for parameters produced by
/// [`sample_params`], but kept fallible for defense in depth).
pub(crate) fn crop_and_resize(
    img: &RasterImage,
    size: u32,
    rng: &mut AugmentRng,
) -> Result<RasterImage, PipelineError> {
    let params = sample_params(img.width(), img.height(), rng);
    let cropped = img.crop(params.rect)?;
    Ok(cropped.resize_bilinear(size, size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;
    use imagery::synth::SynthSpec;
    use proptest::prelude::*;

    /// The unfused chain: the whole image decoded, cropped, then resized.
    fn unfused(bytes: &[u8], rect: Rect, size: u32) -> Result<RasterImage, PipelineError> {
        let decoded = OpKind::Decode
            .apply(StageData::Encoded(bytes.to_vec().into()), &mut rng(0))?
            .as_image()
            .expect("decode yields an image")
            .clone();
        Ok(decoded.crop(rect)?.resize_bilinear(size, size))
    }

    /// The geometries that exercise the resizer's paths, for a `w × h`
    /// image: `(rect, size)` pairs, with `pick` choosing positions and the
    /// free lengths.
    fn geometries(w: u32, h: u32, mut pick: impl FnMut(u32) -> u32) -> Vec<(Rect, u32)> {
        let mut out = vec![
            // 1 x 1 crops, into a 1 x 1 and a 224 x 224 output.
            (Rect::new(pick(w), pick(h), 1, 1), 1),
            (Rect::new(pick(w), pick(h), 1, 1), 224),
            // The full image, resized and copied (crop size equal to `size`).
            (Rect::full(w, h), 1 + pick(300)),
        ];
        if w == h {
            out.push((Rect::full(w, h), w));
        }
        let side = 1 + pick(w.min(h));
        out.push((Rect::new(pick(w - side + 1), pick(h - side + 1), side, side), side));
        let (rw, rh) = (1 + pick(w), 1 + pick(h));
        let rect = Rect::new(pick(w - rw + 1), pick(h - rh + 1), rw, rh);
        // Pure upscale, pure downscale (where the crop has room) and
        // whatever lies between.
        out.push((rect, rw.max(rh) + 1 + pick(64)));
        if rw.min(rh) > 1 {
            out.push((rect, 1 + pick(rw.min(rh) - 1)));
        }
        out.push((rect, 1 + pick(300)));
        out
    }

    fn check_fused_matches_unfused(w: u32, h: u32, complexity: f64, seed: u64) {
        let mut state = seed | 1;
        let pick = move |n: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % u64::from(n)) as u32
        };
        let img = SynthSpec::new(w, h).complexity(complexity).render(seed);
        let bytes = codec::encode(&img, codec::Quality::default());
        for (rect, size) in geometries(w, h, pick) {
            assert_eq!(
                decode_rect_resized(&bytes, rect, size),
                unfused(&bytes, rect, size),
                "{w}x{h}, {rect:?} -> {size}"
            );
        }
    }

    #[test]
    fn fused_equals_decode_crop_resize_at_edge_shapes() {
        for (w, h) in
            [(1, 1), (1, 300), (300, 1), (7, 9), (8, 8), (9, 7), (16, 17), (224, 224), (300, 300)]
        {
            check_fused_matches_unfused(w, h, 0.6, u64::from(w * 1000 + h));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fused step's pixels are the unfused chain's, bit for bit, for
        /// streams of any shape up to 300 x 300 (block-aligned or not) and
        /// every resize path.
        #[test]
        fn fused_equals_decode_crop_resize(
            w in 1u32..=300,
            h in 1u32..=300,
            complexity in 0f64..=1.0,
            seed in any::<u64>(),
        ) {
            check_fused_matches_unfused(w, h, complexity, seed);
        }
    }

    fn rng(id: u64) -> AugmentRng {
        AugmentRng::for_sample(3, id, 0)
    }

    #[test]
    fn output_is_exactly_size_squared() {
        let img = SynthSpec::new(613, 407).complexity(0.5).render(2);
        for id in 0..20 {
            let out = OpKind::RandomResizedCrop { size: 224 }
                .apply(StageData::Image(img.clone()), &mut rng(id))
                .unwrap();
            let out_img = out.as_image().unwrap();
            assert_eq!((out_img.width(), out_img.height()), (224, 224));
            assert_eq!(out.byte_len(), 150_528);
        }
    }

    #[test]
    fn params_always_fit_source() {
        for (w, h) in [(224u32, 224u32), (30, 500), (500, 30), (1, 1), (7, 9)] {
            for id in 0..50 {
                let p = sample_params(w, h, &mut rng(id));
                assert!(p.rect.fits_in(w, h), "{p:?} does not fit {w}x{h}");
            }
        }
    }

    #[test]
    fn extreme_aspect_falls_back_to_clamped_center() {
        // 1000x10 has ratio 100, far outside [3/4, 4/3]; most draws fail and
        // the fallback clamps to ratio 4/3.
        let p = sample_params(1000, 10, &mut rng(1));
        assert!(p.rect.fits_in(1000, 10));
        let r = p.rect.aspect_ratio();
        assert!(r <= RATIO_RANGE.1 + 0.35, "fallback ratio {r} not clamped");
    }

    #[test]
    fn deterministic_per_key() {
        let img = SynthSpec::new(300, 200).complexity(0.4).render(5);
        let a = crop_and_resize(&img, 224, &mut rng(7)).unwrap();
        let b = crop_and_resize(&img, 224, &mut rng(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_epochs_crop_differently() {
        let img = SynthSpec::new(300, 200).complexity(0.4).render(5);
        let a = crop_and_resize(&img, 224, &mut AugmentRng::for_sample(3, 1, 0)).unwrap();
        let b = crop_and_resize(&img, 224, &mut AugmentRng::for_sample(3, 1, 1)).unwrap();
        assert_ne!(a, b, "augmentation must vary across epochs");
    }

    #[test]
    fn scale_distribution_spans_range() {
        // Areas of accepted crops should span a wide range of the source.
        let (w, h) = (400u32, 400u32);
        let mut min_frac = 1.0f64;
        let mut max_frac = 0.0f64;
        for id in 0..200 {
            let p = sample_params(w, h, &mut rng(id));
            let frac = p.rect.area() as f64 / (f64::from(w) * f64::from(h));
            min_frac = min_frac.min(frac);
            max_frac = max_frac.max(frac);
        }
        assert!(min_frac < 0.25, "never drew a small crop: {min_frac}");
        assert!(max_frac > 0.6, "never drew a large crop: {max_frac}");
    }
}
