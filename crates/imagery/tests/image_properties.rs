//! Property tests for the imagery primitives.

use imagery::synth::{Pattern, SynthSpec};
use imagery::{RasterImage, Rect, Tensor};
use proptest::prelude::*;

fn arb_image() -> impl Strategy<Value = RasterImage> {
    (1u32..120, 1u32..120, 0f64..=1.0, any::<u64>(), 0u8..4).prop_map(|(w, h, c, seed, pat)| {
        let pattern = match pat {
            0 => Pattern::Gradient,
            1 => Pattern::Stripes,
            2 => Pattern::Checker,
            _ => Pattern::Radial,
        };
        SynthSpec::new(w, h).complexity(c).pattern(pattern).render(seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flip is an involution for arbitrary content.
    #[test]
    fn flip_involution(img in arb_image()) {
        prop_assert_eq!(img.flip_horizontal().flip_horizontal(), img);
    }

    /// Cropping then the raw length always matches the rectangle.
    #[test]
    fn crop_size_exact(img in arb_image()) {
        let w = img.width();
        let h = img.height();
        let rect = Rect::new(0, 0, w.div_ceil(2), h.div_ceil(2));
        let cropped = img.crop(rect).unwrap();
        prop_assert_eq!(cropped.raw_len() as u64, rect.area() * 3);
    }

    /// Resizing to any target yields exactly the target's raw length, and a
    /// second resize back keeps values within the valid byte range (trivially
    /// true, but exercises the interpolator across shapes).
    #[test]
    fn resize_dimensions_exact(img in arb_image(), tw in 1u32..96, th in 1u32..96) {
        let out = img.resize_bilinear(tw, th);
        prop_assert_eq!((out.width(), out.height()), (tw, th));
        prop_assert_eq!(out.raw_len(), tw as usize * th as usize * 3);
    }

    /// Tensor serialization roundtrips bit-exactly.
    #[test]
    fn tensor_bytes_roundtrip(img in arb_image()) {
        let t = Tensor::from_image(&img);
        let back = Tensor::from_le_bytes(t.width(), t.height(), &t.to_le_bytes()).unwrap();
        prop_assert_eq!(back, t);
    }

    /// Photometric adjustments preserve dimensions and the identity factor
    /// is (near-)lossless.
    #[test]
    fn adjustments_well_behaved(img in arb_image(), factor in 0.0f32..2.0) {
        for out in [
            img.adjust_brightness(factor),
            img.adjust_saturation(factor),
            img.adjust_contrast(factor),
            img.to_grayscale(),
        ] {
            prop_assert_eq!((out.width(), out.height()), (img.width(), img.height()));
        }
        let identity = img.adjust_brightness(1.0);
        prop_assert_eq!(identity, img.clone());
    }

    /// Grayscale is idempotent (up to rounding of the already-gray values).
    #[test]
    fn grayscale_idempotent(img in arb_image()) {
        let once = img.to_grayscale();
        let twice = once.to_grayscale();
        for (a, b) in once.as_raw().iter().zip(twice.as_raw().iter()) {
            prop_assert!(a.abs_diff(*b) <= 1);
        }
    }
}
