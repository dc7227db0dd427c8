//! Image quality metrics: MSE and PSNR.

use crate::RasterImage;

/// Mean squared error between two images of identical dimensions.
///
/// # Panics
///
/// Panics when the dimensions differ.
pub fn mse(a: &RasterImage, b: &RasterImage) -> f64 {
    assert_eq!((a.width(), a.height()), (b.width(), b.height()), "mse requires equal dimensions");
    let sum: u64 = a
        .as_raw()
        .iter()
        .zip(b.as_raw().iter())
        .map(|(&x, &y)| {
            let d = i64::from(x) - i64::from(y);
            (d * d) as u64
        })
        .sum();
    sum as f64 / a.raw_len() as f64
}

/// Peak signal-to-noise ratio in decibels; `f64::INFINITY` for identical
/// images.
///
/// # Panics
///
/// Panics when the dimensions differ.
pub fn psnr(a: &RasterImage, b: &RasterImage) -> f64 {
    let e = mse(a, b);
    if e == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / e).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthSpec;
    use crate::Rgb;

    #[test]
    fn identical_images_have_infinite_psnr() {
        let img = SynthSpec::new(32, 32).complexity(0.5).render(1);
        assert_eq!(mse(&img, &img), 0.0);
        assert_eq!(psnr(&img, &img), f64::INFINITY);
    }

    #[test]
    fn known_mse() {
        let a = RasterImage::filled(4, 4, Rgb::gray(100));
        let b = RasterImage::filled(4, 4, Rgb::gray(110));
        assert_eq!(mse(&a, &b), 100.0);
        let p = psnr(&a, &b);
        assert!((p - 28.13).abs() < 0.01, "psnr {p}");
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn dimension_mismatch_panics() {
        let a = RasterImage::filled(4, 4, Rgb::BLACK);
        let b = RasterImage::filled(4, 5, Rgb::BLACK);
        let _ = mse(&a, &b);
    }

    #[test]
    fn psnr_orders_quality() {
        // Higher codec quality must yield higher PSNR.
        let img = SynthSpec::new(64, 64).complexity(0.5).render(3);
        let lo = codec_roundtrip(&img, 30);
        let hi = codec_roundtrip(&img, 95);
        assert!(psnr(&img, &hi) > psnr(&img, &lo));
    }

    // Local helper to avoid a dev-dependency cycle: inline re-encode via the
    // public codec API is not available here (imagery is below codec), so we
    // emulate lossy reconstruction with quantization noise.
    fn codec_roundtrip(img: &RasterImage, quality: u8) -> RasterImage {
        // Coarser quantization for lower quality.
        let step = (105 - i32::from(quality)).max(1) as f32 / 10.0;
        let data = img
            .as_raw()
            .iter()
            .map(|&v| ((f32::from(v) / step).round() * step).clamp(0.0, 255.0) as u8)
            .collect();
        RasterImage::from_raw(img.width(), img.height(), data).expect("same dims")
    }
}
