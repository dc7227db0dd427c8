//! Calibration of the SJPG codec's compression behaviour.
//!
//! Maps content complexity to bits-per-pixel so that sample records can
//! carry realistic encoded sizes without rendering pixels. The table below
//! was measured against the real codec (quality 85, ~1-megapixel images);
//! `tests/model_fidelity.rs` re-measures a subset and asserts the table stays
//! within tolerance.

/// Measured bits-per-pixel of the codec at quality 85 for complexities
/// `0.0, 0.1, …, 1.0` on large (≥ 0.5 Mpx) images.
pub(crate) const BPP_TABLE: [f64; 11] =
    [1.0, 2.25, 3.9, 5.03, 6.18, 7.4, 8.38, 9.25, 10.0, 10.82, 11.42];

/// Extra bits-per-pixel for small images, modeled as `k(c) / sqrt(pixels)`
/// with `k` interpolated between these endpoints at complexity 0 and 1.
const SMALL_IMAGE_K: (f64, f64) = (360.0, 160.0);

/// Predicted bits per pixel for an image of `pixels` total pixels at
/// `complexity` (clamped to `[0, 1]`).
///
/// ```
/// use datasets::model::bits_per_pixel;
/// let smooth = bits_per_pixel(0.0, 1_000_000.0);
/// let noisy = bits_per_pixel(1.0, 1_000_000.0);
/// assert!(noisy > smooth * 5.0);
/// ```
pub fn bits_per_pixel(complexity: f64, pixels: f64) -> f64 {
    let c = complexity.clamp(0.0, 1.0);
    let idx = c * 10.0;
    let lo = idx.floor() as usize;
    let hi = (lo + 1).min(10);
    let t = idx - lo as f64;
    let base = BPP_TABLE[lo] + (BPP_TABLE[hi] - BPP_TABLE[lo]) * t;
    let k = SMALL_IMAGE_K.0 + (SMALL_IMAGE_K.1 - SMALL_IMAGE_K.0) * c;
    base + k / pixels.max(64.0).sqrt()
}

/// Predicted encoded size in bytes for a `width × height` image at
/// `complexity`.
pub fn encoded_size(complexity: f64, width: u32, height: u32) -> u64 {
    let px = f64::from(width) * f64::from(height);
    (px * bits_per_pixel(complexity, px) / 8.0).round() as u64
}

/// Inverts the size model: the pixel count at which an image of
/// `complexity` encodes to approximately `target_bytes`.
///
/// Solved by fixed-point iteration (the small-image correction makes the
/// relation mildly nonlinear); converges in a handful of rounds.
pub(crate) fn pixels_for_encoded_size(complexity: f64, target_bytes: f64) -> f64 {
    let mut px = (target_bytes * 8.0 / bits_per_pixel(complexity, 1_000_000.0)).max(64.0);
    for _ in 0..12 {
        px = (target_bytes * 8.0 / bits_per_pixel(complexity, px)).max(64.0);
    }
    px
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bpp_monotone_in_complexity() {
        let mut last = 0.0;
        for i in 0..=20 {
            let c = f64::from(i) / 20.0;
            let v = bits_per_pixel(c, 500_000.0);
            assert!(v > last, "bpp not increasing at c={c}");
            last = v;
        }
    }

    #[test]
    fn bpp_decreases_with_size() {
        assert!(bits_per_pixel(0.3, 50_000.0) > bits_per_pixel(0.3, 2_000_000.0));
    }

    #[test]
    fn bpp_stays_below_raw() {
        // Even the noisiest content compresses below the 24 bpp raw raster.
        assert!(bits_per_pixel(1.0, 10_000.0) < 24.0);
    }

    #[test]
    fn inversion_roundtrips() {
        for &c in &[0.1, 0.45, 0.9] {
            for &bytes in &[50_000.0, 150_528.0, 500_000.0] {
                let px = pixels_for_encoded_size(c, bytes);
                let back = px * bits_per_pixel(c, px) / 8.0;
                assert!(
                    (back - bytes).abs() / bytes < 0.01,
                    "c={c} bytes={bytes}: px={px} -> {back}"
                );
            }
        }
    }

    #[test]
    fn complexity_clamped() {
        assert_eq!(bits_per_pixel(-1.0, 1e6), bits_per_pixel(0.0, 1e6));
        assert_eq!(bits_per_pixel(2.0, 1e6), bits_per_pixel(1.0, 1e6));
    }

    #[test]
    fn encoded_size_examples() {
        // The paper's Sample A: a 462 KB JPEG. A ~1.2 Mpx image at low
        // complexity lands in that regime.
        let s = encoded_size(0.15, 1280, 960);
        assert!((300_000..700_000).contains(&s), "size = {s}");
    }
}
