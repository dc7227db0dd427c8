//! RGB ↔ YCbCr color transform (BT.601 full range, as in baseline JPEG).
//!
//! Separating luma from chroma lets the quantizer discard chroma detail more
//! aggressively, which is where much of a transform codec's compression comes
//! from on natural-looking images.

use imagery::round_f32_to_u8;

/// Converts one RGB pixel to YCbCr. All planes are centered in `[0, 255]`.
pub(crate) fn rgb_to_ycbcr(r: u8, g: u8, b: u8) -> [f32; 3] {
    let (r, g, b) = (f32::from(r), f32::from(g), f32::from(b));
    let y = 0.299 * r + 0.587 * g + 0.114 * b;
    let cb = 128.0 - 0.168_736 * r - 0.331_264 * g + 0.5 * b;
    let cr = 128.0 + 0.5 * r - 0.418_688 * g - 0.081_312 * b;
    [y, cb, cr]
}

/// Converts a row of YCbCr samples back to interleaved RGB, rounding half
/// away from zero and clamping to `[0, 255]` ([`round_f32_to_u8`]).
///
/// # Panics
///
/// Panics when the three planes differ in length or `rgb` is not three
/// bytes per sample.
pub(crate) fn ycbcr_row_to_rgb(y: &[f32], cb: &[f32], cr: &[f32], rgb: &mut [u8]) {
    assert!(y.len() == cb.len() && y.len() == cr.len() && rgb.len() == y.len() * 3);
    for (((px, &y), &cb), &cr) in rgb.chunks_exact_mut(3).zip(y).zip(cb).zip(cr) {
        let cb = cb - 128.0;
        let cr = cr - 128.0;
        px[0] = round_f32_to_u8(y + 1.402 * cr);
        px[1] = round_f32_to_u8(y - 0.344_136 * cb - 0.714_136 * cr);
        px[2] = round_f32_to_u8(y + 1.772 * cb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-pixel conversion the row kernel is checked against.
    fn ycbcr_to_rgb(y: f32, cb: f32, cr: f32) -> [u8; 3] {
        let cb = cb - 128.0;
        let cr = cr - 128.0;
        let r = y + 1.402 * cr;
        let g = y - 0.344_136 * cb - 0.714_136 * cr;
        let b = y + 1.772 * cb;
        [r, g, b].map(|v| v.round().clamp(0.0, 255.0) as u8)
    }

    #[test]
    fn black_and_white_map_to_luma_extremes() {
        let [y, cb, cr] = rgb_to_ycbcr(0, 0, 0);
        assert!(y.abs() < 1e-3);
        assert!((cb - 128.0).abs() < 1e-3);
        assert!((cr - 128.0).abs() < 1e-3);
        let [y, _, _] = rgb_to_ycbcr(255, 255, 255);
        assert!((y - 255.0).abs() < 1e-3);
    }

    #[test]
    fn roundtrip_is_near_lossless() {
        for &(r, g, b) in
            &[(12u8, 200u8, 90u8), (255, 0, 0), (0, 255, 0), (0, 0, 255), (73, 73, 73)]
        {
            let [y, cb, cr] = rgb_to_ycbcr(r, g, b);
            let [r2, g2, b2] = ycbcr_to_rgb(y, cb, cr);
            assert!(i16::from(r).abs_diff(i16::from(r2)) <= 1, "r {r} -> {r2}");
            assert!(i16::from(g).abs_diff(i16::from(g2)) <= 1, "g {g} -> {g2}");
            assert!(i16::from(b).abs_diff(i16::from(b2)) <= 1, "b {b} -> {b2}");
        }
    }

    #[test]
    fn gray_has_neutral_chroma() {
        for v in [0u8, 64, 128, 200, 255] {
            let [_, cb, cr] = rgb_to_ycbcr(v, v, v);
            assert!((cb - 128.0).abs() < 0.5);
            assert!((cr - 128.0).abs() < 0.5);
        }
    }

    #[test]
    fn row_conversion_matches_per_pixel_at_every_width() {
        // Widths 1..=40 cover every remainder of the vector loop; values run
        // past both ends of the byte range.
        for width in 1..=40usize {
            let sample = |i: usize, k: usize| ((i * 37 + k * 101 + width * 7) % 330) as f32 - 40.25;
            let y: Vec<f32> = (0..width).map(|i| sample(i, 1)).collect();
            let cb: Vec<f32> = (0..width).map(|i| sample(i, 2)).collect();
            let cr: Vec<f32> = (0..width).map(|i| sample(i, 3)).collect();
            let mut rgb = vec![0u8; width * 3];
            ycbcr_row_to_rgb(&y, &cb, &cr, &mut rgb);
            for i in 0..width {
                assert_eq!(
                    rgb[i * 3..i * 3 + 3],
                    ycbcr_to_rgb(y[i], cb[i], cr[i]),
                    "width {width} pixel {i}"
                );
            }
        }
    }
}
