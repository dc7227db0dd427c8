//! RGB ↔ YCbCr color transform (BT.601 full range, as in baseline JPEG).
//!
//! Separating luma from chroma lets the quantizer discard chroma detail more
//! aggressively, which is where much of a transform codec's compression comes
//! from on natural-looking images.

/// Converts one RGB pixel to YCbCr. All planes are centered in `[0, 255]`.
pub fn rgb_to_ycbcr(r: u8, g: u8, b: u8) -> [f32; 3] {
    let (r, g, b) = (f32::from(r), f32::from(g), f32::from(b));
    let y = 0.299 * r + 0.587 * g + 0.114 * b;
    let cb = 128.0 - 0.168_736 * r - 0.331_264 * g + 0.5 * b;
    let cr = 128.0 + 0.5 * r - 0.418_688 * g - 0.081_312 * b;
    [y, cb, cr]
}

/// Converts a row of YCbCr samples back to interleaved RGB, rounding half
/// away from zero and clamping to `[0, 255]`.
///
/// # Panics
///
/// Panics when the three planes differ in length or `rgb` is not three
/// bytes per sample.
pub fn ycbcr_row_to_rgb(y: &[f32], cb: &[f32], cr: &[f32], rgb: &mut [u8]) {
    assert!(y.len() == cb.len() && y.len() == cr.len() && rgb.len() == y.len() * 3);
    for (((px, &y), &cb), &cr) in rgb.chunks_exact_mut(3).zip(y).zip(cb).zip(cr) {
        let cb = cb - 128.0;
        let cr = cr - 128.0;
        px[0] = round_to_u8(y + 1.402 * cr);
        px[1] = round_to_u8(y - 0.344_136 * cb - 0.714_136 * cr);
        px[2] = round_to_u8(y + 1.772 * cb);
    }
}

/// `v.round().clamp(0.0, 255.0) as u8` without the call into libm that
/// `f32::round` is on targets without SSE4.1, and without a float-to-int
/// cast (which saturates, and so compiles to per-lane scalar code): all of
/// it vectorizes.
///
/// With `v` clamped to `[0, 256]` (NaN to 0, as the cast does), adding
/// `2^23` rounds it to the nearest integer, ties to even, and leaves that
/// integer in the low mantissa bits; subtracting `2^23` back is exact, and
/// so is the remainder `v - nearest`. Rounding half away from zero differs
/// from ties-to-even only where the tie went down, which is where the
/// remainder is exactly a half. `floor(v + 0.5)` would not do: the sum
/// rounds up to 1.0 at `0.5 - 1 ulp`.
#[inline]
fn round_to_u8(v: f32) -> u8 {
    const TWO_23: f32 = 8_388_608.0;
    let v = if v > 0.0 { v } else { 0.0 };
    let v = if v < 256.0 { v } else { 256.0 };
    let shifted = v + TWO_23;
    let nearest = shifted.to_bits() - TWO_23.to_bits();
    let tie_went_down = v - (shifted - TWO_23) == 0.5;
    (nearest + u32::from(tie_went_down)).min(255) as u8
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
    fn rounding_matches_f32_round_around_every_tie() {
        let reference = |v: f32| v.round().clamp(0.0, 255.0) as u8;
        let mut probes =
            vec![0.0f32, -0.0, f32::MAX, f32::MIN, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for k in -2i16..=257 {
            for tie in [f32::from(k) - 0.5, f32::from(k) + 0.5, f32::from(k)] {
                // The tie and its three neighbours on either side.
                probes.push(tie);
                let (mut below, mut above) = (tie, tie);
                for _ in 0..3 {
                    below = next_toward(below, f32::NEG_INFINITY);
                    above = next_toward(above, f32::INFINITY);
                    probes.extend([below, above]);
                }
            }
        }
        for v in probes {
            assert_eq!(round_to_u8(v), reference(v), "v = {v:e} ({:#x})", v.to_bits());
        }
    }

    /// The neighbouring `f32` of a finite `v` in the direction of `toward`.
    fn next_toward(v: f32, toward: f32) -> f32 {
        if v == 0.0 {
            return f32::from_bits(1).copysign(toward);
        }
        let away_from_zero = (toward > v) == (v > 0.0);
        f32::from_bits(if away_from_zero { v.to_bits() + 1 } else { v.to_bits() - 1 })
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
