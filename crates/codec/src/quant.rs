//! Quality-scaled quantization matrices.
//!
//! The base tables are the Annex-K luminance/chrominance matrices from the
//! JPEG standard; [`Quality`] scales them with the libjpeg convention
//! (quality 50 = base tables, higher quality → finer steps).

use crate::zigzag::ZIGZAG;
use crate::BLOCK_AREA;

/// JPEG Annex K luminance quantization table (row-major).
pub(crate) const BASE_LUMA: [u16; BLOCK_AREA] = [
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55, 14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62, 18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113,
    92, 49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
];

/// JPEG Annex K chrominance quantization table (row-major).
pub(crate) const BASE_CHROMA: [u16; BLOCK_AREA] = [
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99, 24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
];

/// Encoding quality in `1..=100` (libjpeg semantics; default 85).
///
/// ```
/// use codec::Quality;
/// assert!(Quality::new(101).is_none());
/// assert_eq!(Quality::new(85), Some(Quality::default()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Quality(u8);

impl Quality {
    /// Creates a quality setting; returns `None` outside `1..=100`.
    pub fn new(q: u8) -> Option<Quality> {
        (1..=100).contains(&q).then_some(Quality(q))
    }

    /// The numeric quality value.
    pub(crate) fn value(self) -> u8 {
        self.0
    }

    /// The libjpeg scale factor applied to the base tables, in percent.
    fn scale_percent(self) -> u32 {
        let q = u32::from(self.0);
        if q < 50 {
            5000 / q
        } else {
            200 - 2 * q
        }
    }

    /// Builds the scaled luminance quantization table.
    pub(crate) fn luma_table(self) -> [u16; BLOCK_AREA] {
        scale_table(&BASE_LUMA, self.scale_percent())
    }

    /// Builds the scaled chrominance quantization table.
    pub(crate) fn chroma_table(self) -> [u16; BLOCK_AREA] {
        scale_table(&BASE_CHROMA, self.scale_percent())
    }
}

impl Default for Quality {
    fn default() -> Self {
        Quality(85)
    }
}

fn scale_table(base: &[u16; BLOCK_AREA], percent: u32) -> [u16; BLOCK_AREA] {
    let mut out = [1u16; BLOCK_AREA];
    for (o, &b) in out.iter_mut().zip(base.iter()) {
        let v = (u32::from(b) * percent + 50) / 100;
        *o = v.clamp(1, 255) as u16;
    }
    out
}

/// Quantizes one row-major coefficient block straight into zigzag order:
/// `zz[i]` is `(coeffs[at] / steps[at]).round() as i16` for
/// `at = ZIGZAG[i]`, bit for bit, where `steps` is the table as `f32`.
pub(crate) fn quantize_zigzag(
    coeffs: &[f32; BLOCK_AREA],
    steps: &[f32; BLOCK_AREA],
) -> [i16; BLOCK_AREA] {
    let mut q = [0i16; BLOCK_AREA];
    for ((q, &c), &step) in q.iter_mut().zip(coeffs).zip(steps) {
        *q = round_to_i16(c / step);
    }
    ZIGZAG.map(|at| q[at])
}

/// `v.round() as i16` (half away from zero, saturating, NaN to 0) without
/// the call into libm that `f32::round` is on targets without SSE4.1.
///
/// The magnitude is rounded as `imagery::round_f32_to_u8` rounds a byte:
/// clamped to `[0, 32 768]` (NaN to 0), `|v| + 2^23` is the nearest integer
/// with ties to even in the low mantissa bits, the remainder is exact, and
/// one is added where it is exactly a half. The sign goes back on after, so
/// ties go away from zero on both sides.
#[inline]
fn round_to_i16(v: f32) -> i16 {
    const TWO_23: f32 = 8_388_608.0;
    let a = v.abs();
    let a = if a > 0.0 { a } else { 0.0 };
    let a = if a < 32_768.0 { a } else { 32_768.0 };
    let shifted = a + TWO_23;
    let nearest = (shifted.to_bits() - TWO_23.to_bits()) as i32;
    let magnitude = nearest + i32::from(a - (shifted - TWO_23) == 0.5);
    let signed = if v < 0.0 { -magnitude } else { magnitude };
    signed.min(i32::from(i16::MAX)) as i16
}

/// Quantizes one row-major block (`c / q`, rounded to nearest): the
/// textbook form [`quantize_zigzag`] is checked against.
#[cfg(test)]
pub(crate) fn quantize(coeffs: &[f32; BLOCK_AREA], table: &[u16; BLOCK_AREA]) -> [i16; BLOCK_AREA] {
    let mut out = [0i16; BLOCK_AREA];
    for i in 0..BLOCK_AREA {
        out[i] = (coeffs[i] / f32::from(table[i])).round() as i16;
    }
    out
}

/// Dequantizes one row-major block (`c * q`): the reference the folded
/// [`crate::dct::inverse_quantized`] is checked against.
#[cfg(test)]
pub(crate) fn dequantize(
    quantized: &[i16; BLOCK_AREA],
    table: &[u16; BLOCK_AREA],
) -> [f32; BLOCK_AREA] {
    let mut out = [0f32; BLOCK_AREA];
    for i in 0..BLOCK_AREA {
        out[i] = f32::from(quantized[i]) * f32::from(table[i]);
    }
    out
}

/// The quantization steps of `table` as `f32`, in zigzag order: what
/// [`crate::dct::inverse_quantized`] multiplies a stored block by.
pub(crate) fn dequant_steps(table: &[u16; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
    ZIGZAG.map(|at| f32::from(table[at]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_bounds() {
        assert!(Quality::new(0).is_none());
        assert!(Quality::new(101).is_none());
        assert!(Quality::new(1).is_some());
        assert!(Quality::new(100).is_some());
    }

    #[test]
    fn quality_50_is_base_table() {
        let q = Quality::new(50).unwrap();
        assert_eq!(q.luma_table(), BASE_LUMA);
        assert_eq!(q.chroma_table(), BASE_CHROMA);
    }

    #[test]
    fn higher_quality_means_finer_steps() {
        let lo = Quality::new(30).unwrap().luma_table();
        let hi = Quality::new(90).unwrap().luma_table();
        for i in 0..BLOCK_AREA {
            assert!(hi[i] <= lo[i], "index {i}: {} > {}", hi[i], lo[i]);
        }
    }

    #[test]
    fn tables_never_zero() {
        for q in [1u8, 25, 50, 75, 100] {
            let t = Quality::new(q).unwrap().luma_table();
            assert!(t.iter().all(|&v| v >= 1));
        }
    }

    #[test]
    fn quantize_dequantize_bounds_error() {
        let q = Quality::default();
        let table = q.luma_table();
        let mut coeffs = [0f32; BLOCK_AREA];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = (i as f32 - 31.5) * 7.3;
        }
        let dq = dequantize(&quantize(&coeffs, &table), &table);
        for i in 0..BLOCK_AREA {
            // Error bounded by half the quantization step.
            assert!((dq[i] - coeffs[i]).abs() <= f32::from(table[i]) / 2.0 + 1e-3);
        }
    }

    #[test]
    fn i16_rounding_matches_round_at_every_tie() {
        let mut probes = vec![0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        probes.extend([f32::MAX, f32::MIN, f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 1e-45, -1e-45]);
        for k in -32_769i32..=32_769 {
            let k = k as f32;
            for v in [k - 0.5, k, k + 0.5] {
                // The value and its three neighbours on either side.
                probes.push(v);
                let (mut below, mut above) = (v, v);
                for _ in 0..3 {
                    below = below.next_down();
                    above = above.next_up();
                    probes.extend([below, above]);
                }
            }
        }
        for v in probes {
            assert_eq!(round_to_i16(v), v.round() as i16, "v = {v:e} ({:#x})", v.to_bits());
        }
    }

    #[test]
    fn zigzag_quantization_matches_quantize_then_scan() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) as u32
        };
        for q in [1u8, 10, 50, 85, 97, 100] {
            let q = Quality::new(q).unwrap();
            for table in [q.luma_table(), q.chroma_table()] {
                let steps = table.map(f32::from);
                for _ in 0..500 {
                    // DCT outputs of level-shifted samples lie within ±1024;
                    // one in four coefficients sits exactly on a tie.
                    let coeffs: [f32; BLOCK_AREA] = std::array::from_fn(|i| match next() % 4 {
                        0 => f32::from(table[i]) * ((next() % 41) as f32 - 20.0 + 0.5),
                        _ => (next() % 204_800) as f32 / 100.0 - 1024.0,
                    });
                    let want = crate::zigzag::scan(&quantize(&coeffs, &table));
                    assert_eq!(quantize_zigzag(&coeffs, &steps), want, "{coeffs:?}");
                }
            }
        }
    }

    #[test]
    fn chroma_coarser_than_luma() {
        let q = Quality::default();
        let luma = q.luma_table();
        let chroma = q.chroma_table();
        let sum_l: u32 = luma.iter().map(|&v| u32::from(v)).sum();
        let sum_c: u32 = chroma.iter().map(|&v| u32::from(v)).sum();
        assert!(sum_c > sum_l);
    }
}
