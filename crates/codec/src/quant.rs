//! Quality-scaled quantization matrices.
//!
//! The base tables are the Annex-K luminance/chrominance matrices from the
//! JPEG standard; [`Quality`] scales them with the libjpeg convention
//! (quality 50 = base tables, higher quality → finer steps).

use crate::BLOCK_AREA;

/// JPEG Annex K luminance quantization table (row-major).
pub const BASE_LUMA: [u16; BLOCK_AREA] = [
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55, 14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62, 18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113,
    92, 49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
];

/// JPEG Annex K chrominance quantization table (row-major).
pub const BASE_CHROMA: [u16; BLOCK_AREA] = [
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
    pub fn value(self) -> u8 {
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
    pub fn luma_table(self) -> [u16; BLOCK_AREA] {
        scale_table(&BASE_LUMA, self.scale_percent())
    }

    /// Builds the scaled chrominance quantization table.
    pub fn chroma_table(self) -> [u16; BLOCK_AREA] {
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

/// Quantizes one coefficient block in place (`c / q`, rounded to nearest).
pub fn quantize(coeffs: &[f32; BLOCK_AREA], table: &[u16; BLOCK_AREA]) -> [i16; BLOCK_AREA] {
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
pub fn dequant_steps(table: &[u16; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
    crate::zigzag::ZIGZAG.map(|at| f32::from(table[at]))
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
    fn chroma_coarser_than_luma() {
        let q = Quality::default();
        let luma = q.luma_table();
        let chroma = q.chroma_table();
        let sum_l: u32 = luma.iter().map(|&v| u32::from(v)).sum();
        let sum_c: u32 = chroma.iter().map(|&v| u32::from(v)).sum();
        assert!(sum_c > sum_l);
    }
}
