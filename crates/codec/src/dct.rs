//! Forward and inverse 8×8 type-II discrete cosine transform.
//!
//! Both directions are the separable row/column formulation with
//! precomputed cosine tables, allocation-free and exactly invertible up to
//! floating-point rounding. [`forward`] computes eight outputs at a time and
//! is bit-identical to the dense loop kept as its test oracle.
//!
//! The inverse, [`inverse_quantized`], is what every decoded block goes
//! through, so it is written for the blocks a quantizer actually produces:
//! it takes the zigzag-ordered quantized block as stored, folds unscan and
//! dequantization into its first pass, and does no work for coefficient rows
//! and columns that are entirely zero (at quality 85 four blocks in ten are
//! DC-only and half have a single non-zero column). Every `f32` it returns
//! is bit-identical to the dense textbook loop kept as the test oracle
//! below: only loops are reordered and exact no-ops dropped, never an
//! operation re-associated. The argument is in DESIGN.md ("Exact kernels").

use crate::zigzag::ZIGZAG;
use crate::{BLOCK, BLOCK_AREA};

/// Precomputed `cos((2x+1) u π / 16)` table, indexed `[u][x]`.
fn cos_table() -> &'static [[f32; BLOCK]; BLOCK] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[f32; BLOCK]; BLOCK]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [[0f32; BLOCK]; BLOCK];
        for (u, row) in t.iter_mut().enumerate() {
            for (x, v) in row.iter_mut().enumerate() {
                *v = (((2 * x + 1) as f32) * (u as f32) * std::f32::consts::PI / 16.0).cos();
            }
        }
        t
    })
}

#[inline]
fn alpha(u: usize) -> f32 {
    if u == 0 {
        std::f32::consts::FRAC_1_SQRT_2
    } else {
        1.0
    }
}

/// [`cos_table`] transposed, indexed `[x][u]`: the row pass of [`forward`]
/// reads one spatial sample's eight cosines side by side.
fn cos_table_transposed() -> &'static [[f32; BLOCK]; BLOCK] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[f32; BLOCK]; BLOCK]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let cos = cos_table();
        std::array::from_fn(|x| std::array::from_fn(|u| cos[u][x]))
    })
}

/// Forward 8×8 DCT-II of a row-major spatial block (values already centered
/// around zero), producing row-major frequency coefficients.
///
/// Each pass computes eight outputs side by side, and every output is the
/// dense textbook sum kept as the test oracle below, bit for bit: the same
/// products, accumulated from `+0.0` in the same order (`x` for a row, `y`
/// for a column), scaled by `alpha * 0.5` as written. Only the loops are
/// interchanged.
pub(crate) fn forward(block: &[f32; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
    // Transform rows: tmp[y][u] = sum over x of block[y][x] * cos[u][x].
    let cos_t = cos_table_transposed();
    let mut tmp = [0f32; BLOCK_AREA];
    for (row, tmp_row) in block.chunks_exact(BLOCK).zip(tmp.chunks_exact_mut(BLOCK)) {
        let mut acc = [0f32; BLOCK];
        for (&s, cos_x) in row.iter().zip(cos_t) {
            for (a, &c) in acc.iter_mut().zip(cos_x) {
                *a += s * c;
            }
        }
        for (u, (t, a)) in tmp_row.iter_mut().zip(acc).enumerate() {
            *t = a * alpha(u) * 0.5;
        }
    }
    // Transform columns: out[v][u] = sum over y of tmp[y][u] * cos[v][y].
    let cos = cos_table();
    let mut out = [0f32; BLOCK_AREA];
    for (v, (cos_v, out_row)) in cos.iter().zip(out.chunks_exact_mut(BLOCK)).enumerate() {
        let mut acc = [0f32; BLOCK];
        for (&c, tmp_row) in cos_v.iter().zip(tmp.chunks_exact(BLOCK)) {
            for (a, &t) in acc.iter_mut().zip(tmp_row) {
                *a += t * c;
            }
        }
        for (o, a) in out_row.iter_mut().zip(acc) {
            *o = a * alpha(v) * 0.5;
        }
    }
    out
}

/// Dense forward 8×8 DCT: the textbook loop [`forward`] is checked against.
#[cfg(test)]
pub(crate) fn forward_reference(block: &[f32; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
    let cos = cos_table();
    let mut tmp = [0f32; BLOCK_AREA];
    // Transform rows.
    for y in 0..BLOCK {
        for u in 0..BLOCK {
            let mut acc = 0f32;
            for x in 0..BLOCK {
                acc += block[y * BLOCK + x] * cos[u][x];
            }
            tmp[y * BLOCK + u] = acc * alpha(u) * 0.5;
        }
    }
    // Transform columns.
    let mut out = [0f32; BLOCK_AREA];
    for u in 0..BLOCK {
        for v in 0..BLOCK {
            let mut acc = 0f32;
            for y in 0..BLOCK {
                acc += tmp[y * BLOCK + u] * cos[v][y];
            }
            out[v * BLOCK + u] = acc * alpha(v) * 0.5;
        }
    }
    out
}

/// For each zigzag position, bit `row` in the low byte and bit `8 + column`
/// in the high byte of where it sits in the row-major block.
const ZIGZAG_ROW_COL_BITS: [u16; BLOCK_AREA] = {
    let mut bits = [0u16; BLOCK_AREA];
    let mut i = 0;
    while i < BLOCK_AREA {
        bits[i] = (1 << (ZIGZAG[i] / BLOCK)) | (1 << (BLOCK + ZIGZAG[i] % BLOCK));
        i += 1;
    }
    bits
};

/// For each row-major position, its index in zigzag order: the inverse of
/// [`ZIGZAG`].
const UNZIGZAG: [usize; BLOCK_AREA] = {
    let mut at = [0usize; BLOCK_AREA];
    let mut i = 0;
    while i < BLOCK_AREA {
        at[ZIGZAG[i]] = i;
        i += 1;
    }
    at
};

/// Inverse 8×8 DCT (type III) of a quantized block in zigzag order,
/// reconstructing the spatial block. `steps` are the quantization steps in
/// the same zigzag order ([`crate::quant::dequant_steps`]).
///
/// Equals `inverse(dequantize(unscan(zz)))` bit for bit. What makes the
/// shortcuts exact:
///
/// * every accumulator starts at `+0.0`, and a sum that starts at `+0.0` is
///   never `-0.0`, so adding the `±0.0` a zero coefficient contributes never
///   changes it: coefficient rows past the last non-zero one can be left out
///   of the column pass, and a column that is all zero leaves
///   `tmp[*][u] == +0.0` and can be left out of both passes;
/// * the column pass dequantizes each coefficient where it reads it, with
///   the dense loop's operations (`alpha(v) * (c * step)`); a zero
///   coefficient gives `+0.0`, what the dense loop's zeroed array holds;
/// * `alpha(u)` is `1.0` for every `u` but 0, and `x * 1.0 == x`, so the
///   row pass's `alpha(u) * tmp[y][u]` is taken once per column at the end
///   of the column pass, where it is the same product;
/// * `cos[0][*]` is `cos(0.0) == 1.0` exactly, so a block with no AC
///   coefficient is one value, computed by the same operations in the same
///   order and stored 64 times.
pub(crate) fn inverse_quantized(
    zz: &[i16; BLOCK_AREA],
    steps: &[f32; BLOCK_AREA],
) -> [f32; BLOCK_AREA] {
    let cos = cos_table();
    // Which rows and columns hold a non-zero coefficient (branch-free).
    let mut touched = 0u16;
    for (&c, &bits) in zz.iter().zip(&ZIGZAG_ROW_COL_BITS) {
        touched |= if c != 0 { bits } else { 0 };
    }
    let [rows, cols] = touched.to_le_bytes();
    if rows | cols <= 1 {
        // DC only (or all zero).
        let dc = alpha(0) * (f32::from(zz[0]) * steps[0]);
        let column = (0.0 + dc * cos[0][0]) * 0.5;
        return [(0.0 + alpha(0) * column * cos[0][0]) * 0.5; BLOCK_AREA];
    }
    let row_end = BLOCK - rows.leading_zeros() as usize;
    let col_end = BLOCK - cols.leading_zeros() as usize;

    // Inverse transform the columns that are not all zero, each with its
    // eight outputs side by side, and scale each by alpha(u); `tmp` is
    // column-major.
    let mut tmp = [0f32; BLOCK_AREA];
    for (u, tmp_col) in tmp.chunks_exact_mut(BLOCK).enumerate().take(col_end) {
        let mut acc = [0f32; BLOCK];
        for (v, cos_v) in cos.iter().enumerate().take(row_end) {
            let k = UNZIGZAG[v * BLOCK + u];
            let s = alpha(v) * (f32::from(zz[k]) * steps[k]);
            for (a, &c) in acc.iter_mut().zip(cos_v) {
                *a += s * c;
            }
        }
        for (t, a) in tmp_col.iter_mut().zip(acc) {
            *t = alpha(u) * (a * 0.5);
        }
    }
    // Inverse transform rows, the eight outputs of a row side by side.
    let mut out = [0f32; BLOCK_AREA];
    for (y, out_row) in out.chunks_exact_mut(BLOCK).enumerate() {
        let mut acc = [0f32; BLOCK];
        for (cos_u, tmp_col) in cos.iter().zip(tmp.chunks_exact(BLOCK)).take(col_end) {
            let t = tmp_col[y];
            for (a, &c) in acc.iter_mut().zip(cos_u) {
                *a += t * c;
            }
        }
        for (o, a) in out_row.iter_mut().zip(acc) {
            *o = a * 0.5;
        }
    }
    out
}

/// Dense inverse 8×8 DCT of dequantized row-major coefficients: the
/// textbook loop [`inverse_quantized`] is checked against.
#[cfg(test)]
pub(crate) fn inverse(coeffs: &[f32; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
    let cos = cos_table();
    let mut tmp = [0f32; BLOCK_AREA];
    // Inverse transform columns.
    for u in 0..BLOCK {
        for y in 0..BLOCK {
            let mut acc = 0f32;
            for v in 0..BLOCK {
                acc += alpha(v) * coeffs[v * BLOCK + u] * cos[v][y];
            }
            tmp[y * BLOCK + u] = acc * 0.5;
        }
    }
    // Inverse transform rows.
    let mut out = [0f32; BLOCK_AREA];
    for y in 0..BLOCK {
        for x in 0..BLOCK {
            let mut acc = 0f32;
            for u in 0..BLOCK {
                acc += alpha(u) * tmp[y * BLOCK + u] * cos[u][x];
            }
            out[y * BLOCK + x] = acc * 0.5;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_block_has_only_dc() {
        let block = [10f32; BLOCK_AREA];
        let coeffs = forward(&block);
        // DC of a constant block of value v is 8v for the orthonormal DCT.
        assert!((coeffs[0] - 80.0).abs() < 1e-3, "dc = {}", coeffs[0]);
        for (i, &c) in coeffs.iter().enumerate().skip(1) {
            assert!(c.abs() < 1e-3, "AC coefficient {i} = {c}");
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let mut block = [0f32; BLOCK_AREA];
        for (i, v) in block.iter_mut().enumerate() {
            // Deterministic pseudo-random content centered at zero.
            *v = ((i * 37 + 11) % 256) as f32 - 128.0;
        }
        let back = inverse(&forward(&block));
        for (a, b) in block.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut block = [0f32; BLOCK_AREA];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i as f32) * 0.7).sin() * 100.0;
        }
        let coeffs = forward(&block);
        let e_spatial: f32 = block.iter().map(|v| v * v).sum();
        let e_freq: f32 = coeffs.iter().map(|v| v * v).sum();
        assert!((e_spatial - e_freq).abs() / e_spatial < 1e-4);
    }

    #[test]
    fn single_frequency_isolates_one_coefficient() {
        // A pure horizontal cosine at frequency u=3 should put nearly all
        // energy in coefficient (v=0, u=3).
        let mut block = [0f32; BLOCK_AREA];
        for y in 0..BLOCK {
            for x in 0..BLOCK {
                block[y * BLOCK + x] =
                    (((2 * x + 1) as f32) * 3.0 * std::f32::consts::PI / 16.0).cos() * 50.0;
            }
        }
        let coeffs = forward(&block);
        let target = coeffs[3].abs();
        let rest: f32 =
            coeffs.iter().enumerate().filter(|&(i, _)| i != 3).map(|(_, c)| c.abs()).sum();
        assert!(target > 100.0, "target coefficient too small: {target}");
        assert!(rest < target * 0.01, "energy leaked: {rest} vs {target}");
    }

    #[test]
    fn forward_is_bit_identical_to_the_dense_loop() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) as u32
        };
        let mut blocks = vec![[0f32; BLOCK_AREA], [-128.0; BLOCK_AREA], [127.0; BLOCK_AREA]];
        for i in 0..BLOCK_AREA {
            // One extreme sample on a flat block, then a checkerboard.
            let mut b = [-0.0f32; BLOCK_AREA];
            b[i] = if i.is_multiple_of(2) { 127.0 } else { -128.0 };
            blocks.push(b);
        }
        blocks.push(std::array::from_fn(|i| {
            if (i / BLOCK + i).is_multiple_of(2) {
                127.0
            } else {
                -128.0
            }
        }));
        for _ in 0..2_000 {
            // Level-shifted samples as the encoder makes them, fractional
            // (chroma averages and colour conversion leave fractions).
            blocks.push(std::array::from_fn(|_| (next() % 25_600) as f32 / 100.0 - 128.0));
        }
        for block in &blocks {
            assert_eq!(
                forward(block).map(f32::to_bits),
                forward_reference(block).map(f32::to_bits),
                "block {block:?}"
            );
        }
    }

    /// The dense reference chain a decoded block went through before the
    /// folded kernel: unscan, dequantize, textbook inverse.
    fn reference(zz: &[i16; BLOCK_AREA], table: &[u16; BLOCK_AREA]) -> [u32; BLOCK_AREA] {
        inverse(&crate::quant::dequantize(&crate::zigzag::unscan(zz), table)).map(f32::to_bits)
    }

    fn folded(zz: &[i16; BLOCK_AREA], table: &[u16; BLOCK_AREA]) -> [u32; BLOCK_AREA] {
        inverse_quantized(zz, &crate::quant::dequant_steps(table)).map(f32::to_bits)
    }

    fn tables() -> Vec<[u16; BLOCK_AREA]> {
        [10u8, 50, 85, 100]
            .into_iter()
            .flat_map(|q| {
                let q = crate::Quality::new(q).unwrap();
                [q.luma_table(), q.chroma_table()]
            })
            .collect()
    }

    #[test]
    fn folded_inverse_is_bit_identical_on_structured_blocks() {
        let at = |row: usize, col: usize| ZIGZAG.iter().position(|&n| n == row * BLOCK + col);
        let mut blocks = vec![[0i16; BLOCK_AREA], [-7; BLOCK_AREA], [i16::MAX; BLOCK_AREA]];
        for dc in [1i16, -1, 64, -1024, i16::MAX, i16::MIN] {
            let mut zz = [0i16; BLOCK_AREA];
            zz[0] = dc;
            blocks.push(zz);
        }
        for line in 0..BLOCK {
            // One column, one row, and both with the DC cleared.
            for with_dc in [true, false] {
                let (mut column, mut row) = ([0i16; BLOCK_AREA], [0i16; BLOCK_AREA]);
                for k in 0..BLOCK {
                    column[at(k, line).unwrap()] = 40 - 13 * k as i16;
                    row[at(line, k).unwrap()] = -25 + 9 * k as i16;
                }
                if !with_dc {
                    column[0] = 0;
                    row[0] = 0;
                }
                blocks.extend([column, row]);
            }
        }
        for i in 0..BLOCK_AREA {
            let mut zz = [0i16; BLOCK_AREA];
            zz[i] = if i % 2 == 0 { 3 } else { -300 };
            blocks.push(zz);
        }
        for table in tables() {
            for zz in &blocks {
                assert_eq!(folded(zz, &table), reference(zz, &table), "block {zz:?}");
            }
        }
    }

    #[test]
    fn folded_inverse_is_bit_identical_on_random_blocks() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for table in tables() {
            for nonzero in [1usize, 2, 3, 5, 8, 16, 32, 64] {
                for _ in 0..60 {
                    let mut zz = [0i16; BLOCK_AREA];
                    for _ in 0..nonzero {
                        // Mostly low frequencies and small values, as a
                        // quantizer leaves them, with the odd extreme.
                        let i = (next() % BLOCK_AREA as u64).min(next() % BLOCK_AREA as u64);
                        zz[i as usize] = match next() % 8 {
                            0 => next() as i16,
                            _ => (next() % 41) as i16 - 20,
                        };
                    }
                    assert_eq!(folded(&zz, &table), reference(&zz, &table), "block {zz:?}");
                }
            }
        }
    }
}
