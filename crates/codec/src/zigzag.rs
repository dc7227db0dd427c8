//! Zigzag scan order for 8×8 coefficient blocks.
//!
//! Scanning coefficients from low to high frequency groups the zeros produced
//! by quantization into long runs, which is what makes the run-length entropy
//! coder effective.

use crate::{BLOCK, BLOCK_AREA};

/// Row-major index of the `i`-th coefficient in zigzag order.
pub(crate) const ZIGZAG: [usize; BLOCK_AREA] = build_zigzag();

const fn build_zigzag() -> [usize; BLOCK_AREA] {
    let mut order = [0usize; BLOCK_AREA];
    let mut i = 0usize;
    let mut d = 0usize; // anti-diagonal index: x + y = d
    while d < 2 * BLOCK - 1 {
        // Even diagonals run bottom-left → top-right, odd ones the reverse.
        if d.is_multiple_of(2) {
            let mut y = if d < BLOCK { d } else { BLOCK - 1 };
            loop {
                let x = d - y;
                if x < BLOCK {
                    order[i] = y * BLOCK + x;
                    i += 1;
                }
                if y == 0 {
                    break;
                }
                y -= 1;
            }
        } else {
            let mut x = if d < BLOCK { d } else { BLOCK - 1 };
            loop {
                let y = d - x;
                if y < BLOCK {
                    order[i] = y * BLOCK + x;
                    i += 1;
                }
                if x == 0 {
                    break;
                }
                x -= 1;
            }
        }
        d += 1;
    }
    order
}

/// Reorders a row-major block into zigzag order: the reference the folded
/// [`crate::quant::quantize_zigzag`] is checked against.
#[cfg(test)]
pub(crate) fn scan(block: &[i16; BLOCK_AREA]) -> [i16; BLOCK_AREA] {
    let mut out = [0i16; BLOCK_AREA];
    for (i, &src) in ZIGZAG.iter().enumerate() {
        out[i] = block[src];
    }
    out
}

/// Restores a zigzag-ordered block to row-major order: the reference the
/// folded [`crate::dct::inverse_quantized`] is checked against.
#[cfg(test)]
pub(crate) fn unscan(zz: &[i16; BLOCK_AREA]) -> [i16; BLOCK_AREA] {
    let mut out = [0i16; BLOCK_AREA];
    for (i, &dst) in ZIGZAG.iter().enumerate() {
        out[dst] = zz[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_permutation() {
        let mut seen = [false; BLOCK_AREA];
        for &idx in &ZIGZAG {
            assert!(!seen[idx], "duplicate index {idx}");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zigzag_prefix_matches_jpeg_spec() {
        // First ten entries of the standard JPEG zigzag sequence.
        let expected = [0usize, 1, 8, 16, 9, 2, 3, 10, 17, 24];
        assert_eq!(&ZIGZAG[..10], &expected);
        // And the tail.
        assert_eq!(ZIGZAG[BLOCK_AREA - 1], 63);
        assert_eq!(ZIGZAG[BLOCK_AREA - 2], 62);
    }

    #[test]
    fn scan_unscan_roundtrip() {
        let mut block = [0i16; BLOCK_AREA];
        for (i, v) in block.iter_mut().enumerate() {
            *v = i as i16 * 3 - 90;
        }
        assert_eq!(unscan(&scan(&block)), block);
    }
}
