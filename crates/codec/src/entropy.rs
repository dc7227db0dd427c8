//! Entropy coding: DC prediction + zero-run-length + signed LEB128 varints.
//!
//! Each quantized, zigzag-ordered block is encoded as:
//!
//! * the DC coefficient as a *difference* from the previous block's DC in the
//!   same plane (DC values drift slowly across a natural image, so the
//!   differences are small and varint-cheap);
//! * each nonzero AC coefficient as a `(run, value)` pair where `run` is the
//!   number of zeros skipped (one byte, `0..=62`) and `value` a zigzag-signed
//!   varint;
//! * a terminating end-of-block byte [`EOB`] once the remaining coefficients
//!   are all zero.
//!
//! The scheme is byte-aligned rather than bit-packed Huffman. It compresses a
//! few tens of percent worse than real JPEG but preserves the property that
//! matters for SOPHON: encoded size tracks image content.

use crate::{CodecError, BLOCK_AREA};

/// End-of-block marker byte (cannot collide with runs, which are `<= 62`).
pub const EOB: u8 = 0xFF;

/// ZigZag-maps a signed value to unsigned for varint coding.
#[inline]
fn zigzag_i64(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_i64`].
#[inline]
fn unzigzag_u64(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a signed varint to `out`.
pub fn write_varint(out: &mut Vec<u8>, v: i64) {
    let mut u = zigzag_i64(v);
    loop {
        let byte = (u & 0x7F) as u8;
        u >>= 7;
        if u == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a signed varint from `data` starting at `*pos`, advancing `*pos`.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] when the stream ends mid-varint, or
/// [`CodecError::MalformedVarint`] when the varint exceeds 10 bytes.
pub fn read_varint(data: &[u8], pos: &mut usize) -> Result<i64, CodecError> {
    let start = *pos;
    let mut shift = 0u32;
    let mut acc = 0u64;
    loop {
        let byte = *data.get(*pos).ok_or(CodecError::Truncated { offset: *pos })?;
        *pos += 1;
        acc |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(unzigzag_u64(acc));
        }
        shift += 7;
        if shift >= 64 {
            return Err(CodecError::MalformedVarint { offset: start });
        }
    }
}

/// Encodes one zigzag-ordered quantized block, appending to `out`.
///
/// `dc_pred` is the previous block's DC in the same plane; it is updated to
/// this block's DC.
pub fn encode_block(zz: &[i16; BLOCK_AREA], dc_pred: &mut i16, out: &mut Vec<u8>) {
    encode_band(zz, 0, BLOCK_AREA, dc_pred, out);
}

/// Encodes one block's coefficients in `[lo, hi)`: the DC (predicted) when
/// `lo == 0`, then a `(run, value)` pair for each non-zero AC coefficient
/// of the band, then [`EOB`]. [`encode_block`] is the whole-spectrum band;
/// a tiered stream codes one band per scan.
pub(crate) fn encode_band(
    zz: &[i16; BLOCK_AREA],
    lo: usize,
    hi: usize,
    dc_pred: &mut i16,
    out: &mut Vec<u8>,
) {
    let mut next = lo;
    if lo == 0 {
        write_varint(out, i64::from(zz[0]) - i64::from(*dc_pred));
        *dc_pred = zz[0];
        next = 1;
    }
    // One bit per non-zero coefficient of the band's AC part, so the loop
    // below visits those only; `run` is the zeros skipped since `next`.
    // (Sixteen coefficients at a time compile to vector compares.)
    let mut nonzero = 0u64;
    for (k, chunk) in zz.chunks_exact(16).enumerate() {
        let mut bits = 0u64;
        for (i, &c) in chunk.iter().enumerate() {
            bits |= u64::from(c != 0) << i;
        }
        nonzero |= bits << (16 * k);
    }
    nonzero &= (u64::MAX << next) & (u64::MAX >> (BLOCK_AREA - hi));
    while nonzero != 0 {
        let i = nonzero.trailing_zeros() as usize;
        out.push((i - next) as u8);
        write_varint(out, i64::from(zz[i]));
        next = i + 1;
        nonzero &= nonzero - 1;
    }
    out.push(EOB);
}

/// Decodes one block from `data` at `*pos`, advancing `*pos`.
///
/// # Errors
///
/// Propagates varint errors, and returns [`CodecError::RunOverflow`] when a
/// run would exceed the 63 AC coefficients of a block.
pub fn decode_block(
    data: &[u8],
    pos: &mut usize,
    dc_pred: &mut i16,
) -> Result<[i16; BLOCK_AREA], CodecError> {
    let mut zz = [0i16; BLOCK_AREA];
    // Wrapping: a hostile varint near i64::MAX must produce garbage
    // coefficients, not a debug-build overflow panic.
    let dc = i64::from(*dc_pred).wrapping_add(read_varint(data, pos)?);
    zz[0] = dc as i16;
    *dc_pred = zz[0];
    let mut idx = 1usize;
    loop {
        let marker_off = *pos;
        let byte = *data.get(*pos).ok_or(CodecError::Truncated { offset: *pos })?;
        *pos += 1;
        if byte == EOB {
            return Ok(zz);
        }
        idx += usize::from(byte);
        if idx >= BLOCK_AREA {
            return Err(CodecError::RunOverflow { offset: marker_off });
        }
        zz[idx] = read_varint(data, pos)? as i16;
        idx += 1;
        if idx > BLOCK_AREA {
            return Err(CodecError::RunOverflow { offset: marker_off });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [
            0i64,
            1,
            -1,
            63,
            -64,
            127,
            -128,
            300,
            -12345,
            i64::from(i16::MAX),
            i64::from(i16::MIN),
        ];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncation_detected() {
        let mut buf = Vec::new();
        write_varint(&mut buf, -123_456);
        buf.pop();
        let mut pos = 0;
        assert!(matches!(read_varint(&buf, &mut pos), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn small_values_are_one_byte() {
        for v in -63i64..=63 {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), 1, "value {v} took {} bytes", buf.len());
        }
    }

    #[test]
    fn block_roundtrip_sparse() {
        let mut zz = [0i16; BLOCK_AREA];
        zz[0] = 500;
        zz[5] = -3;
        zz[40] = 12;
        let mut out = Vec::new();
        let mut dc_e = 0i16;
        encode_block(&zz, &mut dc_e, &mut out);
        assert_eq!(dc_e, 500);
        let mut pos = 0;
        let mut dc_d = 0i16;
        let back = decode_block(&out, &mut pos, &mut dc_d).unwrap();
        assert_eq!(back, zz);
        assert_eq!(pos, out.len());
    }

    #[test]
    fn block_roundtrip_dense_sequence() {
        // Several blocks in sequence exercise DC prediction.
        let mut blocks = Vec::new();
        for b in 0..5i16 {
            let mut zz = [0i16; BLOCK_AREA];
            for (i, v) in zz.iter_mut().enumerate() {
                *v = ((i as i16 * 7 + b * 13) % 30) - 15;
            }
            blocks.push(zz);
        }
        let mut out = Vec::new();
        let mut dc = 0i16;
        for zz in &blocks {
            encode_block(zz, &mut dc, &mut out);
        }
        let mut pos = 0;
        let mut dc = 0i16;
        for zz in &blocks {
            assert_eq!(&decode_block(&out, &mut pos, &mut dc).unwrap(), zz);
        }
        assert_eq!(pos, out.len());
    }

    #[test]
    fn all_zero_block_is_two_bytes() {
        let zz = [0i16; BLOCK_AREA];
        let mut out = Vec::new();
        let mut dc = 0i16;
        encode_block(&zz, &mut dc, &mut out);
        // One varint byte for DC delta 0, one EOB byte.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn run_overflow_detected() {
        // DC delta 0, then run of 63 (valid index would be 64 -> overflow).
        let data = [0u8, 63, 2, EOB];
        let mut pos = 0;
        let mut dc = 0i16;
        assert!(matches!(
            decode_block(&data, &mut pos, &mut dc),
            Err(CodecError::RunOverflow { .. })
        ));
    }
}
