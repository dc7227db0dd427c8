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
pub(crate) const EOB: u8 = 0xFF;

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
pub(crate) fn write_varint(out: &mut Vec<u8>, v: i64) {
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
/// A value in `-64..=63` is one byte with the high bit clear, and is
/// decoded here; a longer one, or a stream that ends at `*pos`, takes
/// [`read_varint_long`], out of line.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] when the stream ends mid-varint, or
/// [`CodecError::MalformedVarint`] when the varint exceeds 10 bytes.
#[inline(always)]
pub(crate) fn read_varint(data: &[u8], pos: &mut usize) -> Result<i64, CodecError> {
    match data.get(*pos) {
        Some(&byte) if byte & 0x80 == 0 => {
            *pos += 1;
            Ok(unzigzag_u64(u64::from(byte)))
        }
        _ => read_varint_long(data, pos),
    }
}

/// [`read_varint`]'s byte loop: the whole decode of any varint, and the
/// one that reports every error.
#[inline(never)]
pub(crate) fn read_varint_long(data: &[u8], pos: &mut usize) -> Result<i64, CodecError> {
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
pub(crate) fn encode_block(zz: &[i16; BLOCK_AREA], dc_pred: &mut i16, out: &mut Vec<u8>) {
    write_varint(out, i64::from(zz[0]) - i64::from(*dc_pred));
    *dc_pred = zz[0];
    let mut next = 1;
    // One bit per non-zero AC coefficient, so the loop below visits those
    // only, then [`EOB`]; `run` is the zeros skipped since `next`.
    // (Sixteen coefficients at a time compile to vector compares.)
    let mut nonzero = 0u64;
    for (k, chunk) in zz.chunks_exact(16).enumerate() {
        let mut bits = 0u64;
        for (i, &c) in chunk.iter().enumerate() {
            bits |= u64::from(c != 0) << i;
        }
        nonzero |= bits << (16 * k);
    }
    nonzero &= u64::MAX << next;
    while nonzero != 0 {
        let i = nonzero.trailing_zeros() as usize;
        out.push((i - next) as u8);
        write_varint(out, i64::from(zz[i]));
        next = i + 1;
        nonzero &= nonzero - 1;
    }
    out.push(EOB);
}

/// Reads one block's coefficients from `data` at `*pos` into `zz`,
/// advancing `*pos` and the DC predictor.
///
/// # Errors
///
/// Propagates varint errors, and returns [`CodecError::RunOverflow`] when a
/// run would pass the end of the block.
#[inline]
pub(crate) fn decode_band(
    data: &[u8],
    pos: &mut usize,
    dc_pred: &mut i16,
    zz: &mut [i16; BLOCK_AREA],
) -> Result<(), CodecError> {
    walk_band(data, pos, dc_pred, |i, value| zz[i] = value as i16)?;
    zz[0] = *dc_pred;
    Ok(())
}

/// [`decode_band`] for a block nothing reads: the AC values are read but
/// not stored, so `*pos`, the DC predictor and every error, offset
/// included, are those [`decode_band`] produces.
#[inline]
pub(crate) fn skip_band(data: &[u8], pos: &mut usize, dc_pred: &mut i16) -> Result<(), CodecError> {
    walk_band(data, pos, dc_pred, |_, _| {})
}

/// The one entropy walker: the DC (predicted), then each `(run, value)`
/// pair up to the end-of-block byte, handing `set` each value with its
/// index. Every value is read by [`read_varint`], whether `set` stores it
/// or drops it, so a skipped block's position and errors are a decoded
/// block's.
#[inline(always)]
fn walk_band(
    data: &[u8],
    pos: &mut usize,
    dc_pred: &mut i16,
    mut set: impl FnMut(usize, i64),
) -> Result<(), CodecError> {
    // Wrapping: a hostile varint near i64::MAX must produce garbage
    // coefficients, not a debug-build overflow panic.
    *dc_pred = i64::from(*dc_pred).wrapping_add(read_varint(data, pos)?) as i16;
    let mut idx = 1;
    loop {
        let marker_off = *pos;
        let byte = *data.get(*pos).ok_or(CodecError::Truncated { offset: *pos })?;
        *pos += 1;
        if byte == EOB {
            return Ok(());
        }
        idx += usize::from(byte);
        if idx >= BLOCK_AREA {
            return Err(CodecError::RunOverflow { offset: marker_off });
        }
        set(idx, read_varint(data, pos)?);
        idx += 1;
    }
}

/// Decodes one whole block from `data` at `*pos`, advancing `*pos`: the
/// storing walker of every decode before blocks outside a crop were
/// skipped, kept as the oracle of [`decode_band`] and [`skip_band`]. It
/// reads every varint with the byte loop, not the one-byte fast path.
#[cfg(test)]
pub(crate) fn decode_block(
    data: &[u8],
    pos: &mut usize,
    dc_pred: &mut i16,
) -> Result<[i16; BLOCK_AREA], CodecError> {
    let mut zz = [0i16; BLOCK_AREA];
    // Wrapping: a hostile varint near i64::MAX must produce garbage
    // coefficients, not a debug-build overflow panic.
    let dc = i64::from(*dc_pred).wrapping_add(read_varint_long(data, pos)?);
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
        zz[idx] = read_varint_long(data, pos)? as i16;
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

    /// `decode_band` and `skip_band` against the storing walker: the same `Result` (coefficients aside), the same
    /// position and the same DC predictor, on streams built to end inside
    /// varints, run past ten varint bytes and overflow a run, and on
    /// byte soup.
    #[test]
    fn band_walkers_match_the_storing_walker() {
        let mut streams: Vec<Vec<u8>> = Vec::new();
        for len in 0..=12 {
            // A DC varint and then an AC value of `len` continuation bytes,
            // ended or cut off.
            for dc_len in [0, len] {
                let mut s = vec![0x80; dc_len];
                s.extend([0x05, 3]);
                s.extend(std::iter::repeat_n(0x80, len));
                streams.push(s.clone());
                s.extend([0x01, EOB]);
                streams.push(s);
            }
        }
        streams.extend([
            vec![],
            vec![0],
            vec![0, 62, 1, EOB],
            vec![0, 62, 1, 0, 1, EOB],
            vec![0, 63, 1],
        ]);
        // Streams that end right after a run byte, and on either side of a
        // one-byte value, whose bytes sit at the 0x7F / 0x80 boundary
        // between the one-byte fast path and the byte loop.
        for boundary in [0x00, 0x7E, 0x7F, 0x80, 0x81, 0xFE] {
            for dc in [vec![boundary], vec![0x80, boundary]] {
                let mut s = dc.clone();
                streams.push(s.clone());
                s.push(0);
                streams.push(s.clone());
                s.push(boundary);
                streams.push(s.clone());
                s.push(0x01);
                streams.push(s.clone());
                s.extend([5, 0x7F, EOB]);
                streams.push(s);
            }
        }
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let len = (state >> 59) as usize;
            streams.push(
                (0..len)
                    .map(|i| {
                        let r = (state >> (i % 48)) as u8;
                        match r % 4 {
                            0 => EOB,
                            1 => r | 0x80,
                            _ => r % 40,
                        }
                    })
                    .collect(),
            );
        }
        for data in &streams {
            let (mut pos, mut dc) = (0, 7i16);
            let oracle = decode_block(data, &mut pos, &mut dc);
            let (mut skip_pos, mut skip_dc) = (0, 7i16);
            let skipped = skip_band(data, &mut skip_pos, &mut skip_dc);
            let (mut band_pos, mut band_dc, mut zz) = (0, 7i16, [0i16; BLOCK_AREA]);
            let decoded = decode_band(data, &mut band_pos, &mut band_dc, &mut zz);
            assert_eq!(skipped, oracle.clone().map(drop), "{data:?}");
            assert_eq!(decoded.map(|()| zz), oracle.clone(), "{data:?}");
            if oracle.is_ok() {
                assert_eq!((skip_pos, skip_dc), (pos, dc), "{data:?}");
                assert_eq!((band_pos, band_dc), (pos, dc), "{data:?}");
            }
        }
    }

    /// `read_varint`'s one-byte fast path against the byte loop behind it,
    /// from every offset of streams around the 0x7F / 0x80 boundary: the
    /// same value or error, and the same position.
    #[test]
    fn varint_fast_path_matches_the_byte_loop() {
        let mut streams = vec![vec![0x7F], vec![0x80], vec![0x80, 0x7F], vec![0xFF; 12]];
        for len in 0..=11 {
            let mut s = vec![0x80; len];
            s.push(0x7F);
            streams.push(s);
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let len = (state >> 60) as usize;
            // Bytes of the state, every third with its high bit forced on.
            let byte = |i: usize| {
                (state >> (8 * (i % 7))) as u8 | if i.is_multiple_of(3) { 0x80 } else { 0 }
            };
            streams.push((0..len).map(byte).collect());
        }
        for data in &streams {
            for start in 0..=data.len() {
                let (mut fast, mut long) = (start, start);
                let value = read_varint(data, &mut fast);
                assert_eq!(value, read_varint_long(data, &mut long), "{data:?} at {start}");
                assert_eq!(fast, long, "{data:?} at {start}");
            }
        }
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
