//! JPEG-style Huffman entropy coding of quantized coefficient blocks.
//!
//! Per block (zigzag order): the DC coefficient is coded as a *size
//! category* symbol followed by that many magnitude bits of the
//! DC-prediction difference (JPEG's one's-complement convention for
//! negatives); each nonzero AC coefficient as a `(run << 4) | size` symbol
//! plus magnitude bits, with `0xF0` (ZRL) for 16 consecutive zeros and
//! `0x00` (EOB) ending the block. Tables are adaptive: the encoder counts
//! symbols in a first pass, builds canonical tables, and serializes them
//! ahead of the bitstream.

use crate::bits::{BitReader, BitWriter};
use crate::huffman::HuffmanTable;
use crate::{CodecError, BLOCK_AREA};

/// End-of-block symbol.
pub const EOB: u8 = 0x00;
/// Zero-run-length symbol (16 zeros).
pub const ZRL: u8 = 0xF0;

/// Number of magnitude bits needed for `v` (JPEG size category).
fn size_category(v: i32) -> u32 {
    let mag = v.unsigned_abs();
    32 - mag.leading_zeros()
}

/// JPEG magnitude-bit encoding: positives as-is, negatives one's-complement.
fn magnitude_bits(v: i32, size: u32) -> u32 {
    if v >= 0 {
        v as u32
    } else {
        (v - 1) as u32 & ((1u32 << size) - 1)
    }
}

/// Inverse of [`magnitude_bits`].
fn decode_magnitude(bits: u32, size: u32) -> i32 {
    if size == 0 {
        0
    } else if bits < (1 << (size - 1)) {
        bits as i32 - (1 << size) + 1
    } else {
        bits as i32
    }
}

/// Walks one block emitting `(symbol, value-size, value-bits)` triples to a
/// visitor — shared by the counting and the writing passes.
fn visit_block<F: FnMut(u8, u32, u32)>(zz: &[i16; BLOCK_AREA], dc_pred: &mut i16, mut emit: F) {
    let diff = i32::from(zz[0]) - i32::from(*dc_pred);
    *dc_pred = zz[0];
    let dc_size = size_category(diff);
    emit(dc_size as u8, dc_size, magnitude_bits(diff, dc_size));

    let mut run = 0u32;
    for &c in &zz[1..] {
        if c == 0 {
            run += 1;
            continue;
        }
        while run >= 16 {
            emit(ZRL, 0, 0);
            run -= 16;
        }
        let size = size_category(i32::from(c));
        emit(((run as u8) << 4) | size as u8, size, magnitude_bits(i32::from(c), size));
        run = 0;
    }
    // EOB is needed exactly when the final coefficient is zero (JPEG omits
    // it when coefficient 63 is coded explicitly).
    if zz[BLOCK_AREA - 1] == 0 {
        emit(EOB, 0, 0);
    }
}

/// Adaptive table pair for one plane class (luma or chroma).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TablePair {
    /// DC size-category table.
    pub dc: HuffmanTable,
    /// AC (run, size) table.
    pub ac: HuffmanTable,
}

/// Counts symbol frequencies over a sequence of plane block lists.
/// `planes[i]` is all blocks of plane `i` in scan order.
pub fn count_frequencies(planes: &[&[[i16; BLOCK_AREA]]]) -> TablePairFreq {
    let mut dc = [0u64; 256];
    let mut ac = [0u64; 256];
    for blocks in planes {
        let mut pred = 0i16;
        for zz in blocks.iter() {
            let mut first = true;
            visit_block(zz, &mut pred, |sym, _, _| {
                if first {
                    dc[usize::from(sym)] += 1;
                    first = false;
                } else {
                    ac[usize::from(sym)] += 1;
                }
            });
        }
    }
    // Every table must have at least one symbol even for empty planes.
    if dc.iter().all(|&f| f == 0) {
        dc[0] = 1;
    }
    if ac.iter().all(|&f| f == 0) {
        ac[usize::from(EOB)] = 1;
    }
    TablePairFreq { dc, ac }
}

/// Raw frequency vectors for a [`TablePair`].
#[derive(Debug)]
pub struct TablePairFreq {
    /// DC symbol frequencies.
    pub dc: [u64; 256],
    /// AC symbol frequencies.
    pub ac: [u64; 256],
}

impl TablePairFreq {
    /// Builds the canonical tables.
    pub fn build(&self) -> TablePair {
        TablePair {
            dc: HuffmanTable::from_frequencies(&self.dc),
            ac: HuffmanTable::from_frequencies(&self.ac),
        }
    }
}

/// Writes the blocks of one plane into the bitstream.
pub fn encode_plane(blocks: &[[i16; BLOCK_AREA]], tables: &TablePair, w: &mut BitWriter) {
    let mut pred = 0i16;
    for zz in blocks {
        let mut first = true;
        visit_block(zz, &mut pred, |sym, size, bits| {
            let table = if first { &tables.dc } else { &tables.ac };
            first = false;
            table.write_symbol(sym, w);
            if size > 0 {
                w.put(bits, size);
            }
        });
    }
}

/// Reads the next block of a plane from the bitstream. `pred` is the DC
/// prediction carried from the previous block of the same plane (zero at
/// the start of a plane) and is updated to this block's DC.
///
/// # Errors
///
/// Returns [`CodecError`] on truncation, invalid codes, or run overflow.
pub fn decode_block(
    r: &mut BitReader<'_>,
    tables: &TablePair,
    pred: &mut i32,
) -> Result<[i16; BLOCK_AREA], CodecError> {
    let mut zz = [0i16; BLOCK_AREA];
    // DC.
    let dc_size = u32::from(tables.dc.read_symbol(r)?);
    if dc_size > 16 {
        return Err(CodecError::RunOverflow { offset: r.bytes_consumed() });
    }
    let bits = if dc_size > 0 { r.bits(dc_size)? } else { 0 };
    // Wrapping: a hostile stream of maximal differences must produce garbage
    // coefficients, not a debug-build overflow panic.
    *pred = pred.wrapping_add(decode_magnitude(bits, dc_size));
    zz[0] = *pred as i16;
    // AC.
    let mut idx = 1usize;
    while idx < BLOCK_AREA {
        let sym = tables.ac.read_symbol(r)?;
        if sym == EOB {
            break;
        }
        if sym == ZRL {
            idx += 16;
            continue;
        }
        let run = usize::from(sym >> 4);
        let size = u32::from(sym & 0x0F);
        if size == 0 {
            return Err(CodecError::RunOverflow { offset: r.bytes_consumed() });
        }
        idx += run;
        if idx >= BLOCK_AREA {
            return Err(CodecError::RunOverflow { offset: r.bytes_consumed() });
        }
        let bits = r.bits(size)?;
        zz[idx] = decode_magnitude(bits, size) as i16;
        idx += 1;
    }
    if idx > BLOCK_AREA {
        return Err(CodecError::RunOverflow { offset: r.bytes_consumed() });
    }
    Ok(zz)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_plane(
        r: &mut BitReader<'_>,
        tables: &TablePair,
        count: usize,
    ) -> Result<Vec<[i16; BLOCK_AREA]>, CodecError> {
        let mut pred = 0i32;
        (0..count).map(|_| decode_block(r, tables, &mut pred)).collect()
    }

    fn sample_blocks(n: usize, seed: u64) -> Vec<[i16; BLOCK_AREA]> {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        (0..n)
            .map(|_| {
                let mut zz = [0i16; BLOCK_AREA];
                zz[0] = (next() % 2048) as i16 - 1024;
                // Sparse AC pattern typical of quantized DCT blocks.
                for _ in 0..(next() % 12) {
                    let idx = 1 + (next() as usize % (BLOCK_AREA - 1));
                    zz[idx] = (next() % 64) as i16 - 32;
                }
                zz
            })
            .collect()
    }

    #[test]
    fn magnitude_encoding_roundtrips() {
        for v in -1100i32..=1100 {
            let size = size_category(v);
            assert_eq!(decode_magnitude(magnitude_bits(v, size), size), v, "value {v}");
        }
    }

    #[test]
    fn size_category_matches_jpeg_definition() {
        assert_eq!(size_category(0), 0);
        assert_eq!(size_category(1), 1);
        assert_eq!(size_category(-1), 1);
        assert_eq!(size_category(2), 2);
        assert_eq!(size_category(-3), 2);
        assert_eq!(size_category(255), 8);
        assert_eq!(size_category(-256), 9);
    }

    #[test]
    fn plane_roundtrip() {
        let blocks = sample_blocks(200, 7);
        let freq = count_frequencies(&[&blocks]);
        let tables = freq.build();
        let mut w = BitWriter::new();
        encode_plane(&blocks, &tables, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let back = decode_plane(&mut r, &tables, blocks.len()).unwrap();
        assert_eq!(back, blocks);
    }

    #[test]
    fn all_zero_plane_roundtrip() {
        let blocks = vec![[0i16; BLOCK_AREA]; 10];
        let freq = count_frequencies(&[&blocks]);
        let tables = freq.build();
        let mut w = BitWriter::new();
        encode_plane(&blocks, &tables, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode_plane(&mut r, &tables, 10).unwrap(), blocks);
        // All-zero blocks cost ~2 symbols each: the stream stays tiny.
        assert!(bytes.len() <= 10, "zero plane took {} bytes", bytes.len());
    }

    #[test]
    fn last_coefficient_nonzero_omits_eob() {
        let mut zz = [0i16; BLOCK_AREA];
        zz[BLOCK_AREA - 1] = 5;
        let blocks = vec![zz];
        let tables = count_frequencies(&[&blocks]).build();
        let mut w = BitWriter::new();
        encode_plane(&blocks, &tables, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode_plane(&mut r, &tables, 1).unwrap(), blocks);
    }

    #[test]
    fn long_zero_runs_use_zrl() {
        let mut zz = [0i16; BLOCK_AREA];
        zz[40] = -7; // 39 zeros = 2 ZRL + run 7
        let blocks = vec![zz];
        let tables = count_frequencies(&[&blocks]).build();
        let mut w = BitWriter::new();
        encode_plane(&blocks, &tables, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode_plane(&mut r, &tables, 1).unwrap(), blocks);
    }

    #[test]
    fn truncated_stream_errors() {
        let blocks = sample_blocks(50, 3);
        let tables = count_frequencies(&[&blocks]).build();
        let mut w = BitWriter::new();
        encode_plane(&blocks, &tables, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes[..bytes.len() / 2]);
        assert!(decode_plane(&mut r, &tables, blocks.len()).is_err());
    }

    #[test]
    fn huffman_beats_varint_on_typical_blocks() {
        // Compare against the byte-aligned RLE coder on the same blocks.
        let blocks = sample_blocks(500, 11);
        let tables = count_frequencies(&[&blocks]).build();
        let mut w = BitWriter::new();
        encode_plane(&blocks, &tables, &mut w);
        let huff_len = w.finish().len() + tables.dc.serialized_len() + tables.ac.serialized_len();

        let mut rle = Vec::new();
        let mut pred = 0i16;
        for zz in &blocks {
            crate::entropy::encode_block(zz, &mut pred, &mut rle);
        }
        assert!(huff_len < rle.len(), "huffman {huff_len} should beat rle {}", rle.len());
    }
}
