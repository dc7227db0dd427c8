use imagery::{RasterImage, Rect};

use crate::bits::BitReader;
use crate::block::Plane;
use crate::encoder::chroma_dims;
use crate::header::{Header, HEADER_LEN};
use crate::huffman::HuffmanTable;
use crate::{
    color, dct, entropy, entropy_huff, quant, CodecError, EncodeOptions, EntropyMode, Quality,
    Subsampling, BLOCK, BLOCK_AREA,
};

/// Decodes an SJPG byte stream back to a raster image.
///
/// Handles every encode mode (4:4:4 / 4:2:0 chroma, RLE-varint / Huffman
/// entropy) from the header's flags.
///
/// # Errors
///
/// Returns a [`CodecError`] describing the first structural defect found:
/// bad magic, unsupported version, invalid dimensions or flags, truncation,
/// malformed entropy data, or trailing bytes after the final block.
///
/// ```
/// use codec::{decode, CodecError};
/// assert!(matches!(decode(b"nope"), Err(CodecError::Truncated { .. })));
/// ```
pub fn decode(data: &[u8]) -> Result<RasterImage, CodecError> {
    decode_classic(data, None)
}

/// Decodes only the pixels of `rect`: the result equals
/// `decode(data)?.crop(rect)` at the cost of the blocks `rect` overlaps.
///
/// The whole stream is still parsed (DC prediction chains through every
/// block of a plane and SJPG has no restart markers), so every structural
/// defect [`decode`] reports is reported here too; what is skipped is
/// dequantization, the inverse DCT and colour conversion outside `rect`.
///
/// # Errors
///
/// As [`decode`], plus [`CodecError::RegionOutOfBounds`] when `rect` is
/// empty or does not fit the header's dimensions.
///
/// ```
/// use codec::{decode, decode_region, encode, Quality};
/// use imagery::{synth::SynthSpec, Rect};
///
/// let img = SynthSpec::new(64, 48).complexity(0.5).render(1);
/// let bytes = encode(&img, Quality::default());
/// let rect = Rect::new(13, 7, 30, 21);
/// assert_eq!(decode_region(&bytes, rect)?, decode(&bytes)?.crop(rect).unwrap());
/// # Ok::<(), codec::CodecError>(())
/// ```
pub fn decode_region(data: &[u8], rect: Rect) -> Result<RasterImage, CodecError> {
    decode_classic(data, Some(rect))
}

fn decode_classic(data: &[u8], rect: Option<Rect>) -> Result<RasterImage, CodecError> {
    let header = Header::parse(data)?;
    let quality = Quality::new(header.quality).expect("validated by Header::parse");
    let opts =
        EncodeOptions::from_flags(quality, header.flags).expect("flags validated by Header::parse");
    let region = Region::new(header.width, header.height, opts.subsampling, rect)?;

    // Entropy-decode all three planes, keeping the region's blocks.
    let quantized = match opts.entropy {
        EntropyMode::RleVarint => {
            let mut pos = HEADER_LEN;
            // A block is at least a DC varint and an end-of-block byte.
            let mut quantized = region.block_storage((data.len() - pos) / 2, data.len())?;
            for (plane, window) in quantized.iter_mut().zip(&region.windows) {
                let mut dc_pred = 0i16;
                window.for_each_block(|slot| {
                    let zz = entropy::decode_block(data, &mut pos, &mut dc_pred)?;
                    if let Some(slot) = slot {
                        plane[slot] = zz;
                    }
                    Ok(())
                })?;
            }
            if pos != data.len() {
                return Err(CodecError::TrailingData { remaining: data.len() - pos });
            }
            quantized
        }
        EntropyMode::Huffman => {
            let mut pos = HEADER_LEN;
            let luma = entropy_huff::TablePair {
                dc: HuffmanTable::parse(data, &mut pos)?,
                ac: HuffmanTable::parse(data, &mut pos)?,
            };
            let chroma = entropy_huff::TablePair {
                dc: HuffmanTable::parse(data, &mut pos)?,
                ac: HuffmanTable::parse(data, &mut pos)?,
            };
            let len_bytes = data.get(pos..pos + 4).ok_or(CodecError::Truncated { offset: pos })?;
            let stream_len =
                u32::from_le_bytes(len_bytes.try_into().expect("sliced 4 bytes")) as usize;
            pos += 4;
            let stream =
                data.get(pos..pos + stream_len).ok_or(CodecError::Truncated { offset: pos })?;
            if pos + stream_len != data.len() {
                return Err(CodecError::TrailingData { remaining: data.len() - pos - stream_len });
            }
            // A block is at least a DC symbol and an AC symbol, one bit each:
            // four blocks to the byte.
            let mut quantized = region.block_storage(stream_len * 4, data.len())?;
            let mut reader = BitReader::new(stream);
            for (i, (plane, window)) in quantized.iter_mut().zip(&region.windows).enumerate() {
                let tables = if i == 0 { &luma } else { &chroma };
                let mut dc_pred = 0i32;
                window.for_each_block(|slot| {
                    let zz = entropy_huff::decode_block(&mut reader, tables, &mut dc_pred)?;
                    if let Some(slot) = slot {
                        plane[slot] = zz;
                    }
                    Ok(())
                })?;
            }
            quantized
        }
    };

    Ok(reconstruct_region(quality, &region, &quantized))
}

/// The blocks of one plane that a pixel rectangle needs, inside the plane's
/// full block grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockWindow {
    /// Block columns and rows of the whole plane.
    grid: (u32, u32),
    /// First block column and row of the window.
    origin: (u32, u32),
    /// Block columns and rows of the window.
    size: (u32, u32),
}

impl BlockWindow {
    /// The window covering samples `[x0, x1] × [y0, y1]` (inclusive) of a
    /// `width × height` plane.
    fn covering(
        width: u32,
        height: u32,
        (x0, x1): (u32, u32),
        (y0, y1): (u32, u32),
    ) -> BlockWindow {
        let b = BLOCK as u32;
        BlockWindow {
            grid: (width.div_ceil(b), height.div_ceil(b)),
            origin: (x0 / b, y0 / b),
            size: (x1 / b - x0 / b + 1, y1 / b - y0 / b + 1),
        }
    }

    /// Blocks in the whole plane.
    fn plane_blocks(&self) -> u64 {
        u64::from(self.grid.0) * u64::from(self.grid.1)
    }

    /// Blocks in the window.
    fn len(&self) -> usize {
        self.size.0 as usize * self.size.1 as usize
    }

    /// Visits every block of the plane in scan order, passing the block's
    /// index within the window, or `None` for a block outside it.
    pub(crate) fn for_each_block<E>(
        &self,
        mut visit: impl FnMut(Option<usize>) -> Result<(), E>,
    ) -> Result<(), E> {
        let (ox, oy) = self.origin;
        let (nx, ny) = self.size;
        for by in 0..self.grid.1 {
            let row = by.checked_sub(oy).filter(|&row| row < ny);
            for bx in 0..self.grid.0 {
                let col = bx.checked_sub(ox).filter(|&col| col < nx);
                visit(row.zip(col).map(|(row, col)| row as usize * nx as usize + col as usize))?;
            }
        }
        Ok(())
    }
}

/// A pixel rectangle of an image together with the block windows of the
/// three planes that reconstructing it needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Region {
    rect: Rect,
    subsampling: Subsampling,
    /// Chroma plane dimensions.
    chroma: (u32, u32),
    /// Block windows of Y, Cb, Cr.
    pub(crate) windows: [BlockWindow; 3],
}

impl Region {
    /// The region of `rect` (the whole image for `None`) in a
    /// `width × height` image.
    ///
    /// With [`Subsampling::S420`] the decoder upsamples chroma by nearest
    /// neighbour at absolute coordinates, so the chroma blocks needed are
    /// exactly those covering the image of `rect` under that map: there is
    /// no filter support to widen by.
    pub(crate) fn new(
        width: u32,
        height: u32,
        subsampling: Subsampling,
        rect: Option<Rect>,
    ) -> Result<Region, CodecError> {
        let rect = rect.unwrap_or(Rect::full(width, height));
        if !rect.fits_in(width, height) {
            return Err(CodecError::RegionOutOfBounds { rect, width, height });
        }
        let (cw, ch) = chroma_dims(width, height, subsampling);
        let xs = (rect.x, rect.x + rect.width - 1);
        let ys = (rect.y, rect.y + rect.height - 1);
        let luma = BlockWindow::covering(width, height, xs, ys);
        let chroma = BlockWindow::covering(
            cw,
            ch,
            (chroma_coord(xs.0, cw, subsampling), chroma_coord(xs.1, cw, subsampling)),
            (chroma_coord(ys.0, ch, subsampling), chroma_coord(ys.1, ch, subsampling)),
        );
        Ok(Region { rect, subsampling, chroma: (cw, ch), windows: [luma, chroma, chroma] })
    }

    /// Zeroed storage for the region's quantized blocks, allocated only
    /// after the header's dimensions have been checked against the stream:
    /// `max_blocks` is how many blocks the entropy-coded bytes that remain
    /// could hold at the fewest bits a block can take, whatever the header
    /// claims.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] at `end` (where the stream would
    /// run out) when the three planes hold more blocks than that.
    pub(crate) fn block_storage(
        &self,
        max_blocks: usize,
        end: usize,
    ) -> Result<[Vec<[i16; BLOCK_AREA]>; 3], CodecError> {
        let blocks: u64 = self.windows.iter().map(BlockWindow::plane_blocks).sum();
        if blocks > max_blocks as u64 {
            return Err(CodecError::Truncated { offset: end });
        }
        Ok(self.windows.map(|w| vec![[0i16; BLOCK_AREA]; w.len()]))
    }
}

/// The chroma sample a luma coordinate reads, along one axis of a chroma
/// plane `extent` samples long.
fn chroma_coord(luma: u32, extent: u32, subsampling: Subsampling) -> u32 {
    match subsampling {
        Subsampling::S444 => luma,
        Subsampling::S420 => (luma / 2).min(extent - 1),
    }
}

/// Dequantizes, inverse-transforms, and color-converts the region's
/// quantized blocks (`quantized[p]` holds plane `p`'s window in scan order)
/// to the pixels of its rectangle: the back half of every decode, classic
/// or tiered, whole image or crop.
pub(crate) fn reconstruct_region(
    quality: Quality,
    region: &Region,
    quantized: &[Vec<[i16; BLOCK_AREA]>; 3],
) -> RasterImage {
    let b = BLOCK as u32;
    let luma_steps = quant::dequant_steps(&quality.luma_table());
    let chroma_steps = quant::dequant_steps(&quality.chroma_table());
    // Planes cover the block-aligned windows, not the image.
    let mut planes = region.windows.map(|w| Plane::new(w.size.0 * b, w.size.1 * b));
    for (i, (plane, blocks)) in planes.iter_mut().zip(quantized).enumerate() {
        let steps = if i == 0 { &luma_steps } else { &chroma_steps };
        let mut blocks = blocks.iter();
        for by in 0..plane.blocks_y() {
            for bx in 0..plane.blocks_x() {
                let zz = blocks.next().expect("storage sized from the window");
                plane.place_block(bx, by, &dct::inverse_quantized(zz, steps));
            }
        }
    }

    // Color-convert row by row, upsampling chroma when subsampled.
    let Rect { x, y, width, height } = region.rect;
    let [luma, chroma, _] = region.windows;
    let (cw, ch) = region.chroma;
    let w = width as usize;
    let luma_x = (x - luma.origin.0 * b) as usize;
    let chroma_x = |xx| (chroma_coord(xx, cw, region.subsampling) - chroma.origin.0 * b) as usize;
    // 4:2:0 gathers each chroma row through this map into full-width rows.
    let upsample: Vec<usize> = match region.subsampling {
        Subsampling::S444 => Vec::new(),
        Subsampling::S420 => (x..x + width).map(chroma_x).collect(),
    };
    let (mut cb_row, mut cr_row) = (vec![0f32; upsample.len()], vec![0f32; upsample.len()]);
    let mut raw = vec![0u8; w * height as usize * 3];
    for (rgb, yy) in raw.chunks_exact_mut(w * 3).zip(y..) {
        let y_row = &planes[0].row(yy - luma.origin.1 * b)[luma_x..luma_x + w];
        let cy = chroma_coord(yy, ch, region.subsampling) - chroma.origin.1 * b;
        let (cb, cr) = (planes[1].row(cy), planes[2].row(cy));
        match region.subsampling {
            Subsampling::S444 => {
                let at = chroma_x(x);
                color::ycbcr_row_to_rgb(y_row, &cb[at..at + w], &cr[at..at + w], rgb);
            }
            Subsampling::S420 => {
                for ((b_out, r_out), &at) in cb_row.iter_mut().zip(&mut cr_row).zip(&upsample) {
                    *b_out = cb[at];
                    *r_out = cr[at];
                }
                color::ycbcr_row_to_rgb(y_row, &cb_row, &cr_row, rgb);
            }
        }
    }
    RasterImage::from_raw(width, height, raw).expect("buffer sized from dimensions")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode, encode_with};
    use imagery::synth::SynthSpec;

    #[test]
    fn rejects_truncated_body() {
        let img = SynthSpec::new(40, 40).complexity(0.5).render(1);
        let bytes = encode(&img, Quality::default());
        let cut = &bytes[..bytes.len() - 10];
        assert!(decode(cut).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let img = SynthSpec::new(24, 24).complexity(0.5).render(1);
        let mut bytes = encode(&img, Quality::default());
        bytes.extend_from_slice(&[1, 2, 3]);
        assert!(decode(&bytes).is_err(), "decode accepted trailing garbage");
    }

    #[test]
    fn rejects_trailing_garbage_huffman() {
        let img = SynthSpec::new(24, 24).complexity(0.5).render(1);
        let mut bytes = encode_with(
            &img,
            &EncodeOptions::new(Quality::default()).entropy(EntropyMode::Huffman),
        );
        bytes.extend_from_slice(&[1, 2, 3]);
        assert!(decode(&bytes).is_err(), "decode accepted trailing garbage");
    }

    #[test]
    fn empty_input_is_truncated() {
        assert!(matches!(decode(&[]), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn fuzz_corrupt_bytes_never_panic() {
        let img = SynthSpec::new(48, 32).complexity(0.7).render(4);
        for opts in [
            EncodeOptions::new(Quality::default()),
            EncodeOptions::new(Quality::default())
                .entropy(EntropyMode::Huffman)
                .subsampling(Subsampling::S420),
        ] {
            let bytes = encode_with(&img, &opts);
            for i in (0..bytes.len()).step_by(5) {
                let mut corrupted = bytes.clone();
                corrupted[i] ^= 0xA5;
                // Must not panic; any Result is acceptable.
                let _ = decode(&corrupted);
            }
        }
    }

    /// Overwrites the header's width and height.
    fn with_dimensions(mut bytes: Vec<u8>, width: u32, height: u32) -> Vec<u8> {
        bytes[5..9].copy_from_slice(&width.to_le_bytes());
        bytes[9..13].copy_from_slice(&height.to_le_bytes());
        bytes
    }

    #[test]
    fn hostile_dimensions_are_typed_errors_before_any_allocation() {
        // 2^26 x 2^26 passes `Header::parse`; a few hundred bytes cannot hold
        // 2^46 blocks, and nothing may be sized from the claim (the Huffman
        // path used to `Vec::with_capacity` it and abort the process).
        let img = SynthSpec::new(24, 24).complexity(0.5).render(1);
        for entropy in [EntropyMode::RleVarint, EntropyMode::Huffman] {
            let opts = EncodeOptions::new(Quality::default()).entropy(entropy);
            let hostile = with_dimensions(encode_with(&img, &opts), 1 << 26, 1 << 26);
            assert!(
                matches!(decode(&hostile), Err(CodecError::Truncated { .. })),
                "{entropy:?}: {:?}",
                decode(&hostile).map(|_| ())
            );
            let rect = Rect::new(1 << 25, 1 << 25, 224, 224);
            assert!(matches!(decode_region(&hostile, rect), Err(CodecError::Truncated { .. })));
            // Slightly too large is caught the same way as absurdly large.
            let wider = with_dimensions(encode_with(&img, &opts), 48, 24);
            assert!(decode(&wider).is_err(), "{entropy:?}");
        }
    }

    #[test]
    fn region_outside_the_image_is_a_typed_error() {
        let img = SynthSpec::new(40, 30).complexity(0.5).render(2);
        let bytes = encode(&img, Quality::default());
        for rect in [
            Rect::new(0, 0, 41, 30),
            Rect::new(39, 29, 2, 1),
            Rect::new(0, 0, 0, 5),
            Rect::new(u32::MAX, 0, 2, 2),
        ] {
            assert_eq!(
                decode_region(&bytes, rect),
                Err(CodecError::RegionOutOfBounds { rect, width: 40, height: 30 })
            );
        }
        // A defective stream reports its own defect, whatever the rectangle.
        assert_eq!(decode_region(b"nope", Rect::new(0, 0, 0, 0)), decode(b"nope"));
    }
}
