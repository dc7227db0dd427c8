use imagery::{RasterImage, Rect};

use crate::header::{Header, HEADER_LEN};
use crate::{color, dct, entropy, quant, CodecError, Quality, BLOCK, BLOCK_AREA};

/// Decodes an SJPG byte stream back to a raster image.
///
/// # Errors
///
/// Returns a [`CodecError`] describing the first structural defect found:
/// bad magic, unsupported version, invalid dimensions, quality or flags,
/// truncation, malformed entropy data, or trailing bytes after the final
/// block.
///
/// ```
/// use codec::{decode, CodecError};
/// assert!(matches!(decode(b"nope"), Err(CodecError::Truncated { .. })));
/// ```
pub fn decode(data: &[u8]) -> Result<RasterImage, CodecError> {
    Ok(read_classic(data, None)?.to_image())
}

/// Decodes only the pixels of `rect`: the result equals
/// `decode(data)?.crop(rect)` at the cost of the blocks `rect` overlaps.
///
/// The whole stream is still parsed (DC prediction chains through every
/// block of a plane and SJPG has no restart markers), so every structural
/// defect [`decode`] reports is reported here too, at the same offset. A
/// block outside `rect`'s block window is stepped over, not decoded: its
/// coefficients are never stored, dequantized, transformed or
/// colour-converted.
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
    Ok(read_classic(data, Some(rect))?.to_image())
}

/// [`decode_region`] without the image: the rows of `rect`, top to bottom,
/// each `rect.width × 3` interleaved RGB bytes, go to `sink` as they are
/// reconstructed, and no plane or image the size of `rect` is built. The
/// rows are those of [`decode_region`]'s image, byte for byte.
///
/// The stream is parsed in full before the first row is reconstructed, so
/// `sink` sees no row of a stream that fails.
///
/// # Errors
///
/// As [`decode_region`].
///
/// ```
/// use codec::{decode_region, decode_region_rows, encode, Quality};
/// use imagery::{synth::SynthSpec, Rect};
///
/// let img = SynthSpec::new(64, 48).complexity(0.5).render(1);
/// let bytes = encode(&img, Quality::default());
/// let rect = Rect::new(13, 7, 30, 21);
/// let mut rows = Vec::new();
/// decode_region_rows(&bytes, rect, |row| rows.extend_from_slice(row))?;
/// assert_eq!(rows, decode_region(&bytes, rect)?.as_raw());
/// # Ok::<(), codec::CodecError>(())
/// ```
pub fn decode_region_rows(
    data: &[u8],
    rect: Rect,
    sink: impl FnMut(&[u8]),
) -> Result<(), CodecError> {
    read_classic(data, Some(rect))?.for_each_row(sink);
    Ok(())
}

/// Entropy-decodes a classic stream's three planes, keeping the blocks of
/// `rect`'s window (the whole image for `None`) and stepping over the rest.
fn read_classic(data: &[u8], rect: Option<Rect>) -> Result<RegionBlocks, CodecError> {
    let header = Header::parse(data)?;
    let region = Region::new(header.width, header.height, rect)?;
    let mut pos = HEADER_LEN;
    // A block is at least a DC varint and an end-of-block byte.
    let mut blocks = region.block_storage(header.quality, (data.len() - pos) / 2, data.len())?;
    blocks.read_scan(data, &mut pos)?;
    if pos != data.len() {
        return Err(CodecError::TrailingData { remaining: data.len() - pos });
    }
    Ok(blocks)
}

/// The blocks of a plane that a pixel rectangle needs, inside the plane's
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

/// A pixel rectangle of an image together with the block window that
/// reconstructing it needs. Chroma is stored at full resolution, so Y, Cb
/// and Cr share the one window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Region {
    rect: Rect,
    pub(crate) window: BlockWindow,
}

impl Region {
    /// The region of `rect` (the whole image for `None`) in a
    /// `width × height` image.
    pub(crate) fn new(width: u32, height: u32, rect: Option<Rect>) -> Result<Region, CodecError> {
        let rect = rect.unwrap_or(Rect::full(width, height));
        if !rect.fits_in(width, height) {
            return Err(CodecError::RegionOutOfBounds { rect, width, height });
        }
        let b = BLOCK as u32;
        let (x1, y1) = (rect.x + rect.width - 1, rect.y + rect.height - 1);
        let window = BlockWindow {
            grid: (width.div_ceil(b), height.div_ceil(b)),
            origin: (rect.x / b, rect.y / b),
            size: (x1 / b - rect.x / b + 1, y1 / b - rect.y / b + 1),
        };
        Ok(Region { rect, window })
    }

    /// Zeroed storage for the region's quantized blocks, allocated only
    /// after the header's dimensions have been checked against the stream:
    /// `max_blocks` is how many blocks the entropy-coded bytes that remain
    /// could hold at the fewest bytes a block can take, whatever the header
    /// claims.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] at `end` (where the stream would
    /// run out) when the three planes hold more blocks than that.
    pub(crate) fn block_storage(
        &self,
        quality: Quality,
        max_blocks: usize,
        end: usize,
    ) -> Result<RegionBlocks, CodecError> {
        if 3 * self.window.plane_blocks() > max_blocks as u64 {
            return Err(CodecError::Truncated { offset: end });
        }
        Ok(RegionBlocks {
            quality,
            region: self.clone(),
            planes: std::array::from_fn(|_| vec![[0i16; BLOCK_AREA]; self.window.len()]),
        })
    }
}

/// The quantized blocks of a region's window, plane by plane in scan
/// order, with what turns them into pixels: the state between reading a
/// stream and reconstructing its rectangle.
#[derive(Debug)]
pub(crate) struct RegionBlocks {
    pub(crate) quality: Quality,
    pub(crate) region: Region,
    /// Plane `p`'s window blocks, zigzag-ordered.
    pub(crate) planes: [Vec<[i16; BLOCK_AREA]>; 3],
}

impl RegionBlocks {
    /// Reads the scan, every block of the three planes in turn, from `data`
    /// at `*pos`: the window's blocks are decoded into the planes, the
    /// others stepped over.
    ///
    /// # Errors
    ///
    /// The first entropy defect, as [`entropy::decode_band`] reports it.
    pub(crate) fn read_scan(&mut self, data: &[u8], pos: &mut usize) -> Result<(), CodecError> {
        for plane in &mut self.planes {
            let mut dc_pred = 0i16;
            self.region.window.for_each_block(|slot| match slot {
                Some(slot) => entropy::decode_band(data, pos, &mut dc_pred, &mut plane[slot]),
                None => entropy::skip_band(data, pos, &mut dc_pred),
            })?;
        }
        Ok(())
    }

    /// The back half of every decode: dequantizes, inverse-transforms and
    /// colour-converts the window one block row at a time, and hands each
    /// row of the rectangle, `rect.width × 3` RGB bytes, to `sink` top to
    /// bottom.
    ///
    /// A block row of all three planes is transformed into an eight-row
    /// band, and only the band's rows and columns inside the rectangle are
    /// colour-converted. Every pixel comes from the `f32` operations, in
    /// the order, of converting whole window planes (the oracle kept in the
    /// tests): `inverse_quantized`, `+ 128.0`, `ycbcr_row_to_rgb`.
    pub(crate) fn for_each_row(&self, mut sink: impl FnMut(&[u8])) {
        let window = self.region.window;
        let luma = quant::dequant_steps(&self.quality.luma_table());
        let chroma = quant::dequant_steps(&self.quality.chroma_table());
        let steps = [&luma, &chroma, &chroma];
        let cols = window.size.0 as usize;
        let band_width = cols * BLOCK;
        let mut bands: [Vec<f32>; 3] = std::array::from_fn(|_| vec![0f32; band_width * BLOCK]);

        let b = BLOCK as u32;
        let Rect { x, y, width, height } = self.region.rect;
        let at = (x - window.origin.0 * b) as usize;
        let w = width as usize;
        // The rectangle's rows, counted from the window's top edge.
        let rows = (y - window.origin.1 * b) as usize..(y - window.origin.1 * b + height) as usize;
        let mut rgb = vec![0u8; w * 3];
        for by in 0..window.size.1 as usize {
            for ((band, plane), steps) in bands.iter_mut().zip(&self.planes).zip(steps) {
                for (bx, zz) in plane[by * cols..][..cols].iter().enumerate() {
                    let block = dct::inverse_quantized(zz, steps);
                    let band_rows = band.chunks_exact_mut(band_width);
                    for (src, dst) in block.chunks_exact(BLOCK).zip(band_rows) {
                        for (d, s) in dst[bx * BLOCK..][..BLOCK].iter_mut().zip(src) {
                            *d = s + 128.0;
                        }
                    }
                }
            }
            // The band's rows that lie in the rectangle.
            let top = by * BLOCK;
            for row in rows.start.max(top)..rows.end.min(top + BLOCK) {
                let r = (row - top) * band_width + at;
                let [luma, cb, cr] = bands.each_ref().map(|band| &band[r..r + w]);
                color::ycbcr_row_to_rgb(luma, cb, cr, &mut rgb);
                sink(&rgb);
            }
        }
    }

    /// The rectangle's pixels, [`RegionBlocks::for_each_row`] copied into
    /// an image.
    pub(crate) fn to_image(&self) -> RasterImage {
        let Rect { width, height, .. } = self.region.rect;
        let mut raw = Vec::with_capacity(width as usize * height as usize * 3);
        self.for_each_row(|row| raw.extend_from_slice(row));
        RasterImage::from_raw(width, height, raw).expect("rows sized from the rectangle")
    }
}

/// The decode of every version before rows streamed, kept as the oracle
/// of the skipping walker and the band reconstructor: every block of every
/// plane is decoded and stored, and the window's planes are built whole.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::block::Plane;

    /// `decode_region` (`decode` for `None`) as it was.
    pub(crate) fn decode_classic(
        data: &[u8],
        rect: Option<Rect>,
    ) -> Result<RasterImage, CodecError> {
        let header = Header::parse(data)?;
        let region = Region::new(header.width, header.height, rect)?;
        let mut pos = HEADER_LEN;
        let blocks = region.block_storage(header.quality, (data.len() - pos) / 2, data.len())?;
        let mut quantized = blocks.planes;
        for plane in &mut quantized {
            let mut dc_pred = 0i16;
            region.window.for_each_block(|slot| {
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
        Ok(reconstruct_region(header.quality, &region, &quantized))
    }

    /// The back half of every decode as it was: whole window planes of
    /// `f32`, then the rectangle colour-converted row by row.
    pub(crate) fn reconstruct_region(
        quality: Quality,
        region: &Region,
        quantized: &[Vec<[i16; BLOCK_AREA]>; 3],
    ) -> RasterImage {
        let b = BLOCK as u32;
        let window = region.window;
        let luma_steps = quant::dequant_steps(&quality.luma_table());
        let chroma_steps = quant::dequant_steps(&quality.chroma_table());
        // Planes cover the block-aligned window, not the image.
        let mut planes: [Plane; 3] =
            std::array::from_fn(|_| Plane::new(window.size.0 * b, window.size.1 * b));
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

        // Color-convert row by row.
        let Rect { x, y, width, height } = region.rect;
        let w = width as usize;
        let at = (x - window.origin.0 * b) as usize;
        let mut raw = vec![0u8; w * height as usize * 3];
        for (rgb, row) in raw.chunks_exact_mut(w * 3).zip(y - window.origin.1 * b..) {
            let [luma, cb, cr] = planes.each_ref().map(|p| &p.row(row)[at..at + w]);
            color::ycbcr_row_to_rgb(luma, cb, cr, rgb);
        }
        RasterImage::from_raw(width, height, raw).expect("buffer sized from dimensions")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode;
    use imagery::synth::SynthSpec;
    use imagery::BilinearResizer;

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
        assert_eq!(decode(&bytes), Err(CodecError::TrailingData { remaining: 3 }));
    }

    #[test]
    fn empty_input_is_truncated() {
        assert!(matches!(decode(&[]), Err(CodecError::Truncated { .. })));
    }

    /// The codec half of the fused `Decode` → `RandomResizedCrop`:
    /// `rect`'s rows streamed into a 224 × 224 bilinear resize, through the
    /// entry point the pipeline routes the stream to.
    fn fused(data: &[u8], rect: Rect) -> Result<RasterImage, CodecError> {
        let mut resizer = BilinearResizer::new(rect.width, rect.height, 224, 224);
        decode_region_rows(data, rect, |row| resizer.push_row(row))?;
        Ok(resizer.finish())
    }

    /// Every byte of a stream, flipped to its complement, and every bit of
    /// the header, flipped alone: the full, the region and the streamed
    /// decoders never panic and return exactly what the storing walker and
    /// whole-plane reconstruction kept as the oracle return, the same
    /// pixels or the same error at the same offset.
    #[test]
    fn fuzz_corrupt_bytes_never_panic() {
        let img = SynthSpec::new(48, 32).complexity(0.7).render(4);
        let bytes = encode(&img, Quality::default());
        let rect = Rect::new(9, 5, 20, 18);
        let every_byte = (0..bytes.len()).map(|i| (i, 0xFF));
        let header_bits = (0..HEADER_LEN).flat_map(|i| (0..8).map(move |bit| (i, 1u8 << bit)));
        for (i, mask) in every_byte.chain(header_bits) {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= mask;
            let c = &corrupted[..];
            let oracle = reference::decode_classic(c, Some(rect));
            assert_eq!(decode(c), reference::decode_classic(c, None), "byte {i} ^ {mask:#x}");
            assert_eq!(decode_region(c, rect), oracle, "byte {i} ^ {mask:#x}");
            assert_eq!(
                fused(c, rect),
                oracle.map(|img| img.resize_bilinear(224, 224)),
                "byte {i} ^ {mask:#x}"
            );
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
        // 2^46 blocks, and nothing may be sized from the claim.
        let img = SynthSpec::new(24, 24).complexity(0.5).render(1);
        let bytes = encode(&img, Quality::default());
        let hostile = with_dimensions(bytes.clone(), 1 << 26, 1 << 26);
        assert!(
            matches!(decode(&hostile), Err(CodecError::Truncated { .. })),
            "{:?}",
            decode(&hostile).map(|_| ())
        );
        let rect = Rect::new(1 << 25, 1 << 25, 224, 224);
        assert!(matches!(decode_region(&hostile, rect), Err(CodecError::Truncated { .. })));
        // Slightly too large is caught the same way as absurdly large.
        let wider = with_dimensions(bytes, 48, 24);
        assert!(decode(&wider).is_err());
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
