use imagery::{RasterImage, Rect};

use crate::block::Plane;
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
    let region = Region::new(header.width, header.height, rect)?;

    // Entropy-decode all three planes, keeping the region's blocks.
    let mut pos = HEADER_LEN;
    // A block is at least a DC varint and an end-of-block byte.
    let mut quantized = region.block_storage((data.len() - pos) / 2, data.len())?;
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
        max_blocks: usize,
        end: usize,
    ) -> Result<[Vec<[i16; BLOCK_AREA]>; 3], CodecError> {
        if 3 * self.window.plane_blocks() > max_blocks as u64 {
            return Err(CodecError::Truncated { offset: end });
        }
        Ok(std::array::from_fn(|_| vec![[0i16; BLOCK_AREA]; self.window.len()]))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode, encode_tiered, TierSpec};
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
        assert_eq!(decode(&bytes), Err(CodecError::TrailingData { remaining: 3 }));
    }

    #[test]
    fn empty_input_is_truncated() {
        assert!(matches!(decode(&[]), Err(CodecError::Truncated { .. })));
    }

    /// Every byte of a classic and of a tiered stream, flipped to its
    /// complement, and every bit of the header, flipped alone: the full
    /// and the region decoder return a value or a typed error, never panic.
    #[test]
    fn fuzz_corrupt_bytes_never_panic() {
        let img = SynthSpec::new(48, 32).complexity(0.7).render(4);
        let classic = encode(&img, Quality::default());
        let tiered = encode_tiered(&img, Quality::default(), &TierSpec::default());
        let rect = Rect::new(9, 5, 20, 18);
        for bytes in [&classic, &tiered] {
            let every_byte = (0..bytes.len()).map(|i| (i, 0xFF));
            let header_bits = (0..HEADER_LEN).flat_map(|i| (0..8).map(move |bit| (i, 1u8 << bit)));
            for (i, mask) in every_byte.chain(header_bits) {
                let mut corrupted = bytes.clone();
                corrupted[i] ^= mask;
                // Must not panic; any Result is acceptable.
                let _ = decode(&corrupted);
                let _ = decode_region(&corrupted, rect);
                let _ = crate::decode_tiered(&corrupted);
                let _ = crate::decode_tiered_region(&corrupted, rect);
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
