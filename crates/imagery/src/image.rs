use crate::{BilinearResizer, ImageError, Rect, Rgb, CHANNELS};

/// An 8-bit interleaved RGB raster image.
///
/// Pixels are stored row-major, three bytes per pixel (`R`, `G`, `B`). This is
/// the in-memory representation produced by the `codec` crate's decoder and consumed
/// by the preprocessing pipeline — the analogue of a decoded PIL image in the
/// paper's PyTorch pipeline.
///
/// The *raw size* of an image, [`RasterImage::raw_len`], is what the paper's
/// Figure 1a reports after `RandomResizedCrop` / `RandomHorizontalFlip`:
/// `width × height × 3` bytes (224 × 224 × 3 = 150 528 bytes ≈ 151 KB for the
/// standard crop target).
///
/// ```
/// use imagery::{RasterImage, Rgb};
/// let mut img = RasterImage::filled(4, 2, Rgb::gray(7));
/// img.put_pixel(3, 1, Rgb::new(1, 2, 3));
/// assert_eq!(img.pixel(3, 1), Rgb::new(1, 2, 3));
/// assert_eq!(img.raw_len(), 4 * 2 * 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RasterImage {
    width: u32,
    height: u32,
    data: Vec<u8>,
}

impl RasterImage {
    /// Creates a black image of the given dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] when either dimension is zero
    /// or the byte size would overflow `usize`.
    pub(crate) fn new(width: u32, height: u32) -> Result<Self, ImageError> {
        let len = Self::checked_len(width, height)?;
        Ok(RasterImage { width, height, data: vec![0; len] })
    }

    /// Creates an image filled with a single color.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero. Use `RasterImage::new` for
    /// fallible construction.
    pub fn filled(width: u32, height: u32, color: Rgb) -> Self {
        let len = Self::checked_len(width, height).expect("invalid dimensions");
        let mut data = Vec::with_capacity(len);
        for _ in 0..(len / CHANNELS) {
            data.extend_from_slice(&[color.r, color.g, color.b]);
        }
        RasterImage { width, height, data }
    }

    /// Wraps an existing interleaved RGB buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::BufferSizeMismatch`] when `data.len()` is not
    /// `width * height * 3`, or [`ImageError::InvalidDimensions`] for empty
    /// dimensions.
    pub fn from_raw(width: u32, height: u32, data: Vec<u8>) -> Result<Self, ImageError> {
        let expected = Self::checked_len(width, height)?;
        if data.len() != expected {
            return Err(ImageError::BufferSizeMismatch { got: data.len(), expected });
        }
        Ok(RasterImage { width, height, data })
    }

    fn checked_len(width: u32, height: u32) -> Result<usize, ImageError> {
        if width == 0 || height == 0 {
            return Err(ImageError::InvalidDimensions { width, height });
        }
        (width as usize)
            .checked_mul(height as usize)
            .and_then(|p| p.checked_mul(CHANNELS))
            .ok_or(ImageError::InvalidDimensions { width, height })
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of pixels.
    pub fn pixel_count(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    /// Size of the raw pixel buffer in bytes (`width × height × 3`).
    ///
    /// This is the byte count a training pipeline would transfer when shipping
    /// the image uncompressed, and the quantity SOPHON compares against the
    /// encoded size when picking a split point.
    pub fn raw_len(&self) -> usize {
        self.data.len()
    }

    /// Borrows the raw interleaved RGB bytes.
    pub fn as_raw(&self) -> &[u8] {
        &self.data
    }

    /// Mutably borrows the raw interleaved RGB bytes.
    pub(crate) fn as_raw_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    #[inline]
    fn offset(&self, x: u32, y: u32) -> usize {
        (y as usize * self.width as usize + x as usize) * CHANNELS
    }

    /// Reads the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when `(x, y)` is outside the image.
    pub fn pixel(&self, x: u32, y: u32) -> Rgb {
        assert!(x < self.width && y < self.height, "pixel ({x},{y}) out of bounds");
        let o = self.offset(x, y);
        Rgb::new(self.data[o], self.data[o + 1], self.data[o + 2])
    }

    /// Writes the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when `(x, y)` is outside the image.
    pub fn put_pixel(&mut self, x: u32, y: u32, color: Rgb) {
        assert!(x < self.width && y < self.height, "pixel ({x},{y}) out of bounds");
        let o = self.offset(x, y);
        self.data[o] = color.r;
        self.data[o + 1] = color.g;
        self.data[o + 2] = color.b;
    }

    /// Extracts the sub-image described by `rect`.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::CropOutOfBounds`] when `rect` does not fit.
    pub fn crop(&self, rect: Rect) -> Result<RasterImage, ImageError> {
        if !rect.fits_in(self.width, self.height) {
            return Err(ImageError::CropOutOfBounds {
                rect,
                width: self.width,
                height: self.height,
            });
        }
        let mut data = Vec::with_capacity(rect.width as usize * rect.height as usize * CHANNELS);
        for row in rect.y..rect.y + rect.height {
            let start = self.offset(rect.x, row);
            let end = start + rect.width as usize * CHANNELS;
            data.extend_from_slice(&self.data[start..end]);
        }
        Ok(RasterImage { width: rect.width, height: rect.height, data })
    }

    /// Returns a horizontally mirrored copy (the `RandomHorizontalFlip`
    /// primitive).
    pub fn flip_horizontal(&self) -> RasterImage {
        let mut data = vec![0u8; self.data.len()];
        let row_bytes = self.width as usize * CHANNELS;
        for y in 0..self.height as usize {
            let src_row = &self.data[y * row_bytes..(y + 1) * row_bytes];
            let dst_row = &mut data[y * row_bytes..(y + 1) * row_bytes];
            for x in 0..self.width as usize {
                let src = x * CHANNELS;
                let dst = (self.width as usize - 1 - x) * CHANNELS;
                dst_row[dst..dst + CHANNELS].copy_from_slice(&src_row[src..src + CHANNELS]);
            }
        }
        RasterImage { width: self.width, height: self.height, data }
    }

    /// Resizes with bilinear interpolation to `new_width × new_height`
    /// (the resize half of `RandomResizedCrop`): a [`BilinearResizer`] fed
    /// the image's rows.
    ///
    /// # Panics
    ///
    /// Panics when either target dimension is zero.
    pub fn resize_bilinear(&self, new_width: u32, new_height: u32) -> RasterImage {
        let mut resizer = BilinearResizer::new(self.width, self.height, new_width, new_height);
        for row in self.data.chunks_exact(self.width as usize * CHANNELS) {
            resizer.push_row(row);
        }
        resizer.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: u32, h: u32) -> RasterImage {
        let mut img = RasterImage::new(w, h).unwrap();
        for y in 0..h {
            for x in 0..w {
                img.put_pixel(x, y, Rgb::new((x % 256) as u8, (y % 256) as u8, 128));
            }
        }
        img
    }

    #[test]
    fn new_rejects_zero_dims() {
        assert!(matches!(RasterImage::new(0, 5), Err(ImageError::InvalidDimensions { .. })));
        assert!(matches!(RasterImage::new(5, 0), Err(ImageError::InvalidDimensions { .. })));
    }

    #[test]
    fn from_raw_validates_len() {
        assert!(RasterImage::from_raw(2, 2, vec![0; 12]).is_ok());
        assert!(matches!(
            RasterImage::from_raw(2, 2, vec![0; 11]),
            Err(ImageError::BufferSizeMismatch { got: 11, expected: 12 })
        ));
    }

    #[test]
    fn crop_extracts_expected_pixels() {
        let img = gradient(16, 16);
        let c = img.crop(Rect::new(4, 6, 8, 4)).unwrap();
        assert_eq!((c.width(), c.height()), (8, 4));
        assert_eq!(c.pixel(0, 0), img.pixel(4, 6));
        assert_eq!(c.pixel(7, 3), img.pixel(11, 9));
    }

    #[test]
    fn crop_out_of_bounds_errors() {
        let img = gradient(8, 8);
        assert!(img.crop(Rect::new(4, 4, 8, 2)).is_err());
    }

    #[test]
    fn flip_is_involution() {
        let img = gradient(9, 5);
        assert_eq!(img.flip_horizontal().flip_horizontal(), img);
    }

    #[test]
    fn flip_mirrors_pixels() {
        let img = gradient(9, 5);
        let flipped = img.flip_horizontal();
        for y in 0..5 {
            for x in 0..9 {
                assert_eq!(flipped.pixel(x, y), img.pixel(8 - x, y));
            }
        }
    }

    #[test]
    fn resize_identity_is_noop() {
        let img = gradient(10, 10);
        assert_eq!(img.resize_bilinear(10, 10), img);
    }

    #[test]
    fn resize_constant_image_stays_constant() {
        let img = RasterImage::filled(31, 17, Rgb::new(50, 100, 150));
        let out = img.resize_bilinear(224, 224);
        for y in [0u32, 100, 223] {
            for x in [0u32, 57, 223] {
                assert_eq!(out.pixel(x, y), Rgb::new(50, 100, 150));
            }
        }
    }

    #[test]
    fn resize_changes_raw_len() {
        let img = gradient(100, 80);
        let out = img.resize_bilinear(224, 224);
        assert_eq!(out.raw_len(), 224 * 224 * 3);
        assert_eq!(out.raw_len(), 150_528);
    }

    /// The per-pixel bilinear resize `resize_bilinear` is checked against:
    /// taps and weights recomputed for every destination pixel, `f64::round`.
    fn resize_reference(img: &RasterImage, new_width: u32, new_height: u32) -> RasterImage {
        if new_width == img.width && new_height == img.height {
            return img.clone();
        }
        let mut data = Vec::with_capacity(new_width as usize * new_height as usize * CHANNELS);
        let sx = f64::from(img.width) / f64::from(new_width);
        let sy = f64::from(img.height) / f64::from(new_height);
        for dy in 0..new_height {
            let fy = ((f64::from(dy) + 0.5) * sy - 0.5).max(0.0);
            let y0 = (fy.floor() as u32).min(img.height - 1);
            let y1 = (y0 + 1).min(img.height - 1);
            let wy = fy - f64::from(y0);
            for dx in 0..new_width {
                let fx = ((f64::from(dx) + 0.5) * sx - 0.5).max(0.0);
                let x0 = (fx.floor() as u32).min(img.width - 1);
                let x1 = (x0 + 1).min(img.width - 1);
                let wx = fx - f64::from(x0);
                for c in 0..CHANNELS {
                    let at = |x, y| f64::from(img.data[img.offset(x, y) + c]);
                    let top = at(x0, y0) + (at(x1, y0) - at(x0, y0)) * wx;
                    let bottom = at(x0, y1) + (at(x1, y1) - at(x0, y1)) * wx;
                    let v = top + (bottom - top) * wy;
                    data.push(v.round().clamp(0.0, 255.0) as u8);
                }
            }
        }
        RasterImage { width: new_width, height: new_height, data }
    }

    /// Every byte value next to every other somewhere, no smooth runs.
    fn noise(w: u32, h: u32) -> RasterImage {
        let mut state = u64::from(w) << 32 | u64::from(h);
        let data = (0..w as usize * h as usize * CHANNELS)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        RasterImage::from_raw(w, h, data).unwrap()
    }

    #[test]
    fn resize_matches_the_per_pixel_reference() {
        let shapes = [(1u32, 1u32), (1, 9), (9, 1), (2, 2), (7, 5), (31, 17), (64, 48), (224, 224)];
        let targets =
            [(1u32, 1u32), (2, 3), (7, 5), (16, 16), (31, 17), (50, 200), (224, 224), (300, 40)];
        for (w, h) in shapes {
            for img in [noise(w, h), gradient(w, h)] {
                for (nw, nh) in targets {
                    assert_eq!(
                        img.resize_bilinear(nw, nh),
                        resize_reference(&img, nw, nh),
                        "{w}x{h} -> {nw}x{nh}"
                    );
                }
            }
        }
    }
}
