use crate::{RasterImage, CHANNELS};

/// A CHW `f32` tensor, the representation produced by `ToTensor`.
///
/// `ToTensor` converts each `u8` channel value in `[0, 255]` to an `f32` in
/// `[0.0, 1.0]`. Because every element grows from one byte to four, the byte
/// size of a tensor is **4×** the raw size of the image it came from — the
/// blow-up the paper's Finding #2 identifies as the reason the minimum sample
/// size usually occurs *before* the final preprocessing steps.
///
/// ```
/// use imagery::{RasterImage, Rgb, Tensor};
/// let img = RasterImage::filled(2, 2, Rgb::new(255, 0, 51));
/// let t = Tensor::from_image(&img);
/// assert_eq!(t.byte_len(), img.raw_len() * 4);
/// assert_eq!(t.get(0, 0, 0), 1.0);           // R
/// assert_eq!(t.get(1, 0, 0), 0.0);           // G
/// assert!((t.get(2, 0, 0) - 0.2).abs() < 1e-6); // B
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    width: u32,
    height: u32,
    /// Planar data: channel-major, then row-major.
    data: Vec<f32>,
}

impl Tensor {
    /// Converts a raster image to a `[0, 1]`-scaled CHW tensor (`ToTensor`).
    pub fn from_image(img: &RasterImage) -> Tensor {
        let (w, h) = (img.width() as usize, img.height() as usize);
        let mut data = vec![0f32; CHANNELS * w * h];
        let raw = img.as_raw();
        for (i, px) in raw.chunks_exact(CHANNELS).enumerate() {
            for c in 0..CHANNELS {
                data[c * w * h + i] = f32::from(px[c]) / 255.0;
            }
        }
        Tensor { width: img.width(), height: img.height(), data }
    }

    /// Creates a zero tensor of the given spatial dimensions.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn zeros(width: u32, height: u32) -> Tensor {
        assert!(width > 0 && height > 0, "tensor dimensions must be non-zero");
        Tensor { width, height, data: vec![0f32; CHANNELS * width as usize * height as usize] }
    }

    /// Tensor width in elements.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Tensor height in elements.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Size in bytes when serialized (`4` bytes per element).
    ///
    /// This is the quantity transferred over the network when preprocessing is
    /// offloaded past `ToTensor`, and is the reason `All-Off` inflates traffic
    /// in the paper's evaluation.
    pub fn byte_len(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Reads the element at `(channel, x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of bounds.
    pub fn get(&self, channel: usize, x: u32, y: u32) -> f32 {
        assert!(channel < CHANNELS && x < self.width && y < self.height);
        self.data[channel * self.width as usize * self.height as usize
            + y as usize * self.width as usize
            + x as usize]
    }

    /// Normalizes each channel in place: `v = (v - mean[c]) / std[c]`.
    ///
    /// This is the `Normalize` preprocessing operation. The byte size is
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics when any `std` entry is zero.
    pub fn normalize(&mut self, mean: [f32; CHANNELS], std: [f32; CHANNELS]) {
        assert!(std.iter().all(|&s| s != 0.0), "std must be non-zero");
        let plane = self.width as usize * self.height as usize;
        for c in 0..CHANNELS {
            let (m, s) = (mean[c], std[c]);
            for v in &mut self.data[c * plane..(c + 1) * plane] {
                *v = (*v - m) / s;
            }
        }
    }

    /// Borrows the planar element buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Serializes to little-endian bytes (the network representation).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        for v in &self.data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Reconstructs a tensor from its little-endian byte serialization
    /// (inverse of [`Tensor::to_le_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns `None` when `bytes.len() != 12 * width * height` or either
    /// dimension is zero.
    pub fn from_le_bytes(width: u32, height: u32, bytes: &[u8]) -> Option<Tensor> {
        if width == 0 || height == 0 {
            return None;
        }
        let elements = CHANNELS * width as usize * height as usize;
        if bytes.len() != elements * std::mem::size_of::<f32>() {
            return None;
        }
        let data = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunked by 4")))
            .collect();
        Some(Tensor { width, height, data })
    }
}

/// The ImageNet normalization constants used by the PyTorch example script.
pub const IMAGENET_MEAN: [f32; CHANNELS] = [0.485, 0.456, 0.406];
/// The ImageNet normalization standard deviations.
pub const IMAGENET_STD: [f32; CHANNELS] = [0.229, 0.224, 0.225];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rgb;

    #[test]
    fn from_image_scales_to_unit_interval() {
        let img = RasterImage::filled(3, 3, Rgb::new(0, 128, 255));
        let t = Tensor::from_image(&img);
        assert_eq!(t.get(0, 1, 1), 0.0);
        assert!((t.get(1, 1, 1) - 128.0 / 255.0).abs() < 1e-6);
        assert_eq!(t.get(2, 1, 1), 1.0);
    }

    #[test]
    fn byte_len_is_four_x_raw() {
        let img = RasterImage::filled(224, 224, Rgb::gray(9));
        let t = Tensor::from_image(&img);
        assert_eq!(t.byte_len(), 4 * 150_528);
        assert_eq!(t.byte_len(), 602_112);
    }

    #[test]
    fn normalize_shifts_and_scales() {
        let img = RasterImage::filled(2, 2, Rgb::new(255, 255, 255));
        let mut t = Tensor::from_image(&img);
        t.normalize([0.5, 0.5, 0.5], [0.5, 0.5, 0.5]);
        assert_eq!(t.get(0, 0, 0), 1.0);
        assert_eq!(t.get(2, 1, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "std must be non-zero")]
    fn normalize_rejects_zero_std() {
        let mut t = Tensor::zeros(2, 2);
        t.normalize([0.0; 3], [0.0, 1.0, 1.0]);
    }

    #[test]
    fn le_bytes_roundtrip_length() {
        let t = Tensor::zeros(5, 7);
        assert_eq!(t.to_le_bytes().len(), t.byte_len());
    }

    #[test]
    fn le_bytes_roundtrip_values() {
        let img = RasterImage::filled(6, 4, Rgb::new(9, 90, 200));
        let mut t = Tensor::from_image(&img);
        t.normalize(IMAGENET_MEAN, IMAGENET_STD);
        let back = Tensor::from_le_bytes(6, 4, &t.to_le_bytes()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn from_le_bytes_validates() {
        assert!(Tensor::from_le_bytes(2, 2, &[0u8; 48]).is_some());
        assert!(Tensor::from_le_bytes(2, 2, &[0u8; 47]).is_none());
        assert!(Tensor::from_le_bytes(0, 2, &[]).is_none());
    }

    #[test]
    fn normalize_preserves_byte_len() {
        let img = RasterImage::filled(8, 8, Rgb::gray(100));
        let mut t = Tensor::from_image(&img);
        let before = t.byte_len();
        t.normalize(IMAGENET_MEAN, IMAGENET_STD);
        assert_eq!(t.byte_len(), before);
    }
}
