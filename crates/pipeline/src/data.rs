use imagery::{RasterImage, Tensor};

/// The kind of value flowing between pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKind {
    /// Compressed bytes (SJPG), as stored on the storage node.
    Encoded,
    /// Decoded 8-bit RGB raster.
    Image,
    /// `f32` CHW tensor.
    Tensor,
}

/// A sample at some stage of the preprocessing pipeline.
///
/// The variant determines both the in-memory representation and the number of
/// bytes the sample would occupy on the wire — the quantity SOPHON minimizes
/// when it picks a split point.
///
/// ```
/// use pipeline::StageData;
/// use imagery::{RasterImage, Rgb};
///
/// let img = RasterImage::filled(224, 224, Rgb::gray(1));
/// let data = StageData::Image(img);
/// assert_eq!(data.byte_len(), 150_528);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum StageData {
    /// Compressed bytes.
    Encoded(bytes::Bytes),
    /// Decoded raster image.
    Image(RasterImage),
    /// Float tensor.
    Tensor(Tensor),
}

// Bytes wire format note: `Encoded` and `Image` are byte-exact; `Tensor`
// counts 4 bytes per element (little-endian f32), matching
// `Tensor::to_le_bytes`.
impl StageData {
    /// The kind of this value.
    pub fn kind(&self) -> DataKind {
        match self {
            StageData::Encoded(_) => DataKind::Encoded,
            StageData::Image(_) => DataKind::Image,
            StageData::Tensor(_) => DataKind::Tensor,
        }
    }

    /// Exact size in bytes when transferred over the network.
    pub fn byte_len(&self) -> u64 {
        match self {
            StageData::Encoded(b) => b.len() as u64,
            StageData::Image(img) => img.raw_len() as u64,
            StageData::Tensor(t) => t.byte_len() as u64,
        }
    }

    /// Borrows the raster image, if this is the `Image` stage.
    pub fn as_image(&self) -> Option<&RasterImage> {
        match self {
            StageData::Image(img) => Some(img),
            _ => None,
        }
    }

    /// Borrows the tensor, if this is the `Tensor` stage.
    pub fn as_tensor(&self) -> Option<&Tensor> {
        match self {
            StageData::Tensor(t) => Some(t),
            _ => None,
        }
    }

    /// Borrows the encoded bytes, if this is the `Encoded` stage.
    pub fn as_encoded(&self) -> Option<&[u8]> {
        match self {
            StageData::Encoded(b) => Some(b),
            _ => None,
        }
    }

    /// Spatial pixel count of the current representation (encoded data
    /// reports the *decoded* dimensions from its header, or 0 when the header
    /// is unreadable).
    pub(crate) fn pixel_count(&self) -> u64 {
        match self {
            StageData::Encoded(b) => codec::Header::parse(b)
                .map(|h| u64::from(h.width) * u64::from(h.height))
                .unwrap_or(0),
            StageData::Image(img) => img.pixel_count(),
            StageData::Tensor(t) => u64::from(t.width()) * u64::from(t.height()),
        }
    }
}

impl From<RasterImage> for StageData {
    fn from(img: RasterImage) -> Self {
        StageData::Image(img)
    }
}

impl From<Tensor> for StageData {
    fn from(t: Tensor) -> Self {
        StageData::Tensor(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagery::Rgb;

    #[test]
    fn byte_len_matches_representation() {
        let img = RasterImage::filled(10, 10, Rgb::BLACK);
        assert_eq!(StageData::Image(img.clone()).byte_len(), 300);
        let t = Tensor::from_image(&img);
        assert_eq!(StageData::Tensor(t).byte_len(), 1200);
        let enc = StageData::Encoded(bytes::Bytes::from(vec![0u8; 55]));
        assert_eq!(enc.byte_len(), 55);
    }

    #[test]
    fn kind_reporting() {
        let img = RasterImage::filled(2, 2, Rgb::BLACK);
        assert_eq!(StageData::Image(img.clone()).kind(), DataKind::Image);
        assert_eq!(StageData::Tensor(Tensor::from_image(&img)).kind(), DataKind::Tensor);
        assert_eq!(StageData::Encoded(bytes::Bytes::new()).kind(), DataKind::Encoded);
    }

    #[test]
    fn encoded_pixel_count_reads_header() {
        let img = RasterImage::filled(30, 20, Rgb::gray(5));
        let enc = codec::encode(&img, codec::Quality::default());
        let data = StageData::Encoded(enc.into());
        assert_eq!(data.pixel_count(), 600);
        // Garbage bytes report zero pixels rather than erroring.
        let bogus = StageData::Encoded(bytes::Bytes::from_static(b"????"));
        assert_eq!(bogus.pixel_count(), 0);
    }

    #[test]
    fn accessors_are_exclusive() {
        let img = RasterImage::filled(2, 2, Rgb::BLACK);
        let d = StageData::Image(img);
        assert!(d.as_image().is_some());
        assert!(d.as_tensor().is_none());
        assert!(d.as_encoded().is_none());
    }
}
