use crate::{CodecError, Quality};

/// Magic bytes identifying an SJPG stream.
pub(crate) const FORMAT_MAGIC: [u8; 4] = *b"SJPG";
/// Format version of classic streams (2 added the flags byte, which is
/// reserved and always 0). Version 3, a retired progressive container, is
/// refused as any other version is.
pub(crate) const FORMAT_VERSION: u8 = 2;
/// Serialized header length in bytes.
pub(crate) const HEADER_LEN: usize = 4 + 1 + 4 + 4 + 1 + 1;

/// Parsed SJPG stream header.
///
/// Layout (little-endian): magic `SJPG`, version `u8`, width `u32`, height
/// `u32`, quality `u8`, flags `u8`. The flags byte is reserved and must be
/// 0: its two low bits once selected 4:2:0 chroma and Huffman entropy
/// coding, which no stream uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Quality the stream was encoded with (determines the quant tables).
    pub(crate) quality: Quality,
}

impl Header {
    /// Serializes the header.
    pub(crate) fn to_bytes(self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[..4].copy_from_slice(&FORMAT_MAGIC);
        out[4] = FORMAT_VERSION;
        out[5..9].copy_from_slice(&self.width.to_le_bytes());
        out[9..13].copy_from_slice(&self.height.to_le_bytes());
        out[13] = self.quality.value();
        out
    }

    /// Parses and validates a classic stream's header from the start of
    /// `data`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`], [`CodecError::BadMagic`],
    /// [`CodecError::UnsupportedVersion`], [`CodecError::InvalidDimensions`],
    /// [`CodecError::InvalidQuality`] or [`CodecError::UnsupportedFlags`] for
    /// the corresponding defects, checked in that order.
    pub fn parse(data: &[u8]) -> Result<Header, CodecError> {
        let Some(&[m0, m1, m2, m3, v, w0, w1, w2, w3, h0, h1, h2, h3, quality, flags]) =
            data.first_chunk::<HEADER_LEN>()
        else {
            return Err(CodecError::Truncated { offset: data.len() });
        };
        if [m0, m1, m2, m3] != FORMAT_MAGIC {
            return Err(CodecError::BadMagic);
        }
        if v != FORMAT_VERSION {
            return Err(CodecError::UnsupportedVersion(v));
        }
        let width = u32::from_le_bytes([w0, w1, w2, w3]);
        let height = u32::from_le_bytes([h0, h1, h2, h3]);
        // 2^26 pixels per side is far beyond anything this workspace creates;
        // rejecting earlier protects decode from absurd allocations.
        if width == 0 || height == 0 || width > (1 << 26) || height > (1 << 26) {
            return Err(CodecError::InvalidDimensions { width, height });
        }
        let quality = Quality::new(quality).ok_or(CodecError::InvalidQuality(quality))?;
        if flags != 0 {
            return Err(CodecError::UnsupportedFlags(flags));
        }
        Ok(Header { width, height, quality })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Header {
        Header { width: 1920, height: 1080, quality: Quality::new(85).unwrap() }
    }

    #[test]
    fn roundtrip() {
        let h = header();
        assert_eq!(Header::parse(&h.to_bytes()), Ok(h));
    }

    /// Each defect of a hand-built header is reported as its own error,
    /// naming the field at fault and the value found there.
    #[test]
    fn each_header_defect_names_its_field() {
        let good = header().to_bytes();
        let with = |at: usize, patch: &[u8]| {
            let mut b = good;
            b[at..at + patch.len()].copy_from_slice(patch);
            b
        };
        let cases = [
            (with(0, b"X"), CodecError::BadMagic),
            (with(4, &[99]), CodecError::UnsupportedVersion(99)),
            (with(4, &[3]), CodecError::UnsupportedVersion(3)),
            (with(5, &[0; 4]), CodecError::InvalidDimensions { width: 0, height: 1080 }),
            (
                with(9, &((1u32 << 26) + 1).to_le_bytes()),
                CodecError::InvalidDimensions { width: 1920, height: (1 << 26) + 1 },
            ),
            (with(13, &[0]), CodecError::InvalidQuality(0)),
            (with(13, &[101]), CodecError::InvalidQuality(101)),
            (with(13, &[255]), CodecError::InvalidQuality(255)),
            (with(14, &[0b01]), CodecError::UnsupportedFlags(0b01)),
            (with(14, &[0b10]), CodecError::UnsupportedFlags(0b10)),
            (with(14, &[0b11]), CodecError::UnsupportedFlags(0b11)),
            (with(14, &[0b100]), CodecError::UnsupportedFlags(0b100)),
            (with(14, &[0xFF]), CodecError::UnsupportedFlags(0xFF)),
            // Quality is checked before flags.
            (with(13, &[0, 0b11]), CodecError::InvalidQuality(0)),
        ];
        for (bytes, want) in cases {
            assert_eq!(Header::parse(&bytes), Err(want), "{bytes:?}");
        }
        for len in 0..HEADER_LEN {
            assert_eq!(Header::parse(&good[..len]), Err(CodecError::Truncated { offset: len }));
        }
    }
}
