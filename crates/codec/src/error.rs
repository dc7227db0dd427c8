use std::fmt;

use imagery::Rect;

/// Errors produced while decoding an SJPG byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The stream does not start with the `SJPG` magic bytes.
    BadMagic,
    /// The format version byte is not one this build understands.
    UnsupportedVersion(u8),
    /// The stream ended before the declared content was complete.
    Truncated {
        /// Byte offset at which more data was required.
        offset: usize,
    },
    /// The header declares zero or absurd dimensions.
    InvalidDimensions {
        /// Declared width.
        width: u32,
        /// Declared height.
        height: u32,
    },
    /// The header's quality byte is outside `1..=100`.
    InvalidQuality(u8),
    /// The header's reserved flags byte is not 0.
    UnsupportedFlags(u8),
    /// A varint in the entropy-coded segment exceeded its maximum width.
    MalformedVarint {
        /// Byte offset of the offending varint.
        offset: usize,
    },
    /// A run length would write past the end of a block.
    RunOverflow {
        /// Byte offset of the offending run.
        offset: usize,
    },
    /// Entropy-coded data remained after the last expected block.
    TrailingData {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A region decode asked for a rectangle that is empty or does not fit
    /// the dimensions the header declares.
    RegionOutOfBounds {
        /// The requested rectangle.
        rect: Rect,
        /// Declared width.
        width: u32,
        /// Declared height.
        height: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "stream does not begin with SJPG magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported SJPG version {v}"),
            CodecError::Truncated { offset } => {
                write!(f, "stream truncated at byte offset {offset}")
            }
            CodecError::InvalidDimensions { width, height } => {
                write!(f, "invalid encoded dimensions {width}x{height}")
            }
            CodecError::InvalidQuality(q) => write!(f, "encoded quality {q} outside 1..=100"),
            CodecError::UnsupportedFlags(flags) => {
                write!(f, "reserved flags byte is {flags:#04x}, not 0")
            }
            CodecError::MalformedVarint { offset } => {
                write!(f, "malformed varint at byte offset {offset}")
            }
            CodecError::RunOverflow { offset } => {
                write!(f, "zero run overflows block at byte offset {offset}")
            }
            CodecError::TrailingData { remaining } => {
                write!(f, "{remaining} unconsumed bytes after final block")
            }
            CodecError::RegionOutOfBounds { rect, width, height } => {
                write!(f, "region {rect:?} does not fit the encoded {width}x{height} image")
            }
        }
    }
}

impl std::error::Error for CodecError {}
