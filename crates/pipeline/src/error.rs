use crate::{DataKind, OpKind};

/// Errors from pipeline construction and execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PipelineError {
    /// An operation received data of a kind it cannot consume (e.g.
    /// `Decode` applied to an already-decoded image).
    KindMismatch {
        /// The operation that failed.
        op: OpKind,
        /// The kind it expected.
        expected: DataKind,
        /// The kind it received.
        got: DataKind,
    },
    /// The operation sequence is not type-correct end to end.
    InvalidSpec {
        /// Position of the first ill-typed operation.
        index: usize,
        /// The ill-typed operation.
        op: OpKind,
        /// The kind flowing into it.
        incoming: DataKind,
    },
    /// A sized operation carries a size of 0 or above
    /// [`MAX_OP_SIZE`](crate::MAX_OP_SIZE).
    InvalidOpSize {
        /// Position of the operation.
        index: usize,
        /// The operation.
        op: OpKind,
    },
    /// A [`OpKind::Resize`] would produce a raster of more than
    /// [`MAX_OP_SIZE`](crate::MAX_OP_SIZE)² pixels, which one frame cannot
    /// carry. It is returned before anything is allocated.
    OutputTooLarge {
        /// The operation.
        op: OpKind,
        /// The output width it would produce.
        width: u64,
        /// The output height it would produce.
        height: u64,
    },
    /// A split point beyond the number of operations.
    SplitOutOfRange {
        /// The requested split.
        split: usize,
        /// Number of operations in the pipeline.
        len: usize,
    },
    /// Decoding the encoded payload failed.
    Decode(codec::CodecError),
    /// An image-level operation failed (e.g. crop geometry).
    Image(imagery::ImageError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::KindMismatch { op, expected, got } => {
                write!(f, "operation {op:?} expects {expected:?} input, got {got:?}")
            }
            PipelineError::InvalidSpec { index, op, incoming } => {
                write!(
                    f,
                    "ill-typed pipeline: op {op:?} at index {index} cannot consume {incoming:?}"
                )
            }
            PipelineError::InvalidOpSize { index, op } => {
                write!(
                    f,
                    "op {op:?} at index {index} has a size outside 1..={}",
                    crate::MAX_OP_SIZE
                )
            }
            PipelineError::OutputTooLarge { op, width, height } => {
                write!(
                    f,
                    "op {op:?} would produce a {width}x{height} raster, above {}² pixels",
                    crate::MAX_OP_SIZE
                )
            }
            PipelineError::SplitOutOfRange { split, len } => {
                write!(f, "split point {split} out of range for {len}-op pipeline")
            }
            PipelineError::Decode(e) => write!(f, "decode failed: {e}"),
            PipelineError::Image(e) => write!(f, "image operation failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Decode(e) => Some(e),
            PipelineError::Image(e) => Some(e),
            _ => None,
        }
    }
}

impl From<codec::CodecError> for PipelineError {
    fn from(e: codec::CodecError) -> Self {
        PipelineError::Decode(e)
    }
}

impl From<imagery::ImageError> for PipelineError {
    fn from(e: imagery::ImageError) -> Self {
        PipelineError::Image(e)
    }
}
