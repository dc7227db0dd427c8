//! Typed protocol messages between the compute node and the storage server.
//!
//! The key novelty relative to a plain object-fetch protocol is that a
//! [`FetchRequest`] carries an **offload directive** — the [`SplitPoint`]
//! naming how many pipeline operations the storage node should apply before
//! responding (paper Figure 2, step d).

use pipeline::{PipelineSpec, SplitPoint, StageData};

/// Session-level configuration sent once before fetching.
///
/// Carrying the pipeline and dataset seed up front lets each fetch request
/// stay a dozen bytes, and guarantees both nodes derive identical
/// augmentation streams.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Dataset seed (keys the augmentation streams).
    pub dataset_seed: u64,
    /// The preprocessing pipeline this training job runs.
    pub pipeline: PipelineSpec,
}

/// A request for one sample, with its offload directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRequest {
    /// Sample to fetch.
    pub sample_id: u64,
    /// Current training epoch (augmentations vary per epoch).
    pub(crate) epoch: u64,
    /// How many leading pipeline operations to execute near storage.
    pub split: SplitPoint,
    /// When set and the offloaded prefix produces a raster image, the
    /// server re-encodes it at this quality before transfer (the selective
    /// compression extension); the client transparently decodes.
    pub reencode_quality: Option<u8>,
}

impl FetchRequest {
    /// A plain fetch with an offload directive and no re-compression.
    pub fn new(sample_id: u64, epoch: u64, split: SplitPoint) -> FetchRequest {
        FetchRequest { sample_id, epoch, split, reencode_quality: None }
    }

    /// Adds transfer-time re-compression at `quality`.
    #[must_use]
    pub fn with_reencode(mut self, quality: u8) -> FetchRequest {
        self.reencode_quality = Some(quality);
        self
    }
}

/// Messages from client to server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Establish the session pipeline. Await its `Configured` reply before
    /// fetching: a fetch sent ahead of that reply may be answered first,
    /// from no session or from the one this request replaces.
    Configure(SessionConfig),
    /// Fetch one sample.
    Fetch(FetchRequest),
}

/// A successful fetch result.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchResponse {
    /// The sample this data belongs to.
    pub sample_id: u64,
    /// Number of pipeline operations the server applied.
    pub ops_applied: u32,
    /// The (possibly partially preprocessed) payload.
    pub data: StageData,
}

impl FetchResponse {
    /// Recovers the stage value the compute node should continue from,
    /// transparently decoding a re-compressed payload: a response whose
    /// `ops_applied > 0` but whose payload is encoded bytes was
    /// re-compressed by the server (selective compression) and must be
    /// decoded back to a raster before the pipeline suffix runs.
    ///
    /// # Errors
    ///
    /// Propagates codec failures for corrupt re-compressed payloads.
    pub fn unpack(self) -> Result<StageData, codec::CodecError> {
        match (&self.data, self.ops_applied) {
            (StageData::Encoded(bytes), n) if n > 0 => Ok(StageData::Image(codec::decode(bytes)?)),
            _ => Ok(self.data),
        }
    }
}

/// Messages from server to client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session configured.
    Configured,
    /// Fetched data.
    Data(FetchResponse),
    /// A request failed; `sample_id` is `None` for session-level failures.
    Error {
        /// The failing sample, when the error is per-sample.
        sample_id: Option<u64>,
        /// Human-readable description.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_request_is_small_and_copyable() {
        let r = FetchRequest::new(1, 2, SplitPoint::new(3));
        let r2 = r; // Copy
        assert_eq!(r, r2);
        assert!(std::mem::size_of::<FetchRequest>() <= 32);
        assert_eq!(r.with_reencode(70).reencode_quality, Some(70));
    }

    #[test]
    fn session_config_carries_pipeline() {
        let c = SessionConfig { dataset_seed: 5, pipeline: PipelineSpec::standard_train() };
        assert_eq!(c.pipeline.len(), 5);
    }
}
