//! Typed protocol messages between the compute node and the storage server.
//!
//! The key novelty relative to a plain object-fetch protocol is that a
//! [`FetchRequest`] carries an **offload directive**, a [`ServeForm`]: the
//! stored object as it is, or the output of its first pipeline operations
//! run near storage, optionally re-encoded (paper Figure 2, step d). The
//! [`FetchResponse`] names the form it was served as, and the compute node
//! finishes the sample from that form, not from the one it asked for.

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

/// What a sample is served as: the offload directive a fetch carries and
/// the form its response echoes (paper Figure 2, step d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeForm {
    /// The stored object as it is: no pipeline op runs near storage.
    Raw,
    /// The first `split` pipeline ops run near storage. With `reencode`
    /// set, their raster output is re-encoded at that quality before
    /// transfer (the selective compression extension), and the client
    /// decodes it back.
    Prefix {
        /// How many leading pipeline ops run near storage (at least one).
        split: SplitPoint,
        /// The re-encode quality (1–100), if any.
        reencode: Option<u8>,
    },
}

impl ServeForm {
    /// How many leading pipeline ops the form runs near storage.
    pub fn split(self) -> SplitPoint {
        match self {
            ServeForm::Raw => SplitPoint::NONE,
            ServeForm::Prefix { split, .. } => split,
        }
    }

    /// The re-encode quality, if the form re-encodes.
    pub fn reencode(self) -> Option<u8> {
        match self {
            ServeForm::Raw => None,
            ServeForm::Prefix { reencode, .. } => reencode,
        }
    }
}

/// The form of `split` without re-encode: a split of 0 is
/// [`ServeForm::Raw`].
impl From<SplitPoint> for ServeForm {
    fn from(split: SplitPoint) -> ServeForm {
        if split.is_offloaded() {
            ServeForm::Prefix { split, reencode: None }
        } else {
            ServeForm::Raw
        }
    }
}

/// The form of a split of `ops` leading ops without re-encode.
impl From<u8> for ServeForm {
    fn from(ops: u8) -> ServeForm {
        ServeForm::from(SplitPoint::new(ops.into()))
    }
}

/// A request for one sample, with its offload directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRequest {
    /// Sample to fetch.
    pub sample_id: u64,
    /// Current training epoch (augmentations vary per epoch).
    pub epoch: u64,
    /// What the sample is to be served as.
    pub form: ServeForm,
}

impl FetchRequest {
    /// A fetch with an offload split and no re-encode.
    pub fn new(sample_id: u64, epoch: u64, split: SplitPoint) -> FetchRequest {
        FetchRequest { sample_id, epoch, form: split.into() }
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
    /// What the sample was served as, which the client finishes it from.
    pub form: ServeForm,
    /// The (possibly partially preprocessed) payload.
    pub data: StageData,
}

impl FetchResponse {
    /// Recovers the stage value the compute node should continue from,
    /// decoding a re-encoded payload back to a raster before the pipeline
    /// suffix runs.
    ///
    /// # Errors
    ///
    /// Propagates codec failures for corrupt re-encoded payloads.
    pub fn unpack(self) -> Result<StageData, codec::CodecError> {
        match (self.form.reencode(), self.data) {
            (Some(_), StageData::Encoded(bytes)) => Ok(StageData::Image(codec::decode(&bytes)?)),
            (_, data) => Ok(data),
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
        assert_eq!(FetchRequest::new(1, 2, SplitPoint::NONE).form, ServeForm::Raw);
    }

    #[test]
    fn session_config_carries_pipeline() {
        let c = SessionConfig { dataset_seed: 5, pipeline: PipelineSpec::standard_train() };
        assert_eq!(c.pipeline.len(), 5);
    }
}
