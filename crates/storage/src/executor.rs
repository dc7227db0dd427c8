use pipeline::{PipelineError, SampleKey, StageData};

use crate::protocol::{FetchRequest, FetchResponse, SessionConfig};
use crate::ObjectStore;

/// Errors from near-storage execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// The requested sample is not in the object store.
    UnknownSample(u64),
    /// The offloaded prefix failed (bad split, decode failure, …).
    Pipeline(PipelineError),
    /// The re-encode directive carried an out-of-range quality.
    InvalidQuality(u8),
    /// Re-encoding was requested but the split's output is not an image.
    ReencodeNotImage,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownSample(id) => write!(f, "unknown sample {id}"),
            ExecError::Pipeline(e) => write!(f, "offloaded preprocessing failed: {e}"),
            ExecError::InvalidQuality(q) => write!(f, "re-encode quality {q} out of range"),
            ExecError::ReencodeNotImage => {
                write!(f, "re-encode requested but offloaded output is not an image")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PipelineError> for ExecError {
    fn from(e: PipelineError) -> Self {
        ExecError::Pipeline(e)
    }
}

/// Applies offloaded pipeline prefixes to stored objects.
///
/// This is the paper's near-storage processing hook (Ceph object classes /
/// S3 Object Lambda in their discussion): given a fetch request with an
/// offload directive, it loads the raw object and runs the directed prefix,
/// with augmentation streams keyed exactly as the compute node would key
/// them.
#[derive(Debug, Clone)]
pub struct NearStorageExecutor {
    store: ObjectStore,
    config: SessionConfig,
}

impl NearStorageExecutor {
    /// Creates an executor over a store for one training session.
    pub fn new(store: ObjectStore, config: SessionConfig) -> NearStorageExecutor {
        NearStorageExecutor { store, config }
    }

    /// Executes one fetch request.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownSample`] for missing objects and
    /// [`ExecError::Pipeline`] when the prefix fails.
    pub fn execute(&self, req: FetchRequest) -> Result<FetchResponse, ExecError> {
        self.execute_checksummed(req).map(|(resp, _)| resp)
    }

    /// [`NearStorageExecutor::execute`], with the CRC32 of the response's
    /// payload when that payload is stored bytes sent as they are (the
    /// whole object, or a tier prefix of it). The store computed it when it
    /// took the object, so nothing here reads the payload.
    pub(crate) fn execute_checksummed(
        &self,
        req: FetchRequest,
    ) -> Result<(FetchResponse, Option<u32>), ExecError> {
        let object =
            self.store.object(req.sample_id).ok_or(ExecError::UnknownSample(req.sample_id))?;
        let raw =
            |data, tier| FetchResponse { sample_id: req.sample_id, ops_applied: 0, data, tier };

        if req.split == pipeline::SplitPoint::NONE {
            // Brownout serving: a fidelity-capped raw fetch of a tiered
            // object ships the tier prefix straight from storage — no
            // re-encode, no pipeline work, strictly fewer bytes on the
            // wire. The cap is advisory for classic (non-tiered) objects,
            // which have no truncation boundaries and are served whole, as
            // is a cap at or above the full tier.
            let prefix = req.max_tier.and_then(|cap| {
                object.tier_prefixes.get(usize::from(cap)).map(|&prefix| (cap, prefix))
            });
            if let Some((tier, (end, crc))) = prefix {
                let data = StageData::Encoded(object.bytes.slice(..end));
                return Ok((raw(data, Some(tier)), Some(crc)));
            }
            if req.reencode_quality.is_none() {
                let data = StageData::Encoded(object.bytes.clone());
                return Ok((raw(data, None), Some(object.crc)));
            }
        }

        let key = SampleKey::new(self.config.dataset_seed, req.sample_id, req.epoch);
        let mut data = self.config.pipeline.run_prefix(
            StageData::Encoded(object.bytes.clone()),
            req.split,
            key,
        )?;
        if let Some(q) = req.reencode_quality {
            let quality = codec::Quality::new(q).ok_or(ExecError::InvalidQuality(q))?;
            let StageData::Image(img) = &data else {
                return Err(ExecError::ReencodeNotImage);
            };
            data = StageData::Encoded(codec::encode(img, quality).into());
        }
        let resp = FetchResponse {
            sample_id: req.sample_id,
            ops_applied: req.split.offloaded_ops() as u32,
            data,
            tier: None,
        };
        Ok((resp, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::{PipelineSpec, SplitPoint};

    fn executor() -> NearStorageExecutor {
        let ds = datasets::DatasetSpec::mini(3, 4);
        let store = ObjectStore::materialize_dataset(&ds, 0..3);
        NearStorageExecutor::new(
            store,
            SessionConfig { dataset_seed: 4, pipeline: PipelineSpec::standard_train() },
        )
    }

    #[test]
    fn split_zero_returns_raw_bytes() {
        let ex = executor();
        let resp = ex.execute(FetchRequest::new(0, 0, SplitPoint::NONE)).unwrap();
        assert_eq!(resp.ops_applied, 0);
        assert!(resp.data.as_encoded().is_some());
    }

    #[test]
    fn split_two_returns_cropped_image() {
        let ex = executor();
        let resp = ex.execute(FetchRequest::new(1, 0, SplitPoint::new(2))).unwrap();
        assert_eq!(resp.ops_applied, 2);
        assert_eq!(resp.data.byte_len(), 150_528);
    }

    #[test]
    fn unknown_sample_reported() {
        let ex = executor();
        let err = ex.execute(FetchRequest::new(99, 0, SplitPoint::NONE)).unwrap_err();
        assert_eq!(err, ExecError::UnknownSample(99));
    }

    #[test]
    fn invalid_split_reported() {
        let ex = executor();
        let err = ex.execute(FetchRequest::new(0, 0, SplitPoint::new(9))).unwrap_err();
        assert!(matches!(err, ExecError::Pipeline(_)));
    }

    #[test]
    fn fidelity_capped_raw_fetch_serves_a_tier_prefix() {
        let ds = datasets::DatasetSpec::mini(2, 4);
        let spec = codec::TierSpec::default();
        let store = ObjectStore::materialize_dataset_tiered(&ds, 0..2, &spec);
        let full = store.get(0).unwrap();
        let ex = NearStorageExecutor::new(
            store,
            SessionConfig { dataset_seed: 4, pipeline: PipelineSpec::standard_train() },
        );
        let resp = ex.execute(FetchRequest::new(0, 0, SplitPoint::NONE).with_max_tier(0)).unwrap();
        assert_eq!(resp.tier, Some(0));
        let served = resp.data.as_encoded().unwrap();
        assert!(served.len() < full.len(), "tier 0 prefix must shrink the payload");
        assert_eq!(&full[..served.len()], served, "prefix is a literal truncation");
        assert_eq!(codec::decode_tiered(served).unwrap().tier, 0);
    }

    #[test]
    fn served_raw_bytes_and_tier_prefixes_share_the_stored_objects_storage() {
        let ds = datasets::DatasetSpec::mini(1, 4);
        let store = ObjectStore::materialize_dataset_tiered(&ds, 0..1, &codec::TierSpec::default());
        let full = store.get(0).unwrap();
        let ex = NearStorageExecutor::new(
            store,
            SessionConfig { dataset_seed: 4, pipeline: PipelineSpec::standard_train() },
        );
        for req in [
            FetchRequest::new(0, 0, SplitPoint::NONE),
            FetchRequest::new(0, 0, SplitPoint::NONE).with_max_tier(0),
        ] {
            let resp = ex.execute(req).unwrap();
            let StageData::Encoded(served) = resp.data else { panic!("a raw serve is encoded") };
            assert_eq!(served.as_ptr(), full.as_ptr(), "{req:?} copied the stored object");
        }
    }

    #[test]
    fn fidelity_cap_at_or_above_the_ladder_serves_full_and_unmarked() {
        let ds = datasets::DatasetSpec::mini(1, 4);
        let spec = codec::TierSpec::default();
        let store = ObjectStore::materialize_dataset_tiered(&ds, 0..1, &spec);
        let full = store.get(0).unwrap();
        let ex = NearStorageExecutor::new(
            store,
            SessionConfig { dataset_seed: 4, pipeline: PipelineSpec::standard_train() },
        );
        for cap in [2u8, 7] {
            let resp =
                ex.execute(FetchRequest::new(0, 0, SplitPoint::NONE).with_max_tier(cap)).unwrap();
            assert_eq!(resp.tier, None, "full-fidelity serves carry no tier marker");
            assert_eq!(resp.data.as_encoded().unwrap(), &full[..]);
        }
    }

    #[test]
    fn fidelity_cap_is_advisory_for_classic_objects() {
        let ex = executor(); // classic v2 store
        let full = ex.execute(FetchRequest::new(0, 0, SplitPoint::NONE)).unwrap();
        let capped =
            ex.execute(FetchRequest::new(0, 0, SplitPoint::NONE).with_max_tier(0)).unwrap();
        assert_eq!(capped.tier, None);
        assert_eq!(capped.data.as_encoded(), full.data.as_encoded());
    }

    #[test]
    fn fidelity_cap_does_not_disturb_offloaded_prefixes() {
        let ds = datasets::DatasetSpec::mini(1, 4);
        let store = ObjectStore::materialize_dataset_tiered(&ds, 0..1, &codec::TierSpec::default());
        let ex = NearStorageExecutor::new(
            store,
            SessionConfig { dataset_seed: 4, pipeline: PipelineSpec::standard_train() },
        );
        let resp =
            ex.execute(FetchRequest::new(0, 0, SplitPoint::new(2)).with_max_tier(0)).unwrap();
        assert_eq!(resp.tier, None, "offloaded samples are not browned out");
        assert_eq!(resp.ops_applied, 2);
    }

    #[test]
    fn prefix_matches_compute_side_execution() {
        // The executor's output must equal what the compute node would have
        // produced for the same key — the split-equivalence guarantee across
        // the wire.
        let ds = datasets::DatasetSpec::mini(2, 11);
        let store = ObjectStore::materialize_dataset(&ds, 0..2);
        let spec = PipelineSpec::standard_train();
        let ex = NearStorageExecutor::new(
            store.clone(),
            SessionConfig { dataset_seed: 11, pipeline: spec.clone() },
        );
        let resp = ex.execute(FetchRequest::new(1, 5, SplitPoint::new(2))).unwrap();
        let local = spec
            .run_prefix(
                StageData::Encoded(store.get(1).unwrap()),
                SplitPoint::new(2),
                SampleKey::new(11, 1, 5),
            )
            .unwrap();
        assert_eq!(resp.data.as_image(), local.as_image());
    }

    #[test]
    fn a_stored_payload_comes_with_its_crc_and_a_computed_one_without() {
        let ds = datasets::DatasetSpec::mini(1, 4);
        let store = ObjectStore::materialize_dataset_tiered(&ds, 0..1, &codec::TierSpec::default());
        let ex = NearStorageExecutor::new(
            store,
            SessionConfig { dataset_seed: 4, pipeline: PipelineSpec::standard_train() },
        );
        for req in [
            FetchRequest::new(0, 0, SplitPoint::NONE),
            FetchRequest::new(0, 0, SplitPoint::NONE).with_max_tier(0),
            FetchRequest::new(0, 0, SplitPoint::NONE).with_max_tier(1),
            FetchRequest::new(0, 0, SplitPoint::NONE).with_max_tier(u8::MAX - 1),
        ] {
            let (resp, crc) = ex.execute_checksummed(req).unwrap();
            assert_eq!(resp, ex.execute(req).unwrap());
            let served = resp.data.as_encoded().unwrap();
            assert_eq!(crc, Some(checksum::crc32(served)), "{req:?}");
        }
        let offloaded = FetchRequest::new(0, 0, SplitPoint::new(2));
        assert_eq!(ex.execute_checksummed(offloaded).unwrap().1, None);
        let reencoded = FetchRequest::new(0, 0, SplitPoint::new(2)).with_reencode(70);
        assert_eq!(ex.execute_checksummed(reencoded).unwrap().1, None);
    }
}
