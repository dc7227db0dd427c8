//! Caching decorator for fetch transports.
//!
//! [`CachingTransport`] wraps any [`FetchTransport`] and interposes a
//! [`SampleCache`]: requests whose `(dataset, sample, split, quality)` key
//! is resident are served locally without touching the wire; the rest are
//! forwarded to the inner transport in one batch and their responses
//! offered back to the cache on the way out.
//!
//! Only requests at an **epoch-stable** split participate — the key
//! construction itself fails for a split past the first randomized op
//! (see [`crate::key`]), and such requests are simply passed through. The
//! epoch number never enters the key, which is exactly why a payload
//! fetched in epoch 0 can serve every later epoch.
//!
//! The decorator composes with the rest of the transport stack in either
//! order: `CachingTransport<RetryingTransport<_>>` retries only the
//! misses, `RetryingTransport<CachingTransport<_>>` retries the whole
//! batch around the cache.

use std::collections::HashMap;

use pipeline::PipelineSpec;
use storage::{ClientError, FetchRequest, FetchResponse, FetchTransport};

use crate::key::CacheKey;
use crate::store::{AdmissionHint, CacheStats, SampleCache};

/// A [`FetchTransport`] that serves epoch-stable fetches from a local
/// [`SampleCache`], forwarding only misses to the wrapped transport.
#[derive(Debug)]
pub struct CachingTransport<T> {
    inner: T,
    cache: SampleCache,
    session: Option<(u64, PipelineSpec)>,
    hints: HashMap<u64, AdmissionHint>,
}

impl<T: FetchTransport> CachingTransport<T> {
    /// Wraps `inner` with `cache`.
    pub fn new(inner: T, cache: SampleCache) -> CachingTransport<T> {
        CachingTransport { inner, cache, session: None, hints: HashMap::new() }
    }

    /// Attaches planner-supplied admission hints, keyed by sample id; a
    /// sample's hint is used when its fetch is offered to the cache.
    /// Samples without a hint are valued at their own payload size.
    pub fn set_hints(&mut self, hints: impl IntoIterator<Item = (u64, AdmissionHint)>) {
        self.hints.extend(hints);
    }

    /// The cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The cache itself (inspection).
    pub fn cache(&self) -> &SampleCache {
        &self.cache
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Builds the cache key for a request, when the session is configured
    /// and the request's split is epoch-stable.
    fn key_for(&self, req: &FetchRequest) -> Option<CacheKey> {
        let (seed, pipeline) = self.session.as_ref()?;
        let (split, reencode) = (req.form.split(), req.form.reencode());
        CacheKey::try_new(*seed, req.sample_id, split, reencode, pipeline).ok()
    }
}

impl<T: FetchTransport> FetchTransport for CachingTransport<T> {
    fn configure(&mut self, dataset_seed: u64, pipeline: PipelineSpec) -> Result<(), ClientError> {
        self.session = Some((dataset_seed, pipeline.clone()));
        self.inner.configure(dataset_seed, pipeline)
    }

    fn fetch_many_requests(
        &mut self,
        requests: &[FetchRequest],
    ) -> Result<Vec<FetchResponse>, ClientError> {
        let mut served: Vec<FetchResponse> = Vec::with_capacity(requests.len());
        let mut forward: Vec<FetchRequest> = Vec::new();
        let mut forward_keys: HashMap<u64, CacheKey> = HashMap::new();

        for req in requests {
            match self.key_for(req) {
                Some(key) => match self.cache.get(&key) {
                    Some((form, data)) => {
                        served.push(FetchResponse { sample_id: req.sample_id, form, data })
                    }
                    None => {
                        forward_keys.insert(req.sample_id, key);
                        forward.push(*req);
                    }
                },
                // Unstable split or unconfigured session: cache cannot
                // participate, pass straight through.
                None => forward.push(*req),
            }
        }

        if !forward.is_empty() {
            let responses = self.inner.fetch_many_requests(&forward)?;
            for resp in responses {
                if let Some(key) = forward_keys.remove(&resp.sample_id) {
                    let hint =
                        self.hints.get(&resp.sample_id).copied().unwrap_or_else(|| {
                            AdmissionHint::from_payload_bytes(resp.data.byte_len())
                        });
                    self.cache.insert(key, resp.form, resp.data.clone(), hint);
                }
                served.push(resp);
            }
        }
        Ok(served)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::{SplitPoint, StageData};
    use storage::ServeForm;

    /// Counts wire activity and serves a deterministic payload per sample.
    struct CountingTransport {
        fetch_calls: usize,
        samples_fetched: u64,
        bytes_shipped: u64,
        payload_len: usize,
    }

    impl CountingTransport {
        fn new(payload_len: usize) -> CountingTransport {
            CountingTransport { fetch_calls: 0, samples_fetched: 0, bytes_shipped: 0, payload_len }
        }
    }

    impl FetchTransport for CountingTransport {
        fn configure(&mut self, _: u64, _: PipelineSpec) -> Result<(), ClientError> {
            Ok(())
        }

        fn fetch_many_requests(
            &mut self,
            requests: &[FetchRequest],
        ) -> Result<Vec<FetchResponse>, ClientError> {
            self.fetch_calls += 1;
            self.samples_fetched += requests.len() as u64;
            Ok(requests
                .iter()
                .map(|r| {
                    // Payload varies by sample so hits can be checked for
                    // identity, and by split so aliasing would be caught.
                    let fill = (r.sample_id as u8) ^ (r.form.split().offloaded_ops() as u8);
                    let bytes = vec![fill; self.payload_len];
                    self.bytes_shipped += bytes.len() as u64;
                    FetchResponse {
                        sample_id: r.sample_id,
                        form: r.form,
                        data: StageData::Encoded(bytes.into()),
                    }
                })
                .collect())
        }
    }

    fn cached(budget: u64, payload_len: usize) -> CachingTransport<CountingTransport> {
        let mut t =
            CachingTransport::new(CountingTransport::new(payload_len), SampleCache::lru(budget));
        t.configure(7, PipelineSpec::standard_train()).unwrap();
        t
    }

    fn raw_reqs(ids: &[u64], epoch: u64) -> Vec<FetchRequest> {
        ids.iter().map(|&id| FetchRequest::new(id, epoch, SplitPoint::NONE)).collect()
    }

    #[test]
    fn warm_epoch_is_served_without_wire_traffic() {
        let mut t = cached(1 << 20, 64);
        // Cold epoch populates.
        let cold = t.fetch_many_requests(&raw_reqs(&[0, 1, 2], 0)).unwrap();
        assert_eq!(cold.len(), 3);
        assert_eq!(t.inner().samples_fetched, 3);
        // Warm epoch: same samples, different epoch — all hits, zero wire.
        let warm = t.fetch_many_requests(&raw_reqs(&[2, 0, 1], 5)).unwrap();
        assert_eq!(warm.len(), 3);
        assert_eq!(t.inner().samples_fetched, 3, "warm epoch must not touch the wire");
        assert_eq!(t.cache_stats().hits, 3);
        // Hit payloads are byte-identical to the cold fetches.
        let find =
            |rs: &[FetchResponse], id| rs.iter().find(|r| r.sample_id == id).unwrap().data.clone();
        for id in 0..3u64 {
            assert_eq!(
                find(&cold, id).as_encoded().unwrap(),
                find(&warm, id).as_encoded().unwrap()
            );
        }
    }

    #[test]
    fn unstable_splits_bypass_the_cache() {
        let mut t = cached(1 << 20, 64);
        // Split 3 is past the augmentations: must pass through every time.
        let reqs: Vec<FetchRequest> = vec![FetchRequest::new(0, 0, SplitPoint::new(3))];
        t.fetch_many_requests(&reqs).unwrap();
        t.fetch_many_requests(&reqs).unwrap();
        assert_eq!(t.inner().samples_fetched, 2, "unstable split must never be cached");
        assert_eq!(t.cache().len(), 0);
        assert_eq!(t.cache_stats().hits, 0);
    }

    #[test]
    fn quality_mismatch_is_a_miss() {
        let mut t = cached(1 << 20, 64);
        let plain = vec![FetchRequest::new(0, 0, SplitPoint::new(1))];
        let form = ServeForm::Prefix { split: SplitPoint::new(1), reencode: Some(85) };
        let reenc = vec![FetchRequest { sample_id: 0, epoch: 1, form }];
        t.fetch_many_requests(&plain).unwrap();
        t.fetch_many_requests(&reenc).unwrap();
        assert_eq!(
            t.inner().samples_fetched,
            2,
            "a re-encoded transfer is different bytes and must not alias"
        );
        // Each now hits its own entry.
        t.fetch_many_requests(&plain).unwrap();
        t.fetch_many_requests(&reenc).unwrap();
        assert_eq!(t.inner().samples_fetched, 2);
        assert_eq!(t.cache_stats().hits, 2);
    }

    #[test]
    fn mixed_batch_fetches_only_misses() {
        let mut t = cached(1 << 20, 64);
        t.fetch_many_requests(&raw_reqs(&[0, 1], 0)).unwrap();
        let out = t.fetch_many_requests(&raw_reqs(&[0, 1, 2, 3], 1)).unwrap();
        assert_eq!(out.len(), 4, "every request answered exactly once");
        let mut ids: Vec<u64> = out.iter().map(|r| r.sample_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(t.inner().samples_fetched, 4, "only the two misses hit the wire");
    }

    #[test]
    fn budget_zero_degenerates_to_pass_through() {
        let mut t = CachingTransport::new(CountingTransport::new(64), SampleCache::lru(0));
        t.configure(7, PipelineSpec::standard_train()).unwrap();
        t.fetch_many_requests(&raw_reqs(&[0], 0)).unwrap();
        t.fetch_many_requests(&raw_reqs(&[0], 1)).unwrap();
        assert_eq!(t.inner().samples_fetched, 2);
        assert_eq!(t.cache_stats().rejections, 2);
    }

    #[test]
    fn hints_drive_admission() {
        // Efficiency-aware cache with room for one 64-byte payload; the
        // hinted high-value sample wins the slot over arrival order.
        let mut t =
            CachingTransport::new(CountingTransport::new(64), SampleCache::efficiency_aware(64));
        t.configure(7, PipelineSpec::standard_train()).unwrap();
        t.set_hints([
            (0, AdmissionHint { saved_bytes: 10, efficiency: 0.0 }),
            (1, AdmissionHint { saved_bytes: 1000, efficiency: 0.0 }),
        ]);
        t.fetch_many_requests(&raw_reqs(&[0, 1], 0)).unwrap();
        // Sample 1 should hold the slot; refetching it is a hit, sample 0
        // a miss.
        t.fetch_many_requests(&raw_reqs(&[0, 1], 1)).unwrap();
        assert_eq!(t.cache_stats().hits, 1);
        assert_eq!(t.inner().samples_fetched, 3);
    }
}
