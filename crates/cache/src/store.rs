//! The budgeted sample cache.
//!
//! [`SampleCache`] maps [`CacheKey`]s to epoch-stable payloads under a hard
//! byte budget. Room is made by evicting the policy's lowest-priority
//! resident, and a candidate is admitted only while it outranks every
//! entry it would displace (see [`crate::policy`]). All bookkeeping uses a
//! cache-local logical clock, so behaviour is fully deterministic.
//!
//! Scans for the eviction victim are linear in the number of entries;
//! with per-sample payloads in the tens of kilobytes and budgets in the
//! megabytes this is thousands of entries at most, far from mattering
//! next to decode work.

use std::collections::HashMap;

use pipeline::StageData;
use storage::ServeForm;

use crate::key::CacheKey;
use crate::policy::{CachePolicy, EfficiencyAwarePolicy, EntryMeta, LruPolicy};

/// Hit/miss/byte counters, updated on every cache operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that went to storage.
    pub misses: u64,
    /// Payloads admitted (including refreshes of resident keys).
    pub(crate) insertions: u64,
    /// Candidates the policy turned away at admission.
    pub rejections: u64,
    /// Residents displaced to make room.
    pub evictions: u64,
    /// Payload bytes served from the cache (wire traffic avoided).
    pub(crate) bytes_served: u64,
    /// Payload bytes admitted.
    pub(crate) bytes_inserted: u64,
    /// Payload bytes displaced.
    pub(crate) bytes_evicted: u64,
}

impl CacheStats {
    /// Fraction of lookups served locally; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Planner-supplied value signals attached to a candidate at admission.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdmissionHint {
    /// Wire bytes a hit on this entry avoids per warm epoch.
    pub saved_bytes: u64,
    /// The decision engine's offloading efficiency for the sample
    /// (bytes saved per storage-CPU-second); zero when unknown.
    pub efficiency: f64,
}

impl AdmissionHint {
    /// A hint valuing the entry at its own payload size — the right
    /// default when the payload itself is what would otherwise cross the
    /// wire each epoch.
    pub fn from_payload_bytes(bytes: u64) -> AdmissionHint {
        AdmissionHint { saved_bytes: bytes, efficiency: 0.0 }
    }
}

#[derive(Debug)]
struct Entry {
    form: ServeForm,
    data: StageData,
    meta: EntryMeta,
}

/// A byte-budgeted cache of epoch-stable sample representations.
#[derive(Debug)]
pub struct SampleCache {
    budget_bytes: u64,
    used_bytes: u64,
    policy: Box<dyn CachePolicy>,
    entries: HashMap<CacheKey, Entry>,
    clock: u64,
    stats: CacheStats,
}

impl SampleCache {
    /// A cache holding at most `budget_bytes` of payload under `policy`.
    pub(crate) fn new(budget_bytes: u64, policy: Box<dyn CachePolicy>) -> SampleCache {
        SampleCache {
            budget_bytes,
            used_bytes: 0,
            policy,
            entries: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// An LRU cache (admit everything, evict the coldest).
    pub fn lru(budget_bytes: u64) -> SampleCache {
        SampleCache::new(budget_bytes, Box::new(LruPolicy))
    }

    /// An efficiency-aware cache (keep the densest byte savers, weighted
    /// by the planner's efficiency hint).
    pub fn efficiency_aware(budget_bytes: u64) -> SampleCache {
        SampleCache::new(budget_bytes, Box::new(EfficiencyAwarePolicy))
    }

    /// Payload bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`, counting a hit or miss and refreshing recency.
    /// Returns the form the payload was served as and a clone of it.
    pub fn get(&mut self, key: &CacheKey) -> Option<(ServeForm, StageData)> {
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.meta.last_touch = self.clock;
                self.stats.hits += 1;
                self.stats.bytes_served += entry.meta.bytes;
                Some((entry.form, entry.data.clone()))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Offers a payload, served as `form` (a `ServeForm`, or a bare split
    /// count: `0` is raw), for admission. Returns whether it was admitted.
    ///
    /// Re-inserting a resident key refreshes its payload and metadata in
    /// place. Otherwise the policy arbitrates: the cache collects
    /// lowest-priority victims until the candidate fits, and backs off
    /// (rejecting the candidate, evicting nothing) as soon as a would-be
    /// victim's priority reaches the candidate's.
    pub fn insert(
        &mut self,
        key: CacheKey,
        form: impl Into<ServeForm>,
        data: StageData,
        hint: AdmissionHint,
    ) -> bool {
        let form = form.into();
        let bytes = data.byte_len();
        if bytes > self.budget_bytes {
            self.stats.rejections += 1;
            return false;
        }
        self.clock += 1;
        let meta = EntryMeta {
            bytes,
            saved_bytes: hint.saved_bytes,
            efficiency: hint.efficiency,
            last_touch: self.clock,
            inserted_at: self.clock,
        };

        if let Some(existing) = self.entries.get_mut(&key) {
            self.used_bytes = self.used_bytes - existing.meta.bytes + bytes;
            // A refresh never grows past the budget check below because the
            // old entry already fit; still, shrink-then-grow is possible, so
            // fall through to the eviction loop for the delta.
            existing.form = form;
            existing.data = data;
            existing.meta = EntryMeta { inserted_at: existing.meta.inserted_at, ..meta };
            self.stats.insertions += 1;
            self.stats.bytes_inserted += bytes;
            self.shrink_to_budget(&key);
            return true;
        }

        let candidate_priority = self.policy.priority(&meta);
        let mut victims: Vec<CacheKey> = Vec::new();
        let mut freed = 0u64;
        while self.used_bytes - freed + bytes > self.budget_bytes {
            let Some((victim_key, victim_priority)) = self.weakest_entry(&victims) else {
                break;
            };
            if victim_priority >= candidate_priority {
                self.stats.rejections += 1;
                return false;
            }
            freed += self.entries[&victim_key].meta.bytes;
            victims.push(victim_key);
        }
        for victim in victims {
            self.evict(&victim);
        }
        self.used_bytes += bytes;
        self.entries.insert(key, Entry { form, data, meta });
        self.stats.insertions += 1;
        self.stats.bytes_inserted += bytes;
        true
    }

    /// Lowest-priority resident outside `excluded`, with a deterministic
    /// total order (priority, then recency, then key) so equal-priority
    /// ties never depend on hash-map iteration order.
    fn weakest_entry(&self, excluded: &[CacheKey]) -> Option<(CacheKey, f64)> {
        self.entries
            .iter()
            .filter(|(k, _)| !excluded.contains(k))
            .map(|(k, e)| (*k, self.policy.priority(&e.meta), e.meta.last_touch))
            .min_by(|a, b| {
                a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)).then(a.0.sample_id.cmp(&b.0.sample_id))
            })
            .map(|(k, p, _)| (k, p))
    }

    fn evict(&mut self, key: &CacheKey) {
        if let Some(entry) = self.entries.remove(key) {
            self.used_bytes -= entry.meta.bytes;
            self.stats.evictions += 1;
            self.stats.bytes_evicted += entry.meta.bytes;
        }
    }

    /// Evicts weakest entries (never `keep`) until within budget — used
    /// after an in-place refresh grows an entry.
    fn shrink_to_budget(&mut self, keep: &CacheKey) {
        while self.used_bytes > self.budget_bytes {
            let Some((victim, _)) = self.weakest_entry(std::slice::from_ref(keep)) else {
                break;
            };
            self.evict(&victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::{PipelineSpec, SplitPoint};

    fn key(sample_id: u64) -> CacheKey {
        let pipeline = PipelineSpec::standard_train();
        CacheKey::try_new(0, sample_id, SplitPoint::NONE, None, &pipeline).unwrap()
    }

    fn payload(len: usize) -> StageData {
        StageData::Encoded(vec![0xAB; len].into())
    }

    #[test]
    fn budget_is_a_hard_ceiling() {
        let mut cache = SampleCache::lru(100);
        for i in 0..10 {
            cache.insert(key(i), 0, payload(40), AdmissionHint::from_payload_bytes(40));
            assert!(cache.used_bytes() <= 100);
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn oversized_payload_rejected_outright() {
        let mut cache = SampleCache::lru(100);
        assert!(!cache.insert(key(0), 0, payload(101), AdmissionHint::default()));
        assert_eq!(cache.stats().rejections, 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = SampleCache::lru(120);
        cache.insert(key(0), 0, payload(40), AdmissionHint::default());
        cache.insert(key(1), 0, payload(40), AdmissionHint::default());
        cache.insert(key(2), 0, payload(40), AdmissionHint::default());
        // Touch 0 so 1 becomes the coldest.
        assert!(cache.get(&key(0)).is_some());
        cache.insert(key(3), 0, payload(40), AdmissionHint::default());
        assert!(cache.entries.contains_key(&key(0)));
        assert!(!cache.entries.contains_key(&key(1)), "coldest entry should be evicted");
        assert!(cache.entries.contains_key(&key(3)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn efficiency_aware_prefers_denser_savings() {
        let mut cache = SampleCache::efficiency_aware(100);
        // Dense: saves 10x its resident size.
        cache.insert(key(0), 0, payload(80), AdmissionHint { saved_bytes: 800, efficiency: 0.0 });
        // Bulky candidate saves more in absolute terms but is less dense.
        assert!(!cache.insert(
            key(1),
            0,
            payload(90),
            AdmissionHint { saved_bytes: 810, efficiency: 0.0 },
        ));
        assert!(cache.entries.contains_key(&key(0)));
    }

    #[test]
    fn stats_track_hits_misses_and_bytes() {
        let mut cache = SampleCache::lru(1000);
        cache.insert(key(0), 0, payload(100), AdmissionHint::from_payload_bytes(100));
        assert!(cache.get(&key(0)).is_some());
        assert!(cache.get(&key(0)).is_some());
        assert!(cache.get(&key(9)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (2, 1, 1));
        assert_eq!(stats.bytes_served, 200);
        assert_eq!(stats.bytes_inserted, 100);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn refresh_replaces_in_place() {
        let mut cache = SampleCache::lru(100);
        cache.insert(key(0), 0, payload(40), AdmissionHint::default());
        cache.insert(key(0), 1, payload(60), AdmissionHint::default());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.used_bytes(), 60);
        let (form, data) = cache.get(&key(0)).unwrap();
        assert_eq!(form, ServeForm::from(1));
        assert_eq!(data.byte_len(), 60);
    }

    #[test]
    fn multi_victim_admission_stops_at_equal_priority() {
        // Candidate must outrank *every* displaced entry; two 40-byte
        // residents saving 300 each beat a 100-byte candidate saving 300
        // under a policy that ranks by bytes saved alone.
        #[derive(Debug)]
        struct BySavedBytes;
        impl CachePolicy for BySavedBytes {
            fn priority(&self, meta: &EntryMeta) -> f64 {
                meta.saved_bytes as f64
            }
        }
        let mut cache = SampleCache::new(100, Box::new(BySavedBytes));
        cache.insert(key(0), 0, payload(40), AdmissionHint { saved_bytes: 300, efficiency: 0.0 });
        cache.insert(key(1), 0, payload(40), AdmissionHint { saved_bytes: 300, efficiency: 0.0 });
        assert!(!cache.insert(
            key(2),
            0,
            payload(100),
            AdmissionHint { saved_bytes: 300, efficiency: 0.0 },
        ));
        assert_eq!(cache.len(), 2, "equal-priority churn must not happen");
    }
}
