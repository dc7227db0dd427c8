//! Pluggable admission/eviction policies.
//!
//! A policy assigns every entry (resident or candidate) a scalar
//! **retention priority**. The cache evicts the lowest-priority resident
//! when it needs room, and admits a candidate only while the candidate's
//! priority exceeds the priority of each entry it would displace — one
//! comparison rule covers both admission and eviction, so a policy cannot
//! disagree with itself.

/// Bookkeeping the cache maintains per entry, visible to policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryMeta {
    /// Resident size of the cached payload in bytes.
    pub bytes: u64,
    /// Wire bytes a hit on this entry avoids per warm epoch (the transfer
    /// size the planner would otherwise ship).
    pub saved_bytes: u64,
    /// The decision engine's offloading-efficiency hint for the sample
    /// (bytes saved per storage-CPU-second); zero when no hint was given.
    pub efficiency: f64,
    /// Logical time of the last hit or insertion (cache-local clock).
    pub last_touch: u64,
    /// Logical time of insertion.
    pub inserted_at: u64,
}

/// An admission/eviction policy: a total order over entries.
///
/// Higher priority = more worth keeping. See the module docs for how the
/// cache applies it.
pub trait CachePolicy: std::fmt::Debug + Send {
    /// Retention priority of an entry with metadata `meta`.
    fn priority(&self, meta: &EntryMeta) -> f64;
}

/// Least-recently-used: priority is recency. A fresh candidate always
/// outranks the stalest resident, so LRU admits everything and evicts the
/// coldest — the classic baseline the smarter policies are measured
/// against.
#[derive(Debug, Clone, Copy, Default)]
pub struct LruPolicy;

impl CachePolicy for LruPolicy {
    fn priority(&self, meta: &EntryMeta) -> f64 {
        meta.last_touch as f64
    }
}

/// Size-aware: priority is the wire traffic a hit avoids. Keeps the
/// entries that save the most bytes per warm epoch, regardless of how much
/// cache they occupy.
#[derive(Debug, Clone, Copy, Default)]
pub struct SizeAwarePolicy;

impl CachePolicy for SizeAwarePolicy {
    fn priority(&self, meta: &EntryMeta) -> f64 {
        meta.saved_bytes as f64
    }
}

/// Efficiency-aware: priority is traffic saved per byte of cache spent,
/// weighted by the planner's offloading-efficiency hint when present.
/// This is the cache-local analogue of the decision engine's greedy
/// ranking — samples whose transfers are expensive relative to the space
/// needed to pin them locally win the budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct EfficiencyAwarePolicy;

impl CachePolicy for EfficiencyAwarePolicy {
    fn priority(&self, meta: &EntryMeta) -> f64 {
        let density = meta.saved_bytes as f64 / meta.bytes.max(1) as f64;
        if meta.efficiency > 0.0 {
            density * meta.efficiency
        } else {
            density
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(bytes: u64, saved: u64, eff: f64, touch: u64) -> EntryMeta {
        EntryMeta { bytes, saved_bytes: saved, efficiency: eff, last_touch: touch, inserted_at: 0 }
    }

    #[test]
    fn lru_orders_by_recency_only() {
        let p = LruPolicy;
        let old = meta(1, 1_000_000, 99.0, 5);
        let new = meta(1_000_000, 1, 0.0, 10);
        assert!(p.priority(&new) > p.priority(&old));
    }

    #[test]
    fn size_aware_orders_by_saved_bytes() {
        let p = SizeAwarePolicy;
        assert!(p.priority(&meta(10, 500, 0.0, 0)) > p.priority(&meta(10, 100, 0.0, 99)));
    }

    #[test]
    fn efficiency_aware_prefers_dense_savers() {
        let p = EfficiencyAwarePolicy;
        // Saves 400 bytes of wire for 100 bytes of cache vs 500 for 1000.
        let dense = meta(100, 400, 0.0, 0);
        let bulky = meta(1000, 500, 0.0, 0);
        assert!(p.priority(&dense) > p.priority(&bulky));
        // A planner hint scales the density.
        let hinted = meta(100, 400, 3.0, 0);
        assert!(p.priority(&hinted) > p.priority(&dense));
    }

    #[test]
    fn zero_byte_entry_does_not_divide_by_zero() {
        let p = EfficiencyAwarePolicy;
        assert!(p.priority(&meta(0, 10, 0.0, 0)).is_finite());
    }
}
