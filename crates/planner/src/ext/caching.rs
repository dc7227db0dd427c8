//! Cache-aware offload planning (the sophon-cache extension).
//!
//! The `cache` crate pins epoch-stable sample representations next to the
//! trainer; this module teaches the decision engine about them. Planning
//! happens in three moves:
//!
//! 1. **Select** — [`choose_cache_contents`] picks which samples to pin
//!    under a byte budget. A cached sample occupies its *cheapest
//!    epoch-stable* representation (encoded bytes for the standard
//!    training pipeline — rasters are bigger) and, in every warm epoch,
//!    saves the wire bytes the no-cache plan would have shipped for it.
//! 2. **Re-plan the residual** — hand the assignment to
//!    [`crate::ext::sharding::plan_fleet`] as its `cache` input: each
//!    shard's warm baseline has cached samples contributing **zero
//!    `T_Net`** and only suffix compute, and the greedy engine runs over
//!    the uncached residual. Offload capacity the cache frees up flows to
//!    samples the cache couldn't afford. A single storage node is the
//!    one-shard fleet.
//! 3. **Simulate** — [`warm_sample_works`] translates the combined plan
//!    into per-sample demands for the cluster simulator: cached samples
//!    have no storage time and no transfer; only their local suffix
//!    remains. Pairing this with the cold (epoch-0, cache-filling) spec in
//!    `cluster::simulate_training` yields the cold/warm traffic split.
//!
//! Cache and offload turn out to be complementary: offloading compresses
//! the transfers of samples whose pipelines shrink data early, while the
//! cache is most valuable exactly where offloading is weakest — samples
//! that would ship raw. The efficiency-aware selection encodes that: it
//! ranks by wire bytes saved per cache byte spent, so cheap-to-pin,
//! expensive-to-ship samples win the budget.

use std::cmp::Reverse;

use cluster::SampleWork;

use crate::engine::{DecisionEngine, PlanningContext, ResourceBudget};
use crate::{CostVector, OffloadPlan, SophonError};

/// How [`choose_cache_contents`] ranks samples for the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSelection {
    /// Value-blind: fill in arrival (id) order. Models what an
    /// admit-everything LRU cache holds after the cold epoch.
    Arrival,
    /// Rank by wire bytes saved per warm epoch, descending.
    SizeAware,
    /// Rank by wire bytes saved per cache byte occupied, descending —
    /// the cache-local analogue of the engine's offloading efficiency.
    EfficiencyAware,
}

impl CacheSelection {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CacheSelection::Arrival => "lru",
            CacheSelection::SizeAware => "size-aware",
            CacheSelection::EfficiencyAware => "efficiency-aware",
        }
    }
}

/// Which samples are pinned, and at which pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheAssignment {
    /// Per-sample cached stage (ops applied before pinning); `None` =
    /// not cached.
    cached_stage: Vec<Option<usize>>,
    /// Cache bytes occupied.
    pub(crate) cached_bytes: u64,
    /// The budget the selection ran under.
    pub(crate) budget_bytes: u64,
    /// Wire bytes the cache saves per warm epoch relative to the no-cache
    /// plan.
    pub(crate) warm_bytes_saved: u64,
}

impl CacheAssignment {
    /// The assignment that caches nothing, for any corpus size (lookups
    /// past the end read as "not cached").
    pub(crate) fn none() -> CacheAssignment {
        CacheAssignment {
            cached_stage: Vec::new(),
            cached_bytes: 0,
            budget_bytes: 0,
            warm_bytes_saved: 0,
        }
    }

    /// An assignment pinning each sample at the given stage, for tests
    /// that draw arbitrary caches.
    #[cfg(test)]
    pub(crate) fn pinning(cached_stage: Vec<Option<usize>>) -> CacheAssignment {
        CacheAssignment { cached_stage, cached_bytes: 0, budget_bytes: 0, warm_bytes_saved: 0 }
    }

    /// Whether sample `i` is cached.
    pub(crate) fn is_cached(&self, i: usize) -> bool {
        self.cached_stage.get(i).is_some_and(|s| s.is_some())
    }

    /// The cached stage for sample `i`, when cached.
    pub(crate) fn cached_stage(&self, i: usize) -> Option<usize> {
        self.cached_stage.get(i).copied().flatten()
    }

    /// Number of cached samples.
    pub fn cached_samples(&self) -> usize {
        self.cached_stage.iter().filter(|s| s.is_some()).count()
    }

    /// Number of samples covered by the assignment.
    pub(crate) fn len(&self) -> usize {
        self.cached_stage.len()
    }
}

/// Selects cache contents for `ctx`'s samples under `budget_bytes`.
///
/// Every sample's candidate representation is its smallest epoch-stable
/// stage (resident cost); its value is the wire bytes the engine's
/// *no-cache* plan would ship for it each epoch. `selection` orders the
/// candidates; the budget is filled greedily and never exceeded.
pub fn choose_cache_contents(
    ctx: &PlanningContext<'_>,
    budget_bytes: u64,
    selection: CacheSelection,
) -> CacheAssignment {
    let no_cache_plan = DecisionEngine::new().plan(ctx);
    let stable_ops = ctx.modality.deterministic_prefix_ops();

    // Per sample: (index, resident stage, resident bytes, warm wire bytes).
    let mut candidates: Vec<(usize, usize, u64, u64)> = ctx
        .profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let stage =
                (0..=stable_ops.min(p.stage_count())).min_by_key(|&s| p.size_at(s)).unwrap_or(0);
            let resident = p.size_at(stage);
            let shipped = p.size_at(no_cache_plan.split(i).offloaded_ops());
            (i, stage, resident, shipped)
        })
        .collect();

    match selection {
        CacheSelection::Arrival => {}
        CacheSelection::SizeAware => {
            candidates.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)));
        }
        CacheSelection::EfficiencyAware => {
            // Each ratio is computed once. The sort is stable over
            // candidates in index order, so ties stay in index order.
            candidates.sort_by_cached_key(|&(_, _, resident, shipped)| {
                Reverse(total_order_key(shipped as f64 / resident.max(1) as f64))
            });
        }
    }

    let mut cached_stage = vec![None; ctx.profiles.len()];
    let mut cached_bytes = 0u64;
    let mut warm_bytes_saved = 0u64;
    for (i, stage, resident, shipped) in candidates {
        if cached_bytes + resident <= budget_bytes {
            cached_stage[i] = Some(stage);
            cached_bytes += resident;
            warm_bytes_saved += shipped;
        }
    }
    CacheAssignment { cached_stage, cached_bytes, budget_bytes, warm_bytes_saved }
}

/// `x`'s bits as an integer that orders exactly as [`f64::total_cmp`]
/// orders `x` (the transform `total_cmp` itself applies).
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The warm-epoch baseline over a universe and a budget — e.g. one shard's
/// primaries against that node's own link: cached samples contribute
/// suffix compute only (zero transfer, zero storage time), uncached
/// samples ship raw, and only the universe's samples contribute GPU,
/// compute, and network time. With nothing cached this is the `No-Off`
/// baseline of that universe. `universe` must be ascending: plans are
/// pinned to the bits of the sum in ascending member order.
pub(crate) fn warm_baseline_costs_scoped(
    ctx: &PlanningContext<'_>,
    assignment: &CacheAssignment,
    universe: &[usize],
    budget: &ResourceBudget,
) -> CostVector {
    let mut members = 0usize;
    let mut compute_seconds = 0.0;
    let mut net_bytes = 0u64;
    for &i in universe {
        members += 1;
        let p = &ctx.profiles[i];
        match assignment.cached_stage(i) {
            Some(stage) => compute_seconds += p.total_seconds() - p.prefix_seconds(stage),
            None => {
                compute_seconds += p.total_seconds();
                net_bytes += p.raw_bytes;
            }
        }
    }
    let t_g = members as f64 * ctx.gpu.seconds_per_image() / ctx.config.gpus.max(1) as f64;
    CostVector::new(
        t_g,
        compute_seconds / budget.compute_cores,
        0.0,
        net_bytes as f64 * 8.0 / budget.link_bps,
    )
}

/// Translates a cache-aware plan into warm-epoch demands for the cluster
/// simulator: cached samples cost only their local suffix; the residual
/// follows the plan as usual.
///
/// # Errors
///
/// Propagates plan/profile mismatches from
/// [`OffloadPlan::to_sample_works`].
pub fn warm_sample_works(
    ctx: &PlanningContext<'_>,
    plan: &OffloadPlan,
    assignment: &CacheAssignment,
) -> Result<Vec<SampleWork>, SophonError> {
    let mut works = plan.to_sample_works(ctx.profiles)?;
    for (i, p) in ctx.profiles.iter().enumerate() {
        if let Some(stage) = assignment.cached_stage(i) {
            let suffix = (p.total_seconds() - p.prefix_seconds(stage)).max(0.0);
            works[i] = SampleWork::new(0.0, 0, suffix);
        }
    }
    Ok(works)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, GpuModel};
    use datasets::DatasetSpec;
    use pipeline::{CostModel, PipelineSpec, SampleProfile, SplitPoint};

    fn setup() -> (Vec<SampleProfile>, PipelineSpec, ClusterConfig) {
        let ds = DatasetSpec::openimages_like(1200, 9);
        let pipeline = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        let ps: Vec<_> = ds.records().map(|r| r.analytic_profile(&pipeline, &model)).collect();
        (ps, pipeline, ClusterConfig::paper_testbed(2))
    }

    fn corpus_bytes(ps: &[SampleProfile]) -> u64 {
        ps.iter().map(|p| p.raw_bytes).sum()
    }

    #[test]
    fn selection_respects_the_budget() {
        let (ps, pipeline, config) = setup();
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        for pct in [0u64, 10, 30, 100] {
            let budget = corpus_bytes(&ps) * pct / 100;
            for sel in [
                CacheSelection::Arrival,
                CacheSelection::SizeAware,
                CacheSelection::EfficiencyAware,
            ] {
                let a = choose_cache_contents(&ctx, budget, sel);
                assert!(a.cached_bytes <= budget, "{sel:?} at {pct}% overflowed");
                if pct == 0 {
                    assert_eq!(a.cached_samples(), 0);
                }
            }
        }
    }

    /// The selection as it ranked before the ratio was keyed: a stable sort
    /// whose comparator divides on both sides of every comparison. The
    /// oracle `choose_cache_contents` is checked against.
    fn choose_cache_contents_reference(
        ctx: &PlanningContext<'_>,
        budget_bytes: u64,
        selection: CacheSelection,
    ) -> CacheAssignment {
        let no_cache_plan = DecisionEngine::new().plan(ctx);
        let stable_ops = ctx.modality.deterministic_prefix_ops();
        let mut candidates: Vec<(usize, usize, u64, u64)> = ctx
            .profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let stage = (0..=stable_ops.min(p.stage_count()))
                    .min_by_key(|&s| p.size_at(s))
                    .unwrap_or(0);
                let resident = p.size_at(stage);
                let shipped = p.size_at(no_cache_plan.split(i).offloaded_ops());
                (i, stage, resident, shipped)
            })
            .collect();
        match selection {
            CacheSelection::Arrival => {}
            CacheSelection::SizeAware => {
                candidates.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)));
            }
            CacheSelection::EfficiencyAware => {
                candidates.sort_by(|a, b| {
                    let da = a.3 as f64 / a.2.max(1) as f64;
                    let db = b.3 as f64 / b.2.max(1) as f64;
                    db.total_cmp(&da).then(a.0.cmp(&b.0))
                });
            }
        }
        let mut cached_stage = vec![None; ctx.profiles.len()];
        let mut cached_bytes = 0u64;
        let mut warm_bytes_saved = 0u64;
        for (i, stage, resident, shipped) in candidates {
            if cached_bytes + resident <= budget_bytes {
                cached_stage[i] = Some(stage);
                cached_bytes += resident;
                warm_bytes_saved += shipped;
            }
        }
        CacheAssignment { cached_stage, cached_bytes, budget_bytes, warm_bytes_saved }
    }

    #[test]
    fn keyed_selection_matches_the_comparator_sort() {
        let (ps, pipeline, config) = setup();
        // The corpus twice over: every ratio then ties with another
        // sample's, so the index tie-break decides which copy fits.
        let twice: Vec<SampleProfile> = ps.iter().chain(&ps).cloned().collect();
        for (name, corpus) in [("corpus", &ps), ("corpus twice", &twice)] {
            let ctx = PlanningContext::new(corpus, &pipeline, &config, GpuModel::AlexNet, 256);
            for pct in [5u64, 25, 60] {
                let budget = corpus_bytes(corpus) * pct / 100;
                for sel in [
                    CacheSelection::Arrival,
                    CacheSelection::SizeAware,
                    CacheSelection::EfficiencyAware,
                ] {
                    assert_eq!(
                        choose_cache_contents(&ctx, budget, sel),
                        choose_cache_contents_reference(&ctx, budget, sel),
                        "{name}, {sel:?} at {pct}%"
                    );
                }
            }
        }
    }

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.25,
            3.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(total_order_key(a).cmp(&total_order_key(b)), a.total_cmp(&b), "{a} {b}");
            }
        }
    }

    #[test]
    fn cached_stages_are_epoch_stable() {
        let (ps, pipeline, config) = setup();
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let a = choose_cache_contents(&ctx, corpus_bytes(&ps) / 2, CacheSelection::SizeAware);
        for i in 0..ps.len() {
            if let Some(stage) = a.cached_stage(i) {
                assert!(
                    pipeline.split_is_epoch_stable(SplitPoint::new(stage)),
                    "sample {i} pinned at unstable stage {stage}"
                );
            }
        }
    }

    #[test]
    fn warm_baseline_reflects_only_uncached_transfers() {
        let (ps, pipeline, config) = setup();
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let whole_testbed = |a: &CacheAssignment| {
            let budget = ResourceBudget::of_context(&ctx);
            warm_baseline_costs_scoped(&ctx, a, &(0..ps.len()).collect::<Vec<_>>(), &budget)
        };
        let cold = whole_testbed(&CacheAssignment::none());
        let no_cache = ctx.baseline_costs();
        assert!((cold.t_net - no_cache.t_net).abs() < 1e-9);
        let all = choose_cache_contents(&ctx, corpus_bytes(&ps), CacheSelection::Arrival);
        let warm = whole_testbed(&all);
        assert_eq!(warm.t_net, 0.0);
    }
}
