//! The decision engine (paper §3.2): efficiency-ordered greedy offloading.
//!
//! One greedy pass is parameterized by two orthogonal inputs, mirroring the
//! simulator's stage-graph core (`cluster::stagegraph`):
//!
//! * a [`SampleUniverse`] — *which* samples the pass may decide (the full
//!   corpus, the uncached residual, one shard's primaries, …);
//! * a [`ResourceBudget`] — *what* the offloaded work runs against (the
//!   single storage node of the paper testbed, or one fleet node's own
//!   cores and link).
//!
//! [`DecisionEngine::plan_scoped_with_trace`] is the general entry point. It
//! has two callers: [`DecisionEngine::plan_with_trace`] (full universe,
//! config budget — the paper's two-node testbed) and
//! `ext::sharding::plan_fleet`, which runs one pass per shard over that
//! shard's uncached residual against that node's budget. Fleet size, cache
//! contents, node health, node speed and the fidelity floor are all inputs
//! of that one fleet planner, not planners of their own.

use cluster::{ClusterConfig, FleetNodeConfig, GpuModel};
use pipeline::{Modality, SampleProfile};

use crate::{CostVector, OffloadPlan, PlanSummary, SophonError};

/// Sentinel cost (in seconds) for plans that route offloaded work to a
/// zero-core storage node. Large enough that no feasible plan ever loses a
/// comparison to an infeasible one, finite so arithmetic stays well-formed.
pub const INFEASIBLE_SECONDS: f64 = 1e18;

/// The resources one greedy pass plans offloaded work against.
///
/// Decouples the planner from `ClusterConfig`: a pass can run against the
/// whole storage side of the testbed ([`ResourceBudget::of_context`]) or
/// against a single fleet node's own cores and link
/// ([`ResourceBudget::of_node`]), while the sample set is chosen
/// independently via [`SampleUniverse`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceBudget {
    /// Effective storage cores available to offloaded work — physical
    /// cores scaled by node speed. Zero disables offloading.
    pub storage_cores: f64,
    /// Compute-node cores the residual preprocessing shares (already
    /// clamped to at least 1).
    pub compute_cores: f64,
    /// The storage→compute link this universe's transfers traverse, in
    /// bits per second.
    pub link_bps: f64,
}

impl ResourceBudget {
    /// The budget of the context's single storage node (the paper
    /// testbed).
    pub fn of_context(ctx: &PlanningContext<'_>) -> ResourceBudget {
        ResourceBudget {
            storage_cores: ctx.config.storage_cores as f64,
            compute_cores: ctx.config.compute_cores.max(1) as f64,
            link_bps: ctx.config.link_bps,
        }
    }

    /// The budget of one fleet node: its own cores scaled by its speed (a
    /// storage core running at `speed`× a compute core — `1.0` is the
    /// paper's identical-CPU assumption) and its own link; the compute
    /// side stays the job-wide one, since all shards share it.
    pub fn of_node(node: &FleetNodeConfig, ctx: &PlanningContext<'_>) -> ResourceBudget {
        ResourceBudget {
            storage_cores: node.storage_cores as f64 * node.speed,
            compute_cores: ctx.config.compute_cores.max(1) as f64,
            link_bps: node.link_bps,
        }
    }
}

/// The slice of the corpus one greedy pass may decide.
///
/// Index-based variants must be ascending for the engine's tie-breaking to
/// stay deterministic (equal-efficiency samples are taken in index order).
#[derive(Debug, Clone, Copy)]
pub enum SampleUniverse<'a> {
    /// Every sample of the context.
    All,
    /// An explicit ascending index set — e.g. one shard's uncached
    /// residual.
    Indices(&'a [usize]),
}

impl<'a> SampleUniverse<'a> {
    /// The universe's members over a corpus of `n` samples, in ascending
    /// index order, without collecting them.
    pub fn members(self, n: usize) -> impl Iterator<Item = usize> + 'a {
        let (all, listed): (usize, &'a [usize]) = match self {
            SampleUniverse::All => (n, &[]),
            SampleUniverse::Indices(ix) => (0, ix),
        };
        (0..all).chain(listed.iter().copied())
    }

    /// How many members the universe has over a corpus of `n` samples.
    pub(crate) fn len(self, n: usize) -> usize {
        match self {
            SampleUniverse::All => n,
            SampleUniverse::Indices(ix) => ix.len(),
        }
    }
}

/// Everything a policy needs to decide a plan for one training job.
#[derive(Debug, Clone, Copy)]
pub struct PlanningContext<'a> {
    /// Per-sample profiles from the stage-2 profiler, indexed by sample.
    pub profiles: &'a [SampleProfile],
    /// The job's preprocessing pipeline, behind the modality abstraction:
    /// policies read only op structure and split semantics, never concrete
    /// op types, so one engine plans imagery and audio alike.
    pub modality: &'a dyn Modality,
    /// The cluster's resources.
    pub config: &'a ClusterConfig,
    /// The model being trained.
    pub gpu: GpuModel,
    /// Training batch size.
    pub batch_size: usize,
}

impl<'a> PlanningContext<'a> {
    /// Creates a context with identical CPU types on both nodes.
    ///
    /// Any `&PipelineSpec` or `&AudioPipeline` coerces into the
    /// `&dyn Modality` parameter.
    pub fn new(
        profiles: &'a [SampleProfile],
        modality: &'a dyn Modality,
        config: &'a ClusterConfig,
        gpu: GpuModel,
        batch_size: usize,
    ) -> PlanningContext<'a> {
        PlanningContext { profiles, modality, config, gpu, batch_size }
    }

    /// GPU seconds for one epoch (`T_G`), accounting for data-parallel
    /// GPUs.
    pub fn gpu_epoch_seconds(&self) -> f64 {
        self.profiles.len() as f64 * self.gpu.seconds_per_image() / self.config.gpus.max(1) as f64
    }

    /// The cost vector of an arbitrary plan.
    ///
    /// # Errors
    ///
    /// Propagates plan/profile mismatches.
    pub fn costs_for_plan(&self, plan: &OffloadPlan) -> Result<CostVector, SophonError> {
        Ok(self.costs_for_summary(&plan.summarize(self.profiles)?))
    }

    /// The cost vector of a plan already summarized against this context's
    /// profiles.
    pub(crate) fn costs_for_summary(&self, summary: &PlanSummary) -> CostVector {
        let t_cc = summary.compute_cpu_seconds / self.config.compute_cores.max(1) as f64;
        let storage_capacity = self.config.storage_cores as f64;
        let t_cs = if summary.storage_cpu_seconds == 0.0 {
            0.0
        } else if storage_capacity <= 0.0 {
            // Offloaded work with zero storage cores is infeasible; a huge
            // finite sentinel keeps comparisons meaningful (any feasible
            // alternative wins) without poisoning arithmetic with infinity.
            INFEASIBLE_SECONDS
        } else {
            summary.storage_cpu_seconds / storage_capacity
        };
        let t_net = summary.transfer_bytes as f64 * 8.0 / self.config.link_bps;
        CostVector::new(self.gpu_epoch_seconds(), t_cc, t_cs, t_net)
    }

    /// The `No-Off` baseline cost vector (`T_CS = 0`).
    pub fn baseline_costs(&self) -> CostVector {
        self.costs_for_plan(&OffloadPlan::none(self.profiles.len()))
            .expect("none-plan always matches profiles")
    }
}

/// A candidate's place in the greedy order as one integer: its
/// efficiency's bits inverted, above its index. Ascending keys run by
/// descending efficiency, ties in ascending index order.
///
/// Every candidate's efficiency is `> 0.0` (finite or `+inf`), and positive
/// doubles order like their bit patterns, so this is exactly the order of a
/// stable sort of the ascending universe by descending efficiency under
/// `partial_cmp`. The keys are unique, so an unstable sort, which needs no
/// scratch buffer, yields that same order.
fn rank_key(index: usize, efficiency: f64) -> u128 {
    (u128::from(!efficiency.to_bits()) << 64) | index as u128
}

/// The universe's positive-efficiency samples as [`rank_key`]s in greedy
/// order. Each sample's efficiency is priced once, however many
/// comparisons the sort makes.
fn ranked_candidates(ctx: &PlanningContext<'_>, universe: SampleUniverse<'_>) -> Vec<u128> {
    let n = ctx.profiles.len();
    let mut keys = Vec::with_capacity(universe.len(n));
    for i in universe.members(n) {
        let efficiency = ctx.profiles[i].efficiency();
        if efficiency > 0.0 {
            keys.push(rank_key(i, efficiency));
        }
    }
    keys.sort_unstable();
    keys
}

/// The SOPHON decision engine.
///
/// Starting from the `No-Off` baseline, samples are considered in
/// descending *offloading efficiency* (bytes saved per second of offloaded
/// CPU, [`SampleProfile::efficiency`]). Each selected sample moves to its
/// minimum-size split; selection continues while
///
/// 1. `T_Net` remains the strict predominant metric, and
/// 2. positive-efficiency samples remain, and
/// 3. the storage node has cores to run offloaded work.
///
/// As a refinement over the paper's prose, a candidate whose offload would
/// *increase* the predicted makespan (its `T_CS` contribution exceeds the
/// network time it saves — only possible with very few storage cores) is
/// skipped rather than applied; this implements the stated goal of "not
/// imposing excessive preprocessing load on the storage server" at sample
/// granularity.
#[derive(Debug, Clone, Default)]
pub struct DecisionEngine;

impl DecisionEngine {
    /// Creates an engine.
    pub fn new() -> DecisionEngine {
        DecisionEngine
    }

    /// Computes the offload plan and the cost-vector trajectory (one entry
    /// per applied sample, starting with the baseline).
    pub fn plan_with_trace(&self, ctx: &PlanningContext<'_>) -> (OffloadPlan, Vec<CostVector>) {
        self.plan_scoped_with_trace(
            ctx,
            SampleUniverse::All,
            ctx.baseline_costs(),
            &ResourceBudget::of_context(ctx),
        )
    }

    /// The fully general greedy pass: decides only `universe`'s samples,
    /// prices offloads against `budget`, and starts from `baseline`.
    ///
    /// The universe and the budget vary independently, which is what lets
    /// caching (residual universe) and sharding (per-shard universe,
    /// per-node budget) compose inside `ext::sharding::plan_fleet`.
    pub fn plan_scoped_with_trace(
        &self,
        ctx: &PlanningContext<'_>,
        universe: SampleUniverse<'_>,
        baseline: CostVector,
        budget: &ResourceBudget,
    ) -> (OffloadPlan, Vec<CostVector>) {
        let n = ctx.profiles.len();
        let mut plan = OffloadPlan::none(n);
        let mut trace = vec![baseline];
        if budget.storage_cores <= 0.0 {
            return (plan, trace);
        }

        let storage_cores = budget.storage_cores;
        let compute_cores = budget.compute_cores;
        let bw = budget.link_bps;

        let mut current = *trace.last().expect("trace seeded with baseline");
        for key in ranked_candidates(ctx, universe) {
            if !current.network_predominant() {
                break;
            }
            // The key's low 64 bits are the sample index.
            let i = key as u64 as usize;
            let p = &ctx.profiles[i];
            let (stage, min_size) = p.min_stage();
            let saved_bytes = (p.raw_bytes - min_size) as f64;
            let prefix = p.prefix_seconds(stage);
            let next = CostVector::new(
                current.t_g,
                (current.t_cc - prefix / compute_cores).max(0.0),
                current.t_cs + prefix / storage_cores,
                (current.t_net - saved_bytes * 8.0 / bw).max(0.0),
            );
            // Refinement: skip a sample that would worsen the makespan.
            if next.makespan() > current.makespan() {
                continue;
            }
            plan.set_split(i, p.best_split());
            current = next;
            trace.push(next);
        }
        (plan, trace)
    }

    /// Computes the offload plan.
    pub fn plan(&self, ctx: &PlanningContext<'_>) -> OffloadPlan {
        self.plan_with_trace(ctx).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::DatasetSpec;
    use pipeline::{CostModel, PipelineSpec};

    fn profiles(ds: &DatasetSpec) -> Vec<SampleProfile> {
        let spec = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        ds.records().map(|r| r.analytic_profile(&spec, &model)).collect()
    }

    fn context<'a>(
        profiles: &'a [SampleProfile],
        pipeline: &'a PipelineSpec,
        config: &'a ClusterConfig,
    ) -> PlanningContext<'a> {
        PlanningContext::new(profiles, pipeline, config, GpuModel::AlexNet, 256)
    }

    #[test]
    fn io_bound_workload_gets_offloading() {
        let ds = DatasetSpec::openimages_like(2000, 5);
        let ps = profiles(&ds);
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(48);
        let ctx = context(&ps, &pipeline, &config);
        assert!(ctx.baseline_costs().network_predominant());

        let (plan, trace) = DecisionEngine::new().plan_with_trace(&ctx);
        // Most beneficial samples get offloaded with ample storage CPU.
        let benefiting = ps.iter().filter(|p| p.efficiency() > 0.0).count();
        assert!(
            plan.offloaded_samples() * 10 >= benefiting * 9,
            "offloaded {} of {benefiting}",
            plan.offloaded_samples()
        );
        // Traffic strictly decreases along the trace.
        for w in trace.windows(2) {
            assert!(w[1].t_net < w[0].t_net);
        }
        // Final plan beats baseline.
        let final_costs = ctx.costs_for_plan(&plan).unwrap();
        assert!(final_costs.makespan() < ctx.baseline_costs().makespan());
    }

    #[test]
    fn non_beneficial_samples_never_offloaded() {
        let ds = DatasetSpec::openimages_like(1000, 9);
        let ps = profiles(&ds);
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(48);
        let plan = DecisionEngine::new().plan(&context(&ps, &pipeline, &config));
        for (i, p) in ps.iter().enumerate() {
            if p.efficiency() == 0.0 {
                assert!(!plan.split(i).is_offloaded(), "sample {i} wrongly offloaded");
            }
        }
    }

    #[test]
    fn zero_storage_cores_means_no_offload() {
        let ds = DatasetSpec::openimages_like(500, 2);
        let ps = profiles(&ds);
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(0);
        let plan = DecisionEngine::new().plan(&context(&ps, &pipeline, &config));
        assert_eq!(plan.offloaded_samples(), 0);
    }

    #[test]
    fn limited_cores_offload_less() {
        let ds = DatasetSpec::openimages_like(2000, 4);
        let ps = profiles(&ds);
        let pipeline = PipelineSpec::standard_train();
        let engine = DecisionEngine::new();
        let mut last = usize::MAX;
        let mut counts = Vec::new();
        for cores in [1usize, 2, 4, 8, 48] {
            let config = ClusterConfig::paper_testbed(cores);
            let plan = engine.plan(&context(&ps, &pipeline, &config));
            counts.push((cores, plan.offloaded_samples()));
        }
        for &(_, c) in counts.iter().rev() {
            assert!(c <= last, "offload counts not monotone: {counts:?}");
            last = c;
        }
        // With one core, still some offloading (the paper's Figure 4 shows
        // SOPHON gains even at 1 core).
        assert!(counts[0].1 > 0, "no offloading at 1 core: {counts:?}");
    }

    #[test]
    fn gpu_bound_workload_stops_immediately() {
        let ds = DatasetSpec::imagenet_like(500, 2);
        let ps = profiles(&ds);
        let pipeline = PipelineSpec::standard_train();
        // ResNet50 on a fast link: GPU predominant, no offloading helps.
        let config =
            ClusterConfig::paper_testbed(48).with_bandwidth(netsim::Bandwidth::from_gbps(100.0));
        let mut ctx = context(&ps, &pipeline, &config);
        ctx.gpu = GpuModel::ResNet50;
        assert!(!ctx.baseline_costs().network_predominant());
        let plan = DecisionEngine::new().plan(&ctx);
        assert_eq!(plan.offloaded_samples(), 0);
    }

    #[test]
    fn engine_is_deterministic() {
        let ds = DatasetSpec::openimages_like(800, 8);
        let ps = profiles(&ds);
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(4);
        let a = DecisionEngine::new().plan(&context(&ps, &pipeline, &config));
        let b = DecisionEngine::new().plan(&context(&ps, &pipeline, &config));
        assert_eq!(a, b);
    }

    #[test]
    fn trace_makespan_never_increases() {
        let ds = DatasetSpec::openimages_like(1500, 3);
        let ps = profiles(&ds);
        let pipeline = PipelineSpec::standard_train();
        for cores in [1usize, 2, 48] {
            let config = ClusterConfig::paper_testbed(cores);
            let (_, trace) =
                DecisionEngine::new().plan_with_trace(&context(&ps, &pipeline, &config));
            for w in trace.windows(2) {
                assert!(
                    w[1].makespan() <= w[0].makespan() + 1e-12,
                    "makespan increased with {cores} cores"
                );
            }
        }
    }

    /// The greedy pass as it ranked before ranks were keyed: the universe
    /// collected, then stable-sorted by a comparator that prices both
    /// sides' efficiency on every comparison. The oracle the keyed pass is
    /// checked against.
    fn plan_scoped_reference(
        ctx: &PlanningContext<'_>,
        universe: SampleUniverse<'_>,
        baseline: CostVector,
        budget: &ResourceBudget,
    ) -> (OffloadPlan, Vec<CostVector>) {
        let n = ctx.profiles.len();
        let mut plan = OffloadPlan::none(n);
        let mut trace = vec![baseline];
        if budget.storage_cores <= 0.0 {
            return (plan, trace);
        }
        let mut candidates: Vec<usize> =
            universe.members(n).filter(|&i| ctx.profiles[i].efficiency() > 0.0).collect();
        candidates.sort_by(|&a, &b| {
            ctx.profiles[b]
                .efficiency()
                .partial_cmp(&ctx.profiles[a].efficiency())
                .expect("efficiencies are finite")
        });
        let mut current = baseline;
        for &i in &candidates {
            if !current.network_predominant() {
                break;
            }
            let p = &ctx.profiles[i];
            let (stage, min_size) = p.min_stage();
            let saved_bytes = (p.raw_bytes - min_size) as f64;
            let prefix = p.prefix_seconds(stage);
            let next = CostVector::new(
                current.t_g,
                (current.t_cc - prefix / budget.compute_cores).max(0.0),
                current.t_cs + prefix / budget.storage_cores,
                (current.t_net - saved_bytes * 8.0 / budget.link_bps).max(0.0),
            );
            if next.makespan() > current.makespan() {
                continue;
            }
            plan.set_split(i, p.best_split());
            current = next;
            trace.push(next);
        }
        (plan, trace)
    }

    fn trace_bits(trace: &[CostVector]) -> Vec<[u64; 4]> {
        trace.iter().map(|c| [c.t_g, c.t_cc, c.t_cs, c.t_net].map(f64::to_bits)).collect()
    }

    /// Plans `ps` with the keyed pass and with the reference on every
    /// testbed size, over the whole corpus and over an ascending subset,
    /// and asserts the same plan and, to the bit, the same trace.
    fn assert_keyed_pass_matches_reference(name: &str, ps: &[SampleProfile]) {
        let pipeline = PipelineSpec::standard_train();
        let subset: Vec<usize> = (0..ps.len()).filter(|i| i % 3 != 1).collect();
        for cores in [1usize, 2, 4, 48] {
            let config = ClusterConfig::paper_testbed(cores);
            let ctx = context(ps, &pipeline, &config);
            let budget = ResourceBudget::of_context(&ctx);
            let baseline = ctx.baseline_costs();
            for (shape, universe) in
                [("all", SampleUniverse::All), ("subset", SampleUniverse::Indices(&subset))]
            {
                let what = format!("{name}, {cores} cores, {shape}");
                let (plan, trace) =
                    DecisionEngine::new().plan_scoped_with_trace(&ctx, universe, baseline, &budget);
                let (want_plan, want_trace) =
                    plan_scoped_reference(&ctx, universe, baseline, &budget);
                assert_eq!(plan, want_plan, "{what}: plan");
                assert_eq!(trace_bits(&trace), trace_bits(&want_trace), "{what}: trace");
            }
        }
    }

    #[test]
    fn keyed_ranking_plans_like_the_comparator_sort() {
        for (name, ds) in [
            ("openimages", DatasetSpec::openimages_like(1500, 3)),
            ("imagenet", DatasetSpec::imagenet_like(1500, 3)),
            ("mini", DatasetSpec::mini(64, 3)),
        ] {
            assert_keyed_pass_matches_reference(name, &profiles(&ds));
        }
    }

    #[test]
    fn efficiency_ties_keep_ascending_index_order() {
        // Four copies of each profile give exact efficiency ties; two
        // copies of one sample get a prefix that costs nothing, so their
        // efficiency is `+inf` and they tie with each other. With few
        // storage cores the pass stops or skips inside tie groups, so any
        // other tie order offloads different indices.
        let base = profiles(&DatasetSpec::openimages_like(300, 7));
        let mut ps: Vec<SampleProfile> = (0..4).flat_map(|_| base.iter().cloned()).collect();
        let free = base.iter().position(|p| p.efficiency() > 0.0).expect("a sample benefits");
        for i in [free, free + base.len()] {
            let (stage, _) = ps[i].min_stage();
            for m in &mut ps[i].stages[..stage] {
                m.seconds = 0.0;
            }
            assert_eq!(ps[i].efficiency(), f64::INFINITY);
        }
        assert_keyed_pass_matches_reference("ties", &ps);
    }
}
