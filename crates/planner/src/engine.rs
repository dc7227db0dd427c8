//! The decision engine (paper §3.2): efficiency-ordered greedy offloading.
//!
//! Every greedy pass walks the same order: the corpus' positive-efficiency
//! samples by descending efficiency, ties by ascending index. That order is
//! a function of the profiles alone, so a [`PlanningContext`] ranks its
//! samples once, into an offload table built on its first greedy pass and
//! shared by its clones, and every pass over that context scans the table.
//! Budgets, caches and shards only move where a pass stops.
//!
//! A pass prices its candidates against two orthogonal inputs, mirroring the
//! simulator's stage-graph core (`cluster::stagegraph`):
//!
//! * a `SampleUniverse` — *which* samples the pass may decide (the full
//!   corpus, one shard's primaries, …);
//! * a `ResourceBudget` — *what* the offloaded work runs against (the
//!   single storage node of the paper testbed, or one fleet node's own
//!   cores and link).
//!
//! [`DecisionEngine::plan`] runs one pass over every sample against the
//! context's budget (the paper's two-node testbed).
//! `ext::sharding::plan_fleet` runs one pass per shard in a single scan of
//! the table, each shard over its uncached primaries against that node's
//! budget. Fleet size, cache contents and node speed are all inputs of that
//! one fleet planner, not planners of their own.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::fmt;
use std::rc::Rc;

use cluster::{ClusterConfig, FleetNodeConfig, GpuModel};
use pipeline::{Modality, SampleProfile, SplitPoint};

use crate::{CostVector, OffloadPlan, PlanSummary, SophonError};

/// Sentinel cost (in seconds) for plans that route offloaded work to a
/// zero-core storage node. Large enough that no feasible plan ever loses a
/// comparison to an infeasible one, finite so arithmetic stays well-formed.
pub(crate) const INFEASIBLE_SECONDS: f64 = 1e18;

/// The resources one greedy pass plans offloaded work against.
///
/// Decouples the planner from `ClusterConfig`: a pass can run against the
/// whole storage side of the testbed ([`ResourceBudget::of_context`]) or
/// against a single fleet node's own cores and link
/// ([`ResourceBudget::of_node`]), while the sample set is chosen
/// independently via `SampleUniverse`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ResourceBudget {
    /// Effective storage cores available to offloaded work — physical
    /// cores scaled by node speed. Zero disables offloading.
    pub(crate) storage_cores: f64,
    /// Compute-node cores the residual preprocessing shares (already
    /// clamped to at least 1).
    pub(crate) compute_cores: f64,
    /// The storage→compute link this universe's transfers traverse, in
    /// bits per second.
    pub(crate) link_bps: f64,
}

impl ResourceBudget {
    /// The budget of the context's single storage node (the paper
    /// testbed).
    pub(crate) fn of_context(ctx: &PlanningContext<'_>) -> ResourceBudget {
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
    pub(crate) fn of_node(node: &FleetNodeConfig, ctx: &PlanningContext<'_>) -> ResourceBudget {
        ResourceBudget {
            storage_cores: node.storage_cores as f64 * node.speed,
            compute_cores: ctx.config.compute_cores.max(1) as f64,
            link_bps: node.link_bps,
        }
    }
}

/// The slice of the corpus one greedy pass may decide.
///
/// Index-based variants must be ascending: a shard's warm baseline sums
/// its universe's costs in member order, and plans are pinned to the bits
/// of the ascending sum.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SampleUniverse<'a> {
    /// Every sample of the context (the test oracles' whole-corpus pass).
    #[cfg(test)]
    All,
    /// An explicit ascending index set — e.g. one shard's uncached
    /// residual.
    Indices(&'a [usize]),
}

impl<'a> SampleUniverse<'a> {
    /// The universe's members over a corpus of `n` samples, in ascending
    /// index order, without collecting them.
    pub(crate) fn members(self, n: usize) -> impl Iterator<Item = usize> + 'a {
        let (all, listed): (usize, &'a [usize]) = match self {
            #[cfg(test)]
            SampleUniverse::All => (n, &[]),
            SampleUniverse::Indices(ix) => {
                debug_assert!(ix.last().is_none_or(|&last| last < n), "a member past the corpus");
                (0, ix)
            }
        };
        (0..all).chain(listed.iter().copied())
    }
}

/// Everything a policy needs to decide a plan for one training job.
///
/// A context also keeps its profiles' offload table (see the module docs),
/// built on its first greedy pass. Clones share that table, so a clone
/// that only changes `config`, `gpu` or `batch_size` plans without
/// ranking again; one whose `profiles` point elsewhere ranks its own.
#[derive(Debug, Clone)]
pub struct PlanningContext<'a> {
    /// Per-sample profiles from the stage-2 profiler, indexed by sample.
    pub(crate) profiles: &'a [SampleProfile],
    /// The job's preprocessing pipeline, behind the modality abstraction:
    /// policies read only op structure and split semantics, never concrete
    /// op types, so one engine plans imagery and audio alike.
    pub(crate) modality: &'a dyn Modality,
    /// The cluster's resources.
    pub(crate) config: &'a ClusterConfig,
    /// The model being trained.
    pub(crate) gpu: GpuModel,
    /// Training batch size.
    pub(crate) batch_size: usize,
    /// The offload table of the profiles the first greedy pass saw.
    table: Rc<OnceCell<OffloadTable>>,
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
        PlanningContext { profiles, modality, config, gpu, batch_size, table: Rc::default() }
    }

    /// GPU seconds for one epoch (`T_G`), accounting for data-parallel
    /// GPUs.
    pub(crate) fn gpu_epoch_seconds(&self) -> f64 {
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
        // `costs_for_plan` fails only on a plan whose length differs from
        // the profiles', and this plan is built from their length.
        self.costs_for_plan(&OffloadPlan::none(self.profiles.len()))
            .expect("none-plan always matches profiles")
    }

    /// The offload table of `self.profiles`: the kept one, built on the
    /// first call, or — when `profiles` no longer points at the slice it
    /// ranks — a fresh one that is not kept.
    pub(crate) fn offload_table(&self) -> Cow<'_, OffloadTable> {
        let kept = self.table.get_or_init(|| OffloadTable::build(self.profiles));
        if kept.ranks(self.profiles) {
            Cow::Borrowed(kept)
        } else {
            Cow::Owned(OffloadTable::build(self.profiles))
        }
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

/// One sample of the greedy order, with what offloading it moves: its
/// minimum-size stage, the bytes that saves and the prefix seconds it
/// costs, priced once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    index: u32,
    stage: u32,
    saved_bytes: f64,
    prefix_seconds: f64,
}

// The table holds one entry per positive-efficiency sample for as long as
// its context lives; keep an entry at three words.
const _: () = assert!(std::mem::size_of::<Candidate>() == 24);

impl Candidate {
    /// The sample's index in the corpus.
    pub(crate) fn index(&self) -> usize {
        self.index as usize
    }

    /// The split that ships the sample's minimum-size representation
    /// (`SampleProfile::best_split`).
    pub(crate) fn split(&self) -> SplitPoint {
        SplitPoint::new(self.stage as usize)
    }
}

#[cfg(test)]
thread_local! {
    /// Offload tables built on this thread, for tests that count them.
    static TABLE_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many offload tables this thread has built.
#[cfg(test)]
pub(crate) fn table_builds() -> usize {
    TABLE_BUILDS.with(std::cell::Cell::get)
}

/// A profile slice's positive-efficiency samples in greedy order.
#[derive(Clone)]
pub(crate) struct OffloadTable {
    /// Address and length of the profile slice the table ranks.
    source: (usize, usize),
    candidates: Vec<Candidate>,
}

impl OffloadTable {
    /// Ranks `profiles`. Each sample's efficiency is priced once, however
    /// many comparisons the sort makes.
    ///
    /// # Panics
    ///
    /// Panics on a corpus of 2³² samples or more.
    fn build(profiles: &[SampleProfile]) -> OffloadTable {
        #[cfg(test)]
        TABLE_BUILDS.with(|builds| builds.set(builds.get() + 1));
        let mut keys = Vec::with_capacity(profiles.len());
        for (i, p) in profiles.iter().enumerate() {
            let efficiency = p.efficiency();
            if efficiency > 0.0 {
                keys.push(rank_key(i, efficiency));
            }
        }
        keys.sort_unstable();
        let candidates = keys
            .into_iter()
            .map(|key| {
                // The key's low 64 bits are the sample index.
                let i = key as u64 as usize;
                let p = &profiles[i];
                let (stage, min_size) = p.min_stage();
                Candidate {
                    index: u32::try_from(i).expect("a corpus has fewer than 2^32 samples"),
                    stage: u32::try_from(stage).expect("a pipeline has fewer than 2^32 ops"),
                    saved_bytes: (p.raw_bytes - min_size) as f64,
                    prefix_seconds: p.prefix_seconds(stage),
                }
            })
            .collect();
        OffloadTable { source: (profiles.as_ptr() as usize, profiles.len()), candidates }
    }

    /// Whether the table ranks exactly `profiles`. A context's profiles
    /// are borrowed immutably for its whole lifetime, so the same address
    /// and length mean the same profiles.
    fn ranks(&self, profiles: &[SampleProfile]) -> bool {
        self.source == (profiles.as_ptr() as usize, profiles.len())
    }

    /// The candidates in greedy order.
    pub(crate) fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }
}

/// Forty thousand candidates are not a readable debug line.
impl fmt::Debug for OffloadTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OffloadTable").field("candidates", &self.candidates.len()).finish()
    }
}

/// One greedy pass's running cost vector against one budget. The pass is
/// offered candidates in greedy order and applies each one that keeps the
/// makespan from growing, until the network stops being the predominant
/// cost.
#[derive(Debug)]
pub(crate) struct GreedyPass {
    budget: ResourceBudget,
    costs: CostVector,
    open: bool,
}

impl GreedyPass {
    /// A pass starting from `baseline`. It is closed from the start when
    /// the budget has no storage cores or the network does not bind.
    pub(crate) fn new(baseline: CostVector, budget: ResourceBudget) -> GreedyPass {
        let open = budget.storage_cores > 0.0 && baseline.network_predominant();
        GreedyPass { budget, costs: baseline, open }
    }

    /// Whether the pass still takes candidates.
    pub(crate) fn is_open(&self) -> bool {
        self.open
    }

    /// The cost vector after the last applied candidate.
    pub(crate) fn costs(&self) -> CostVector {
        self.costs
    }

    /// Offers the next candidate in greedy order. Returns the new cost
    /// vector when the pass applies it; closes the pass, applying nothing,
    /// once the network is no longer the predominant cost.
    ///
    /// As a refinement over the paper's prose, a candidate whose offload
    /// would *increase* the predicted makespan is skipped (see
    /// [`DecisionEngine`]).
    pub(crate) fn offer(&mut self, c: &Candidate) -> Option<CostVector> {
        if !self.open || !self.costs.network_predominant() {
            self.open = false;
            return None;
        }
        let (current, budget) = (self.costs, &self.budget);
        let next = CostVector::new(
            current.t_g,
            (current.t_cc - c.prefix_seconds / budget.compute_cores).max(0.0),
            current.t_cs + c.prefix_seconds / budget.storage_cores,
            (current.t_net - c.saved_bytes * 8.0 / budget.link_bps).max(0.0),
        );
        if next.makespan() > current.makespan() {
            return None;
        }
        self.costs = next;
        Some(next)
    }
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

    /// Computes the offload plan.
    pub fn plan(&self, ctx: &PlanningContext<'_>) -> OffloadPlan {
        self.plan_from(ctx, ctx.baseline_costs(), |_| {}).0
    }

    /// Computes the offload plan and the cost-vector trajectory (one entry
    /// per applied sample, starting with the baseline).
    #[cfg(test)]
    pub(crate) fn plan_with_trace(
        &self,
        ctx: &PlanningContext<'_>,
    ) -> (OffloadPlan, Vec<CostVector>) {
        let baseline = ctx.baseline_costs();
        let mut trace = vec![baseline];
        let (plan, _) = self.plan_from(ctx, baseline, |next| trace.push(next));
        (plan, trace)
    }

    /// The whole-corpus pass from `baseline` against the context's budget:
    /// the plan and the cost vector it ends at. `applied` sees the cost
    /// vector after each applied sample.
    pub(crate) fn plan_from(
        &self,
        ctx: &PlanningContext<'_>,
        baseline: CostVector,
        mut applied: impl FnMut(CostVector),
    ) -> (OffloadPlan, CostVector) {
        let mut plan = OffloadPlan::none(ctx.profiles.len());
        let mut pass = GreedyPass::new(baseline, ResourceBudget::of_context(ctx));
        if pass.is_open() {
            for c in ctx.offload_table().candidates() {
                if let Some(next) = pass.offer(c) {
                    plan.set_split(c.index(), c.split());
                    applied(next);
                } else if !pass.is_open() {
                    break;
                }
            }
        }
        (plan, pass.costs())
    }
}

/// The greedy planner as it ran before contexts kept an offload table,
/// kept as the oracle of the table-driven one: every pass ranked its own
/// universe and built its own plan and trace, and `plan_fleet` ran one such
/// pass per shard.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::ext::caching::{warm_baseline_costs_scoped, CacheAssignment};
    use crate::ext::sharding::{shard_stats, FleetPlan, FleetPlanRequest};

    /// The universe's positive-efficiency samples as [`rank_key`]s in
    /// greedy order.
    fn ranked_candidates(ctx: &PlanningContext<'_>, universe: SampleUniverse<'_>) -> Vec<u128> {
        let n = ctx.profiles.len();
        let mut keys = Vec::new();
        for i in universe.members(n) {
            let efficiency = ctx.profiles[i].efficiency();
            if efficiency > 0.0 {
                keys.push(rank_key(i, efficiency));
            }
        }
        keys.sort_unstable();
        keys
    }

    /// `DecisionEngine::plan_scoped_with_trace` as it was: decides only
    /// `universe`'s samples, prices offloads against `budget`, and starts
    /// from `baseline`.
    pub(crate) fn plan_scoped_with_trace(
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

    /// `ext::sharding::plan_fleet` as it was, for inputs that match the
    /// shard map and the corpus.
    pub(crate) fn plan_fleet(ctx: &PlanningContext<'_>, req: &FleetPlanRequest<'_>) -> FleetPlan {
        let n = ctx.profiles.len();
        let shards = req.map.nodes();
        let no_cache = CacheAssignment::none();
        let cache = req.cache.unwrap_or(&no_cache);
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for i in 0..n {
            members[req.map.primary(i as u64)].push(i);
        }

        let mut plan = OffloadPlan::none(n);
        let mut per_shard = Vec::with_capacity(shards);
        for (shard, node) in req.nodes.iter().enumerate() {
            let members = &members[shard];
            let residual: Vec<usize> =
                members.iter().copied().filter(|&i| !cache.is_cached(i)).collect();
            let budget = ResourceBudget::of_node(node, ctx);
            let baseline =
                warm_baseline_costs_scoped(ctx, cache, SampleUniverse::Indices(members), &budget);
            let (shard_plan, _) =
                plan_scoped_with_trace(ctx, SampleUniverse::Indices(&residual), baseline, &budget);
            for &i in &residual {
                plan.set_split(i, shard_plan.split(i));
            }
            per_shard.push(shard_stats(shard, &plan, ctx.profiles, cache, members));
        }
        for i in 0..n {
            if let Some(stage) = cache.cached_stage(i) {
                plan.set_split(i, SplitPoint::new(stage));
            }
        }
        FleetPlan { plan, per_shard }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::caching::{self, warm_baseline_costs_scoped, CacheAssignment, CacheSelection};
    use crate::ext::sharding::{fleet_nodes, plan_fleet, FleetPlanRequest};
    use cluster::ShardMap;
    use datasets::DatasetSpec;
    use pipeline::{CostModel, PipelineSpec, StageMeasurement};
    use proptest::prelude::*;

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

    /// Plans `ps` with the table-driven engine and with the comparator
    /// sort on every testbed size, over the whole corpus and over an
    /// ascending subset, and asserts the same plans and, to the bit, the
    /// same trace. The subset is the uncached residual of a one-shard fleet
    /// that caches every other sample raw.
    fn assert_keyed_pass_matches_reference(name: &str, ps: &[SampleProfile]) {
        let pipeline = PipelineSpec::standard_train();
        let subset: Vec<usize> = (0..ps.len()).filter(|i| i % 3 != 1).collect();
        let complement =
            CacheAssignment::pinning((0..ps.len()).map(|i| (i % 3 == 1).then_some(0)).collect());
        let map = ShardMap::new(1, 1, 0);
        for cores in [1usize, 2, 4, 48] {
            let config = ClusterConfig::paper_testbed(cores);
            let ctx = context(ps, &pipeline, &config);
            let budget = ResourceBudget::of_context(&ctx);
            let what = format!("{name}, {cores} cores");

            let (plan, trace) = DecisionEngine::new().plan_with_trace(&ctx);
            let (want_plan, want_trace) =
                plan_scoped_reference(&ctx, SampleUniverse::All, ctx.baseline_costs(), &budget);
            assert_eq!(plan, want_plan, "{what}, all: plan");
            assert_eq!(trace_bits(&trace), trace_bits(&want_trace), "{what}, all: trace");

            let nodes = fleet_nodes(&config, 1);
            let req = FleetPlanRequest {
                cache: Some(&complement),
                ..FleetPlanRequest::new(&map, &nodes)
            };
            let warm = warm_baseline_costs_scoped(&ctx, &complement, SampleUniverse::All, &budget);
            let (want_plan, _) =
                plan_scoped_reference(&ctx, SampleUniverse::Indices(&subset), warm, &budget);
            assert_eq!(plan_fleet(&ctx, &req).unwrap().plan, want_plan, "{what}, subset: plan");
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

    #[test]
    fn clones_share_the_table_unless_their_profiles_change() {
        let a = profiles(&DatasetSpec::openimages_like(600, 1));
        let b = profiles(&DatasetSpec::openimages_like(600, 2));
        let pipeline = PipelineSpec::standard_train();
        let (two, many) = (ClusterConfig::paper_testbed(2), ClusterConfig::paper_testbed(48));
        let engine = DecisionEngine::new();
        let ctx = context(&a, &pipeline, &two);
        let builds = table_builds();
        let plan_a = engine.plan(&ctx);
        assert_eq!(table_builds() - builds, 1);

        // Another core count re-prices the same order.
        let mut wider = ctx.clone();
        wider.config = &many;
        assert_eq!(engine.plan(&wider), engine.plan(&context(&a, &pipeline, &many)));
        assert_eq!(table_builds() - builds, 2, "only the fresh context ranks");

        // Other profiles are never planned through the kept order.
        let mut other = ctx.clone();
        other.profiles = &b;
        assert_eq!(engine.plan(&other), engine.plan(&context(&b, &pipeline, &two)));
        assert_ne!(engine.plan(&other), plan_a);
        assert_eq!(engine.plan(&ctx), plan_a);
    }

    /// Stage sizes as multiples of the raw size, op costs in seconds and
    /// raw sizes, each drawn from a short list so that efficiencies tie. An
    /// op that costs nothing can make a prefix free (`+inf` efficiency),
    /// and stages no smaller than the raw form save nothing.
    const SIZE_FACTORS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 6.0];
    const OP_SECONDS: [f64; 4] = [0.0, 0.5e-3, 1e-3, 2e-3];
    const RAW_BYTES: [u64; 4] = [60_000, 90_000, 120_000, 180_000];
    const LINK_GBPS: [f64; 4] = [0.2, 0.5, 1.0, 4.0];
    const NODE_SPEEDS: [f64; 3] = [0.5, 1.0, 2.0];

    fn arb_profile(ops: usize) -> impl Strategy<Value = SampleProfile> {
        let stage = (0..SIZE_FACTORS.len(), 0..OP_SECONDS.len());
        (0..RAW_BYTES.len(), proptest::collection::vec(stage, ops)).prop_map(|(raw, stages)| {
            let raw_bytes = RAW_BYTES[raw];
            let stages = stages
                .into_iter()
                .map(|(size, cost)| StageMeasurement {
                    out_bytes: (raw_bytes as f64 * SIZE_FACTORS[size]) as u64,
                    seconds: OP_SECONDS[cost],
                })
                .collect();
            SampleProfile { sample_id: 0, raw_bytes, stages }
        })
    }

    /// Drawn profiles, then exact copies of some of them at later indices.
    fn arb_corpus() -> impl Strategy<Value = Vec<SampleProfile>> {
        let ops = PipelineSpec::standard_train().ops().len();
        let drawn = proptest::collection::vec(arb_profile(ops), 1..120);
        (drawn, proptest::collection::vec(any::<usize>(), 0..40)).prop_map(|(mut ps, copies)| {
            for c in copies {
                let copy = ps[c % ps.len()].clone();
                ps.push(copy);
            }
            for (i, p) in ps.iter_mut().enumerate() {
                p.sample_id = i as u64;
            }
            ps
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The table-driven planners give exactly what the sort-per-pass
        /// oracle gives: `plan` and `plan_with_trace` over the whole corpus
        /// (`SampleUniverse::All`), and `plan_fleet` over each shard's
        /// residual (`SampleUniverse::Indices`), with or without a cache,
        /// under node speeds and zero-core budgets.
        #[test]
        fn table_driven_planning_matches_the_sort_per_pass_oracle(
            ps in arb_corpus(),
            cores in 0usize..4,
            link in 0..LINK_GBPS.len(),
            shards in 1usize..5,
            replicated in any::<bool>(),
            seed in any::<u64>(),
            speeds in proptest::collection::vec(0..NODE_SPEEDS.len(), 4),
            cache_kind in 0usize..3,
            pins in proptest::collection::vec(0usize..5, 160),
        ) {
            let pipeline = PipelineSpec::standard_train();
            let config = ClusterConfig::paper_testbed(cores)
                .with_bandwidth(netsim::Bandwidth::from_gbps(LINK_GBPS[link]));
            let ctx = context(&ps, &pipeline, &config);

            let (plan, trace) = DecisionEngine::new().plan_with_trace(&ctx);
            let budget = ResourceBudget::of_context(&ctx);
            let (want_plan, want_trace) = reference::plan_scoped_with_trace(
                &ctx,
                SampleUniverse::All,
                ctx.baseline_costs(),
                &budget,
            );
            prop_assert_eq!(&plan, &want_plan);
            prop_assert_eq!(trace_bits(&trace), trace_bits(&want_trace));
            prop_assert_eq!(DecisionEngine::new().plan(&ctx), want_plan);

            // No cache, a selected one, or any samples pinned at any stable
            // stage.
            let stable = pipeline.deterministic_prefix_ops();
            let cache = match cache_kind {
                0 => None,
                1 => {
                    let corpus: u64 = ps.iter().map(|p| p.raw_bytes).sum();
                    let selection = [
                        CacheSelection::Arrival,
                        CacheSelection::SizeAware,
                        CacheSelection::EfficiencyAware,
                    ][pins[0] % 3];
                    let budget = corpus * pins[1] as u64 / 4;
                    Some(caching::choose_cache_contents(&ctx, budget, selection))
                }
                _ => Some(CacheAssignment::pinning(
                    (0..ps.len())
                        .map(|i| pins[i % pins.len()].checked_sub(2).map(|s| s.min(stable)))
                        .collect(),
                )),
            };
            let map = ShardMap::new(shards, if replicated && shards > 1 { 2 } else { 1 }, seed);
            let nodes: Vec<FleetNodeConfig> = speeds[..shards]
                .iter()
                .map(|&s| FleetNodeConfig::nominal(&config).with_speed(NODE_SPEEDS[s]))
                .collect();
            let req = FleetPlanRequest { cache: cache.as_ref(), ..FleetPlanRequest::new(&map, &nodes) };
            prop_assert_eq!(plan_fleet(&ctx, &req).unwrap(), reference::plan_fleet(&ctx, &req));
        }
    }
}
