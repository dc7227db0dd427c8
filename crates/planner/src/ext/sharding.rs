//! Fleet-aware offload planning: the one planner behind every `ext` axis.
//!
//! With a single storage node, the greedy engine's `T_CS` guard protects
//! *that node's* cores. Sharding the corpus across N nodes (placed by
//! [`cluster::ShardMap`]) changes the resource picture: each node has its own
//! preprocessing cores and its own link, so a plan computed against the
//! aggregate fleet could pile every offloaded sample onto one hot shard.
//! [`plan_fleet`] instead runs the greedy engine **once per shard**, over
//! the samples that shard fronts, against that node's own cores and link.
//! Each shard stops offloading exactly when *its* link stops being the
//! predominant cost, so no single node's preprocessing cores become the
//! fleet's bottleneck.
//!
//! Everything else a deployment can vary is an input of that same pass
//! ([`FleetPlanRequest`]), not a planner of its own:
//!
//! * **fleet size** — the paper's two-node testbed is the one-shard fleet;
//! * **node speed** — heterogeneous CPUs (future work §6) are a node whose
//!   `speed` is not `1.0`: its [`ResourceBudget`] shrinks, so a slow
//!   storage node offloads fewer samples, and the stage graph stretches
//!   its service times by the same factor;
//! * **cache** — a [`CacheAssignment`] removes the cached samples from each
//!   shard's universe and from its baseline `T_Net`, and pins them at their
//!   cached stage in the merged plan;
//! * **health** — a `degraded` flag per node (an open circuit breaker, see
//!   `storage::NodeHealthHandle::is_degraded`) moves each sample to its
//!   first healthy owner, whose cores and link then carry it; a sample with
//!   no healthy owner falls back to a raw fetch from its nominal primary
//!   ("degraded" means unfit for offloaded preprocessing, not necessarily
//!   unreachable: a raw read is the cheapest thing the sick node can serve,
//!   and the transport's retry/breaker machinery still guards the fetch);
//! * **fidelity** — with a [`BrownoutConfig`], those raw fallbacks are
//!   planned at the policy's fidelity floor, so the sick node ships tier
//!   prefixes of its progressive encodings instead of whole objects.
//!
//! Each shard's pass is one [`SampleUniverse::Indices`] slice planned
//! against a per-node [`ResourceBudget`] — no sub-contexts or profile
//! clones. The budget reuses the job-wide compute-node and GPU capacities:
//! those resources are shared by all shards, so each shard's view of
//! `T_CC`/`T_G` covers only its own samples and understates the contention
//! slightly. The bias is conservative for the stopping rule — it can only
//! keep `T_Net` predominant longer — and vanishes as shards balance.
//!
//! The module is pure planning — it never touches a socket — so the runtime
//! can call it between batches (via the runtime's
//! `loader::OffloadingLoader::run_epoch_with_replan`) with whatever
//! health picture the transport reports at that moment. It also bridges
//! planning to the fleet simulator: [`owner_lists`] materializes per-sample
//! replica sets for [`cluster::simulate_fleet_epoch`], and [`fleet_nodes`]
//! derives the per-node resource vector from the planning config.

use cluster::{ClusterConfig, FleetNodeConfig, ShardMap};
use pipeline::{SampleProfile, SplitPoint};

use crate::engine::{DecisionEngine, PlanningContext, ResourceBudget, SampleUniverse};
use crate::ext::caching::{warm_baseline_costs_scoped, CacheAssignment};
use crate::ext::feedback::BrownoutConfig;
use crate::{OffloadPlan, SophonError};

/// One shard's slice of a fleet plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardPlanStats {
    /// The shard (storage node) index.
    pub shard: usize,
    /// Samples this shard fronts and serves over its link (its uncached
    /// residual when the plan has a cache).
    pub samples: u64,
    /// How many of them offload at least one op.
    pub offloaded_samples: u64,
    /// Bytes this shard ships per epoch under the plan.
    pub transfer_bytes: u64,
    /// Offloaded single-core CPU seconds this shard executes per epoch.
    pub storage_cpu_seconds: f64,
    /// Samples of this shard held by the near-compute cache.
    pub cached_samples: u64,
    /// Wire bytes the cache saves this shard per epoch (the raw bytes of
    /// its cached samples).
    pub cached_bytes_saved: u64,
}

/// Everything [`plan_fleet`] plans against, as data.
#[derive(Debug, Clone, Copy)]
pub struct FleetPlanRequest<'a> {
    /// Placement: which node fronts which sample.
    pub map: &'a ShardMap,
    /// Per-node cores, speed, and link, parallel to `map`'s shards.
    pub nodes: &'a [FleetNodeConfig],
    /// Samples pinned next to the trainer, parallel to the corpus.
    pub cache: Option<&'a CacheAssignment>,
    /// Per-node "breaker open" flags, parallel to `map`'s shards; empty
    /// means every node is healthy.
    pub degraded: &'a [bool],
    /// Serves samples with no healthy owner at this policy's fidelity
    /// floor instead of full fidelity.
    pub brownout: Option<&'a BrownoutConfig>,
}

impl<'a> FleetPlanRequest<'a> {
    /// A healthy, uncached, full-fidelity fleet.
    pub fn new(map: &'a ShardMap, nodes: &'a [FleetNodeConfig]) -> FleetPlanRequest<'a> {
        FleetPlanRequest { map, nodes, cache: None, degraded: &[], brownout: None }
    }
}

/// A fleet-wide offload plan with its per-shard decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// The merged plan, indexed like the corpus: residual samples at their
    /// greedy split, cached samples pinned at their cached stage, samples
    /// with no healthy owner at `SplitPoint::NONE`.
    pub plan: OffloadPlan,
    /// Per-sample effective primary (first healthy owner, or the nominal
    /// primary when every owner is degraded), parallel to the corpus.
    pub primaries: Vec<usize>,
    /// Per-shard aggregates, in shard order.
    pub per_shard: Vec<ShardPlanStats>,
    /// Per-sample serving fidelity as a byte fraction of the full
    /// encoding, parallel to the corpus. All `1.0` unless the request had
    /// a brownout policy, under which raw fallbacks are served at the
    /// policy's fidelity floor. Samples with a healthy owner keep full
    /// fidelity — mid-epoch link pressure on healthy nodes is the feedback
    /// controller's job, not this planner's.
    pub fidelity: Vec<f64>,
    /// Samples now fronted by a replica because their nominal primary is
    /// degraded.
    pub reassigned: u64,
    /// Uncached samples with no healthy owner, pinned to
    /// `SplitPoint::NONE` raw fetches.
    pub raw_fallbacks: u64,
}

impl FleetPlan {
    /// The busiest shard's offloaded CPU seconds — the quantity per-shard
    /// planning bounds.
    pub fn peak_storage_cpu_seconds(&self) -> f64 {
        self.per_shard.iter().map(|s| s.storage_cpu_seconds).fold(0.0, f64::max)
    }

    /// Total bytes on all wires per epoch (warm-epoch bytes when the plan
    /// has a cache).
    pub fn total_transfer_bytes(&self) -> u64 {
        self.per_shard.iter().map(|s| s.transfer_bytes).sum()
    }

    /// Whether degradation forced any change of serving shard.
    pub fn is_disturbed(&self) -> bool {
        self.reassigned > 0 || self.raw_fallbacks > 0
    }

    /// Mean planned fidelity across the corpus (`1.0` without brownout).
    pub fn mean_fidelity(&self) -> f64 {
        if self.fidelity.is_empty() {
            return 1.0;
        }
        self.fidelity.iter().sum::<f64>() / self.fidelity.len() as f64
    }
}

fn check_len(what: &'static str, expected: usize, got: usize) -> Result<(), SophonError> {
    if got == expected {
        Ok(())
    } else {
        Err(SophonError::FleetMismatch { what, expected, got })
    }
}

/// Plans offloading for the fleet `req` describes: one greedy pass per
/// healthy shard over the uncached samples it fronts, against that node's
/// own cores and link, starting from that shard's warm baseline.
///
/// # Errors
///
/// Returns [`SophonError::FleetMismatch`] when `req.nodes` or a non-empty
/// `req.degraded` is not parallel to the shard map, or `req.cache` does not
/// cover the corpus.
pub fn plan_fleet(
    ctx: &PlanningContext<'_>,
    req: &FleetPlanRequest<'_>,
) -> Result<FleetPlan, SophonError> {
    let n = ctx.profiles.len();
    let shards = req.map.nodes();
    check_len("node vector for the shard map", shards, req.nodes.len())?;
    if !req.degraded.is_empty() {
        check_len("degraded vector for the shard map", shards, req.degraded.len())?;
    }
    if let Some(cache) = req.cache {
        check_len("cache assignment for the corpus", n, cache.len())?;
    }
    let no_cache = CacheAssignment::none();
    let cache = req.cache.unwrap_or(&no_cache);
    // Empty or all-false flags are the healthy fleet.
    let any_degraded = req.degraded.contains(&true);
    let is_degraded = |shard: usize| any_degraded && req.degraded[shard];
    let floor = req.brownout.map_or(1.0, BrownoutConfig::floor_fraction);

    // One pass over the corpus: each sample's effective primary, bucketed
    // into that shard's members (ascending by construction). A sample with
    // no healthy owner keeps its nominal primary, which is degraded and
    // therefore never planned.
    let mut primaries = Vec::with_capacity(n);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); shards];
    let mut fidelity = vec![1.0f64; n];
    let mut reassigned = 0u64;
    let mut raw_fallbacks = 0u64;
    for (i, served_fraction) in fidelity.iter_mut().enumerate() {
        let primary = if any_degraded {
            // `owners` allocates per sample; the healthy path skips it.
            let owners = req.map.owners(i as u64);
            match owners.iter().find(|&&o| !is_degraded(o)) {
                Some(&owner) => {
                    reassigned += u64::from(owner != owners[0]);
                    owner
                }
                None => {
                    if !cache.is_cached(i) {
                        raw_fallbacks += 1;
                        *served_fraction = floor;
                    }
                    owners[0]
                }
            }
        } else {
            req.map.primary(i as u64)
        };
        primaries.push(primary);
        members[primary].push(i);
    }

    let mut plan = OffloadPlan::none(n);
    let mut per_shard = Vec::with_capacity(shards);
    let engine = DecisionEngine::new();
    for (shard, node) in req.nodes.iter().enumerate() {
        let members = &members[shard];
        // An open breaker gets no offloaded work at all.
        if !is_degraded(shard) {
            let residual: Vec<usize> =
                members.iter().copied().filter(|&i| !cache.is_cached(i)).collect();
            let budget = ResourceBudget::of_node(node, ctx);
            // Warm baseline over the WHOLE shard (cached samples contribute
            // suffix compute and zero net), greedy over the residual only.
            let baseline =
                warm_baseline_costs_scoped(ctx, cache, SampleUniverse::Indices(members), &budget);
            let (shard_plan, _) = engine.plan_scoped_with_trace(
                ctx,
                SampleUniverse::Indices(&residual),
                baseline,
                &budget,
            );
            for &i in &residual {
                plan.set_split(i, shard_plan.split(i));
            }
        }
        per_shard.push(shard_stats(shard, &plan, ctx.profiles, cache, members));
    }
    // A loader driving a `CachingTransport` requests each cached sample at
    // exactly the split whose payload the cache holds, so every such fetch
    // is a local hit.
    for i in 0..n {
        if let Some(stage) = cache.cached_stage(i) {
            plan.set_split(i, SplitPoint::new(stage));
        }
    }
    Ok(FleetPlan { plan, primaries, per_shard, fidelity, reassigned, raw_fallbacks })
}

/// Aggregates one shard's slice of a plan, summing in ascending index
/// order (the same order `OffloadPlan::summarize` uses over a sub-corpus).
fn shard_stats(
    shard: usize,
    plan: &OffloadPlan,
    profiles: &[SampleProfile],
    cache: &CacheAssignment,
    members: &[usize],
) -> ShardPlanStats {
    let mut stats = ShardPlanStats { shard, ..ShardPlanStats::default() };
    for &i in members {
        let p = &profiles[i];
        if cache.is_cached(i) {
            stats.cached_samples += 1;
            stats.cached_bytes_saved += p.raw_bytes;
            continue;
        }
        // The split is `NONE` or the profile's own `best_split`, so it is
        // always inside the pipeline.
        let split = plan.split(i);
        stats.samples += 1;
        stats.offloaded_samples += u64::from(split.is_offloaded());
        stats.transfer_bytes += p.size_at(split.offloaded_ops());
        stats.storage_cpu_seconds += p.prefix_seconds(split.offloaded_ops());
    }
    stats
}

/// Per-sample ordered replica sets for `samples` sequential sample ids —
/// the `owners` input of [`cluster::simulate_fleet_epoch`].
pub fn owner_lists(map: &ShardMap, samples: usize) -> Vec<Vec<usize>> {
    (0..samples).map(|i| map.owners(i as u64)).collect()
}

/// A fleet of `shards` identical nodes, each matching the storage side of
/// `config` at nominal speed.
pub fn fleet_nodes(config: &ClusterConfig, shards: usize) -> Vec<FleetNodeConfig> {
    vec![FleetNodeConfig::nominal(config); shards]
}

/// A fleet of `shards` nodes that split `config`'s link evenly but each
/// keep the full preprocessing core count — the deployment where the
/// trainer's fixed ingress bandwidth is shared by every storage node and
/// sharding buys *aggregate preprocessing CPU*, not aggregate bandwidth.
///
/// Under this fleet each shard's `T_Net` stays as predominant as the
/// single-node plan's (same bytes-per-bandwidth ratio in aggregate) while
/// its `T_CS` guard relaxes by the node count, so per-shard planning
/// offloads strictly deeper than one node ever could.
///
/// # Panics
///
/// Panics when `shards` is zero.
pub fn fleet_nodes_sharing_link(config: &ClusterConfig, shards: usize) -> Vec<FleetNodeConfig> {
    assert!(shards > 0, "a fleet needs at least one node");
    let node = FleetNodeConfig {
        link_bps: config.link_bps / shards as f64,
        ..FleetNodeConfig::nominal(config)
    };
    vec![node; shards]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::caching::{self, CacheSelection};
    use cluster::{simulate_epoch, simulate_fleet_epoch, EpochSpec, GpuModel};
    use datasets::DatasetSpec;
    use pipeline::{CostModel, PipelineSpec};

    fn setup(storage_cores: usize) -> (Vec<SampleProfile>, PipelineSpec, ClusterConfig) {
        let ds = DatasetSpec::openimages_like(1600, 11);
        let pipeline = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        let ps: Vec<_> = ds.records().map(|r| r.analytic_profile(&pipeline, &model)).collect();
        (ps, pipeline, ClusterConfig::paper_testbed(storage_cores))
    }

    fn corpus_bytes(ps: &[SampleProfile]) -> u64 {
        ps.iter().map(|p| p.raw_bytes).sum()
    }

    /// The plain plan for `map` over identical nominal nodes.
    fn plan_for_map(ctx: &PlanningContext<'_>, map: &ShardMap) -> FleetPlan {
        let nodes = fleet_nodes(ctx.config, map.nodes());
        plan_fleet(ctx, &FleetPlanRequest::new(map, &nodes)).unwrap()
    }

    /// The warm plan of the two-node testbed: one shard, `assignment`
    /// cached.
    fn plan_one_node_cached(ctx: &PlanningContext<'_>, assignment: &CacheAssignment) -> FleetPlan {
        let map = ShardMap::new(1, 1, 0);
        let nodes = fleet_nodes(ctx.config, 1);
        let req =
            FleetPlanRequest { cache: Some(assignment), ..FleetPlanRequest::new(&map, &nodes) };
        plan_fleet(ctx, &req).unwrap()
    }

    fn warm_traffic(
        ctx: &PlanningContext<'_>,
        plan: &OffloadPlan,
        assignment: &CacheAssignment,
    ) -> u64 {
        let works = caching::warm_sample_works(ctx, plan, assignment).unwrap();
        works.iter().map(|w| w.transfer_bytes).sum()
    }

    // --- the plain fleet ---------------------------------------------------

    #[test]
    fn shards_partition_the_corpus() {
        let (ps, pipeline, config) = setup(4);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let map = ShardMap::new(4, 2, 7);
        let sharded = plan_for_map(&ctx, &map);
        assert_eq!(sharded.plan.len(), ps.len());
        assert_eq!(sharded.per_shard.iter().map(|s| s.samples).sum::<u64>(), ps.len() as u64);
        for (i, &p) in sharded.primaries.iter().enumerate() {
            assert_eq!(p, map.primary(i as u64));
        }
        // Every shard got a meaningful slice of a 1600-sample corpus.
        for s in &sharded.per_shard {
            assert!(s.samples > 100, "shard {} got {}", s.shard, s.samples);
        }
    }

    #[test]
    fn per_shard_offload_load_is_balanced() {
        // Few cores per node: the greedy must stop per shard, so no node
        // carries a disproportionate offloaded-CPU burden.
        let (ps, pipeline, config) = setup(2);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let sharded = plan_for_map(&ctx, &ShardMap::new(4, 2, 99));
        let loads: Vec<f64> = sharded.per_shard.iter().map(|s| s.storage_cpu_seconds).collect();
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        assert!(mean > 0.0, "no offloading happened at all");
        for (shard, load) in loads.iter().enumerate() {
            assert!(*load < mean * 2.0, "shard {shard} carries {load} vs mean {mean} core-seconds");
        }
        assert!(sharded.peak_storage_cpu_seconds() < mean * 2.0);
    }

    #[test]
    fn sharded_plan_feeds_the_fleet_simulator() {
        let (ps, pipeline, config) = setup(8);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let map = ShardMap::new(4, 2, 41);
        let sharded = plan_for_map(&ctx, &map);
        let works = sharded.plan.to_sample_works(&ps).unwrap();
        let spec = EpochSpec::new(works, 256, GpuModel::AlexNet);
        let stats = simulate_fleet_epoch(
            &config,
            &fleet_nodes(&config, 4),
            &spec,
            &owner_lists(&map, ps.len()),
            &[],
        )
        .unwrap();
        assert_eq!(stats.total.samples, ps.len() as u64);
        assert_eq!(stats.total.traffic_bytes, sharded.total_transfer_bytes());
        // Four links: the sharded epoch beats the same plan on one node.
        let single = simulate_epoch(&config, &spec).unwrap();
        assert!(
            stats.total.epoch_seconds < single.epoch_seconds,
            "fleet {} vs single {}",
            stats.total.epoch_seconds,
            single.epoch_seconds
        );
    }

    #[test]
    fn planning_is_deterministic() {
        let (ps, pipeline, config) = setup(2);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let map = ShardMap::new(4, 2, 99);
        assert_eq!(plan_for_map(&ctx, &map), plan_for_map(&ctx, &map));
        let nodes = fleet_nodes(&config, 4);
        let assignment = caching::choose_cache_contents(
            &ctx,
            corpus_bytes(&ps) / 4,
            CacheSelection::EfficiencyAware,
        );
        let req = FleetPlanRequest {
            cache: Some(&assignment),
            degraded: &[false, true, false, false],
            ..FleetPlanRequest::new(&map, &nodes)
        };
        assert_eq!(plan_fleet(&ctx, &req).unwrap(), plan_fleet(&ctx, &req).unwrap());
    }

    #[test]
    fn every_axis_at_its_neutral_value_reduces_to_the_plain_plan() {
        let (ps, pipeline, config) = setup(4);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);

        // One shard is the global engine.
        let one = plan_for_map(&ctx, &ShardMap::new(1, 1, 2024));
        assert_eq!(one.plan, DecisionEngine::new().plan(&ctx));
        assert_eq!(one.per_shard.len(), 1);
        assert!(one.primaries.iter().all(|&p| p == 0));

        let map = ShardMap::new(4, 2, 7);
        let nodes = fleet_nodes(&config, 4);
        let plain = plan_for_map(&ctx, &map);
        assert_eq!(plain.reassigned, 0);
        assert_eq!(plain.raw_fallbacks, 0);
        assert!(!plain.is_disturbed());
        assert_eq!(plain.mean_fidelity(), 1.0);

        let empty = caching::choose_cache_contents(&ctx, 0, CacheSelection::EfficiencyAware);
        assert!(empty.is_empty());
        let policy = BrownoutConfig::default();
        let rows = [
            (
                "zero-budget cache",
                FleetPlanRequest { cache: Some(&empty), ..FleetPlanRequest::new(&map, &nodes) },
            ),
            (
                "all-healthy flags",
                FleetPlanRequest { degraded: &[false; 4], ..FleetPlanRequest::new(&map, &nodes) },
            ),
            (
                "brownout with nothing to brown out",
                FleetPlanRequest { brownout: Some(&policy), ..FleetPlanRequest::new(&map, &nodes) },
            ),
        ];
        for (axis, req) in rows {
            let with_axis = plan_fleet(&ctx, &req).unwrap();
            assert_eq!(with_axis.plan, plain.plan, "{axis}");
            assert_eq!(with_axis.primaries, plain.primaries, "{axis}");
            assert_eq!(with_axis.total_transfer_bytes(), plain.total_transfer_bytes(), "{axis}");
            assert_eq!(with_axis, plain, "{axis}");
        }
    }

    #[test]
    fn mismatched_inputs_are_typed_errors() {
        let (ps, pipeline, config) = setup(4);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let map = ShardMap::new(4, 2, 7);
        let nodes = fleet_nodes(&config, 4);
        let ok = FleetPlanRequest::new(&map, &nodes);

        let short_nodes = fleet_nodes(&config, 3);
        let err = plan_fleet(&ctx, &FleetPlanRequest { nodes: &short_nodes, ..ok }).unwrap_err();
        assert!(matches!(err, SophonError::FleetMismatch { expected: 4, got: 3, .. }), "{err}");
        assert_eq!(err.to_string(), "node vector for the shard map has 3 entries, expected 4");

        let err = plan_fleet(&ctx, &FleetPlanRequest { degraded: &[false; 2], ..ok }).unwrap_err();
        assert!(matches!(err, SophonError::FleetMismatch { expected: 4, got: 2, .. }), "{err}");

        // An assignment chosen for a shorter corpus: its tail used to read
        // as "uncached" without a word.
        let short_ctx =
            PlanningContext::new(&ps[..1000], &pipeline, &config, GpuModel::AlexNet, 256);
        let short = caching::choose_cache_contents(&short_ctx, 0, CacheSelection::Arrival);
        let err = plan_fleet(&ctx, &FleetPlanRequest { cache: Some(&short), ..ok }).unwrap_err();
        assert!(
            matches!(err, SophonError::FleetMismatch { expected: 1600, got: 1000, .. }),
            "{err}"
        );
    }

    // --- node speed (heterogeneous CPUs) -----------------------------------

    fn plan_one_node_at_speed(ctx: &PlanningContext<'_>, speed: f64) -> OffloadPlan {
        let map = ShardMap::new(1, 1, 0);
        let nodes = [FleetNodeConfig::nominal(ctx.config).with_speed(speed)];
        plan_fleet(ctx, &FleetPlanRequest::new(&map, &nodes)).unwrap().plan
    }

    #[test]
    fn slower_storage_cores_offload_less() {
        let (ps, pipeline, config) = setup(2);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let fast = plan_one_node_at_speed(&ctx, 1.0);
        let slow = plan_one_node_at_speed(&ctx, 0.25);
        assert!(
            slow.offloaded_samples() < fast.offloaded_samples(),
            "slow {} vs fast {}",
            slow.offloaded_samples(),
            fast.offloaded_samples()
        );
        assert!(slow.offloaded_samples() > 0);
    }

    #[test]
    fn hetero_plan_still_beats_no_off_in_simulation() {
        let (ps, pipeline, config) = setup(2);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let factor = 0.5;
        let plan = plan_one_node_at_speed(&ctx, factor);
        // The stage graph stretches the slow node's service times itself.
        let nodes = [FleetNodeConfig::nominal(&config).with_speed(factor)];
        let owners = vec![vec![0usize]; ps.len()];
        let simulate = |plan: &OffloadPlan| {
            let works = plan.to_sample_works(&ps).unwrap();
            let spec = EpochSpec::new(works, 256, GpuModel::AlexNet);
            simulate_fleet_epoch(&config, &nodes, &spec, &owners, &[]).unwrap().total
        };
        let hetero = simulate(&plan);
        let baseline = simulate(&OffloadPlan::none(ps.len()));
        assert!(
            hetero.epoch_seconds < baseline.epoch_seconds,
            "hetero {} vs baseline {}",
            hetero.epoch_seconds,
            baseline.epoch_seconds
        );
    }

    // --- cache -------------------------------------------------------------

    #[test]
    fn efficiency_aware_beats_arrival_on_residual_traffic() {
        let (ps, pipeline, config) = setup(2);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        for pct in [10u64, 30, 60] {
            let budget = corpus_bytes(&ps) * pct / 100;
            let traffic = |sel| {
                let a = caching::choose_cache_contents(&ctx, budget, sel);
                let plan = plan_one_node_cached(&ctx, &a).plan;
                warm_traffic(&ctx, &plan, &a)
            };
            let eff = traffic(CacheSelection::EfficiencyAware);
            let lru = traffic(CacheSelection::Arrival);
            assert!(eff <= lru, "at {pct}% budget efficiency-aware shipped {eff} vs arrival {lru}");
        }
    }

    #[test]
    fn warm_epoch_is_never_slower_than_no_cache() {
        let (ps, pipeline, config) = setup(2);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let (no_cache_plan, _) = DecisionEngine::new().plan_with_trace(&ctx);
        let base_works = no_cache_plan.to_sample_works(&ps).unwrap();
        let base =
            simulate_epoch(&config, &EpochSpec::new(base_works, 256, GpuModel::AlexNet)).unwrap();

        let a = caching::choose_cache_contents(
            &ctx,
            corpus_bytes(&ps) * 30 / 100,
            CacheSelection::EfficiencyAware,
        );
        let plan = plan_one_node_cached(&ctx, &a).plan;
        let works = caching::warm_sample_works(&ctx, &plan, &a).unwrap();
        let warm = simulate_epoch(&config, &EpochSpec::new(works, 256, GpuModel::AlexNet)).unwrap();
        assert!(
            warm.epoch_seconds <= base.epoch_seconds * 1.0001,
            "warm {} vs no-cache {}",
            warm.epoch_seconds,
            base.epoch_seconds
        );
        assert!(warm.traffic_bytes < base.traffic_bytes);
    }

    #[test]
    fn composition_beats_both_single_extensions_when_cores_are_tight() {
        // 2 storage cores per node, 4 shards sharing the trainer's ingress
        // link: aggregate bandwidth matches the single node, so the fleet's
        // edge is purely aggregate preprocessing CPU. Per-shard planning can
        // then offload the residual 4x deeper than one node, and the cache
        // removes the residual's worst samples — cache x fleet must ship
        // strictly fewer warm bytes than either alone.
        let (ps, pipeline, config) = setup(2);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let map = ShardMap::new(4, 2, 7);
        let nodes = fleet_nodes_sharing_link(&config, 4);
        let budget = corpus_bytes(&ps) * 30 / 100;
        let assignment =
            caching::choose_cache_contents(&ctx, budget, CacheSelection::EfficiencyAware);
        let fleet = FleetPlanRequest::new(&map, &nodes);

        let both =
            plan_fleet(&ctx, &FleetPlanRequest { cache: Some(&assignment), ..fleet }).unwrap();

        // Cache-only: single node, same budget.
        let cache_plan = plan_one_node_cached(&ctx, &assignment).plan;
        let cache_only = warm_traffic(&ctx, &cache_plan, &assignment);

        // Fleet-only: the same fleet hardware, no cache.
        let fleet_only = plan_fleet(&ctx, &fleet).unwrap().total_transfer_bytes();

        let composed = both.total_transfer_bytes();
        assert!(composed < cache_only, "composed {composed} not below cache-only {cache_only}");
        assert!(composed < fleet_only, "composed {composed} not below fleet-only {fleet_only}");
    }

    #[test]
    fn full_budget_caches_everything_and_zeroes_warm_traffic() {
        let (ps, pipeline, config) = setup(4);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        // The two-node testbed and a replicated fleet.
        for (map, selection) in [
            (ShardMap::new(1, 1, 0), CacheSelection::EfficiencyAware),
            (ShardMap::new(4, 2, 7), CacheSelection::Arrival),
        ] {
            let nodes = fleet_nodes(&config, map.nodes());
            let a = caching::choose_cache_contents(&ctx, corpus_bytes(&ps), selection);
            assert_eq!(a.cached_samples(), ps.len());
            let req = FleetPlanRequest { cache: Some(&a), ..FleetPlanRequest::new(&map, &nodes) };
            let cached = plan_fleet(&ctx, &req).unwrap();
            let traffic = warm_traffic(&ctx, &cached.plan, &a);
            assert_eq!(traffic, 0, "a fully-cached corpus must need zero warm wire bytes");
            assert_eq!(cached.total_transfer_bytes(), 0);
            for s in &cached.per_shard {
                assert_eq!(s.samples, 0);
            }
        }
    }

    #[test]
    fn cached_samples_stay_pinned_and_residual_partitions() {
        let (ps, pipeline, config) = setup(2);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        for (map, budget_pct, selection) in [
            (ShardMap::new(1, 1, 0), 30, CacheSelection::EfficiencyAware),
            (ShardMap::new(3, 2, 41), 50, CacheSelection::SizeAware),
        ] {
            let nodes = fleet_nodes(&config, map.nodes());
            let budget = corpus_bytes(&ps) * budget_pct / 100;
            let assignment = caching::choose_cache_contents(&ctx, budget, selection);
            let req = FleetPlanRequest {
                cache: Some(&assignment),
                ..FleetPlanRequest::new(&map, &nodes)
            };
            let fc = plan_fleet(&ctx, &req).unwrap();
            for i in 0..ps.len() {
                if let Some(stage) = assignment.cached_stage(i) {
                    assert_eq!(fc.plan.split(i).offloaded_ops(), stage, "sample {i} not pinned");
                }
            }
            let residual_total: u64 = fc.per_shard.iter().map(|s| s.samples).sum();
            let cached_total: u64 = fc.per_shard.iter().map(|s| s.cached_samples).sum();
            assert_eq!(residual_total + cached_total, ps.len() as u64);
            assert_eq!(cached_total, assignment.cached_samples() as u64);
        }
    }

    // --- health and fidelity -----------------------------------------------

    #[test]
    fn degraded_primary_hands_its_samples_to_replicas() {
        let (ps, pipeline, config) = setup(8);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let map = ShardMap::new(3, 2, 17);
        let nodes = fleet_nodes(&config, 3);
        let sick = 1usize;
        let req = FleetPlanRequest {
            degraded: &[false, true, false],
            ..FleetPlanRequest::new(&map, &nodes)
        };
        let plan = plan_fleet(&ctx, &req).unwrap();
        assert!(plan.reassigned > 0, "node 1 fronted samples that must move");
        assert_eq!(plan.raw_fallbacks, 0, "replication 2 covers a single death");
        for (i, &p) in plan.primaries.iter().enumerate() {
            assert_ne!(p, sick, "sample {i} still fronted by the degraded node");
            assert!(map.owners(i as u64).contains(&p), "sample {i} moved off its replica set");
            // Everything the sick node used to front now plans against its
            // replica's budget — but never offloads *to* the sick node.
        }
        // The plan still offloads (the surviving shards absorbed the work).
        assert!((0..ps.len()).any(|i| plan.plan.split(i).is_offloaded()));
    }

    #[test]
    fn unreplicated_degradation_falls_back_to_raw_fetches() {
        let (ps, pipeline, config) = setup(8);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let map = ShardMap::new(2, 1, 9);
        let nodes = fleet_nodes(&config, 2);
        let req =
            FleetPlanRequest { degraded: &[true, false], ..FleetPlanRequest::new(&map, &nodes) };
        let plan = plan_fleet(&ctx, &req).unwrap();
        assert!(plan.raw_fallbacks > 0);
        assert_eq!(plan.reassigned, 0, "replication 1 leaves nowhere to reassign");
        for i in 0..ps.len() {
            if map.primary(i as u64) == 0 {
                assert_eq!(plan.plan.split(i), SplitPoint::NONE, "orphan {i} must fetch raw");
                assert_eq!(plan.primaries[i], 0, "orphan keeps its nominal primary");
            }
        }
    }

    #[test]
    fn fully_degraded_fleet_is_all_raw() {
        let (ps, pipeline, config) = setup(8);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let map = ShardMap::new(2, 2, 9);
        let nodes = fleet_nodes(&config, 2);
        let req =
            FleetPlanRequest { degraded: &[true, true], ..FleetPlanRequest::new(&map, &nodes) };
        let plan = plan_fleet(&ctx, &req).unwrap();
        assert_eq!(plan.raw_fallbacks, ps.len() as u64);
        assert_eq!(plan.plan, OffloadPlan::none(ps.len()));
    }

    #[test]
    fn brownout_serves_orphans_at_the_fidelity_floor() {
        let (ps, pipeline, config) = setup(8);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let map = ShardMap::new(2, 1, 9);
        let nodes = fleet_nodes(&config, 2);
        let policy = BrownoutConfig::default();
        let sick =
            FleetPlanRequest { degraded: &[true, false], ..FleetPlanRequest::new(&map, &nodes) };
        let plan = plan_fleet(&ctx, &FleetPlanRequest { brownout: Some(&policy), ..sick }).unwrap();
        assert!(plan.raw_fallbacks > 0);
        let floor = policy.floor_fraction();
        assert!(floor < 1.0, "the default policy must have a real floor");
        for i in 0..ps.len() {
            if map.primary(i as u64) == 0 {
                assert_eq!(plan.fidelity[i], floor, "orphan {i} must serve at the floor");
                assert_eq!(plan.plan.split(i), SplitPoint::NONE);
            } else {
                assert_eq!(plan.fidelity[i], 1.0, "alive-owner sample {i} stays full fidelity");
            }
        }
        assert!(plan.mean_fidelity() < 1.0);
        // The fidelity axis never changes placement: splits and primaries
        // match the brownout-free replan exactly.
        let plain = plan_fleet(&ctx, &sick).unwrap();
        assert_eq!(plan.plan, plain.plan);
        assert_eq!(plan.primaries, plain.primaries);
        assert!(plain.fidelity.iter().all(|&f| f == 1.0));
        assert_eq!(plain.mean_fidelity(), 1.0);
    }

    #[test]
    fn brownout_on_a_healthy_fleet_is_full_fidelity() {
        let (ps, pipeline, config) = setup(8);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let map = ShardMap::new(3, 2, 17);
        let nodes = fleet_nodes(&config, 3);
        let policy = BrownoutConfig::default();
        let browned =
            FleetPlanRequest { brownout: Some(&policy), ..FleetPlanRequest::new(&map, &nodes) };
        let plan =
            plan_fleet(&ctx, &FleetPlanRequest { degraded: &[false; 3], ..browned }).unwrap();
        assert!(plan.fidelity.iter().all(|&f| f == 1.0));
        assert_eq!(plan.mean_fidelity(), 1.0);
        // Replication 2 also covers a single death without orphans, so no
        // sample browns out even with a sick node.
        let sick =
            plan_fleet(&ctx, &FleetPlanRequest { degraded: &[false, true, false], ..browned })
                .unwrap();
        assert!(sick.reassigned > 0);
        assert!(sick.fidelity.iter().all(|&f| f == 1.0));
    }
}
