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
//!   `speed` is not `1.0`: its `ResourceBudget` shrinks, so a slow
//!   storage node offloads fewer samples, and the stage graph stretches
//!   its service times by the same factor;
//! * **cache** — a [`CacheAssignment`] removes the cached samples from each
//!   shard's universe and from its baseline `T_Net`, and pins them at their
//!   cached stage in the merged plan.
//!
//! Each shard's pass decides the uncached samples it fronts against a
//! per-node `ResourceBudget`, from a warm baseline over its
//! slice of member indices — no sub-contexts or profile clones.
//! The passes share one scan of the context's offload table (see
//! [`crate::engine`]): a sample is offered to its primary's pass only, so each shard sees its candidates in the order a pass over its
//! residual alone would. The budget reuses the job-wide compute-node and
//! GPU capacities: those resources are shared by all shards, so each
//! shard's view of `T_CC`/`T_G` covers only its own samples and
//! understates the contention slightly. The bias is conservative for the stopping rule — it can only
//! keep `T_Net` predominant longer — and vanishes as shards balance.
//!
//! The module is pure planning — it never touches a socket. The feedback
//! controller calls it between batches with node parameters revised from
//! telemetry; a dead node is the transport's concern, which fails each
//! fetch over to a live replica and leaves the plan as it is. The
//! module also bridges planning to the fleet simulator: [`fleet_nodes`]
//! derives the per-node resource vector from the planning config, and the
//! map's [`ShardMap::owner_table`] is the simulator's routing input. The
//! planner reads every sample's primary from that same table, so a run
//! that plans more than once (a replan, a training run's plan and its
//! simulation) builds it once and hands it to each.

use cluster::{ClusterConfig, FleetNodeConfig, OwnerTable, ShardMap};
use pipeline::{SampleProfile, SplitPoint};

use crate::engine::{GreedyPass, PlanningContext, ResourceBudget};
use crate::ext::caching::{warm_baseline_costs_scoped, CacheAssignment};
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
    pub(crate) cached_bytes_saved: u64,
}

/// Everything [`plan_fleet`] plans against, as data.
#[derive(Debug, Clone, Copy)]
pub struct FleetPlanRequest<'a> {
    /// Placement: which node fronts which sample.
    pub map: &'a ShardMap,
    /// `map`'s owner table for the corpus, when the caller already has
    /// it; `None` builds it.
    pub owners: Option<&'a OwnerTable>,
    /// Per-node cores, speed, and link, parallel to `map`'s shards.
    pub nodes: &'a [FleetNodeConfig],
    /// Samples pinned next to the trainer, parallel to the corpus.
    pub cache: Option<&'a CacheAssignment>,
}

impl<'a> FleetPlanRequest<'a> {
    /// An uncached fleet.
    pub fn new(map: &'a ShardMap, nodes: &'a [FleetNodeConfig]) -> FleetPlanRequest<'a> {
        FleetPlanRequest { map, nodes, owners: None, cache: None }
    }
}

/// A fleet-wide offload plan with its per-shard decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// The merged plan, indexed like the corpus: residual samples at their
    /// greedy split, cached samples pinned at their cached stage.
    pub plan: OffloadPlan,
    /// Per-shard aggregates, in shard order.
    pub per_shard: Vec<ShardPlanStats>,
}

impl FleetPlan {
    /// Total bytes on all wires per epoch (warm-epoch bytes when the plan
    /// has a cache).
    pub fn total_transfer_bytes(&self) -> u64 {
        self.per_shard.iter().map(|s| s.transfer_bytes).sum()
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
/// shard over the uncached samples it fronts, against that node's
/// own cores and link, starting from that shard's warm baseline. The
/// passes share one scan of the context's offload table.
///
/// # Errors
///
/// Returns [`SophonError::FleetMismatch`] when `req.nodes` is not parallel
/// to the shard map, `req.owners` or
/// `req.cache` does not cover the corpus, or `req.owners` names a node the
/// map does not have.
pub fn plan_fleet(
    ctx: &PlanningContext<'_>,
    req: &FleetPlanRequest<'_>,
) -> Result<FleetPlan, SophonError> {
    let n = ctx.profiles.len();
    let shards = req.map.nodes();
    check_len("node vector for the shard map", shards, req.nodes.len())?;
    if let Some(cache) = req.cache {
        check_len("cache assignment for the corpus", n, cache.len())?;
    }
    if let Some(table) = req.owners {
        check_len("owner table for the corpus", n, table.len())?;
        let nodes = table.iter().flatten().max().map_or(0, |&widest| widest + 1);
        if nodes > shards {
            let what = "shard map for the owner table's nodes";
            return Err(SophonError::FleetMismatch { what, expected: nodes, got: shards });
        }
    }
    let no_cache = CacheAssignment::none();
    let cache = req.cache.unwrap_or(&no_cache);

    let built;
    let table = match req.owners {
        Some(table) => table,
        None => {
            built = req.map.owner_table(n);
            &built
        }
    };
    // Each sample's primary is its first owner.
    let primaries: Vec<usize> = table.iter().map(|owners| owners[0]).collect();
    // Each shard's members, ascending, as one slice of a stable counting
    // sort of the corpus by primary: `starts[s + 1]` counts shard `s`'s
    // members, then marks where they end.
    let mut starts = vec![0usize; shards + 1];
    for &primary in &primaries {
        starts[primary + 1] += 1;
    }
    for shard in 0..shards {
        starts[shard + 1] += starts[shard];
    }
    let mut sorted = vec![0usize; n];
    let mut next = starts.clone();
    for (i, &primary) in primaries.iter().enumerate() {
        sorted[next[primary]] = i;
        next[primary] += 1;
    }
    let members = |shard: usize| &sorted[starts[shard]..starts[shard + 1]];

    // Each shard's pass starts from its warm baseline over the WHOLE shard
    // (cached samples contribute suffix compute and zero net) and decides
    // only its uncached samples.
    let mut passes: Vec<GreedyPass> = req
        .nodes
        .iter()
        .enumerate()
        .map(|(shard, node)| {
            let budget = ResourceBudget::of_node(node, ctx);
            GreedyPass::new(warm_baseline_costs_scoped(ctx, cache, members(shard), &budget), budget)
        })
        .collect();
    // One scan of the context's greedy order for every shard: each shard
    // sees its own candidates in the order a pass over its residual alone
    // would, and applies the same steps to its own cost vector.
    let mut plan = OffloadPlan::none(n);
    let mut open = passes.iter().filter(|pass| pass.is_open()).count();
    if open > 0 {
        for c in ctx.offload_table().candidates() {
            let i = c.index();
            let pass = &mut passes[primaries[i]];
            if !pass.is_open() || cache.is_cached(i) {
                continue;
            }
            if pass.offer(c).is_some() {
                plan.set_split(i, c.split());
            } else if !pass.is_open() {
                open -= 1;
                if open == 0 {
                    break;
                }
            }
        }
    }
    let per_shard = (0..shards)
        .map(|shard| shard_stats(shard, &plan, ctx.profiles, cache, members(shard)))
        .collect();
    // A loader driving a `CachingTransport` requests each cached sample at
    // exactly the split whose payload the cache holds, so every such fetch
    // is a local hit.
    for i in 0..n {
        if let Some(stage) = cache.cached_stage(i) {
            plan.set_split(i, SplitPoint::new(stage));
        }
    }
    Ok(FleetPlan { plan, per_shard })
}

/// Aggregates one shard's slice of a plan, summing in ascending index
/// order (the same order `OffloadPlan::summarize` uses over a sub-corpus).
pub(crate) fn shard_stats(
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
    use crate::engine::DecisionEngine;
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
        // Each shard serves exactly the samples the map makes it primary of.
        let mut primaries = vec![0u64; map.nodes()];
        for i in 0..ps.len() as u64 {
            primaries[map.primary(i)] += 1;
        }
        for s in &sharded.per_shard {
            assert_eq!(s.samples, primaries[s.shard], "shard {}", s.shard);
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
            &map.owner_table(ps.len()),
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
        let req =
            FleetPlanRequest { cache: Some(&assignment), ..FleetPlanRequest::new(&map, &nodes) };
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

        let map = ShardMap::new(4, 2, 7);
        let nodes = fleet_nodes(&config, 4);
        let plain = plan_for_map(&ctx, &map);

        let empty = caching::choose_cache_contents(&ctx, 0, CacheSelection::EfficiencyAware);
        assert_eq!(empty.cached_samples(), 0);
        let req = FleetPlanRequest { cache: Some(&empty), ..FleetPlanRequest::new(&map, &nodes) };
        let zero_budget = plan_fleet(&ctx, &req).unwrap();
        assert_eq!(zero_budget.plan, plain.plan);
        assert_eq!(zero_budget.total_transfer_bytes(), plain.total_transfer_bytes());
        assert_eq!(zero_budget, plain);
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

    #[test]
    fn a_foreign_owner_table_is_a_typed_error() {
        let (ps, pipeline, config) = setup(4);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let map = ShardMap::new(4, 2, 7);
        let nodes = fleet_nodes(&config, 4);
        let ok = FleetPlanRequest::new(&map, &nodes);

        let short = map.owner_table(1000);
        let err = plan_fleet(&ctx, &FleetPlanRequest { owners: Some(&short), ..ok }).unwrap_err();
        assert_eq!(err.to_string(), "owner table for the corpus has 1000 entries, expected 1600");

        let wider = ShardMap::new(6, 2, 7).owner_table(ps.len());
        let err = plan_fleet(&ctx, &FleetPlanRequest { owners: Some(&wider), ..ok }).unwrap_err();
        assert_eq!(
            err.to_string(),
            "shard map for the owner table's nodes has 4 entries, expected 6"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Reading primaries from an owner table, passed or built, plans
        /// exactly what hashing each primary did.
        #[test]
        fn an_owner_table_plans_what_hashing_planned(
            len in 1u64..400,
            corpus_seed in 0u64..1000,
            cores in 1usize..8,
            shards in 1usize..5,
            replicated in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
            cached_pct in 0u64..60,
        ) {
            let ds = DatasetSpec::openimages_like(len, corpus_seed);
            let pipeline = PipelineSpec::standard_train();
            let model = CostModel::realistic();
            let ps: Vec<_> = ds.records().map(|r| r.analytic_profile(&pipeline, &model)).collect();
            let config = ClusterConfig::paper_testbed(cores);
            let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 64);
            let map = ShardMap::new(shards, if replicated && shards > 1 { 2 } else { 1 }, seed);
            let nodes = fleet_nodes(&config, shards);
            let cache = caching::choose_cache_contents(
                &ctx,
                corpus_bytes(&ps) * cached_pct / 100,
                CacheSelection::EfficiencyAware,
            );
            let owners = map.owner_table(ps.len());
            let built = FleetPlanRequest { cache: Some(&cache), ..FleetPlanRequest::new(&map, &nodes) };
            let passed = FleetPlanRequest { owners: Some(&owners), ..built };
            let want = crate::engine::reference::plan_fleet(&ctx, &built);
            proptest::prop_assert_eq!(&plan_fleet(&ctx, &built).unwrap(), &want);
            proptest::prop_assert_eq!(&plan_fleet(&ctx, &passed).unwrap(), &want);
        }
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
        let owners = ShardMap::new(1, 1, 0).owner_table(ps.len());
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
        let no_cache_plan = DecisionEngine::new().plan(&ctx);
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
}
