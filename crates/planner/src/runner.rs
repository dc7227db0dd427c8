//! End-to-end experiment driver: corpus → profiles → plan → simulated epoch.
//!
//! [`Scenario::run`] evaluates one policy over one epoch (Figures 3 and 4).
//! [`Scenario::run_training`] simulates a whole multi-epoch job from one
//! [`TrainingRequest`]: the planning policy, the storage shards, the
//! near-compute cache and the node deaths are fields of that request, each
//! with a neutral value, not runners of their own. Every such run is
//! "epoch 0, then steady epochs": SOPHON's profiling epoch, the cache's cold
//! epoch and the epoch kill events land in are all epoch 0.
//!
//! Like the paper's stage-2 profiler, which records each sample once in the
//! first epoch, a `Scenario` derives its corpus' profiles once, on first
//! use, and every later run reads that [`ProfileSet`].

use std::sync::{Arc, OnceLock};

use cluster::{simulate_epoch, ClusterConfig, EpochSpec, EpochStats, GpuModel};
use datasets::DatasetSpec;
use pipeline::{CostModel, PipelineSpec, SampleProfile};

use crate::engine::PlanningContext;
use crate::ext::caching::{self, CacheSelection};
use crate::ext::sharding::{self, ShardPlanStats};
use crate::policy::Policy;
use crate::profiler::{ProfileSet, Stage1Probe, WorkloadClass};
use crate::{CostVector, PlanSummary, SophonError};

/// One training scenario: a corpus on a cluster with a model.
///
/// A `Scenario` owns everything needed to evaluate any policy, so Figures 3
/// and 4 are sweeps of `Scenario::run` over policies and storage-core
/// counts. It also owns its corpus' analytic profiles, derived on first use
/// and shared by its clones (see [`Scenario::profile_set`]).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The corpus.
    pub dataset: DatasetSpec,
    /// The cluster.
    pub config: ClusterConfig,
    /// The trained model's GPU cost.
    pub gpu: GpuModel,
    /// Training batch size.
    pub batch_size: usize,
    /// The preprocessing pipeline.
    pub pipeline: PipelineSpec,
    /// The CPU cost model.
    pub(crate) cost_model: CostModel,
    /// The profiles of `dataset` through `pipeline` under `cost_model`, as
    /// they were when first asked for.
    profile_set: OnceLock<Arc<ProfileSet>>,
}

impl Scenario {
    /// Creates a scenario with the standard training pipeline and realistic
    /// cost model.
    pub fn new(
        dataset: DatasetSpec,
        config: ClusterConfig,
        gpu: GpuModel,
        batch_size: usize,
    ) -> Scenario {
        Scenario {
            dataset,
            config,
            gpu,
            batch_size,
            pipeline: PipelineSpec::standard_train(),
            cost_model: CostModel::realistic(),
            profile_set: OnceLock::new(),
        }
    }

    /// Stage-2 profiles for the whole corpus (analytic path), derived afresh
    /// on every call. The runs read [`Scenario::profile_set`] instead.
    pub fn profiles(&self) -> Vec<SampleProfile> {
        crate::profiler::stage2::profile_corpus_analytic(
            &self.dataset,
            &self.pipeline,
            &self.cost_model,
        )
    }

    /// The profiles every run of this scenario reads: derived on the first
    /// call and kept, so later calls return the same set. `dataset`,
    /// `pipeline` and `cost_model` are public, so each call first checks
    /// them against the kept set's provenance; when one has changed, it
    /// derives a set for the current fields and returns that without
    /// keeping it.
    pub fn profile_set(&self) -> Arc<ProfileSet> {
        let derive = || ProfileSet::analytic(&self.dataset, &self.pipeline, &self.cost_model);
        let kept = self.profile_set.get_or_init(|| Arc::new(derive()));
        if kept.is_derived_from(&self.dataset, &self.pipeline, &self.cost_model) {
            Arc::clone(kept)
        } else {
            Arc::new(derive())
        }
    }

    /// Evaluates one policy end to end.
    ///
    /// # Errors
    ///
    /// Propagates planning and simulation failures.
    pub fn run(&self, policy: &dyn Policy) -> Result<RunReport, SophonError> {
        self.run_with_profiles(policy, self.profile_set().profiles())
    }

    /// Evaluates one policy over precomputed profiles (avoids re-profiling
    /// in sweeps).
    ///
    /// # Errors
    ///
    /// Propagates planning and simulation failures.
    pub fn run_with_profiles(
        &self,
        policy: &dyn Policy,
        profiles: &[SampleProfile],
    ) -> Result<RunReport, SophonError> {
        let ctx = self.context(profiles);
        let plan = policy.plan(&ctx)?;
        let (works, summary) = plan.works_and_summary(profiles)?;
        let costs = ctx.costs_for_summary(&summary);
        let epoch =
            simulate_epoch(&self.config, &EpochSpec::new(works, self.batch_size, self.gpu))?;
        Ok(RunReport { policy: policy.name().to_string(), costs, summary, epoch })
    }

    /// The stage-1 class of this scenario's un-offloaded workload: one
    /// probe over the kept profiles. It does not depend on the policy, so
    /// no run reports it; a sweep that prints it asks once.
    ///
    /// # Errors
    ///
    /// Propagates probe failures.
    pub fn workload_class(&self) -> Result<WorkloadClass, SophonError> {
        let set = self.profile_set();
        Ok(Stage1Probe::run(&self.context(set.profiles()))?.classify())
    }

    fn context<'a>(&'a self, profiles: &'a [SampleProfile]) -> PlanningContext<'a> {
        PlanningContext::new(profiles, &self.pipeline, &self.config, self.gpu, self.batch_size)
    }

    /// Evaluates all five standard policies.
    ///
    /// # Errors
    ///
    /// Propagates the first failing policy.
    pub fn run_all(&self) -> Result<Vec<RunReport>, SophonError> {
        let set = self.profile_set();
        crate::policy::standard_policies()
            .iter()
            .map(|p| self.run_with_profiles(p.as_ref(), set.profiles()))
            .collect()
    }
}

/// One multi-epoch training run, as data. Every axis has a neutral value:
/// one shard is the paper's two-node testbed, no cache is a budget of zero,
/// no kills is a healthy fleet.
#[derive(Clone, Copy)]
pub struct TrainingRequest<'a> {
    /// Total epochs to run.
    pub epochs: u64,
    /// The planning policy. `None` is SOPHON planned through
    /// [`plan_fleet`](crate::ext::sharding::plan_fleet), the only planner
    /// that knows shards and caches; `Some` applies that policy's
    /// whole-corpus plan (the baselines SOPHON is compared against).
    pub policy: Option<&'a dyn Policy>,
    /// Storage nodes the corpus is sharded over.
    pub shards: usize,
    /// Replicas per sample, in `1..=shards`.
    pub replication: usize,
    /// Seed of the sample → shard placement.
    pub placement_seed: u64,
    /// Near-compute cache: byte budget and how samples are ranked for it.
    pub cache: Option<(u64, CacheSelection)>,
    /// Node deaths during epoch 0 (dead nodes stay dead afterwards).
    pub kills: &'a [cluster::KillEvent],
}

impl TrainingRequest<'_> {
    /// SOPHON on the two-node testbed: one shard, no cache, no kills.
    pub fn new(epochs: u64) -> TrainingRequest<'static> {
        TrainingRequest {
            epochs,
            policy: None,
            shards: 1,
            replication: 1,
            placement_seed: 0,
            cache: None,
            kills: &[],
        }
    }
}

/// What a run's near-compute cache held.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheReport {
    /// Cache bytes occupied (at most the request's budget).
    pub cached_bytes: u64,
    /// Samples pinned in the cache.
    pub cached_samples: u64,
}

/// The outcome of a multi-epoch training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingReport {
    /// Policy name.
    pub policy: String,
    /// Cache contents, when the request had a cache.
    pub cache: Option<CacheReport>,
    /// Per-shard plan aggregates in shard order (the uncached residual when
    /// the request had a cache); empty when a `policy` planned the whole
    /// corpus.
    pub per_shard: Vec<ShardPlanStats>,
    /// The simulated run. Epoch 0 is the un-offloaded profiling epoch for
    /// policies that need one (SOPHON) — also the cold, cache-filling epoch
    /// and the one kill events land in.
    pub stats: cluster::TrainingStats,
}

impl TrainingReport {
    /// Fractional overhead of the profiling epoch relative to a run that
    /// used the optimized plan from epoch 0.
    pub fn profiling_overhead(&self) -> f64 {
        let ideal = self.stats.steady_epoch.total.epoch_seconds * self.stats.epochs as f64;
        if ideal <= 0.0 {
            0.0
        } else {
            self.stats.total_seconds / ideal - 1.0
        }
    }

    /// Wire bytes per steady (warm) epoch, over all links.
    pub fn warm_traffic_bytes(&self) -> u64 {
        self.stats.warm().total.traffic_bytes
    }
}

impl Scenario {
    /// Simulates the training run `req` describes. Epoch 0 runs un-offloaded
    /// exactly when the planning policy needs a profiling epoch (SOPHON's
    /// stage-2 profiler runs on the fly during it); every later epoch runs
    /// the plan, with cached samples costing only their local suffix.
    ///
    /// # Errors
    ///
    /// Propagates planning and simulation failures — notably
    /// [`cluster::SimError::SampleUnreachable`] when `kills` exceed what
    /// `replication` can absorb.
    ///
    /// # Panics
    ///
    /// Panics when `epochs == 0`, `shards == 0`, or `replication` is not
    /// in `1..=shards`.
    pub fn run_training(&self, req: &TrainingRequest<'_>) -> Result<TrainingReport, SophonError> {
        let set = self.profile_set();
        let profiles = set.profiles();
        let ctx = self.context(profiles);
        let map = cluster::ShardMap::new(req.shards, req.replication, req.placement_seed);
        let nodes = sharding::fleet_nodes(&self.config, req.shards);
        let assignment = req
            .cache
            .map(|(budget, selection)| caching::choose_cache_contents(&ctx, budget, selection));
        // One healthy node needs no routing: every sample is on node 0. A
        // fleet plan and a routed simulation read one owner table.
        let routed = req.shards > 1 || !req.kills.is_empty();
        let owners = (routed || req.policy.is_none()).then(|| map.owner_table(profiles.len()));
        let (name, profiling_epoch, plan, per_shard) = match req.policy {
            Some(policy) => {
                (policy.name(), policy.requires_profiling_epoch(), policy.plan(&ctx)?, Vec::new())
            }
            None => {
                let request = sharding::FleetPlanRequest {
                    owners: owners.as_ref(),
                    cache: assignment.as_ref(),
                    ..sharding::FleetPlanRequest::new(&map, &nodes)
                };
                let planned = sharding::plan_fleet(&ctx, &request)?;
                ("sophon", true, planned.plan, planned.per_shard)
            }
        };
        let steady_works = match &assignment {
            Some(assignment) => caching::warm_sample_works(&ctx, &plan, assignment)?,
            None => plan.to_sample_works(profiles)?,
        };
        let steady = EpochSpec::new(steady_works, self.batch_size, self.gpu);
        let profiling = if profiling_epoch {
            let raw = crate::OffloadPlan::none(profiles.len()).to_sample_works(profiles)?;
            Some(EpochSpec::new(raw, self.batch_size, self.gpu))
        } else {
            None
        };
        let stats = cluster::simulate_training(
            &self.config,
            &cluster::TrainingSpec {
                nodes: &nodes,
                first: profiling.as_ref().unwrap_or(&steady),
                steady: &steady,
                owners: owners.as_ref().filter(|_| routed),
                kills: req.kills,
                epochs: req.epochs,
            },
        )?;
        let cache = assignment.map(|held| CacheReport {
            cached_bytes: held.cached_bytes,
            cached_samples: held.cached_samples() as u64,
        });
        Ok(TrainingReport { policy: name.to_string(), cache, per_shard, stats })
    }

    /// [`Scenario::run_training`] under its pre-`TrainingRequest` name and
    /// argument list. It exists only because the benchmark's
    /// `crates/bench/src/bin/perf/api.rs` pins this signature, and goes
    /// when that file moves to `run_training`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_training_fleet_cached(
        &self,
        epochs: u64,
        shards: usize,
        replication: usize,
        placement_seed: u64,
        budget_bytes: u64,
        selection: CacheSelection,
        kills: &[cluster::KillEvent],
    ) -> Result<TrainingReport, SophonError> {
        self.run_training(&TrainingRequest {
            shards,
            replication,
            placement_seed,
            cache: Some((budget_bytes, selection)),
            kills,
            ..TrainingRequest::new(epochs)
        })
    }
}

/// The outcome of one policy run on one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Policy name.
    pub policy: String,
    /// Predicted cost vector of the chosen plan.
    pub costs: CostVector,
    /// Plan aggregates.
    pub summary: PlanSummary,
    /// Simulated epoch statistics.
    pub epoch: EpochStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{NoOffPolicy, SophonPolicy};
    use crate::SophonError;

    fn scenario(storage_cores: usize) -> Scenario {
        Scenario::new(
            DatasetSpec::openimages_like(2048, 5),
            ClusterConfig::paper_testbed(storage_cores),
            GpuModel::AlexNet,
            256,
        )
    }

    #[test]
    fn sophon_beats_no_off_on_io_bound_workload() {
        let s = scenario(48);
        let no_off = s.run(&NoOffPolicy).unwrap();
        let sophon = s.run(&SophonPolicy::default()).unwrap();
        assert_eq!(s.workload_class(), Ok(WorkloadClass::IoBound));
        assert!(sophon.epoch.traffic_bytes < no_off.epoch.traffic_bytes);
        let speedup = no_off.epoch.epoch_seconds / sophon.epoch.epoch_seconds;
        assert!(speedup > 1.5, "speedup {speedup}");
    }

    #[test]
    fn run_all_covers_standard_policies() {
        let reports = scenario(48).run_all().unwrap();
        let names: Vec<_> = reports.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(names, vec!["no-off", "all-off", "fastflow", "resize-off", "sophon"]);
        // Simulated traffic must equal the plan's predicted bytes.
        for r in &reports {
            assert_eq!(r.epoch.traffic_bytes, r.summary.transfer_bytes, "{}", r.policy);
        }
    }

    #[test]
    fn every_run_reads_one_profile_set() {
        let s = scenario(8);
        let set = s.profile_set();
        assert_eq!(set.profiles(), s.profiles().as_slice());
        let same = |s: &Scenario| std::ptr::eq(set.profiles(), s.profile_set().profiles());
        s.run(&SophonPolicy::default()).unwrap();
        assert!(same(&s));
        s.run_all().unwrap();
        assert!(same(&s));
        s.run_training(&fleet(3)).unwrap();
        assert!(same(&s));
        // A clone shares the set rather than deriving its own.
        assert!(same(&s.clone()));
    }

    #[test]
    fn only_sophons_own_gate_probes() {
        let s = scenario(48);
        let set = s.profile_set();
        for policy in crate::policy::standard_policies() {
            let probes = crate::profiler::probe_runs();
            s.run_with_profiles(policy.as_ref(), set.profiles()).unwrap();
            let want = usize::from(policy.name() == "sophon");
            assert_eq!(crate::profiler::probe_runs() - probes, want, "{}", policy.name());
        }
        let probes = crate::profiler::probe_runs();
        assert_eq!(s.workload_class(), Ok(WorkloadClass::IoBound));
        assert_eq!(crate::profiler::probe_runs() - probes, 1);
    }

    #[test]
    fn a_changed_input_is_never_read_through_stale_profiles() {
        let mutations: [fn(&mut Scenario); 3] = [
            |s| s.dataset = DatasetSpec::openimages_like(1024, 6),
            |s| s.pipeline = pipeline::PipelineSpec::standard_eval(),
            |s| s.cost_model.decode_ns_per_pixel *= 4.0,
        ];
        for mutate in mutations {
            let mut s = scenario(8);
            let before = (s.run_all().unwrap(), s.run_training(&fleet(3)).unwrap());
            mutate(&mut s);
            let mut fresh = scenario(8);
            mutate(&mut fresh);
            let after = (s.run_all().unwrap(), s.run_training(&fleet(3)).unwrap());
            assert_ne!(after, before);
            assert_eq!(after, (fresh.run_all().unwrap(), fresh.run_training(&fleet(3)).unwrap()));
            assert_eq!(s.run(&SophonPolicy::default()), fresh.run(&SophonPolicy::default()));
            assert_eq!(s.profile_set().profiles(), fresh.profiles().as_slice());
        }
    }

    #[test]
    fn debug_shows_the_sets_provenance_not_its_profiles() {
        let s = scenario(8);
        assert!(format!("{s:?}").contains("profile_set: OnceLock(<uninit>)"));
        s.run(&NoOffPolicy).unwrap();
        let shown = format!("{s:?}");
        assert!(shown.contains("ProfileSet { dataset: DatasetSpec {"), "{shown}");
        assert!(shown.contains("len: 2048"), "{shown}");
        assert!(!shown.contains("sample_id"), "{shown}");
    }

    /// Four shards, two replicas, `epochs` epochs.
    fn fleet(epochs: u64) -> TrainingRequest<'static> {
        TrainingRequest {
            shards: 4,
            replication: 2,
            placement_seed: 2024,
            ..TrainingRequest::new(epochs)
        }
    }

    /// An efficiency-aware cache of `pct` percent of `s`'s corpus.
    fn cache_pct(s: &Scenario, pct: u64) -> Option<(u64, CacheSelection)> {
        let corpus: u64 = s.profiles().iter().map(|p| p.raw_bytes).sum();
        Some((corpus * pct / 100, CacheSelection::EfficiencyAware))
    }

    #[test]
    fn profiling_epoch_amortizes_over_training_run() {
        // The paper trains for 50+ epochs; SOPHON's un-offloaded first epoch
        // must cost only a few percent overall while the run still crushes
        // No-Off.
        let s = scenario(48);
        let with = |policy| {
            s.run_training(&TrainingRequest { policy, ..TrainingRequest::new(50) }).unwrap()
        };
        let (sophon, no_off) = (with(None), with(Some(&NoOffPolicy)));
        assert_eq!((sophon.policy.as_str(), no_off.policy.as_str()), ("sophon", "no-off"));
        assert!(
            sophon.stats.first_epoch.total.epoch_seconds
                > sophon.stats.steady_epoch.total.epoch_seconds * 1.5,
            "profiling epoch should be slower than steady epochs"
        );
        let overhead = sophon.profiling_overhead();
        assert!(overhead > 0.0 && overhead < 0.05, "amortized overhead {overhead}");
        assert!(sophon.stats.total_seconds < no_off.stats.total_seconds / 1.8);
        // A policy without a profiling epoch runs its plan from epoch 0.
        assert_eq!(no_off.stats.first_epoch, no_off.stats.steady_epoch);
        assert!(no_off.profiling_overhead().abs() < 1e-12);
        assert!(no_off.per_shard.is_empty() && no_off.cache.is_none());
        // `policy` is an axis because of the baselines, not SOPHON: on this
        // I/O-bound scenario its whole-corpus plan is the one-shard plan.
        assert_eq!(with(Some(&SophonPolicy::default())).stats, sophon.stats);
    }

    #[test]
    fn cached_training_cuts_warm_traffic() {
        let s = scenario(48);
        let cached = |pct| {
            let cache = cache_pct(&s, pct);
            let r = s.run_training(&TrainingRequest { cache, ..TrainingRequest::new(10) }).unwrap();
            assert!(r.cache.as_ref().unwrap().cached_bytes <= cache.unwrap().0);
            r
        };
        let report = cached(30);
        assert!(report.cache.as_ref().unwrap().cached_samples > 0);
        assert!(
            report.warm_traffic_bytes() < report.stats.cold().total.traffic_bytes,
            "warm epochs must move fewer bytes than the cold epoch"
        );
        assert!(report.stats.warm_traffic_reduction() > 0.0);
        // Full budget: warm epochs move nothing at all.
        let full = cached(100);
        assert_eq!(full.warm_traffic_bytes(), 0);
        assert_eq!(full.cache.unwrap().cached_samples, 2048);
        // Zero budget: the cache axis at its neutral value.
        let empty = cached(0);
        assert_eq!(empty.cache.as_ref().unwrap().cached_samples, 0);
        assert_eq!(empty.stats, s.run_training(&TrainingRequest::new(10)).unwrap().stats);
    }

    #[test]
    fn placement_seed_is_neutral_at_one_shard() {
        let s = scenario(8);
        for cache in [None, cache_pct(&s, 30)] {
            let seeded = |placement_seed| {
                let req = TrainingRequest { placement_seed, cache, ..TrainingRequest::new(3) };
                s.run_training(&req).unwrap()
            };
            assert_eq!(seeded(0), seeded(7));
            assert_eq!(seeded(0), seeded(2024));
        }
    }

    #[test]
    fn fleet_training_survives_a_replicated_kill() {
        let s = scenario(8);
        let healthy = s.run_training(&fleet(5)).unwrap();
        assert_eq!(healthy.per_shard.len(), 4);
        assert_eq!(healthy.stats.first_epoch.failovers, 0);
        let share = healthy.stats.steady_epoch.peak_node_share();
        assert!(share < 0.5, "share {share}");
        // A fleet run pays SOPHON's un-offloaded profiling epoch like any
        // other; the per-shard plan is what steady epochs ship.
        let planned: u64 = healthy.per_shard.iter().map(|p| p.transfer_bytes).sum();
        assert_eq!(planned, healthy.warm_traffic_bytes());
        assert!(healthy.stats.first_epoch.total.traffic_bytes > planned);
        assert_eq!(healthy.stats.first_epoch.total.storage_cpu_busy_seconds, 0.0);

        let kills = [cluster::KillEvent::new(1, 0.5)];
        let degraded = s.run_training(&TrainingRequest { kills: &kills, ..fleet(5) }).unwrap();
        // No sample lost, survivors picked up the dead node's share.
        assert_eq!(degraded.stats.steady_epoch.total.samples, 2048);
        assert!(degraded.stats.first_epoch.failovers > 0);
        assert_eq!(degraded.stats.steady_epoch.per_node[1].samples_served, 0);
        assert!(degraded.stats.total_seconds >= healthy.stats.total_seconds);

        // Without replication the same kill is fatal.
        let err = s
            .run_training(&TrainingRequest { replication: 1, kills: &kills, ..fleet(5) })
            .unwrap_err();
        assert!(matches!(err, SophonError::Sim(cluster::SimError::SampleUnreachable { .. })));
    }

    #[test]
    fn cached_fleet_training_composes_cache_and_shards() {
        let s = scenario(8);
        let cache = cache_pct(&s, 30);
        let report = s.run_training(&TrainingRequest { cache, ..fleet(10) }).unwrap();
        assert_eq!(report.per_shard.len(), 4);
        assert!(report.cache.as_ref().unwrap().cached_samples > 0);
        assert!(report.warm_traffic_bytes() < report.stats.cold().total.traffic_bytes);
        assert!(report.stats.warm_traffic_reduction() > 0.0);
        // Per-shard warm aggregates match the simulated warm epoch.
        let planned: u64 = report.per_shard.iter().map(|p| p.transfer_bytes).sum();
        assert_eq!(planned, report.warm_traffic_bytes());
        // The pinned benchmark front is the same run.
        let (budget, selection) = cache.unwrap();
        assert_eq!(s.run_training_fleet_cached(10, 4, 2, 2024, budget, selection, &[]), Ok(report));
    }

    #[test]
    fn a_cached_training_run_ranks_its_context_once() {
        let s = scenario(8);
        let cache = cache_pct(&s, 30);
        let builds = crate::engine::table_builds();
        let report = s.run_training(&TrainingRequest { cache, ..fleet(3) }).unwrap();
        assert!(report.cache.unwrap().cached_samples > 0);
        assert_eq!(crate::engine::table_builds() - builds, 1, "the selection and the fleet plan");
    }

    #[test]
    fn kills_are_permanent_with_or_without_a_cache() {
        let s = scenario(8);
        let kills = [cluster::KillEvent::new(2, 0.25)];
        let runs = [None, cache_pct(&s, 0), cache_pct(&s, 30)].map(|cache| {
            s.run_training(&TrainingRequest { cache, kills: &kills, ..fleet(10) }).unwrap()
        });
        for run in &runs {
            assert!(run.stats.first_epoch.failovers > 0);
            assert!(run.stats.first_epoch.per_node[2].samples_served > 0);
            assert_eq!(run.stats.steady_epoch.per_node[2].samples_served, 0);
            assert_eq!(run.stats.steady_epoch.total.samples, 2048);
        }
        // A zero-byte cache is no cache, on a degraded fleet too.
        assert_eq!(runs[0].stats, runs[1].stats);
        assert!(runs[2].warm_traffic_bytes() < runs[0].warm_traffic_bytes());
    }

    #[test]
    fn sophon_is_fastest_policy_even_with_one_storage_core() {
        let reports = scenario(1).run_all().unwrap();
        let sophon = reports.iter().find(|r| r.policy == "sophon").unwrap();
        for r in &reports {
            assert!(
                sophon.epoch.epoch_seconds <= r.epoch.epoch_seconds + 1e-9,
                "sophon {} vs {} {}",
                sophon.epoch.epoch_seconds,
                r.policy,
                r.epoch.epoch_seconds
            );
        }
    }
}
