//! End-to-end experiment driver: corpus → profiles → plan → simulated epoch.

use cluster::{simulate_epoch, ClusterConfig, EpochSpec, EpochStats, GpuModel};
use datasets::DatasetSpec;
use pipeline::{CostModel, PipelineSpec, SampleProfile};
use serde::{Deserialize, Serialize};

use crate::engine::PlanningContext;
use crate::policy::Policy;
use crate::profiler::{Stage1Probe, WorkloadClass};
use crate::{CostVector, PlanSummary, SophonError};

/// One training scenario: a corpus on a cluster with a model.
///
/// A `Scenario` owns everything needed to evaluate any policy, so Figures 3
/// and 4 are sweeps of `Scenario::run` over policies and storage-core
/// counts.
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
    pub cost_model: CostModel,
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
        }
    }

    /// Stage-2 profiles for the whole corpus (analytic path).
    pub fn profiles(&self) -> Vec<SampleProfile> {
        crate::profiler::stage2::profile_corpus_analytic(
            &self.dataset,
            &self.pipeline,
            &self.cost_model,
        )
    }

    /// Evaluates one policy end to end.
    ///
    /// # Errors
    ///
    /// Propagates planning and simulation failures.
    pub fn run(&self, policy: &dyn Policy) -> Result<RunReport, SophonError> {
        let profiles = self.profiles();
        self.run_with_profiles(policy, &profiles)
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
        let ctx =
            PlanningContext::new(profiles, &self.pipeline, &self.config, self.gpu, self.batch_size);
        let class = Stage1Probe::run(&ctx)?.classify();
        let plan = policy.plan(&ctx)?;
        let summary = plan.summarize(profiles)?;
        let costs = ctx.costs_for_plan(&plan)?;
        let works = plan.to_sample_works(profiles)?;
        let epoch =
            simulate_epoch(&self.config, &EpochSpec::new(works, self.batch_size, self.gpu))?;
        Ok(RunReport { policy: policy.name().to_string(), class, costs, summary, epoch })
    }

    /// Evaluates all five standard policies.
    ///
    /// # Errors
    ///
    /// Propagates the first failing policy.
    pub fn run_all(&self) -> Result<Vec<RunReport>, SophonError> {
        let profiles = self.profiles();
        crate::policy::standard_policies()
            .iter()
            .map(|p| self.run_with_profiles(p.as_ref(), &profiles))
            .collect()
    }
}

/// The outcome of a multi-epoch training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Policy name.
    pub policy: String,
    /// The run's statistics; for policies with a profiling epoch
    /// (`SOPHON`), the first epoch is un-offloaded.
    pub stats: cluster::TrainingStats,
}

impl TrainingReport {
    /// Fractional overhead of the profiling epoch relative to a run that
    /// used the optimized plan from epoch 0.
    pub fn profiling_overhead(&self) -> f64 {
        let ideal = self.stats.steady_epoch.epoch_seconds * self.stats.epochs as f64;
        if ideal <= 0.0 {
            0.0
        } else {
            self.stats.total_seconds / ideal - 1.0
        }
    }
}

impl Scenario {
    /// Simulates a full training run of `epochs` epochs under `policy`,
    /// charging SOPHON its un-offloaded profiling epoch (stage-2 runs
    /// on-the-fly during epoch 0).
    ///
    /// # Errors
    ///
    /// Propagates planning and simulation failures.
    ///
    /// # Panics
    ///
    /// Panics when `epochs == 0`.
    pub fn run_training(
        &self,
        policy: &dyn Policy,
        epochs: u64,
    ) -> Result<TrainingReport, SophonError> {
        let profiles = self.profiles();
        let ctx = PlanningContext::new(
            &profiles,
            &self.pipeline,
            &self.config,
            self.gpu,
            self.batch_size,
        );
        let plan = policy.plan(&ctx)?;
        let steady_works = plan.to_sample_works(&profiles)?;
        let steady = EpochSpec::new(steady_works, self.batch_size, self.gpu);
        let first = if policy.requires_profiling_epoch() {
            let baseline = crate::OffloadPlan::none(profiles.len()).to_sample_works(&profiles)?;
            EpochSpec::new(baseline, self.batch_size, self.gpu)
        } else {
            steady.clone()
        };
        let stats = cluster::simulate_training(&self.config, &first, &steady, epochs)?;
        Ok(TrainingReport { policy: policy.name().to_string(), stats })
    }
}

/// The outcome of a cache-aware training run: a cold (cache-filling)
/// epoch followed by warm epochs fetching only the uncached residual.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedTrainingReport {
    /// Cache selection policy name.
    pub selection: String,
    /// Cache byte budget the selection ran under.
    pub budget_bytes: u64,
    /// Cache bytes actually occupied.
    pub cached_bytes: u64,
    /// Samples pinned in the cache.
    pub cached_samples: u64,
    /// Total samples in the corpus.
    pub total_samples: u64,
    /// The simulated run (cold first epoch, warm steady epochs).
    pub stats: cluster::CachedTrainingStats,
}

impl CachedTrainingReport {
    /// Wire bytes per warm epoch.
    pub fn warm_traffic_bytes(&self) -> u64 {
        self.stats.warm().traffic_bytes
    }

    /// Fraction of cold-epoch traffic each warm epoch avoids.
    pub fn warm_traffic_reduction(&self) -> f64 {
        self.stats.warm_traffic_reduction()
    }
}

impl Scenario {
    /// Simulates a cache-aware training run: epoch 0 fetches every sample
    /// raw (profiling + cache fill), then `ext::caching` picks cache
    /// contents under `budget_bytes` with `selection`, the one-shard fleet
    /// plan re-plans the residual, and the remaining epochs run warm.
    ///
    /// # Errors
    ///
    /// Propagates planning and simulation failures.
    ///
    /// # Panics
    ///
    /// Panics when `epochs == 0`.
    pub fn run_training_cached(
        &self,
        epochs: u64,
        budget_bytes: u64,
        selection: crate::ext::caching::CacheSelection,
    ) -> Result<CachedTrainingReport, SophonError> {
        use crate::ext::{caching, sharding};

        let profiles = self.profiles();
        let ctx = PlanningContext::new(
            &profiles,
            &self.pipeline,
            &self.config,
            self.gpu,
            self.batch_size,
        );
        let assignment = caching::choose_cache_contents(&ctx, budget_bytes, selection);
        let map = fleet::ShardMap::new(1, 1, 0);
        let nodes = sharding::fleet_nodes(&self.config, 1);
        let request = sharding::FleetPlanRequest {
            cache: Some(&assignment),
            ..sharding::FleetPlanRequest::new(&map, &nodes)
        };
        let plan = sharding::plan_fleet(&ctx, &request)?.plan;
        let warm_works = caching::warm_sample_works(&ctx, &plan, &assignment)?;
        let cold_works = crate::OffloadPlan::none(profiles.len()).to_sample_works(&profiles)?;
        let stats = cluster::simulate_cached_training(
            &self.config,
            &EpochSpec::new(cold_works, self.batch_size, self.gpu),
            &EpochSpec::new(warm_works, self.batch_size, self.gpu),
            epochs,
        )?;
        Ok(CachedTrainingReport {
            selection: selection.name().to_string(),
            budget_bytes,
            cached_bytes: assignment.cached_bytes,
            cached_samples: assignment.cached_samples() as u64,
            total_samples: profiles.len() as u64,
            stats,
        })
    }
}

/// The outcome of a training run over a sharded storage fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetTrainingReport {
    /// Storage nodes in the fleet.
    pub shards: usize,
    /// Replicas per sample.
    pub replication: usize,
    /// Per-shard plan aggregates.
    pub per_shard: Vec<crate::ext::sharding::ShardPlanStats>,
    /// The simulated run (kill events land in the first epoch).
    pub stats: cluster::FleetTrainingStats,
}

impl FleetTrainingReport {
    /// The busiest node's share of steady-state samples (`1/shards` is
    /// perfectly balanced).
    pub fn peak_node_share(&self) -> f64 {
        self.stats.steady_epoch.peak_node_share()
    }
}

impl Scenario {
    /// Simulates `epochs` of training over a fleet of `shards` storage
    /// nodes with `replication`-way placement keyed by `placement_seed`.
    /// Planning runs per shard (`ext::sharding`); `kills` inject node
    /// deaths into the first epoch (dead nodes stay dead afterwards).
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
    pub fn run_training_fleet(
        &self,
        epochs: u64,
        shards: usize,
        replication: usize,
        placement_seed: u64,
        kills: &[cluster::KillEvent],
    ) -> Result<FleetTrainingReport, SophonError> {
        use crate::ext::sharding;

        let profiles = self.profiles();
        let ctx = PlanningContext::new(
            &profiles,
            &self.pipeline,
            &self.config,
            self.gpu,
            self.batch_size,
        );
        let map = fleet::ShardMap::new(shards, replication, placement_seed);
        let nodes = sharding::fleet_nodes(&self.config, shards);
        let sharded = sharding::plan_fleet(&ctx, &sharding::FleetPlanRequest::new(&map, &nodes))?;
        let works = sharded.plan.to_sample_works(&profiles)?;
        let stats = cluster::simulate_fleet_training(
            &self.config,
            &nodes,
            &EpochSpec::new(works, self.batch_size, self.gpu),
            &sharding::owner_lists(&map, profiles.len()),
            kills,
            epochs,
        )?;
        Ok(FleetTrainingReport { shards, replication, per_shard: sharded.per_shard, stats })
    }
}

/// The outcome of a training run composing the near-compute cache with a
/// sharded storage fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCachedTrainingReport {
    /// Storage nodes in the fleet.
    pub shards: usize,
    /// Replicas per sample.
    pub replication: usize,
    /// Cache selection policy name.
    pub selection: String,
    /// Cache byte budget the selection ran under.
    pub budget_bytes: u64,
    /// Cache bytes actually occupied.
    pub cached_bytes: u64,
    /// Samples pinned in the cache.
    pub cached_samples: u64,
    /// Total samples in the corpus.
    pub total_samples: u64,
    /// Warm-epoch per-shard aggregates.
    pub per_shard: Vec<crate::ext::sharding::ShardPlanStats>,
    /// The simulated run (cold fleet epoch, then warm fleet epochs).
    pub stats: cluster::FleetCachedTrainingStats,
}

impl FleetCachedTrainingReport {
    /// Fleet wire bytes per warm epoch.
    pub fn warm_traffic_bytes(&self) -> u64 {
        self.stats.warm().total.traffic_bytes
    }

    /// Fraction of cold-epoch fleet traffic each warm epoch avoids.
    pub fn warm_traffic_reduction(&self) -> f64 {
        self.stats.warm_traffic_reduction()
    }
}

impl Scenario {
    /// Simulates a training run over a fleet of `shards` storage nodes
    /// fronted by a near-compute cache of `budget_bytes`: epoch 0 fetches
    /// every sample raw through the fleet (profiling + cache fill), then
    /// `ext::sharding::plan_fleet` plans each shard's uncached residual
    /// against that node's own cores and link, and the remaining epochs
    /// run warm.
    /// `kills` inject node deaths into the first epoch (dead nodes stay
    /// dead afterwards).
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
    #[allow(clippy::too_many_arguments)]
    pub fn run_training_fleet_cached(
        &self,
        epochs: u64,
        shards: usize,
        replication: usize,
        placement_seed: u64,
        budget_bytes: u64,
        selection: crate::ext::caching::CacheSelection,
        kills: &[cluster::KillEvent],
    ) -> Result<FleetCachedTrainingReport, SophonError> {
        use crate::ext::{caching, sharding};

        let profiles = self.profiles();
        let ctx = PlanningContext::new(
            &profiles,
            &self.pipeline,
            &self.config,
            self.gpu,
            self.batch_size,
        );
        let map = fleet::ShardMap::new(shards, replication, placement_seed);
        let nodes = sharding::fleet_nodes(&self.config, shards);
        let assignment = caching::choose_cache_contents(&ctx, budget_bytes, selection);
        let request = sharding::FleetPlanRequest {
            cache: Some(&assignment),
            ..sharding::FleetPlanRequest::new(&map, &nodes)
        };
        let fc = sharding::plan_fleet(&ctx, &request)?;
        let warm_works = caching::warm_sample_works(&ctx, &fc.plan, &assignment)?;
        let cold_works = crate::OffloadPlan::none(profiles.len()).to_sample_works(&profiles)?;
        let stats = cluster::simulate_fleet_cached_training(
            &self.config,
            &nodes,
            &EpochSpec::new(cold_works, self.batch_size, self.gpu),
            &EpochSpec::new(warm_works, self.batch_size, self.gpu),
            &sharding::owner_lists(&map, profiles.len()),
            kills,
            epochs,
        )?;
        Ok(FleetCachedTrainingReport {
            shards,
            replication,
            selection: selection.name().to_string(),
            budget_bytes,
            cached_bytes: assignment.cached_bytes,
            cached_samples: assignment.cached_samples() as u64,
            total_samples: profiles.len() as u64,
            per_shard: fc.per_shard,
            stats,
        })
    }
}

/// The outcome of one policy run on one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy name.
    pub policy: String,
    /// Stage-1 classification of the (un-offloaded) workload.
    pub class: WorkloadClass,
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
        assert_eq!(no_off.class, WorkloadClass::IoBound);
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
    fn profiling_epoch_amortizes_over_training_run() {
        // The paper trains for 50+ epochs; SOPHON's un-offloaded first epoch
        // must cost only a few percent overall while the run still crushes
        // No-Off.
        let s = scenario(48);
        let sophon = s.run_training(&SophonPolicy::default(), 50).unwrap();
        let no_off = s.run_training(&NoOffPolicy, 50).unwrap();
        assert!(
            sophon.stats.first_epoch.epoch_seconds > sophon.stats.steady_epoch.epoch_seconds * 1.5,
            "profiling epoch should be slower than steady epochs"
        );
        let overhead = sophon.profiling_overhead();
        assert!(overhead > 0.0 && overhead < 0.05, "amortized overhead {overhead}");
        assert!(sophon.stats.total_seconds < no_off.stats.total_seconds / 1.8);
        assert!(no_off.profiling_overhead().abs() < 1e-12);
    }

    #[test]
    fn cached_training_cuts_warm_traffic() {
        use crate::ext::caching::CacheSelection;
        let s = scenario(48);
        let corpus: u64 = s.profiles().iter().map(|p| p.raw_bytes).sum();
        let report =
            s.run_training_cached(10, corpus * 30 / 100, CacheSelection::EfficiencyAware).unwrap();
        assert!(report.cached_samples > 0);
        assert!(report.cached_bytes <= report.budget_bytes);
        assert!(
            report.warm_traffic_bytes() < report.stats.cold().traffic_bytes,
            "warm epochs must move fewer bytes than the cold epoch"
        );
        assert!(report.warm_traffic_reduction() > 0.0);
        // Full budget: warm epochs move nothing at all.
        let full = s.run_training_cached(10, corpus, CacheSelection::EfficiencyAware).unwrap();
        assert_eq!(full.warm_traffic_bytes(), 0);
        assert_eq!(full.cached_samples, full.total_samples);
    }

    #[test]
    fn fleet_training_survives_a_replicated_kill() {
        let s = scenario(8);
        let healthy = s.run_training_fleet(5, 4, 2, 2024, &[]).unwrap();
        assert_eq!(healthy.shards, 4);
        assert_eq!(healthy.stats.first_epoch.failovers, 0);
        assert!(healthy.peak_node_share() < 0.5, "share {}", healthy.peak_node_share());

        let kills = [cluster::KillEvent::new(1, 0.5)];
        let degraded = s.run_training_fleet(5, 4, 2, 2024, &kills).unwrap();
        // No sample lost, survivors picked up the dead node's share.
        assert_eq!(degraded.stats.steady_epoch.total.samples, 2048);
        assert!(degraded.stats.first_epoch.failovers > 0);
        assert_eq!(degraded.stats.steady_epoch.per_node[1].samples_served, 0);
        assert!(degraded.stats.total_seconds >= healthy.stats.total_seconds);

        // Without replication the same kill is fatal.
        let err = s.run_training_fleet(5, 4, 1, 2024, &kills).unwrap_err();
        assert!(matches!(err, SophonError::Sim(cluster::SimError::SampleUnreachable { .. })));
    }

    #[test]
    fn cached_fleet_training_composes_cache_and_shards() {
        use crate::ext::caching::CacheSelection;
        let s = scenario(8);
        let corpus: u64 = s.profiles().iter().map(|p| p.raw_bytes).sum();
        let budget = corpus * 30 / 100;
        let report = s
            .run_training_fleet_cached(10, 4, 2, 2024, budget, CacheSelection::EfficiencyAware, &[])
            .unwrap();
        assert_eq!(report.shards, 4);
        assert!(report.cached_samples > 0);
        assert!(report.cached_bytes <= report.budget_bytes);
        assert!(report.warm_traffic_bytes() < report.stats.cold().total.traffic_bytes);
        assert!(report.warm_traffic_reduction() > 0.0);
        // Per-shard warm aggregates match the simulated warm epoch.
        let planned: u64 = report.per_shard.iter().map(|p| p.transfer_bytes).sum();
        assert_eq!(planned, report.warm_traffic_bytes());
        // The cache survives a replicated node kill: warm epochs still run.
        let kills = [cluster::KillEvent::new(2, 0.25)];
        let degraded = s
            .run_training_fleet_cached(
                10,
                4,
                2,
                2024,
                budget,
                CacheSelection::EfficiencyAware,
                &kills,
            )
            .unwrap();
        assert!(degraded.stats.cold().failovers > 0);
        assert_eq!(degraded.stats.warm().per_node[2].samples_served, 0);
        assert_eq!(degraded.stats.warm().total.samples, report.total_samples);
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
