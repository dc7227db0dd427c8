//! Multi-epoch training runs.
//!
//! Epochs are independent in the cluster model, so a training run is one
//! simulation of each *distinct* epoch plus arithmetic: epoch 0, one steady
//! epoch, and `first + steady × (epochs − 1)` totals. Everything that makes
//! epoch 0 special lands in that same slot:
//!
//! * **profiling** — SOPHON's stage-2 profiler runs epoch 0 un-offloaded,
//!   so its run pays one `No-Off` epoch before the optimized ones;
//! * **cache fill** — with a near-compute cache, epoch 0 is the **cold**
//!   epoch that fetches everything and every later one a **warm** epoch
//!   fetching the uncached residual. Cached samples stay in the warm spec
//!   with zero transfer bytes and are still routed through their owners: a
//!   dead fleet cannot serve even a fully cached corpus in this
//!   conservative model;
//! * **node deaths** — kill events land in epoch 0 at their given fraction
//!   and are permanent: later epochs run with those nodes dead throughout.
//!
//! So [`simulate_training`] is the only multi-epoch entry point. The
//! two-node testbed is one nominal node and no owner lists. The module is
//! mechanism-free: which samples offload, which are cached and where they
//! are placed is the `sophon` crate's business.

use crate::stagegraph::{run_stage_graph, SampleRouting, StageHooks};
use crate::{
    simulate_fleet_epoch, ClusterConfig, EpochSpec, FleetEpochStats, FleetNodeConfig, KillEvent,
    OwnerTable, SimError,
};

/// Everything [`simulate_training`] runs, as data.
#[derive(Debug, Clone, Copy)]
pub struct TrainingSpec<'a> {
    /// The storage nodes; the two-node testbed is one
    /// [`FleetNodeConfig::nominal`] node.
    pub nodes: &'a [FleetNodeConfig],
    /// Epoch 0: the profiling / cold epoch, where kill events land.
    pub first: &'a EpochSpec,
    /// Every later epoch (the same spec as `first` when epoch 0 is not
    /// special).
    pub steady: &'a EpochSpec,
    /// Per-sample ordered replica sets (primary first), parallel to both
    /// specs; `None` means every sample is served by node 0 and `kills` are
    /// ignored.
    pub owners: Option<&'a OwnerTable>,
    /// Node deaths during epoch 0, permanent afterwards.
    pub kills: &'a [KillEvent],
    /// Total epochs to run.
    pub epochs: u64,
}

/// Statistics of a full training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingStats {
    /// Total epochs executed.
    pub epochs: u64,
    /// Epoch 0 (profiling / cold; where mid-epoch kill events land).
    pub first_epoch: FleetEpochStats,
    /// Each steady-state epoch (warm; killed nodes stay dead throughout).
    /// Equals `first_epoch` for one-epoch runs.
    pub steady_epoch: FleetEpochStats,
    /// Total wall-clock (virtual) seconds.
    pub total_seconds: f64,
    /// Total bytes moved over all links.
    pub total_traffic_bytes: u64,
}

impl TrainingStats {
    /// The cold (cache-filling) epoch: epoch 0 under its cache name.
    pub fn cold(&self) -> &FleetEpochStats {
        &self.first_epoch
    }

    /// The steady-state warm epoch.
    pub fn warm(&self) -> &FleetEpochStats {
        &self.steady_epoch
    }

    /// Wire bytes a warm epoch avoids relative to the cold epoch.
    pub(crate) fn warm_bytes_saved(&self) -> u64 {
        self.cold().total.traffic_bytes.saturating_sub(self.warm().total.traffic_bytes)
    }

    /// Fraction of cold-epoch traffic a warm epoch avoids (0 when the cold
    /// epoch moved nothing).
    pub fn warm_traffic_reduction(&self) -> f64 {
        if self.cold().total.traffic_bytes == 0 {
            0.0
        } else {
            self.warm_bytes_saved() as f64 / self.cold().total.traffic_bytes as f64
        }
    }
}

/// Simulates `spec.epochs` of training: epoch 0 runs `spec.first` with
/// `spec.kills` landing mid-epoch, every later epoch runs `spec.steady`
/// with the killed nodes dead from the start.
///
/// # Errors
///
/// [`SimError::WorksMismatch`] when `first` and `steady` disagree on sample
/// count; otherwise propagates [`simulate_fleet_epoch`] failures.
///
/// # Panics
///
/// Panics when `spec.epochs == 0`.
pub fn simulate_training(
    base: &ClusterConfig,
    spec: &TrainingSpec<'_>,
) -> Result<TrainingStats, SimError> {
    assert!(spec.epochs > 0, "training needs at least one epoch");
    let samples = spec.first.samples.len();
    if spec.steady.samples.len() != samples {
        return Err(SimError::WorksMismatch { got: spec.steady.samples.len(), samples });
    }
    let first_epoch = training_epoch(base, spec, spec.first, spec.kills)?;
    let steady_epoch = if spec.epochs > 1 {
        let permanent: Vec<KillEvent> =
            spec.kills.iter().map(|k| KillEvent::new(k.node, 0.0)).collect();
        training_epoch(base, spec, spec.steady, &permanent)?
    } else {
        first_epoch.clone()
    };
    let steady_count = spec.epochs - 1;
    Ok(TrainingStats {
        epochs: spec.epochs,
        total_seconds: first_epoch.total.epoch_seconds
            + steady_epoch.total.epoch_seconds * steady_count as f64,
        total_traffic_bytes: first_epoch.total.traffic_bytes
            + steady_epoch.total.traffic_bytes * steady_count,
        first_epoch,
        steady_epoch,
    })
}

/// One epoch of a training run: node 0 serves everything when the run has
/// no owner lists, replica failover otherwise.
fn training_epoch(
    base: &ClusterConfig,
    spec: &TrainingSpec<'_>,
    epoch: &EpochSpec,
    kills: &[KillEvent],
) -> Result<FleetEpochStats, SimError> {
    if let Some(owners) = spec.owners {
        return simulate_fleet_epoch(base, spec.nodes, epoch, owners, kills);
    }
    run_stage_graph(base, spec.nodes, epoch, SampleRouting::SingleNode, StageHooks::default())
        .map(FleetEpochStats::from_run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuModel, SampleWork};

    /// 512 samples shipping `bytes` each.
    fn spec(bytes: u64) -> EpochSpec {
        EpochSpec::new(vec![SampleWork::new(0.0, bytes, 0.001); 512], 256, GpuModel::AlexNet)
    }

    /// Runs over `nodes` nominal nodes with round-robin `replication`-deep
    /// owner lists; `replication == 0` passes no owner lists at all.
    fn run(
        nodes: usize,
        replication: usize,
        (first, steady): (&EpochSpec, &EpochSpec),
        kills: &[KillEvent],
        epochs: u64,
    ) -> Result<TrainingStats, SimError> {
        let base = ClusterConfig::paper_testbed(48);
        let nodes = vec![FleetNodeConfig::nominal(&base); nodes];
        let count = nodes.len();
        let owners = (replication > 0).then(|| {
            let rows = (0..first.samples.len())
                .flat_map(|i| (0..replication).map(move |r| (i + r) % count));
            OwnerTable::new(replication, rows.collect())
        });
        let owners = owners.as_ref();
        let spec = TrainingSpec { nodes: &nodes, first, steady, owners, kills, epochs };
        simulate_training(&base, &spec)
    }

    /// The paper testbed: one nominal node, no owner lists, no kills.
    fn two_node(first: &EpochSpec, steady: &EpochSpec, epochs: u64) -> TrainingStats {
        run(1, 0, (first, steady), &[], epochs).unwrap()
    }

    #[test]
    fn uniform_run_is_linear() {
        let e = spec(200_000);
        let run = two_node(&e, &e, 10);
        assert_eq!(run.epochs, 10);
        assert_eq!(run.steady_epoch, run.first_epoch);
        assert!((run.total_seconds - run.first_epoch.total.epoch_seconds * 10.0).abs() < 1e-6);
        assert_eq!(run.total_traffic_bytes, run.first_epoch.total.traffic_bytes * 10);
    }

    #[test]
    fn expensive_first_epoch_amortizes() {
        // Un-offloaded profiling epoch, then optimized epochs: the run's
        // mean epoch time approaches the steady time as epochs grow.
        let run = two_node(&spec(300_000), &spec(140_000), 50);
        let overhead = run.total_seconds / (run.steady_epoch.total.epoch_seconds * 50.0) - 1.0;
        assert!(overhead > 0.0 && overhead < 0.05, "amortized overhead {overhead}");
    }

    #[test]
    fn single_epoch_run_uses_first_spec_only() {
        let run = two_node(&spec(100_000), &spec(1), 1);
        assert_eq!(run.steady_epoch, run.first_epoch);
        assert_eq!(run.total_traffic_bytes, 512 * 100_000);
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn zero_epochs_panics() {
        two_node(&spec(1), &spec(1), 0);
    }

    #[test]
    fn warm_epochs_cut_total_traffic() {
        let run = two_node(&spec(200_000), &spec(50_000), 10);
        assert_eq!(
            run.total_traffic_bytes,
            run.cold().total.traffic_bytes + run.warm().total.traffic_bytes * 9
        );
        assert_eq!(run.warm_bytes_saved(), 512 * 150_000);
        assert!((run.warm_traffic_reduction() - 0.75).abs() < 1e-12);
        // A cache that holds nothing saves nothing.
        let same = spec(100_000);
        let useless = two_node(&same, &same, 5);
        assert_eq!(useless.warm_bytes_saved(), 0);
        assert_eq!(useless.warm_traffic_reduction(), 0.0);
        // A fully cached corpus moves bytes in the cold epoch only.
        let full = two_node(&spec(150_000), &spec(0), 4);
        assert_eq!(full.warm().total.traffic_bytes, 0);
        assert!((full.warm_traffic_reduction() - 1.0).abs() < 1e-12);
        assert_eq!(full.total_traffic_bytes, full.cold().total.traffic_bytes);
    }

    #[test]
    fn one_node_owner_lists_change_nothing() {
        let (first, steady) = (spec(300_000), spec(140_000));
        let routed = run(1, 1, (&first, &steady), &[], 7).unwrap();
        assert_eq!(routed, two_node(&first, &steady, 7));
    }

    #[test]
    fn cached_fleet_training_composes_cold_and_warm_epochs() {
        let cold = spec(300_000);
        // Warm epoch: half the corpus cached (zero transfer bytes).
        let warm_samples: Vec<SampleWork> =
            (0..512).map(|i| SampleWork::new(0.0, (i % 2) * 300_000, 0.001)).collect();
        let warm = EpochSpec::new(warm_samples, 256, GpuModel::AlexNet);
        let run = run(4, 2, (&cold, &warm), &[], 6).unwrap();
        assert_eq!(run.cold().total.traffic_bytes, 512 * 300_000);
        assert_eq!(run.warm().total.traffic_bytes, 256 * 300_000);
        assert!((run.warm_traffic_reduction() - 0.5).abs() < 1e-12);
        assert_eq!(
            run.total_traffic_bytes,
            run.cold().total.traffic_bytes + run.warm().total.traffic_bytes * 5
        );
        // Warm epochs still route through the fleet: every node serves.
        assert!(run.warm().per_node.iter().all(|n| n.samples_served > 0));
    }

    #[test]
    fn killed_nodes_stay_dead_in_steady_epochs() {
        let first = spec(300_000);
        // Uncached (steady = first) and cached (a cheaper warm spec) alike.
        for steady in [&first, &spec(30_000)] {
            let run = run(3, 2, (&first, steady), &[KillEvent::new(1, 0.5)], 5).unwrap();
            // Epoch 0: node 1 served its pre-kill share. Steady: nothing.
            assert!(run.first_epoch.per_node[1].samples_served > 0);
            assert_eq!(run.steady_epoch.per_node[1].samples_served, 0);
            assert!(run.steady_epoch.failovers > run.first_epoch.failovers);
            assert_eq!(
                run.total_traffic_bytes,
                run.first_epoch.total.traffic_bytes + run.steady_epoch.total.traffic_bytes * 4
            );
        }
    }

    #[test]
    fn mismatched_specs_are_rejected_with_or_without_owners() {
        let steady =
            EpochSpec::new(vec![SampleWork::new(0.0, 1, 0.001); 256], 256, GpuModel::AlexNet);
        for (nodes, replication) in [(2, 2), (1, 0)] {
            let err = run(nodes, replication, (&spec(300_000), &steady), &[], 3).unwrap_err();
            assert_eq!(err, SimError::WorksMismatch { got: 256, samples: 512 });
        }
    }
}
