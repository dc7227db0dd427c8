//! Fleet-of-storage-nodes epoch model.
//!
//! Extends the two-node testbed to N storage nodes, each with its own CPU
//! pool, read path, and storage→compute link — a thin configuration of the
//! unified [`crate::stagegraph`] core with
//! [`SampleRouting::ReplicaFailover`] routing. The module is deliberately
//! mechanism-free, like [`crate::simulate_training`]: callers supply
//! the per-sample **owner lists** (ordered replica sets, primary first —
//! built e.g. by [`crate::ShardMap::owners`]), and this module only
//! schedules the resulting per-node queues. Placement hashing lives in
//! [`crate::ShardMap`] and transport hedging in the `fleet` crate; the
//! simulator answers "what does this placement cost" questions:
//!
//! * **Per-node links and cores** — each node is a [`FleetNodeConfig`]; a
//!   sample is read, offload-preprocessed, and transferred on *its serving
//!   node's* resources, so one hot shard becomes visible as one saturated
//!   link or CPU pool.
//! * **Node-kill events** — a [`KillEvent`] marks a node dead after a
//!   fraction of the epoch's samples have been issued; later samples fail
//!   over to the next surviving owner in their list (counted in
//!   [`FleetEpochStats::failovers`]), and samples with no surviving owner
//!   make the epoch fail with [`SimError::SampleUnreachable`].
//! * **Straggler distributions** — a node's `speed` scales its read and
//!   preprocessing service rate, so a seeded vector of speeds models a
//!   straggler distribution without any randomness inside the simulator.
//!
//! Multi-epoch runs over a fleet — with or without a warm near-compute
//! cache — are [`crate::simulate_training`] with owner lists set.

use crate::stagegraph::{
    kill_thresholds, run_stage_graph, SampleRouting, StageGraphRun, StageHooks,
};
use crate::{ClusterConfig, EpochSpec, EpochStats, FleetNodeConfig, KillEvent, SimError};

pub use crate::stagegraph::NodeEpochStats;

/// Results of simulating one epoch over a storage fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEpochStats {
    /// Fleet-wide aggregate. `traffic_bytes`, `storage_cpu_busy_seconds`,
    /// and `link_busy_seconds` sum over nodes, so
    /// [`EpochStats::link_utilization`] on this value measures utilization
    /// of the *aggregate* link capacity and can exceed 1.0 only if the
    /// per-node figures do.
    pub total: EpochStats,
    /// Per-node breakdown, in node order.
    pub per_node: Vec<NodeEpochStats>,
    /// Samples that were rerouted past a dead owner.
    pub failovers: u64,
}

impl FleetEpochStats {
    /// Reshapes a finished stage-graph run.
    pub(crate) fn from_run(run: StageGraphRun) -> FleetEpochStats {
        FleetEpochStats {
            total: run.total_stats(),
            per_node: run.per_node,
            failovers: run.failovers,
        }
    }

    /// The busiest node's share of served samples — `1/n` is perfectly
    /// balanced, `1.0` means one node served everything.
    pub fn peak_node_share(&self) -> f64 {
        if self.total.samples == 0 {
            return 0.0;
        }
        let peak = self.per_node.iter().map(|n| n.samples_served).max().unwrap_or(0);
        peak as f64 / self.total.samples as f64
    }
}

/// Simulates one epoch over a fleet of storage nodes.
///
/// `owners[i]` is sample `i`'s ordered replica set (primary first); the
/// sample is served by its first owner still alive when it is issued.
/// `base` supplies the compute side (cores, GPUs, prefetch window) and the
/// nominal storage read rate; each node's read and preprocessing service
/// times are divided by its `speed`.
///
/// # Errors
///
/// * [`SimError::EmptyFleet`] — `nodes` is empty.
/// * [`SimError::OwnersMismatch`] — `owners` is not parallel to
///   `spec.samples`.
/// * [`SimError::OwnerOutOfRange`] / [`SimError::KillOutOfRange`] — an
///   owner list or kill event names a node outside the fleet.
/// * [`SimError::SampleUnreachable`] — a sample's owners are all dead.
/// * [`SimError::NoStorageCores`] — offloaded work routed to a node with
///   zero cores.
/// * [`SimError::NoComputeCores`] / [`SimError::NoGpus`] — as
///   [`crate::simulate_epoch`].
pub fn simulate_fleet_epoch(
    base: &ClusterConfig,
    nodes: &[FleetNodeConfig],
    spec: &EpochSpec,
    owners: &[Vec<usize>],
    kills: &[KillEvent],
) -> Result<FleetEpochStats, SimError> {
    if nodes.is_empty() {
        return Err(SimError::EmptyFleet);
    }
    let dead_from = kill_thresholds(kills, nodes.len(), spec.samples.len())?;
    let routing = SampleRouting::ReplicaFailover { owners, dead_from: &dead_from };
    let run = run_stage_graph(base, nodes, spec, routing, StageHooks::default())?;
    Ok(FleetEpochStats::from_run(run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuModel, SampleWork};

    fn base() -> ClusterConfig {
        ClusterConfig::paper_testbed(48)
    }

    fn nominal_nodes(n: usize) -> Vec<FleetNodeConfig> {
        vec![FleetNodeConfig::nominal(&base()); n]
    }

    /// Round-robin primaries with `replication` successors.
    fn owners(samples: usize, nodes: usize, replication: usize) -> Vec<Vec<usize>> {
        (0..samples).map(|i| (0..replication).map(|r| (i + r) % nodes).collect()).collect()
    }

    fn io_bound_spec(n: usize) -> EpochSpec {
        EpochSpec::new(vec![SampleWork::new(0.0, 300_000, 0.001); n], 256, GpuModel::AlexNet)
    }

    #[test]
    fn one_nominal_node_matches_the_two_node_sim() {
        let spec = io_bound_spec(2048);
        let fleet =
            simulate_fleet_epoch(&base(), &nominal_nodes(1), &spec, &owners(2048, 1, 1), &[])
                .unwrap();
        let single = crate::simulate_epoch(&base(), &spec).unwrap();
        assert!(
            (fleet.total.epoch_seconds - single.epoch_seconds).abs() < 1e-9,
            "fleet {} vs single {}",
            fleet.total.epoch_seconds,
            single.epoch_seconds
        );
        assert_eq!(fleet.total.traffic_bytes, single.traffic_bytes);
    }

    #[test]
    fn more_nodes_relieve_a_network_bottleneck() {
        let spec = io_bound_spec(4096);
        let run = |n: usize| {
            simulate_fleet_epoch(&base(), &nominal_nodes(n), &spec, &owners(4096, n, 1), &[])
                .unwrap()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four.total.epoch_seconds < one.total.epoch_seconds / 2.5,
            "4 nodes {} vs 1 node {}",
            four.total.epoch_seconds,
            one.total.epoch_seconds
        );
        // Same bytes, spread across four links.
        assert_eq!(four.total.traffic_bytes, one.total.traffic_bytes);
        assert!(four.peak_node_share() < 0.3);
    }

    #[test]
    fn replicated_kill_loses_no_samples() {
        let spec = io_bound_spec(1024);
        let stats = simulate_fleet_epoch(
            &base(),
            &nominal_nodes(4),
            &spec,
            &owners(1024, 4, 2),
            &[KillEvent::new(1, 0.5)],
        )
        .unwrap();
        assert_eq!(stats.total.samples, 1024);
        assert_eq!(stats.per_node.iter().map(|n| n.samples_served).sum::<u64>(), 1024);
        assert!(stats.failovers > 0);
        // The dead node served only its pre-kill share.
        assert!(stats.per_node[1].samples_served < 1024 / 4 + 1);
        // Healthy run has no failovers and is no slower.
        let healthy =
            simulate_fleet_epoch(&base(), &nominal_nodes(4), &spec, &owners(1024, 4, 2), &[])
                .unwrap();
        assert_eq!(healthy.failovers, 0);
        assert!(stats.total.epoch_seconds >= healthy.total.epoch_seconds);
    }

    #[test]
    fn unreplicated_kill_is_an_error() {
        let spec = io_bound_spec(64);
        let err = simulate_fleet_epoch(
            &base(),
            &nominal_nodes(2),
            &spec,
            &owners(64, 2, 1),
            &[KillEvent::new(0, 0.0)],
        )
        .unwrap_err();
        assert!(matches!(err, SimError::SampleUnreachable { .. }));
    }

    #[test]
    fn a_straggler_node_slows_the_epoch() {
        // Storage-CPU-bound workload (2 cores per node): quartering one
        // node's speed makes it the epoch's critical path.
        let spec = EpochSpec::new(
            vec![SampleWork::new(0.020, 120_000, 0.001); 2048],
            256,
            GpuModel::AlexNet,
        );
        let cpu_bound: Vec<FleetNodeConfig> = nominal_nodes(4)
            .into_iter()
            .map(|mut n| {
                n.storage_cores = 2;
                n
            })
            .collect();
        let mut slow = cpu_bound.clone();
        slow[2] = slow[2].with_speed(0.25);
        let own = owners(2048, 4, 1);
        let nominal = simulate_fleet_epoch(&base(), &cpu_bound, &spec, &own, &[]).unwrap();
        let degraded = simulate_fleet_epoch(&base(), &slow, &spec, &own, &[]).unwrap();
        assert!(
            degraded.total.epoch_seconds > nominal.total.epoch_seconds * 1.5,
            "straggler {} vs nominal {}",
            degraded.total.epoch_seconds,
            nominal.total.epoch_seconds
        );
    }

    #[test]
    fn deterministic() {
        let spec = io_bound_spec(777);
        let own = owners(777, 3, 2);
        let kills = [KillEvent::new(2, 0.3)];
        let a = simulate_fleet_epoch(&base(), &nominal_nodes(3), &spec, &own, &kills).unwrap();
        let b = simulate_fleet_epoch(&base(), &nominal_nodes(3), &spec, &own, &kills).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_inputs_are_typed_errors_not_panics() {
        let spec = io_bound_spec(8);
        // Owner lists not parallel to samples.
        let err = simulate_fleet_epoch(&base(), &nominal_nodes(2), &spec, &owners(7, 2, 1), &[])
            .unwrap_err();
        assert_eq!(err, SimError::OwnersMismatch { owners: 7, samples: 8 });
        // Empty fleet.
        let err = simulate_fleet_epoch(&base(), &[], &spec, &owners(8, 2, 1), &[]).unwrap_err();
        assert_eq!(err, SimError::EmptyFleet);
        // Owner index beyond the node vector.
        let mut bad = owners(8, 2, 1);
        bad[3] = vec![5];
        let err = simulate_fleet_epoch(&base(), &nominal_nodes(2), &spec, &bad, &[]).unwrap_err();
        assert_eq!(err, SimError::OwnerOutOfRange { sample: 3, owner: 5, nodes: 2 });
        // Kill event naming a node outside the fleet.
        let err = simulate_fleet_epoch(
            &base(),
            &nominal_nodes(2),
            &spec,
            &owners(8, 2, 1),
            &[KillEvent::new(9, 0.5)],
        )
        .unwrap_err();
        assert_eq!(err, SimError::KillOutOfRange { node: 9, nodes: 2 });
    }

    #[test]
    fn offloaded_work_on_a_zero_core_node_errors() {
        let spec = EpochSpec::new(vec![SampleWork::new(0.01, 1000, 0.0); 16], 4, GpuModel::AlexNet);
        let mut nodes = nominal_nodes(2);
        nodes[1].storage_cores = 0;
        let err = simulate_fleet_epoch(&base(), &nodes, &spec, &owners(16, 2, 1), &[]).unwrap_err();
        assert_eq!(err, SimError::NoStorageCores);
    }
}
