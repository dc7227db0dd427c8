//! Single-node (paper testbed) epoch simulation — a thin configuration of
//! the unified [`crate::stagegraph`] core: one nominal storage node, every
//! sample routed to it.

use crate::stagegraph::{run_stage_graph, FleetNodeConfig, SampleRouting, StageHooks};
use crate::{ClusterConfig, EpochSpec, EpochStats};

/// Errors from epoch simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The workload offloads preprocessing but the storage node has zero
    /// cores for it.
    NoStorageCores,
    /// The workload requires local preprocessing but the compute node has
    /// zero cores.
    NoComputeCores,
    /// The compute node has zero GPUs.
    NoGpus,
    /// A fleet sample's owners are all dead (no surviving replica).
    SampleUnreachable {
        /// Index of the unreachable sample in loading order.
        sample: u64,
    },
    /// A fleet simulation was given an empty node vector.
    EmptyFleet,
    /// A fleet's owner lists are not parallel to the epoch's samples.
    OwnersMismatch {
        /// Number of owner lists supplied.
        owners: usize,
        /// Number of samples in the epoch.
        samples: usize,
    },
    /// An owner list names a node outside the fleet.
    OwnerOutOfRange {
        /// The sample whose owner list is malformed.
        sample: u64,
        /// The offending owner index.
        owner: usize,
        /// Number of nodes in the fleet.
        nodes: usize,
    },
    /// A kill event names a node outside the fleet.
    KillOutOfRange {
        /// The node the kill event names.
        node: usize,
        /// Number of nodes in the fleet.
        nodes: usize,
    },
    /// A fleet's kill-threshold vector is not parallel to its node vector.
    ThresholdsMismatch {
        /// Number of thresholds supplied.
        thresholds: usize,
        /// Number of nodes in the fleet.
        nodes: usize,
    },
    /// A second set of sample works — a mid-epoch directive's replacement,
    /// or a training run's steady epoch — is not parallel to the epoch's
    /// samples.
    WorksMismatch {
        /// Number of sample works supplied.
        got: usize,
        /// Number of samples in the epoch.
        samples: usize,
    },
    /// A mid-epoch node update names a node outside the fleet.
    UpdateOutOfRange {
        /// The node the update names.
        node: usize,
        /// Number of nodes in the fleet.
        nodes: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NoStorageCores => {
                write!(f, "workload offloads preprocessing but storage node has 0 cores")
            }
            SimError::NoComputeCores => {
                write!(f, "workload needs local preprocessing but compute node has 0 cores")
            }
            SimError::NoGpus => write!(f, "compute node has 0 GPUs"),
            SimError::SampleUnreachable { sample } => {
                write!(f, "sample {sample} has no surviving replica")
            }
            SimError::EmptyFleet => write!(f, "fleet needs at least one node"),
            SimError::OwnersMismatch { owners, samples } => {
                write!(f, "{owners} owner lists for {samples} samples (must be parallel)")
            }
            SimError::OwnerOutOfRange { sample, owner, nodes } => {
                write!(f, "sample {sample} names owner {owner}, but the fleet has {nodes} nodes")
            }
            SimError::KillOutOfRange { node, nodes } => {
                write!(f, "kill event names node {node}, but the fleet has {nodes} nodes")
            }
            SimError::ThresholdsMismatch { thresholds, nodes } => {
                write!(f, "{thresholds} kill thresholds for {nodes} nodes (must be parallel)")
            }
            SimError::WorksMismatch { got, samples } => {
                write!(f, "{got} sample works for an epoch of {samples} samples (must be parallel)")
            }
            SimError::UpdateOutOfRange { node, nodes } => {
                write!(f, "node update names node {node}, but the fleet has {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Simulates one epoch over the cluster, returning its statistics.
///
/// Per-sample flow (all FIFO, pipelined):
///
/// 1. storage read at `storage_read_bytes_per_sec` (RAM-cached, rarely
///    binding);
/// 2. offloaded preprocessing on the storage CPU pool (skipped when the
///    sample offloads nothing);
/// 3. transfer of `transfer_bytes` over the shared link;
/// 4. remaining preprocessing on the compute CPU pool (skipped when the
///    whole pipeline was offloaded);
/// 5. once every sample of a batch is ready, the batch runs on the GPU.
///
/// A bounded prefetch window (`config.prefetch_batches`) gates stage 1: the
/// loader may not start fetching batch `b` until batch
/// `b - prefetch_batches` has left the GPU, like a real `DataLoader` with a
/// bounded queue.
///
/// This is the degenerate configuration of [`crate::stagegraph`]: a single
/// nominal node serving every sample.
///
/// # Errors
///
/// Returns [`SimError::NoStorageCores`] /
/// [`SimError::NoComputeCores`] when work is routed to an empty pool.
pub fn simulate_epoch(config: &ClusterConfig, spec: &EpochSpec) -> Result<EpochStats, SimError> {
    let nodes = [FleetNodeConfig::nominal(config)];
    let run =
        run_stage_graph(config, &nodes, spec, SampleRouting::SingleNode, StageHooks::default())?;
    Ok(run.total_stats())
}

/// Like [`simulate_epoch`] but also returns the per-sample timeline — when
/// each sample finished its storage read, offloaded preprocessing, link
/// transfer, and local preprocessing, and when its batch left the GPU.
///
/// # Errors
///
/// Same conditions as [`simulate_epoch`].
pub fn simulate_epoch_traced(
    config: &ClusterConfig,
    spec: &EpochSpec,
) -> Result<crate::trace::EpochTrace, SimError> {
    let nodes = [FleetNodeConfig::nominal(config)];
    let mut samples = Vec::with_capacity(spec.samples.len());
    let hooks = StageHooks { trace: Some(&mut samples), ..StageHooks::default() };
    let run = run_stage_graph(config, &nodes, spec, SampleRouting::SingleNode, hooks)?;
    Ok(crate::trace::EpochTrace::new(samples, run.total_stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuModel, SampleWork};

    fn testbed() -> ClusterConfig {
        ClusterConfig::paper_testbed(48)
    }

    #[test]
    fn empty_epoch_is_zero() {
        let spec = EpochSpec::new(vec![], 256, GpuModel::AlexNet);
        let stats = simulate_epoch(&testbed(), &spec).unwrap();
        assert_eq!(stats.epoch_seconds, 0.0);
        assert_eq!(stats.traffic_bytes, 0);
        assert_eq!(stats.batches, 0);
    }

    #[test]
    fn io_bound_epoch_tracks_network_time() {
        // 4096 samples * 300 KB at 500 Mbps: network needs ~19.7 s and
        // dwarfs CPU (none) and GPU (AlexNet, 16 batches * 64 ms = 1 s).
        let samples = vec![SampleWork::new(0.0, 300_000, 0.001); 4096];
        let spec = EpochSpec::new(samples, 256, GpuModel::AlexNet);
        let stats = simulate_epoch(&testbed(), &spec).unwrap();
        let net_s = 4096.0 * 300_000.0 * 8.0 / 500e6;
        assert!(
            (stats.epoch_seconds - net_s).abs() / net_s < 0.1,
            "epoch {} vs network bound {net_s}",
            stats.epoch_seconds
        );
        assert!(stats.link_utilization() > 0.9);
        assert!(stats.gpu_utilization() < 0.2);
    }

    #[test]
    fn gpu_bound_epoch_saturates_gpu() {
        // Tiny transfers, heavy model: GPU should be the bottleneck.
        let samples = vec![SampleWork::new(0.0, 10_000, 0.001); 4096];
        let spec = EpochSpec::new(samples, 256, GpuModel::ResNet50);
        let stats = simulate_epoch(&testbed(), &spec).unwrap();
        let gpu_s = 4096.0 / 400.0;
        assert!(
            (stats.epoch_seconds - gpu_s).abs() / gpu_s < 0.15,
            "epoch {} vs gpu bound {gpu_s}",
            stats.epoch_seconds
        );
        assert!(stats.gpu_utilization() > 0.85);
    }

    #[test]
    fn storage_cpu_bound_with_one_core() {
        // Heavy offloaded preprocessing on a single storage core dominates.
        let samples = vec![SampleWork::new(0.030, 150_528, 0.002); 2048];
        let spec = EpochSpec::new(samples, 256, GpuModel::AlexNet);
        let config = testbed().with_storage_cores(1);
        let stats = simulate_epoch(&config, &spec).unwrap();
        let cpu_s = 2048.0 * 0.030;
        assert!(
            stats.epoch_seconds >= cpu_s * 0.95,
            "epoch {} below storage CPU bound {cpu_s}",
            stats.epoch_seconds
        );
        // More cores relieve the bottleneck.
        let fast = simulate_epoch(&testbed(), &spec).unwrap();
        assert!(fast.epoch_seconds < stats.epoch_seconds / 4.0);
    }

    #[test]
    fn offload_without_storage_cores_errors() {
        let samples = vec![SampleWork::new(0.01, 1000, 0.0); 10];
        let spec = EpochSpec::new(samples, 4, GpuModel::AlexNet);
        let config = testbed().with_storage_cores(0);
        assert_eq!(simulate_epoch(&config, &spec), Err(SimError::NoStorageCores));
    }

    #[test]
    fn no_offload_with_zero_storage_cores_is_fine() {
        let samples = vec![SampleWork::new(0.0, 1000, 0.001); 10];
        let spec = EpochSpec::new(samples, 4, GpuModel::AlexNet);
        let config = testbed().with_storage_cores(0);
        assert!(simulate_epoch(&config, &spec).is_ok());
    }

    #[test]
    fn local_preprocessing_without_compute_cores_errors() {
        let samples = vec![SampleWork::new(0.0, 1000, 0.01); 10];
        let spec = EpochSpec::new(samples, 4, GpuModel::AlexNet);
        let config = testbed().with_compute_cores(0);
        assert_eq!(simulate_epoch(&config, &spec), Err(SimError::NoComputeCores));
    }

    #[test]
    fn traffic_is_exact_sum() {
        let samples: Vec<_> = (0..100u64).map(|i| SampleWork::new(0.0, 1000 + i, 0.001)).collect();
        let expected: u64 = samples.iter().map(|s| s.transfer_bytes).sum();
        let spec = EpochSpec::new(samples, 16, GpuModel::AlexNet);
        let stats = simulate_epoch(&testbed(), &spec).unwrap();
        assert_eq!(stats.traffic_bytes, expected);
    }

    #[test]
    fn prefetch_window_bounds_lead() {
        // With a window of 1 and a slow GPU, the loader cannot sprint ahead:
        // epoch time approaches sum of per-batch (transfer + gpu) serialized.
        let mut config = testbed();
        config.prefetch_batches = 1;
        let samples = vec![SampleWork::new(0.0, 1_000_000, 0.0); 64];
        let spec = EpochSpec::new(samples, 16, GpuModel::Custom { seconds_per_image: 0.01 });
        let narrow = simulate_epoch(&config, &spec).unwrap();
        let wide = simulate_epoch(&testbed(), &spec).unwrap();
        assert!(
            narrow.epoch_seconds > wide.epoch_seconds * 1.05,
            "narrow {} wide {}",
            narrow.epoch_seconds,
            wide.epoch_seconds
        );
    }

    #[test]
    fn deterministic() {
        let samples = vec![SampleWork::new(0.002, 123_456, 0.004); 1000];
        let spec = EpochSpec::new(samples, 64, GpuModel::ResNet18);
        let a = simulate_epoch(&testbed(), &spec).unwrap();
        let b = simulate_epoch(&testbed(), &spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn figure_1d_shape_gpu_utilization_ordering() {
        // Same data-bound pipeline, three models: utilization must order
        // ResNet50 > ResNet18 > AlexNet, with ResNet50 near max.
        let samples = vec![SampleWork::new(0.0, 120_000, 0.002); 4096];
        let make = |gpu| EpochSpec::new(samples.clone(), 256, gpu);
        let alex = simulate_epoch(&testbed(), &make(GpuModel::AlexNet)).unwrap();
        let r18 = simulate_epoch(&testbed(), &make(GpuModel::ResNet18)).unwrap();
        let r50 = simulate_epoch(&testbed(), &make(GpuModel::ResNet50)).unwrap();
        assert!(r50.gpu_utilization() > 0.85, "r50 {}", r50.gpu_utilization());
        assert!(r18.gpu_utilization() < r50.gpu_utilization());
        assert!(alex.gpu_utilization() < r18.gpu_utilization());
        assert!(alex.gpu_utilization() < 0.25, "alexnet {}", alex.gpu_utilization());
    }
}
