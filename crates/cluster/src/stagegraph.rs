//! The unified stage-graph simulation core.
//!
//! Every simulator in this crate — single-node ([`crate::simulate_epoch`]),
//! traced, fleet ([`crate::simulate_fleet_epoch`]), and multi-epoch
//! ([`crate::simulate_training`]) — is one
//! configuration of the same machine: an epoch is a set of samples routed
//! through a graph of FIFO resource stages,
//!
//! ```text
//!            per node n:                        shared:
//! sample i ─▶ read[n] ─▶ storage CPU[n] ─▶ link[n] ─▶ compute CPU ─▶ GPU
//! ```
//!
//! with a bounded prefetch window gating stage entry (the loader may not
//! fetch batch `b` before batch `b - prefetch_batches` leaves the GPU) and
//! a pluggable [`SampleRouting`] deciding which node serves each sample.
//! The two-node paper testbed is the degenerate graph (one node, every
//! sample routed to it); the fleet model is the general one (N nodes,
//! replica failover with kill thresholds and per-node straggler speeds).
//!
//! CPU stages that a configuration does not provision are represented
//! explicitly as `CpuStage::Unused` rather than as phantom 1-core pools:
//! routing work to an unused stage is a typed error
//! ([`crate::SimError::NoStorageCores`] /
//! [`crate::SimError::NoComputeCores`]), and an unused stage reports zero
//! busy seconds.
//!
//! [`run_stage_graph`] is deterministic and purely virtual-time; the public
//! wrappers in `sim.rs`, `training.rs`, and `fleet.rs` are thin
//! adapters that build a node vector and a routing and reshape the
//! resulting [`StageGraphRun`].

use netsim::{Bandwidth, VirtualLink};

use crate::resources::{CpuPool, FifoServer};
use crate::trace::SampleTrace;
use crate::{ClusterConfig, EpochSpec, EpochStats, OwnerTable, SimError};

/// One storage node's resources in the stage graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetNodeConfig {
    /// CPU cores available for offloaded preprocessing on this node.
    pub storage_cores: usize,
    /// This node's link to the compute node, in bits per second.
    pub link_bps: f64,
    /// Service-rate multiplier: `1.0` is nominal, `0.5` is a straggler
    /// running reads and preprocessing at half speed.
    pub speed: f64,
}

impl FleetNodeConfig {
    /// A node matching the storage side of `config` at nominal speed.
    pub fn nominal(config: &ClusterConfig) -> FleetNodeConfig {
        FleetNodeConfig {
            storage_cores: config.storage_cores,
            link_bps: config.link_bps,
            speed: 1.0,
        }
    }

    /// Returns a copy with a different speed multiplier.
    ///
    /// # Panics
    ///
    /// Panics when `speed` is not finite and positive.
    #[must_use]
    pub fn with_speed(mut self, speed: f64) -> FleetNodeConfig {
        assert!(speed.is_finite() && speed > 0.0, "invalid node speed {speed}");
        self.speed = speed;
        self
    }
}

/// A storage node dying partway through an epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillEvent {
    /// The node that dies.
    pub node: usize,
    /// Fraction of the epoch's samples issued before the death; samples
    /// from that point on cannot use the node. `0.0` means dead from the
    /// start (e.g. steady-state epochs after a mid-run failure).
    pub after_fraction: f64,
}

impl KillEvent {
    /// Creates a kill event.
    ///
    /// # Panics
    ///
    /// Panics when `after_fraction` is outside `[0, 1]`.
    pub fn new(node: usize, after_fraction: f64) -> KillEvent {
        assert!(
            (0.0..=1.0).contains(&after_fraction),
            "kill fraction {after_fraction} outside [0, 1]"
        );
        KillEvent { node, after_fraction }
    }
}

/// Translates kill events into per-node sample-index thresholds: node `n`
/// is unusable for samples issued at or after `thresholds[n]`.
///
/// # Errors
///
/// Returns [`SimError::KillOutOfRange`] when an event names a node outside
/// `0..nodes`.
pub(crate) fn kill_thresholds(
    kills: &[KillEvent],
    nodes: usize,
    samples: usize,
) -> Result<Vec<usize>, SimError> {
    let mut dead_from = vec![usize::MAX; nodes];
    for event in kills {
        if event.node >= nodes {
            return Err(SimError::KillOutOfRange { node: event.node, nodes });
        }
        let at = (event.after_fraction * samples as f64).floor() as usize;
        dead_from[event.node] = dead_from[event.node].min(at);
    }
    Ok(dead_from)
}

/// A fault observed while routing samples through the stage graph.
///
/// Emitted through [`StageHooks::fault`] the
/// moment the router works around a failure, so callers (degraded-mode
/// replanners, chaos harnesses) can react mid-epoch instead of reading
/// aggregate counters after the fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A sample skipped a dead owner and failed over to a later replica.
    Failover {
        /// The sample being routed (its index in the epoch).
        sample: u64,
        /// The dead node that was skipped.
        dead_node: usize,
    },
}

/// Which FIFO stage of the graph a [`StageSample`] was measured at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// The serving node's storage read stage.
    Read,
    /// The serving node's offloaded-preprocessing CPU stage.
    StorageCpu,
    /// The serving node's link to the compute node.
    Link,
    /// The shared compute-node CPU stage.
    ComputeCpu,
}

/// One stage completion, as seen by [`StageHooks::stage`].
///
/// `service_seconds` is the time the stage actively worked on the sample;
/// `wait_seconds` is the queueing delay in front of the stage
/// (`done - ready - service`). A telemetry consumer divides observed
/// service time by the nominal expectation to get the drift-channel ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSample {
    /// The node that served the sample. The compute CPU stage is shared;
    /// its samples carry the serving node for attribution.
    pub node: usize,
    /// Which stage this measurement came from.
    pub stage: StageKind,
    /// The sample's index in loading order.
    pub sample: u64,
    /// The batch the sample belongs to.
    pub batch: u64,
    /// Virtual time the stage finished the sample.
    pub(crate) done: f64,
    /// Seconds the stage actively spent on the sample.
    pub service_seconds: f64,
    /// Seconds the sample queued before the stage started it.
    pub(crate) wait_seconds: f64,
    /// The work the sample was issued with: the latest directive's
    /// replacement works, or the spec's own.
    pub work: crate::SampleWork,
}

/// A mid-epoch change to one node's modelled resources — a chaos event
/// (straggler onset, link squeeze) or a recovery.
///
/// Fields left `None` keep their current value; non-finite or non-positive
/// replacements are ignored rather than corrupting the graph.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeUpdate {
    /// The node to update.
    pub node: usize,
    /// New service-rate multiplier for reads and offloaded preprocessing.
    pub speed: Option<f64>,
    /// New link bandwidth in bits per second.
    pub link_bps: Option<f64>,
}

/// What the per-batch controller hook ([`StageHooks::batch`]) wants changed
/// before the next batch is issued.
#[derive(Debug, Clone, Default)]
pub struct EpochDirective {
    /// Replacement per-sample works (a revised offloading plan lowered to
    /// sim works). Must be parallel to the epoch's samples; only samples
    /// not yet issued are affected.
    pub works: Option<Vec<crate::SampleWork>>,
    /// Node resource changes (chaos injections or controller estimates).
    pub node_updates: Vec<NodeUpdate>,
}

/// One node's share of an epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEpochStats {
    /// Samples this node served.
    pub samples_served: u64,
    /// Bytes this node pushed over its link.
    pub traffic_bytes: u64,
    /// Core-seconds of offloaded preprocessing executed here.
    pub storage_cpu_busy_seconds: f64,
    /// Seconds this node's link spent transferring.
    pub link_busy_seconds: f64,
}

/// A CPU stage that may be explicitly absent.
///
/// Configurations with zero cores at a stage used to be modelled with a
/// phantom 1-core pool that work was carefully routed around; the explicit
/// variant makes "this stage does not exist" a state the scheduler can
/// reject with a typed error instead of an invariant the caller must
/// remember.
#[derive(Debug, Clone)]
pub(crate) enum CpuStage {
    /// A provisioned pool.
    Active(CpuPool),
    /// The stage does not exist in this configuration; routing work to it
    /// is an error.
    Unused,
}

impl CpuStage {
    /// A stage with `cores` cores; zero cores means [`CpuStage::Unused`].
    pub(crate) fn with_cores(cores: usize) -> CpuStage {
        if cores == 0 {
            CpuStage::Unused
        } else {
            CpuStage::Active(CpuPool::new(cores))
        }
    }

    /// Schedules `seconds` of one core starting no earlier than `ready`;
    /// `None` when the stage is unused.
    pub(crate) fn run(&mut self, ready: f64, seconds: f64) -> Option<f64> {
        match self {
            CpuStage::Active(pool) => Some(pool.run(ready, seconds)),
            CpuStage::Unused => None,
        }
    }

    /// Total core-seconds executed (zero for an unused stage).
    pub(crate) fn busy_seconds(&self) -> f64 {
        match self {
            CpuStage::Active(pool) => pool.busy_seconds(),
            CpuStage::Unused => 0.0,
        }
    }
}

/// How samples are assigned to serving nodes.
#[derive(Debug, Clone, Copy)]
pub enum SampleRouting<'a> {
    /// Every sample is served by node 0 (the two-node testbed).
    SingleNode,
    /// `owners.owners(i)` is sample `i`'s ordered replica set (primary
    /// first); the sample is served by its first owner whose kill threshold
    /// (`dead_from`, from `kill_thresholds`) has not yet passed when the
    /// sample is issued. Skipped dead owners count as failovers.
    ReplicaFailover {
        /// Per-sample ordered replica sets, parallel to the epoch's
        /// samples.
        owners: &'a OwnerTable,
        /// Per-node death thresholds (sample index at which the node
        /// becomes unusable), parallel to the node vector.
        dead_from: &'a [usize],
    },
}

/// The raw outcome of one stage-graph epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct StageGraphRun {
    /// Virtual seconds until the last batch left the GPU.
    pub epoch_seconds: f64,
    /// Seconds the GPU spent computing.
    pub(crate) gpu_busy_seconds: f64,
    /// Core-seconds of preprocessing executed on the compute node.
    pub(crate) compute_cpu_busy_seconds: f64,
    /// Per-node read/CPU/link accounting, parallel to the node vector.
    pub(crate) per_node: Vec<NodeEpochStats>,
    /// Samples that were rerouted past a dead owner.
    pub(crate) failovers: u64,
    /// Samples processed.
    pub(crate) samples: u64,
    /// GPU batches executed.
    pub batches: u64,
    /// GPUs in the configuration.
    pub(crate) gpus: u64,
}

impl StageGraphRun {
    /// Collapses the per-node breakdown into aggregate epoch statistics
    /// (traffic, storage CPU, and link busy-seconds summed over nodes).
    pub fn total_stats(&self) -> EpochStats {
        EpochStats {
            epoch_seconds: self.epoch_seconds,
            traffic_bytes: self.per_node.iter().map(|n| n.traffic_bytes).sum(),
            gpu_busy_seconds: self.gpu_busy_seconds,
            storage_cpu_busy_seconds: self
                .per_node
                .iter()
                .map(|n| n.storage_cpu_busy_seconds)
                .sum(),
            compute_cpu_busy_seconds: self.compute_cpu_busy_seconds,
            link_busy_seconds: self.per_node.iter().map(|n| n.link_busy_seconds).sum(),
            samples: self.samples,
            batches: self.batches,
            gpus: self.gpus,
        }
    }
}

/// The optional instruments of one [`run_stage_graph`] call. Every field
/// defaults to `None`, so a plain run passes `StageHooks::default()` and an
/// instrumented one names only what it wants with struct-update syntax.
#[derive(Default)]
pub struct StageHooks<'a> {
    /// Receives one [`SampleTrace`] per sample, appended in loading order
    /// (`batch_done` is filled as each batch leaves the GPU).
    pub trace: Option<&'a mut Vec<SampleTrace>>,
    /// Invoked once per [`FaultEvent`], in sample-issue order, the moment
    /// the router works around a failure — *before* the run returns, which
    /// is what a degraded-mode replanner needs.
    pub fault: Option<&'a mut dyn FnMut(FaultEvent)>,
    /// Invoked once per stage completion (read, offloaded CPU, link, local
    /// CPU) with that stage's service and queueing time — the raw material
    /// for telemetry rate/drift channels.
    pub stage: Option<&'a mut dyn FnMut(StageSample)>,
    /// Invoked before each batch is issued with `(batch, now)` (`now` = the
    /// previous batch's GPU completion, `0.0` for batch 0); returns an
    /// [`EpochDirective`]: optional replacement sample works (a revised
    /// offloading plan lowered to works — only not-yet-issued samples are
    /// affected) and node resource updates (chaos events or controller
    /// estimates), taking effect at the batch boundary. The live loader
    /// has no such hook: it runs each epoch under one plan.
    pub batch: Option<&'a mut dyn FnMut(u64, f64) -> EpochDirective>,
}

/// Simulates one epoch of `spec` over the stage graph defined by `nodes`
/// and `routing`, with `base` supplying the shared compute side (cores,
/// GPUs, prefetch window), the nominal storage read rate, and the link
/// latency.
///
/// Per-sample flow (all FIFO, pipelined): storage read on the serving node
/// (scaled by its `speed`), offloaded preprocessing on that node's CPU
/// stage (skipped when the sample offloads nothing), transfer over that
/// node's link, remaining preprocessing on the shared compute CPU stage
/// (skipped when fully offloaded), then one GPU step per batch once every
/// sample of the batch is ready.
///
/// `hooks` instruments the run (see [`StageHooks`]). Routing is untouched
/// by batch directives: which node serves a sample never changes
/// mid-epoch, so sample order — and hence any order-derived batch digest —
/// is identical under any directive sequence.
///
/// # Errors
///
/// * [`SimError::EmptyFleet`] — `nodes` is empty.
/// * [`SimError::OwnersMismatch`] / [`SimError::OwnerOutOfRange`] —
///   malformed replica sets.
/// * [`SimError::SampleUnreachable`] — a sample's owners are all dead.
/// * [`SimError::NoStorageCores`] / [`SimError::NoComputeCores`] — work
///   routed to an `CpuStage::Unused` stage.
/// * [`SimError::NoGpus`] — the configuration has zero GPUs.
/// * [`SimError::WorksMismatch`] — a directive's replacement works are not
///   parallel to the epoch's samples.
/// * [`SimError::UpdateOutOfRange`] — a node update names a node outside
///   the fleet.
pub fn run_stage_graph(
    base: &ClusterConfig,
    nodes: &[FleetNodeConfig],
    spec: &EpochSpec,
    routing: SampleRouting<'_>,
    mut hooks: StageHooks<'_>,
) -> Result<StageGraphRun, SimError> {
    if nodes.is_empty() {
        return Err(SimError::EmptyFleet);
    }
    if let SampleRouting::ReplicaFailover { owners, dead_from } = &routing {
        if owners.len() != spec.samples.len() {
            return Err(SimError::OwnersMismatch {
                owners: owners.len(),
                samples: spec.samples.len(),
            });
        }
        if dead_from.len() != nodes.len() {
            return Err(SimError::ThresholdsMismatch {
                thresholds: dead_from.len(),
                nodes: nodes.len(),
            });
        }
        for (i, replicas) in owners.iter().enumerate() {
            for &owner in replicas {
                if owner >= nodes.len() {
                    return Err(SimError::OwnerOutOfRange {
                        sample: i as u64,
                        owner,
                        nodes: nodes.len(),
                    });
                }
            }
        }
    }

    let needs_compute_cpu = spec.samples.iter().any(|s| s.compute_cpu_seconds > 0.0);
    if needs_compute_cpu && base.compute_cores == 0 {
        return Err(SimError::NoComputeCores);
    }
    if base.gpus == 0 {
        return Err(SimError::NoGpus);
    }

    let mut reads: Vec<FifoServer> = nodes.iter().map(|_| FifoServer::new()).collect();
    let mut storage_cpus: Vec<CpuStage> =
        nodes.iter().map(|n| CpuStage::with_cores(n.storage_cores)).collect();
    let mut links: Vec<VirtualLink> = nodes
        .iter()
        .map(|n| VirtualLink::with_latency(Bandwidth::from_bps(n.link_bps), base.link_latency))
        .collect();
    let mut compute_cpu = CpuStage::with_cores(base.compute_cores);
    // Data-parallel GPUs: each batch occupies one GPU; batches may overlap
    // across GPUs (gradient sync is folded into the per-batch time).
    let mut gpu = CpuPool::new(base.gpus);
    let mut served = vec![0u64; nodes.len()];
    let mut failovers = 0u64;
    // Live-mutable node state: directives change speeds and link rates
    // mid-epoch without touching the caller's node vector.
    let mut speeds: Vec<f64> = nodes.iter().map(|n| n.speed).collect();
    let mut works_override: Option<Vec<crate::SampleWork>> = None;

    let batch_count = spec.batch_count();
    let mut batch_done = vec![0.0f64; batch_count];
    let gpu_seconds_per_image = spec.gpu.seconds_per_image();

    let mut sample_idx = 0usize;
    for batch in 0..batch_count {
        if let Some(control) = hooks.batch.as_deref_mut() {
            let now = if batch > 0 { batch_done[batch - 1] } else { 0.0 };
            let directive = control(batch as u64, now);
            if let Some(works) = directive.works {
                if works.len() != spec.samples.len() {
                    return Err(SimError::WorksMismatch {
                        got: works.len(),
                        samples: spec.samples.len(),
                    });
                }
                works_override = Some(works);
            }
            for update in directive.node_updates {
                if update.node >= nodes.len() {
                    return Err(SimError::UpdateOutOfRange {
                        node: update.node,
                        nodes: nodes.len(),
                    });
                }
                if let Some(speed) = update.speed {
                    if speed.is_finite() && speed > 0.0 {
                        speeds[update.node] = speed;
                    }
                }
                if let Some(bps) = update.link_bps {
                    if bps.is_finite() && bps > 0.0 {
                        links[update.node].set_bandwidth(Bandwidth::from_bps(bps));
                    }
                }
            }
        }
        // Prefetch gate: wait for batch `batch - window` to leave the GPU.
        let gate = if batch >= base.prefetch_batches {
            batch_done[batch - base.prefetch_batches]
        } else {
            0.0
        };
        let in_batch = spec.samples.len().saturating_sub(sample_idx).min(spec.batch_size);
        let mut batch_ready = gate;
        for _ in 0..in_batch {
            let w = works_override.as_ref().map_or(&spec.samples[sample_idx], |v| &v[sample_idx]);
            // Route: which node serves this sample.
            let node = match &routing {
                SampleRouting::SingleNode => 0,
                SampleRouting::ReplicaFailover { owners, dead_from } => {
                    let mut chosen = None;
                    for &owner in owners.owners(sample_idx) {
                        if sample_idx < dead_from[owner] {
                            chosen = Some(owner);
                            break;
                        }
                        failovers += 1;
                        if let Some(observe) = hooks.fault.as_deref_mut() {
                            observe(FaultEvent::Failover {
                                sample: sample_idx as u64,
                                dead_node: owner,
                            });
                        }
                    }
                    match chosen {
                        Some(node) => node,
                        None => {
                            return Err(SimError::SampleUnreachable { sample: sample_idx as u64 })
                        }
                    }
                }
            };
            served[node] += 1;
            let speed = speeds[node];
            let observe_stage = |hook: &mut Option<&mut dyn FnMut(StageSample)>,
                                 stage: StageKind,
                                 ready: f64,
                                 done: f64,
                                 service_seconds: f64| {
                if let Some(observe) = hook.as_deref_mut() {
                    observe(StageSample {
                        node,
                        stage,
                        sample: sample_idx as u64,
                        batch: batch as u64,
                        done,
                        service_seconds,
                        wait_seconds: (done - ready - service_seconds).max(0.0),
                        work: *w,
                    });
                }
            };
            // 1. storage read on the serving node (scaled by its speed).
            let read_s = w.transfer_bytes as f64 / (base.storage_read_bytes_per_sec * speed);
            let read_done = reads[node].run(gate, read_s);
            observe_stage(&mut hooks.stage, StageKind::Read, gate, read_done, read_s);
            // 2. offloaded preprocessing on the serving node's CPU stage.
            let offload_done = if w.storage_cpu_seconds > 0.0 {
                let service = w.storage_cpu_seconds / speed;
                let done =
                    storage_cpus[node].run(read_done, service).ok_or(SimError::NoStorageCores)?;
                observe_stage(&mut hooks.stage, StageKind::StorageCpu, read_done, done, service);
                done
            } else {
                read_done
            };
            // 3. transfer over the serving node's own link.
            // `VirtualLink::transfer` serializes from submission order;
            // ready-time ordering is preserved because samples are
            // submitted in loading order and offload_done is produced by
            // FIFO pools.
            let link_service =
                links[node].bandwidth().transfer_seconds(w.transfer_bytes) + base.link_latency;
            let transfer_done = links[node].transfer(offload_done, w.transfer_bytes);
            observe_stage(
                &mut hooks.stage,
                StageKind::Link,
                offload_done,
                transfer_done,
                link_service,
            );
            // 4. local preprocessing on the shared compute stage.
            let local_done = if w.compute_cpu_seconds > 0.0 {
                let done = compute_cpu
                    .run(transfer_done, w.compute_cpu_seconds)
                    .ok_or(SimError::NoComputeCores)?;
                observe_stage(
                    &mut hooks.stage,
                    StageKind::ComputeCpu,
                    transfer_done,
                    done,
                    w.compute_cpu_seconds,
                );
                done
            } else {
                transfer_done
            };
            batch_ready = batch_ready.max(local_done);
            if let Some(t) = hooks.trace.as_deref_mut() {
                t.push(SampleTrace {
                    sample: sample_idx as u64,
                    batch: batch as u64,
                    gate,
                    read_done,
                    offload_done,
                    transfer_done,
                    local_done,
                    batch_done: 0.0, // filled once the batch's GPU step ends
                });
            }
            sample_idx += 1;
        }
        // 5. GPU step for the batch.
        let gpu_s = gpu_seconds_per_image * in_batch as f64;
        batch_done[batch] = gpu.run(batch_ready, gpu_s);
        if let Some(t) = hooks.trace.as_deref_mut() {
            for entry in t.iter_mut().rev() {
                if entry.batch != batch as u64 {
                    break;
                }
                entry.batch_done = batch_done[batch];
            }
        }
    }

    let per_node: Vec<NodeEpochStats> = (0..nodes.len())
        .map(|n| NodeEpochStats {
            samples_served: served[n],
            traffic_bytes: links[n].total_bytes(),
            storage_cpu_busy_seconds: storage_cpus[n].busy_seconds(),
            link_busy_seconds: links[n].busy_seconds(),
        })
        .collect();
    Ok(StageGraphRun {
        epoch_seconds: batch_done.last().copied().unwrap_or(0.0),
        gpu_busy_seconds: gpu.busy_seconds(),
        compute_cpu_busy_seconds: compute_cpu.busy_seconds(),
        per_node,
        failovers,
        samples: spec.samples.len() as u64,
        batches: batch_count as u64,
        gpus: base.gpus as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuModel, SampleWork};

    fn base() -> ClusterConfig {
        ClusterConfig::paper_testbed(4)
    }

    fn spec(n: usize) -> EpochSpec {
        EpochSpec::new(vec![SampleWork::new(0.001, 100_000, 0.002); n], 32, GpuModel::AlexNet)
    }

    #[test]
    fn unused_stage_reports_zero_busy() {
        let mut stage = CpuStage::with_cores(0);
        assert!(matches!(stage, CpuStage::Unused));
        assert_eq!(stage.run(0.0, 1.0), None);
        assert_eq!(stage.busy_seconds(), 0.0);
        let mut live = CpuStage::with_cores(2);
        assert_eq!(live.run(0.0, 1.0), Some(1.0));
        assert_eq!(live.busy_seconds(), 1.0);
    }

    #[test]
    fn empty_fleet_is_a_typed_error() {
        let err = run_stage_graph(
            &base(),
            &[],
            &spec(4),
            SampleRouting::SingleNode,
            StageHooks::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::EmptyFleet);
    }

    #[test]
    fn mismatched_owners_are_a_typed_error() {
        let nodes = [FleetNodeConfig::nominal(&base())];
        let owners = OwnerTable::new(1, vec![0; 3]);
        let dead = [usize::MAX];
        let err = run_stage_graph(
            &base(),
            &nodes,
            &spec(4),
            SampleRouting::ReplicaFailover { owners: &owners, dead_from: &dead },
            StageHooks::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::OwnersMismatch { owners: 3, samples: 4 });
    }

    #[test]
    fn out_of_range_owner_is_a_typed_error() {
        let nodes = [FleetNodeConfig::nominal(&base())];
        let owners = OwnerTable::new(1, vec![0, 7, 0, 0]);
        let dead = [usize::MAX];
        let err = run_stage_graph(
            &base(),
            &nodes,
            &spec(4),
            SampleRouting::ReplicaFailover { owners: &owners, dead_from: &dead },
            StageHooks::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::OwnerOutOfRange { sample: 1, owner: 7, nodes: 1 });
    }

    #[test]
    fn kill_thresholds_validate_node_indices() {
        let err = kill_thresholds(&[KillEvent::new(3, 0.5)], 2, 100).unwrap_err();
        assert_eq!(err, SimError::KillOutOfRange { node: 3, nodes: 2 });
        let ok = kill_thresholds(&[KillEvent::new(1, 0.5)], 2, 100).unwrap();
        assert_eq!(ok, vec![usize::MAX, 50]);
    }

    #[test]
    fn fault_hook_sees_every_failover_in_issue_order() {
        let nodes = vec![FleetNodeConfig::nominal(&base()); 2];
        // Primary node 1, replica node 0; node 1 dead from sample 2.
        let owners = OwnerTable::new(2, [1, 0].repeat(4));
        let dead = [usize::MAX, 2];
        let mut events = Vec::new();
        let mut hook = |e: FaultEvent| events.push(e);
        let run = run_stage_graph(
            &base(),
            &nodes,
            &spec(4),
            SampleRouting::ReplicaFailover { owners: &owners, dead_from: &dead },
            StageHooks { fault: Some(&mut hook), ..StageHooks::default() },
        )
        .unwrap();
        assert_eq!(run.failovers, 2);
        assert_eq!(
            events,
            vec![
                FaultEvent::Failover { sample: 2, dead_node: 1 },
                FaultEvent::Failover { sample: 3, dead_node: 1 },
            ]
        );
    }

    #[test]
    fn thresholds_mismatch_is_a_typed_error() {
        let nodes = vec![FleetNodeConfig::nominal(&base()); 2];
        let owners = OwnerTable::new(1, vec![0; 4]);
        let dead = [usize::MAX]; // one threshold for two nodes
        let err = run_stage_graph(
            &base(),
            &nodes,
            &spec(4),
            SampleRouting::ReplicaFailover { owners: &owners, dead_from: &dead },
            StageHooks::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::ThresholdsMismatch { thresholds: 1, nodes: 2 });
    }

    #[test]
    fn stage_hook_emits_causal_samples_for_every_stage() {
        let nodes = [FleetNodeConfig::nominal(&base())];
        let s = spec(8);
        let mut samples = Vec::new();
        let mut hook = |e: StageSample| samples.push(e);
        run_stage_graph(
            &base(),
            &nodes,
            &s,
            SampleRouting::SingleNode,
            StageHooks { stage: Some(&mut hook), ..StageHooks::default() },
        )
        .unwrap();
        // Every sample offloads and preprocesses locally: 4 stages each.
        assert_eq!(samples.len(), 8 * 4);
        for e in &samples {
            assert!(e.service_seconds > 0.0, "{e:?}");
            assert!(e.wait_seconds >= 0.0, "{e:?}");
            assert!(e.done >= e.service_seconds, "{e:?}");
        }
        let reads = samples.iter().filter(|e| e.stage == StageKind::Read).count();
        let links = samples.iter().filter(|e| e.stage == StageKind::Link).count();
        assert_eq!((reads, links), (8, 8));
    }

    #[test]
    fn directive_swaps_works_mid_epoch() {
        let nodes = [FleetNodeConfig::nominal(&base())];
        let s = spec(128); // 4 batches of 32, 100 KB per sample
        let slim = vec![crate::SampleWork::new(0.002, 10_000, 0.0); 128];
        let mut hook = |batch: u64, _now: f64| -> EpochDirective {
            if batch == 2 {
                EpochDirective { works: Some(slim.clone()), node_updates: Vec::new() }
            } else {
                EpochDirective::default()
            }
        };
        let mut events = Vec::new();
        let mut observe = |e: StageSample| events.push(e);
        let run = run_stage_graph(
            &base(),
            &nodes,
            &s,
            SampleRouting::SingleNode,
            StageHooks {
                batch: Some(&mut hook),
                stage: Some(&mut observe),
                ..StageHooks::default()
            },
        )
        .unwrap();
        // Batches 0-1 moved 100 KB per sample, batches 2-3 moved 10 KB.
        let expect = 64 * 100_000 + 64 * 10_000;
        assert_eq!(run.per_node[0].traffic_bytes, expect);
        // Every stage event carries the work its sample was issued with.
        assert!(!events.is_empty());
        for e in &events {
            let issued = if e.batch < 2 { s.samples[e.sample as usize] } else { slim[0] };
            assert_eq!(e.work, issued, "{e:?}");
        }
    }

    #[test]
    fn node_updates_slow_the_graph_mid_epoch() {
        let nodes = [FleetNodeConfig::nominal(&base())];
        let s = spec(128);
        let baseline =
            run_stage_graph(&base(), &nodes, &s, SampleRouting::SingleNode, StageHooks::default())
                .unwrap();
        let mut hook = |batch: u64, _now: f64| -> EpochDirective {
            let mut d = EpochDirective::default();
            if batch == 2 {
                // Straggler onset plus a link squeeze on node 0.
                d.node_updates.push(NodeUpdate {
                    node: 0,
                    speed: Some(0.25),
                    link_bps: Some(base().link_bps * 0.25),
                });
            }
            d
        };
        let squeezed = run_stage_graph(
            &base(),
            &nodes,
            &s,
            SampleRouting::SingleNode,
            StageHooks { batch: Some(&mut hook), ..StageHooks::default() },
        )
        .unwrap();
        assert!(
            squeezed.epoch_seconds > baseline.epoch_seconds * 1.5,
            "squeezed {} baseline {}",
            squeezed.epoch_seconds,
            baseline.epoch_seconds
        );
        // Non-finite and non-positive updates are ignored, not applied.
        let mut bad = |_: u64, _: f64| -> EpochDirective {
            EpochDirective {
                works: None,
                node_updates: vec![NodeUpdate {
                    node: 0,
                    speed: Some(f64::NAN),
                    link_bps: Some(-1.0),
                }],
            }
        };
        let unchanged = run_stage_graph(
            &base(),
            &nodes,
            &s,
            SampleRouting::SingleNode,
            StageHooks { batch: Some(&mut bad), ..StageHooks::default() },
        )
        .unwrap();
        assert_eq!(unchanged, baseline);
    }

    #[test]
    fn malformed_directives_are_typed_errors() {
        let nodes = [FleetNodeConfig::nominal(&base())];
        let s = spec(8);
        let mut short = |_: u64, _: f64| -> EpochDirective {
            EpochDirective {
                works: Some(vec![crate::SampleWork::new(0.0, 1, 0.0); 3]),
                node_updates: Vec::new(),
            }
        };
        let err = run_stage_graph(
            &base(),
            &nodes,
            &s,
            SampleRouting::SingleNode,
            StageHooks { batch: Some(&mut short), ..StageHooks::default() },
        )
        .unwrap_err();
        assert_eq!(err, SimError::WorksMismatch { got: 3, samples: 8 });

        let mut oob = |_: u64, _: f64| -> EpochDirective {
            EpochDirective {
                works: None,
                node_updates: vec![NodeUpdate { node: 5, speed: Some(1.0), link_bps: None }],
            }
        };
        let err = run_stage_graph(
            &base(),
            &nodes,
            &s,
            SampleRouting::SingleNode,
            StageHooks { batch: Some(&mut oob), ..StageHooks::default() },
        )
        .unwrap_err();
        assert_eq!(err, SimError::UpdateOutOfRange { node: 5, nodes: 1 });
    }

    #[test]
    fn single_node_routing_matches_replica_routing_to_node_zero() {
        let nodes = [FleetNodeConfig::nominal(&base())];
        let owners = OwnerTable::new(1, vec![0; 64]);
        let dead = [usize::MAX];
        let s = spec(64);
        let single =
            run_stage_graph(&base(), &nodes, &s, SampleRouting::SingleNode, StageHooks::default())
                .unwrap();
        let routed = run_stage_graph(
            &base(),
            &nodes,
            &s,
            SampleRouting::ReplicaFailover { owners: &owners, dead_from: &dead },
            StageHooks::default(),
        )
        .unwrap();
        assert_eq!(single, routed);
    }
}
