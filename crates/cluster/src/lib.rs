//! Discrete-event simulator of a disaggregated DL training cluster.
//!
//! Reproduces the paper's two-node testbed: a **storage node** (in-memory
//! dataset, configurable CPU cores for near-storage preprocessing), a
//! bandwidth-capped **link** (500 Mbps in the evaluation), and a **compute
//! node** (CPU cores for local preprocessing, one GPU). An epoch flows each
//! sample through up to four stages:
//!
//! ```text
//! storage CPU (offloaded prefix) → link transfer → compute CPU (suffix)
//!                                → GPU (per batch, once all samples ready)
//! ```
//!
//! Stages are pipelined: every resource is a FIFO queue (CPU pools are
//! multi-server), and a bounded prefetch window keeps the loader from
//! running arbitrarily far ahead of the GPU, as in a real `DataLoader`.
//! Time is virtual, so simulating a 40 000-sample epoch takes milliseconds
//! and is exactly reproducible.
//!
//! The simulator is policy-agnostic: it consumes per-sample
//! [`SampleWork`] (storage CPU seconds, bytes on the wire, compute CPU
//! seconds) produced by the `sophon` crate's policies, and returns
//! [`EpochStats`] (epoch time, traffic, utilizations) — the quantities
//! plotted in the paper's Figures 1d, 3, and 4. [`simulate_fleet_epoch`]
//! runs the same epoch over N storage nodes, and [`simulate_training`] is
//! the one multi-epoch run (profiling / cold epoch, then steady epochs) over
//! either. [`ShardMap`] is the consistent-hash placement those fleet runs,
//! the planner and the live transport all route by; a fleet run reads it
//! as one flat [`OwnerTable`].
//!
//! # Example
//!
//! ```
//! use cluster::{ClusterConfig, EpochSpec, GpuModel, SampleWork};
//! use netsim::Bandwidth;
//!
//! let config = ClusterConfig::paper_testbed(48); // 48 storage cores
//! let samples = vec![SampleWork::new(0.0, 300_000, 0.030); 1024];
//! let spec = EpochSpec::new(samples, 256, GpuModel::AlexNet);
//! let stats = cluster::simulate_epoch(&config, &spec)?;
//! assert!(stats.epoch_seconds > 0.0);
//! assert_eq!(stats.traffic_bytes, 1024 * 300_000);
//! # Ok::<(), cluster::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod config;
mod fleet;
mod gpu;
pub mod multitenant;
mod placement;
mod resources;
mod sim;
pub mod stagegraph;
mod stats;
pub mod trace;
mod training;
mod workload;

pub use config::ClusterConfig;
pub use fleet::{simulate_fleet_epoch, FleetEpochStats};
pub use gpu::GpuModel;
pub use multitenant::{simulate_multi_tenant, MultiTenantRun, TenantRunStats, TenantWorkload};
pub use placement::{OwnerTable, ShardMap};
pub use sim::{simulate_epoch, simulate_epoch_traced, SimError};
pub use stagegraph::{
    run_stage_graph, EpochDirective, FleetNodeConfig, KillEvent, NodeEpochStats, NodeUpdate,
    StageHooks, StageKind, StageSample,
};
pub use stats::EpochStats;
pub use training::{simulate_training, TrainingSpec, TrainingStats};
pub use workload::{EpochSpec, SampleWork};
