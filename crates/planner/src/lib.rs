//! SOPHON — **S**electively **O**ffloading **P**reprocessing with **H**ybrid
//! **O**perations **N**ear-storage.
//!
//! A Rust reproduction of the HotStorage '24 paper "A Selective
//! Preprocessing Offloading Framework for Reducing Data Traffic in DL
//! Training" (Wang, Waldspurger, Sundararaman). SOPHON reduces
//! storage→compute traffic in disaggregated DL training by offloading, per
//! sample, exactly the prefix of the preprocessing pipeline that minimizes
//! bytes on the wire — while making sure the storage node's CPU never
//! becomes the new bottleneck.
//!
//! This crate is the planner: the paper's architecture (Figure 2) as pure
//! functions of per-sample profiles and resource budgets. It opens no
//! socket and depends on no serving crate; the live loader and the
//! `sophon-sim` tool live in `sophon-core` (lib `sophon`), which re-exports
//! every module here one hop deep.
//!
//! * [`profiler`] — the two-stage profiler. Stage 1 classifies the workload
//!   (GPU- / CPU- / I/O-bound) from three isolated 50-batch probes; stage 2
//!   collects per-sample stage sizes and op costs "on the fly" during the
//!   first (non-offloaded) epoch.
//! * [`engine`] — the decision engine (§3.2): ranks samples by *offloading
//!   efficiency* (bytes saved per storage-CPU second) and greedily offloads
//!   while the network remains the predominant cost.
//! * [`policy`] — SOPHON plus the paper's baselines (`No-Off`, `All-Off`,
//!   `FastFlow`, `Resize-Off`) behind one [`policy::Policy`] trait.
//! * [`runner`] — end-to-end experiment driver: corpus → profiles → plan →
//!   simulated epoch, producing the numbers in Figures 3 and 4.
//! * [`ext`] — the paper's future-work extensions, implemented: selective
//!   re-compression of offloaded samples, a multi-tenant storage-CPU
//!   scheduler, and the one fleet planner ([`ext::sharding::plan_fleet`])
//!   whose inputs cover sharding, heterogeneous CPU speeds, the
//!   near-compute cache, degraded nodes and the fidelity floor.
//!
//! # Quickstart
//!
//! ```
//! use sophon_planner::prelude::*;
//!
//! // A small OpenImages-like corpus and the paper's testbed.
//! let dataset = datasets::DatasetSpec::openimages_like(2_048, 7);
//! let config = cluster::ClusterConfig::paper_testbed(48);
//! let scenario = Scenario::new(dataset, config, cluster::GpuModel::AlexNet, 256);
//!
//! let sophon = scenario.run(&SophonPolicy::default())?;
//! let no_off = scenario.run(&NoOffPolicy)?;
//! // SOPHON cuts traffic and epoch time on this I/O-bound workload.
//! assert!(sophon.epoch.traffic_bytes < no_off.epoch.traffic_bytes);
//! assert!(sophon.epoch.epoch_seconds < no_off.epoch.epoch_seconds);
//! # Ok::<(), sophon_planner::SophonError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod engine;
mod error;
pub mod explain;
pub mod ext;
mod metrics;
mod plan;
pub mod policy;
pub mod profiler;
pub mod runner;
pub mod workload;

pub use error::SophonError;
pub use metrics::{Bottleneck, CostVector};
pub use plan::{OffloadPlan, PlanSummary};

/// Convenient glob-import surface for examples and benches.
pub mod prelude {
    pub use crate::engine::DecisionEngine;
    pub use crate::policy::{
        AllOffPolicy, FastFlowPolicy, NoOffPolicy, Policy, ResizeOffPolicy, SophonPolicy,
    };
    pub use crate::profiler::{Stage1Probe, WorkloadClass};
    pub use crate::runner::{RunReport, Scenario, TrainingRequest};
    pub use crate::workload::ModalWorkload;
    pub use crate::{Bottleneck, CostVector, OffloadPlan, SophonError};
}
