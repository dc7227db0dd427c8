//! The two-stage profiler (paper §3.1).
//!
//! Stage 1 ([`Stage1Probe`]) answers *"does this workload need offloading at
//! all?"* by measuring GPU, I/O, and CPU throughput in isolation over 50
//! batches — a negligible slice of a multi-epoch job. Only I/O-bound
//! workloads proceed.
//!
//! Stage 2 ([`stage2`]) collects per-sample stage sizes and operation costs
//! *on the fly*: the first training epoch runs without offloading and
//! doubles as the measurement pass, so profiling adds no extra epoch.

mod stage1;
pub mod stage2;

#[cfg(test)]
pub(crate) use stage1::probe_runs;
pub use stage1::{Stage1Probe, WorkloadClass};
pub(crate) use stage2::ProfileSet;
