//! Multi-tenant serving primitives.
//!
//! The paper offloads preprocessing for *one* training job; production
//! fleets serve many concurrent jobs against shared storage CPU, links,
//! and caches. This crate holds the tenancy vocabulary the rest of the
//! workspace threads through the serving stack:
//!
//! * [`TenantId`] — the wire-level identity a request frame carries;
//! * [`TenantSpec`] / [`TenantPolicy`] — per-tenant weight, byte quota,
//!   and in-flight bound, with a permissive single-tenant default so
//!   existing single-job deployments are unaffected;
//! * [`ByteBudget`] — a token bucket over virtual `f64` seconds, usable
//!   unchanged by the real TCP server (wall-clock offsets) and the
//!   cluster simulator (virtual time);
//! * [`DwrrScheduler`] — deficit-weighted round robin over per-tenant
//!   FIFO queues, the dispatch order for shared storage resources.
//!
//! Everything here is deterministic and allocation-light; the crate has
//! no I/O and no clock of its own — callers supply `now`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod budget;
mod dwrr;
mod spec;

pub use budget::ByteBudget;
pub use dwrr::DwrrScheduler;
pub use spec::{TenantId, TenantPolicy, TenantSpec};

/// Per-tenant serving counters, maintained by whoever dispatches work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests admitted into the scheduler.
    pub admitted: u64,
    /// Requests rejected by admission control (over quota or over the
    /// in-flight bound).
    pub throttled: u64,
    /// Responses completed.
    pub completed: u64,
    /// Payload bytes sent to this tenant.
    pub bytes_sent: u64,
}
