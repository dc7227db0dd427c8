//! Multi-tenant serving primitives, for the simulated extension.
//!
//! The paper offloads preprocessing for *one* training job, and the live
//! storage server serves one. Sharing a storage node among concurrent
//! jobs, with weights and byte quotas, is simulated
//! (`cluster::simulate_multi_tenant`) over this vocabulary:
//!
//! * [`TenantId`] — a tenant's identity;
//! * [`TenantSpec`] — per-tenant weight, byte quota and in-flight bound;
//! * [`ByteBudget`] — a token bucket over virtual `f64` seconds;
//! * [`DwrrScheduler`] — deficit-weighted round robin over per-tenant
//!   FIFO queues, the dispatch order for shared storage resources.
//!
//! Everything here is deterministic and allocation-light; the crate has
//! no I/O and no clock of its own — callers supply `now`.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod budget;
mod dwrr;
mod spec;

pub use budget::ByteBudget;
pub use dwrr::DwrrScheduler;
pub use spec::{TenantId, TenantSpec};
