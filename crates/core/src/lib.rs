//! SOPHON — **S**electively **O**ffloading **P**reprocessing with **H**ybrid
//! **O**perations **N**ear-storage: the live runtime.
//!
//! The planner — profiler, decision engine, policies, extensions and the
//! simulated training runner — is the socket-free `sophon-planner` crate,
//! re-exported here one hop deep so `sophon::engine`, `sophon::ext`,
//! `sophon::prelude` and the rest resolve as before. This crate adds what
//! talks to a storage node:
//!
//! * [`loader`] — the offloading data loader a training loop consumes,
//!   over any `storage::FetchTransport`;
//! * [`live`] — the live lifecycle behind one builder: a [`live::Corpus`]
//!   materialised once and profiled from its stored bytes, and a
//!   [`live::Session`] that binds the storage nodes, builds the client
//!   stack and the loader, runs epochs and shuts the nodes down;
//! * [`cli`] — argument parsing for the `sophon-sim` tool.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod cli;
pub mod live;
pub mod loader;

pub use sophon_planner::{
    engine, explain, ext, policy, prelude, profiler, runner, OffloadPlan, SophonError,
};
