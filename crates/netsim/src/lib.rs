//! Bandwidth-limited network models.
//!
//! The paper's testbed caps the storage↔compute link at 500 Mbps to induce a
//! remote-I/O bottleneck. This crate provides that link in two forms:
//!
//! * [`VirtualLink`] — a virtual-time FIFO link for the discrete-event
//!   cluster simulator: transfers serialize, each taking
//!   `bytes / bandwidth + latency` seconds, with exact byte accounting.
//! * [`TokenBucket`] — a wall-clock token bucket the live storage server
//!   paces its responses with: real bytes leave the socket at the
//!   configured rate.
//!
//! Plus the shared vocabulary types [`Bandwidth`] and [`TrafficMeter`].
//!
//! # Example
//!
//! ```
//! use netsim::{Bandwidth, VirtualLink};
//!
//! let mut link = VirtualLink::new(Bandwidth::from_mbps(500.0));
//! // A 12 GB epoch at 500 Mbps takes ~192 virtual seconds.
//! let done = link.transfer(0.0, 12_000_000_000);
//! assert!((done - 192.0).abs() < 1.0, "completion {done}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod bandwidth;
mod link;
mod meter;
mod token_bucket;

pub use bandwidth::Bandwidth;
pub use link::VirtualLink;
pub use meter::{MeterSnapshot, TrafficMeter};
pub use token_bucket::TokenBucket;
