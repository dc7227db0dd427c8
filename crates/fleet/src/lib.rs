//! Sharded multi-storage-node serving for the SOPHON data path.
//!
//! The paper's testbed is a single storage node behind one 500 Mbps link;
//! this crate is the scaling lever the ROADMAP names first: spread the
//! corpus over a **fleet** of storage nodes so no single node's
//! preprocessing cores or uplink becomes the bottleneck.
//!
//! * [`ShardMap`] — deterministic consistent-hash placement with a
//!   configurable replication factor: same `(seed, nodes, replication)`
//!   triple ⇒ byte-identical shard map everywhere, no coordination
//!   service needed. It lives in `cluster`, beside the owner-list routing
//!   it feeds, and is re-exported here.
//! * [`FleetTransport`] — a scatter-gather [`storage::FetchTransport`]
//!   that fans each batch out to the owning shards, hedges groups that
//!   outlive a deadline to replica nodes (first response wins), and fails
//!   over permanently around dead nodes.
//! * [`FleetStats`] — per-node routing counters plus hedge/failover
//!   tallies.
//!
//! Planning against per-node budgets lives in
//! `sophon_planner::ext::sharding`; the virtual-time fleet simulator lives
//! in `cluster::fleet`; the live multi-server TCP harness lives in
//! `storage::multi`. All three agree on ownership because they all consume
//! the same [`ShardMap`].
//!
//! # Example
//!
//! ```
//! use fleet::ShardMap;
//!
//! let map = ShardMap::new(4, 2, 2024);
//! let owners = map.owners(17);
//! assert_eq!(owners.len(), 2, "primary + one replica");
//! assert_eq!(map.owners(17), owners, "placement is deterministic");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod transport;

pub use cluster::ShardMap;
pub use transport::FleetStats;
pub use transport::FleetTransport;
