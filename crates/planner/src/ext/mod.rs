//! Implemented extensions from the paper's future-work section (§6):
//!
//! * [`compression`] — selectively re-compress offloaded intermediates
//!   before transfer, trading extra storage-node CPU for further traffic
//!   reduction.
//! * [`multitenant`] — a storage-side CPU scheduler that splits cores among
//!   concurrent training jobs by marginal epoch-time gain.
//!
//! * [`sharding`] — the fleet planner over a [`cluster::ShardMap`]:
//!   [`sharding::plan_fleet`] runs the greedy engine per shard against each
//!   node's own cores and link. Its request carries every other planning axis as data:
//!   heterogeneous CPU types (a node `speed` other than `1.0`) and the
//!   near-compute cache.
//! * [`caching`] — cache selection for the near-compute sample cache
//!   (`cache` crate) and the warm baseline the fleet planner starts from:
//!   cached samples drop out of `T_Net` and the greedy engine re-plans the
//!   residual set.
//!
//! Plus what falls out of the same machinery:
//!
//! * [`provisioning`] — the smallest storage-core grant meeting a target
//!   epoch time (the inverse of the paper's Figure 4).
//! * [`feedback`] — live telemetry closing the loop mid-epoch: stage
//!   observations become drift verdicts (`telemetry` crate), and a
//!   cooldown-gated controller swaps in plans recomputed against the
//!   estimated node parameters without disturbing batch identity.

pub mod caching;
pub mod compression;
pub mod feedback;
pub mod multitenant;
pub mod provisioning;
pub mod sharding;
