//! Implemented extensions from the paper's future-work section (§6):
//!
//! * [`compression`] — selectively re-compress offloaded intermediates
//!   before transfer, trading extra storage-node CPU for further traffic
//!   reduction.
//! * [`hetero`] — heterogeneous CPU types across compute and storage nodes
//!   (a speed factor rescales offloaded work in both planning and
//!   simulation).
//! * [`multitenant`] — a storage-side CPU scheduler that splits cores among
//!   concurrent training jobs by marginal epoch-time gain.
//!
//! * [`caching`] — cache-aware planning for the near-compute sample cache
//!   (`cache` crate): cached samples drop out of `T_Net` and the greedy
//!   engine re-plans the residual set.
//! * [`sharding`] — fleet-aware planning for sharded storage (`fleet`
//!   crate): the greedy engine runs per shard against each node's own
//!   cores and link.
//! * [`fleet_caching`] — the composition of the two: a warm near-compute
//!   cache over a sharded fleet, planned as per-shard residual greedy
//!   passes with warm/cold cost vectors.
//!
//! Plus one operator tool that falls out of the same machinery:
//!
//! * [`provisioning`] — the smallest storage-core grant meeting a target
//!   epoch time (the inverse of the paper's Figure 4).
//! * [`degraded`] — replanning under node degradation: when a storage
//!   node's circuit breaker opens mid-run, its samples re-plan against
//!   their replica shards (or fall back to raw fetches).
//! * [`gpu_split`] — the paper's §5 "new opportunity": the same selective
//!   minimum-size logic applied to the CPU→GPU PCIe hop (DALI-style
//!   on-device tensor conversion).
//! * [`feedback`] — live telemetry closing the loop mid-epoch: stage
//!   observations become drift verdicts (`telemetry` crate), and a
//!   cooldown-gated controller swaps in plans recomputed against the
//!   estimated node parameters without disturbing batch identity.

pub mod caching;
pub mod compression;
pub mod degraded;
pub mod feedback;
pub mod fleet_caching;
pub mod gpu_split;
pub mod hetero;
pub mod multitenant;
pub mod provisioning;
pub mod sharding;
