//! Multi-job serving simulation: many tenants, one storage node.
//!
//! The single-job simulators model one training job owning the whole
//! storage side. Production fleets are nothing like that: hundreds of jobs
//! share the storage node's read path, preprocessing cores, and egress
//! link. This module reuses the stage-graph core's resource primitives
//! (`FifoServer`, `CpuStage`, `netsim::VirtualLink`) and puts the `tenant`
//! crate's scheduler in front of them:
//!
//! ```text
//! tenant 0 ─┐
//! tenant 1 ─┼─ DWRR (weights) ─▶ read ─▶ storage CPU ─▶ shared link ─▶ done
//! tenant N ─┘      │
//!                  └─ per-tenant token-bucket byte quota (delays issue)
//! ```
//!
//! Multi-tenancy is a simulated extension: the live storage server serves
//! one job, and this model is where tenants share a node. Each tenant runs
//! a closed loop: at most `TenantSpec::max_in_flight` samples outstanding,
//! the next sample issued when the oldest completes. Service order across
//! tenants is deficit-weighted round robin with byte costs, so a
//! large-sample tenant cannot crowd out small ones; quotaed tenants are
//! additionally delayed by their [`ByteBudget`], and every issue that
//! lands while the bucket's debt exceeds a reject horizon is counted as a
//! throttle event (a server would bounce it with a retryable error; the
//! simulator re-admits after the debt drains, which is what a retrying
//! client converges to).
//!
//! Admission is horizon-gated: a staged sample enters the DWRR ring only
//! once its release time falls inside the shared pipeline's current
//! schedule, so a quota-delayed sample released seconds from now never
//! head-of-line-blocks another tenant's transfer behind it in the FIFO
//! stages.
//!
//! Time is virtual and the whole run is a pure function of its inputs:
//! `seed` perturbs only *timing* (issue jitter and the scheduler's initial
//! rotation), never *what* is served, so per-tenant delivery digests are
//! bit-identical across seeds — the property the `multi_tenant` bench
//! gates on.

use std::collections::BTreeMap;

use netsim::{Bandwidth, VirtualLink};
use tenant::{ByteBudget, DwrrScheduler, TenantId, TenantSpec};

use crate::resources::FifoServer;
use crate::stagegraph::CpuStage;
use crate::{ClusterConfig, SampleWork, SimError};

/// The admission horizon: an issue finding more than this many seconds of
/// quota debt counts as a throttle event.
const QUOTA_REJECT_HORIZON_SECS: f64 = 0.1;

/// DWRR quantum in bytes — near a typical encoded-sample size so byte
/// fairness converges within a few ring rotations.
const DWRR_QUANTUM_BYTES: u64 = 64 * 1024;

/// Maximum issue jitter injected by the seed, in seconds. Small enough
/// never to dominate a transfer, large enough to reorder ties.
const MAX_JITTER_SECS: f64 = 50e-6;

/// One tenant's share of a multi-job run.
#[derive(Debug, Clone)]
pub struct TenantWorkload {
    /// The tenant's identity (must be unique within a run).
    pub(crate) id: TenantId,
    /// Weight, quota, and in-flight bound.
    pub(crate) spec: TenantSpec,
    /// The tenant's samples, in its own loading order.
    pub(crate) samples: Vec<SampleWork>,
}

impl TenantWorkload {
    /// Creates a workload.
    pub fn new(id: TenantId, spec: TenantSpec, samples: Vec<SampleWork>) -> TenantWorkload {
        TenantWorkload { id, spec, samples }
    }
}

/// Per-tenant outcome of a multi-job run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRunStats {
    /// Samples delivered.
    pub samples: u64,
    /// Bytes delivered over the shared link.
    pub bytes: u64,
    /// Issues that found the tenant's quota bucket past the reject
    /// horizon (a server would have answered them with a retryable
    /// throttle error).
    pub throttled: u64,
    /// Median issue-to-delivery latency, in virtual seconds.
    pub p50_latency_seconds: f64,
    /// 99th-percentile issue-to-delivery latency, in virtual seconds.
    pub p99_latency_seconds: f64,
    /// Virtual time the tenant's last sample was delivered.
    pub done_seconds: f64,
    /// Order-independent digest of everything delivered to this tenant
    /// (sample index, bytes, CPU demand). Identical across seeds: timing
    /// may move, payloads may not.
    pub digest: u64,
}

/// Aggregate outcome of a multi-job run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantRun {
    /// Virtual time the last sample of any tenant was delivered.
    pub epoch_seconds: f64,
    /// Total bytes delivered.
    pub total_bytes: u64,
    /// `total_bytes / epoch_seconds`.
    pub goodput_bytes_per_sec: f64,
    /// Core-seconds of offloaded preprocessing executed.
    pub(crate) storage_cpu_busy_seconds: f64,
    /// Seconds the shared link spent transferring.
    pub(crate) link_busy_seconds: f64,
    /// Per-tenant breakdown, keyed by tenant id.
    pub per_tenant: BTreeMap<u16, TenantRunStats>,
}

/// FNV-1a over one delivered sample's identity; combined per tenant with
/// a wrapping add so the digest is independent of service order.
fn sample_digest(tenant: u16, index: u64, work: &SampleWork) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(tenant as u64);
    eat(index);
    eat(work.transfer_bytes);
    eat(work.storage_cpu_seconds.to_bits());
    eat(work.compute_cpu_seconds.to_bits());
    h
}

/// SplitMix64 over `(seed, i)` — the workspace's standard jitter source.
fn splitmix(seed: u64, i: u64) -> u64 {
    imagery::rng::splitmix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct TenantState {
    work: TenantWorkload,
    /// Next sample index not yet staged.
    staged: usize,
    /// Staged samples not yet admitted to the scheduler: `(index, issue
    /// gate, release time)`, FIFO in index order.
    waiting: std::collections::VecDeque<(usize, f64, f64)>,
    /// Completion times of processed samples, indexed by sample.
    done: Vec<f64>,
    quota: Option<ByteBudget>,
    latencies: Vec<f64>,
    bytes: u64,
    throttled: u64,
    digest: u64,
}

impl TenantState {
    /// Stages the next sample: computes its closed-loop issue gate and
    /// quota-delayed release, charging the byte budget at issue.
    fn stage_next(&mut self, seed: u64) {
        if self.staged >= self.work.samples.len() {
            return;
        }
        let index = self.staged;
        let window = self.work.spec.max_in_flight.max(1);
        let gate = if index >= window { self.done[index - window] } else { 0.0 };
        let release = match self.quota.as_mut() {
            Some(bucket) => {
                if bucket.debt(gate) > QUOTA_REJECT_HORIZON_SECS {
                    self.throttled += 1;
                }
                gate + bucket.charge(self.work.samples[index].transfer_bytes, gate)
            }
            None => gate,
        };
        let jitter = splitmix(seed ^ self.work.id.0 as u64, index as u64) as f64 / u64::MAX as f64
            * MAX_JITTER_SECS;
        self.waiting.push_back((index, gate, release + jitter));
        self.staged += 1;
    }
}

/// Simulates every tenant's whole sample list through one shared storage
/// node, in virtual time.
///
/// `seed` drives timing jitter and the scheduler's starting rotation; it
/// never changes which samples are delivered, so each tenant's
/// [`TenantRunStats::digest`] is seed-invariant.
///
/// # Errors
///
/// * [`SimError::EmptyFleet`] — no tenant has any samples.
/// * [`SimError::NoStorageCores`] — a sample offloads preprocessing but
///   `base.storage_cores` is zero.
///
/// # Panics
///
/// Panics when two workloads share a tenant id.
pub fn simulate_multi_tenant(
    base: &ClusterConfig,
    tenants: &[TenantWorkload],
    seed: u64,
) -> Result<MultiTenantRun, SimError> {
    let mut states: BTreeMap<u16, TenantState> = BTreeMap::new();
    for t in tenants {
        let quota =
            t.spec.quota_bytes_per_sec.map(|rate| ByteBudget::new(rate, t.spec.burst_bytes.max(1)));
        let prev = states.insert(
            t.id.0,
            TenantState {
                work: t.clone(),
                staged: 0,
                waiting: std::collections::VecDeque::new(),
                done: Vec::with_capacity(t.samples.len()),
                quota,
                latencies: Vec::with_capacity(t.samples.len()),
                bytes: 0,
                throttled: 0,
                digest: 0,
            },
        );
        assert!(prev.is_none(), "duplicate tenant id {}", t.id);
    }
    if states.values().all(|s| s.work.samples.is_empty()) {
        return Err(SimError::EmptyFleet);
    }

    let mut read = FifoServer::new();
    let mut storage_cpu = CpuStage::with_cores(base.storage_cores);
    let mut link = VirtualLink::with_latency(Bandwidth::from_bps(base.link_bps), base.link_latency);

    // Prime every tenant's staging window, visiting tenants in a
    // seed-rotated order so tie-breaks differ across chaos seeds without
    // changing any tenant's delivered set.
    let mut sched: DwrrScheduler<(usize, f64, f64)> = DwrrScheduler::new(DWRR_QUANTUM_BYTES);
    let ids: Vec<u16> = states.keys().copied().collect();
    let start = (splitmix(seed, 0x7e4a) % ids.len().max(1) as u64) as usize;
    let rotated: Vec<u16> = (0..ids.len()).map(|o| ids[(start + o) % ids.len()]).collect();
    for &id in &rotated {
        let s = states.get_mut(&id).expect("id from keys");
        sched.set_weight(TenantId(id), s.work.spec.weight);
        let window = s.work.spec.max_in_flight.max(1).min(s.work.samples.len());
        for _ in 0..window {
            s.stage_next(seed);
        }
    }

    // Event loop. A staged sample is admitted to the DWRR ring only once
    // its release time falls inside the serving horizon (how far the
    // shared pipeline's schedule already extends); quota-delayed work
    // therefore never head-of-line-blocks other tenants' transfers. When
    // everything admissible has drained, the horizon jumps to the next
    // release (an idle period on the shared node).
    let mut horizon = 0.0f64;
    loop {
        // Admit, per tenant in rotated order, every waiting head whose
        // release has arrived (FIFO within a tenant keeps samples in
        // index order regardless of jitter).
        for &id in &rotated {
            let s = states.get_mut(&id).expect("id from keys");
            while s.waiting.front().is_some_and(|&(_, _, release)| release <= horizon) {
                let (index, gate, release) = s.waiting.pop_front().expect("checked front");
                let cost = s.work.samples[index].transfer_bytes.max(1);
                sched.push(TenantId(id), cost, (index, gate, release));
            }
        }
        if sched.is_empty() {
            // Nothing admissible: jump the horizon to the earliest
            // pending release, or finish if no work remains anywhere.
            let next = states
                .values()
                .filter_map(|s| s.waiting.front().map(|&(_, _, release)| release))
                .fold(f64::INFINITY, f64::min);
            if !next.is_finite() {
                break;
            }
            horizon = next;
            continue;
        }

        let (tenant, (index, gate, release)) = sched.pop().expect("checked non-empty");
        let s = states.get_mut(&tenant.0).expect("scheduled tenants have state");
        let w = s.work.samples[index];

        let read_done =
            read.run(release, w.transfer_bytes as f64 / base.storage_read_bytes_per_sec);
        let offload_done = if w.storage_cpu_seconds > 0.0 {
            storage_cpu.run(read_done, w.storage_cpu_seconds).ok_or(SimError::NoStorageCores)?
        } else {
            read_done
        };
        let delivered = link.transfer(offload_done, w.transfer_bytes);
        horizon = horizon.max(delivered);

        s.done.push(delivered);
        s.latencies.push(delivered - gate);
        s.bytes += w.transfer_bytes;
        s.digest = s.digest.wrapping_add(sample_digest(tenant.0, index as u64, &w));
        s.stage_next(seed);
    }

    let mut per_tenant = BTreeMap::new();
    let mut epoch_seconds = 0.0f64;
    let mut total_bytes = 0u64;
    for (id, mut s) in states {
        s.latencies.sort_unstable_by(f64::total_cmp);
        let done_seconds = s.done.iter().copied().fold(0.0, f64::max);
        epoch_seconds = epoch_seconds.max(done_seconds);
        total_bytes += s.bytes;
        per_tenant.insert(
            id,
            TenantRunStats {
                samples: s.done.len() as u64,
                bytes: s.bytes,
                throttled: s.throttled,
                p50_latency_seconds: percentile(&s.latencies, 0.50),
                p99_latency_seconds: percentile(&s.latencies, 0.99),
                done_seconds,
                digest: s.digest,
            },
        );
    }
    Ok(MultiTenantRun {
        epoch_seconds,
        total_bytes,
        goodput_bytes_per_sec: total_bytes as f64 / epoch_seconds.max(f64::EPSILON),
        storage_cpu_busy_seconds: storage_cpu.busy_seconds(),
        link_busy_seconds: link.busy_seconds(),
        per_tenant,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ClusterConfig {
        ClusterConfig::paper_testbed(4)
    }

    fn raw_samples(n: usize, bytes: u64) -> Vec<SampleWork> {
        vec![SampleWork::new(0.0, bytes, 0.0); n]
    }

    #[test]
    fn conserves_bytes_and_accounts_per_tenant() {
        let tenants = vec![
            TenantWorkload::new(TenantId(1), TenantSpec::default(), raw_samples(64, 100_000)),
            TenantWorkload::new(TenantId(2), TenantSpec::default(), raw_samples(32, 200_000)),
        ];
        let run = simulate_multi_tenant(&base(), &tenants, 7).unwrap();
        assert_eq!(run.total_bytes, 64 * 100_000 + 32 * 200_000);
        assert_eq!(run.per_tenant[&1].samples, 64);
        assert_eq!(run.per_tenant[&2].bytes, 32 * 200_000);
        assert!(run.goodput_bytes_per_sec > 0.0);
        assert!(run.epoch_seconds >= run.per_tenant[&1].done_seconds);
    }

    #[test]
    fn higher_weight_means_lower_latency_under_contention() {
        let heavy = TenantSpec::default().with_weight(8);
        let light = TenantSpec::default().with_weight(1);
        let tenants = vec![
            TenantWorkload::new(TenantId(1), heavy, raw_samples(256, 150_000)),
            TenantWorkload::new(TenantId(2), light, raw_samples(256, 150_000)),
        ];
        let run = simulate_multi_tenant(&base(), &tenants, 3).unwrap();
        let h = &run.per_tenant[&1];
        let l = &run.per_tenant[&2];
        // The weight-8 tenant gets 8/9 of the link while both are
        // backlogged, so it clears its backlog first and its worst-case
        // latency stays well below the light tenant's (whose early
        // samples wait out the contention phase).
        assert!(h.done_seconds < l.done_seconds, "heavy should clear its backlog first");
        assert!(
            h.p99_latency_seconds * 2.0 < l.p99_latency_seconds,
            "heavy p99 {} vs light p99 {}",
            h.p99_latency_seconds,
            l.p99_latency_seconds
        );
    }

    #[test]
    fn quota_caps_the_hog_and_spares_the_victim() {
        // Hog wants ~2.4 MB/s of a 500 Mbps link but is quotaed to 1 MB/s.
        let hog = TenantSpec::default().with_quota(1_000_000.0, 100_000);
        let tenants = vec![
            TenantWorkload::new(TenantId(1), hog, raw_samples(128, 150_000)),
            TenantWorkload::new(TenantId(2), TenantSpec::default(), raw_samples(128, 150_000)),
        ];
        let run = simulate_multi_tenant(&base(), &tenants, 11).unwrap();
        let hog = &run.per_tenant[&1];
        let victim = &run.per_tenant[&2];
        // The hog's achieved rate saturates near (not above) its quota.
        let hog_rate = hog.bytes as f64 / hog.done_seconds;
        assert!(hog_rate < 1_100_000.0, "hog served at {hog_rate} B/s past its quota");
        assert!(hog_rate > 700_000.0, "hog far below its quota at {hog_rate} B/s");
        assert!(hog.throttled > 0, "a saturating hog must hit the reject horizon");
        assert_eq!(victim.throttled, 0);
        assert!(victim.done_seconds < hog.done_seconds);
    }

    #[test]
    fn digests_are_invariant_across_seeds_but_timing_is_not() {
        let tenants = vec![
            TenantWorkload::new(TenantId(1), TenantSpec::default().with_weight(3), {
                let mut v = raw_samples(96, 120_000);
                v.extend(vec![SampleWork::new(0.001, 30_000, 0.0); 32]);
                v
            }),
            TenantWorkload::new(
                TenantId(2),
                TenantSpec::default().with_quota(2_000_000.0, 200_000),
                raw_samples(96, 180_000),
            ),
        ];
        let runs: Vec<MultiTenantRun> = [1u64, 2, 3]
            .iter()
            .map(|&s| simulate_multi_tenant(&base(), &tenants, s).unwrap())
            .collect();
        for r in &runs[1..] {
            for (id, stats) in &r.per_tenant {
                assert_eq!(stats.digest, runs[0].per_tenant[id].digest, "tenant {id}");
                assert_eq!(stats.samples, runs[0].per_tenant[id].samples);
                assert_eq!(stats.bytes, runs[0].per_tenant[id].bytes);
            }
        }
        // Same seed → bit-identical everything (pure function).
        let again = simulate_multi_tenant(&base(), &tenants, 1).unwrap();
        assert_eq!(again, runs[0]);
    }

    #[test]
    fn offloaded_work_without_cores_is_a_typed_error() {
        let cfg = base().with_storage_cores(0);
        let tenants = vec![TenantWorkload::new(
            TenantId(1),
            TenantSpec::default(),
            vec![SampleWork::new(0.01, 10_000, 0.0)],
        )];
        let err = simulate_multi_tenant(&cfg, &tenants, 0).unwrap_err();
        assert_eq!(err, SimError::NoStorageCores);
    }

    #[test]
    fn empty_run_is_a_typed_error() {
        let err = simulate_multi_tenant(&base(), &[], 0).unwrap_err();
        assert_eq!(err, SimError::EmptyFleet);
    }
}
