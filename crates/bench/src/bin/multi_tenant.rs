//! Multi-tenant serving: weighted fairness and quota isolation at scale.
//!
//! Sweeps the number of concurrent tenant jobs sharing one storage node
//! into the hundreds, using the virtual-time multi-tenant simulator
//! (`cluster::simulate_multi_tenant`). Each swept point runs twice:
//!
//! * **baseline** — the well-behaved tenants alone, each fetching its own
//!   sample stream under deficit-weighted round robin;
//! * **hog** — the same tenants plus one misbehaving job pushing 4× the
//!   per-sample bytes, pinned by a token-bucket byte quota.
//!
//! Reports aggregate goodput and per-tenant p50/p99 for both runs, the
//! hog's achieved rate against its quota, and whether every tenant's
//! delivery digest is bit-identical across three chaos seeds.
//!
//! ```sh
//! cargo run --release -p bench --bin multi_tenant
//! cargo run --release -p bench --bin multi_tenant -- \
//!     --tenants 8,32,128 --per-tenant 48 --json target/multi_tenant.json --assert
//! ```
//!
//! `--assert` exits nonzero unless, at every swept point with >= 100
//! tenants: the hog saturates (but does not exceed) its quota, victims'
//! worst p99 stays within [`P99_MULTIPLIER`] of the baseline run, and the
//! digests match across seeds (the CI smoke gate).

use std::collections::BTreeMap;

use bench::gate::{fixed, Args, Clock, Report, Verdicts};
use cluster::{simulate_multi_tenant, ClusterConfig, MultiTenantRun, SampleWork, TenantWorkload};
use tenant::{TenantId, TenantSpec};

/// Victims' worst p99 with the hog present must stay within this multiple
/// of their worst p99 without it.
const P99_MULTIPLIER: f64 = 2.0;

/// Bytes of an ordinary tenant's sample (a typical encoded training image).
const SAMPLE_BYTES: u64 = 150_000;

/// The hog's samples are this many times larger.
const HOG_FACTOR: u64 = 4;

/// The hog's quota as a fraction of the shared link's byte rate.
const HOG_QUOTA_FRACTION: f64 = 0.10;

/// Chaos seeds for the digest-stability check.
const SEEDS: [u64; 3] = [1, 2, 3];

fn victims(tenants: usize, per_tenant: usize) -> Vec<TenantWorkload> {
    (0..tenants)
        .map(|i| {
            TenantWorkload::new(
                TenantId(i as u16),
                TenantSpec::default(),
                vec![SampleWork::new(0.0, SAMPLE_BYTES, 0.0); per_tenant],
            )
        })
        .collect()
}

fn with_hog(quota: f64, tenants: usize, per_tenant: usize) -> Vec<TenantWorkload> {
    let mut all = victims(tenants, per_tenant);
    // The hog's scheduling weight matches the whole victim population, so
    // unthrottled it would claim half the link at every swept point; the
    // byte quota is what actually pins it.
    all.push(TenantWorkload::new(
        TenantId(tenants as u16),
        TenantSpec::default().with_weight(tenants as u32).with_quota(quota, (quota / 4.0) as u64),
        vec![SampleWork::new(0.0, SAMPLE_BYTES * HOG_FACTOR, 0.0); per_tenant],
    ));
    all
}

/// Worst (max) p50/p99 over the well-behaved tenants.
fn victim_latencies(run: &MultiTenantRun, tenants: usize) -> (f64, f64) {
    let mut p50 = 0.0f64;
    let mut p99 = 0.0f64;
    for (&id, t) in &run.per_tenant {
        if (id as usize) < tenants {
            p50 = p50.max(t.p50_latency_seconds);
            p99 = p99.max(t.p99_latency_seconds);
        }
    }
    (p50, p99)
}

fn digests(run: &MultiTenantRun) -> BTreeMap<u16, u64> {
    run.per_tenant.iter().map(|(&id, t)| (id, t.digest)).collect()
}

/// One swept point: the victims alone, then with the hog under each chaos
/// seed.
fn run_point(
    config: &ClusterConfig,
    quota: f64,
    tenants: usize,
    per_tenant: usize,
) -> (MultiTenantRun, Vec<MultiTenantRun>) {
    let baseline = simulate_multi_tenant(config, &victims(tenants, per_tenant), SEEDS[0])
        .expect("baseline run");
    let hog = with_hog(quota, tenants, per_tenant);
    let runs = SEEDS.map(|s| simulate_multi_tenant(config, &hog, s).expect("hog run"));
    (baseline, runs.into())
}

fn main() {
    let args = Args::parse("multi_tenant", &[("--tenants", "8,32,128"), ("--per-tenant", "48")]);
    let tenants: Vec<usize> = args.list("--tenants");
    let per_tenant: usize = args.value("--per-tenant");

    // The paper testbed's storage side: 500 Mbps egress, raw serving (no
    // offloaded CPU), which makes the shared link the contended resource.
    let config = ClusterConfig::paper_testbed(4);
    let quota = config.link_bps / 8.0 * HOG_QUOTA_FRACTION;
    let mut report = Report::new("multi_tenant")
        .param("per_tenant", per_tenant)
        .param("p99_multiplier", P99_MULTIPLIER);
    let mut verdicts = Verdicts::default();
    verdicts.check(
        Clock::Virtual,
        tenants.iter().any(|&n| n >= 100),
        "--assert needs at least one swept point with >= 100 tenants",
    );
    for &n in &tenants {
        let (baseline, hog_runs) = run_point(&config, quota, n, per_tenant);
        let hog_run = &hog_runs[0];
        let (_, baseline_p99) = victim_latencies(&baseline, n);
        let (hog_p50, hog_p99) = victim_latencies(hog_run, n);
        let hog = &hog_run.per_tenant[&(n as u16)];
        let hog_rate = hog.bytes as f64 / hog.done_seconds.max(f64::EPSILON);
        let digests_stable = hog_runs.iter().all(|r| digests(r) == digests(hog_run));
        report.row([
            ("tenants", n.to_string()),
            ("baseline_goodput_mbps", fixed(baseline.goodput_bytes_per_sec / 1e6, 1)),
            ("baseline_victim_p99_ms", fixed(baseline_p99 * 1e3, 1)),
            ("hog_goodput_mbps", fixed(hog_run.goodput_bytes_per_sec / 1e6, 1)),
            ("hog_victim_p50_ms", fixed(hog_p50 * 1e3, 1)),
            ("hog_victim_p99_ms", fixed(hog_p99 * 1e3, 1)),
            ("hog_rate_mbps", fixed(hog_rate / 1e6, 2)),
            ("hog_quota_mbps", fixed(quota / 1e6, 2)),
            ("hog_throttled", hog.throttled.to_string()),
            ("digests_stable", digests_stable.to_string()),
        ]);
        if n < 100 {
            continue;
        }
        verdicts.check(
            Clock::Virtual,
            hog_p99 <= baseline_p99 * P99_MULTIPLIER,
            format!(
                "at {n} tenants the hog pushed victims' p99 to {:.1} ms (> {P99_MULTIPLIER}x the \
                 {:.1} ms baseline)",
                hog_p99 * 1e3,
                baseline_p99 * 1e3
            ),
        );
        verdicts.check(
            Clock::Virtual,
            hog_rate <= quota * 1.10,
            format!(
                "at {n} tenants the hog served {:.2} MB/s, over its {:.2} MB/s quota",
                hog_rate / 1e6,
                quota / 1e6
            ),
        );
        verdicts.check(
            Clock::Virtual,
            hog_rate >= quota * 0.5,
            format!(
                "at {n} tenants the hog reached only {:.2} MB/s of its {:.2} MB/s quota (not \
                 saturated, gate is vacuous)",
                hog_rate / 1e6,
                quota / 1e6
            ),
        );
        verdicts.check(
            Clock::Virtual,
            digests_stable,
            format!("at {n} tenants per-tenant digests changed across seeds"),
        );
    }
    report.publish(&args);
    verdicts.finish(&args);
}
