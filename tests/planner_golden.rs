//! Golden digests over everything the planners feed: the policy, cached,
//! fleet and cache × fleet training runs on a small grid, and the adaptive
//! fleet epoch static and feedback-controlled.
//!
//! The file calls only `Scenario::run_training` and
//! `run_fleet_epoch_adaptive`. The cached, cache × fleet and adaptive
//! constants were recorded at `2e7d452` (four separate per-shard loops); the
//! policy and the three fleet constants at `41c073d` (four separate
//! `run_training*` runners), and since then only the call syntax has
//! changed. One value moved on purpose: the uncached fleet run's first
//! epoch, see `fleet_training_digest_is_pinned`. A digest that moves means a
//! plan changed.

use cluster::{ClusterConfig, FleetEpochStats, GpuModel, KillEvent};
use datasets::DatasetSpec;
use fleet::ShardMap;
use pipeline::{CostModel, PipelineSpec, SampleProfile};
use sophon::engine::PlanningContext;
use sophon::ext::caching::CacheSelection;
use sophon::ext::feedback::{
    chaos_link_squeeze, chaos_straggler_and_squeeze, run_fleet_epoch_adaptive, AdaptiveEpochReport,
    BrownoutConfig, FeedbackConfig,
};
use sophon::ext::sharding::fleet_nodes_sharing_link;
use sophon::policy::standard_policies;
use sophon::runner::{Scenario, TrainingRequest};

const SAMPLES: u64 = 2048;
const EPOCHS: u64 = 3;

/// `(shards, replication)` rows; a kill is only survivable at replication 2.
const FLEETS: [(usize, usize); 5] = [(1, 1), (3, 1), (3, 2), (4, 1), (4, 2)];
const CACHE_PCT: [u64; 3] = [0, 30, 100];

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    fn fold(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn fold_fleet_epoch(&mut self, epoch: &FleetEpochStats) {
        self.fold(epoch.total.epoch_seconds.to_bits());
        for node in &epoch.per_node {
            self.fold(node.traffic_bytes);
            self.fold(node.storage_cpu_busy_seconds.to_bits());
        }
    }
}

fn scenario() -> Scenario {
    Scenario::new(
        DatasetSpec::openimages_like(SAMPLES, 5),
        ClusterConfig::paper_testbed(2),
        GpuModel::AlexNet,
        256,
    )
}

fn corpus_bytes(s: &Scenario) -> u64 {
    s.profiles().iter().map(|p| p.raw_bytes).sum()
}

/// A SOPHON run over `shards` nodes, placement seed 7.
fn fleet(shards: usize, replication: usize, kills: &[KillEvent]) -> TrainingRequest<'_> {
    TrainingRequest {
        shards,
        replication,
        placement_seed: 7,
        kills,
        ..TrainingRequest::new(EPOCHS)
    }
}

fn kill_rows(replication: usize) -> Vec<Vec<KillEvent>> {
    let mut rows = vec![Vec::new()];
    if replication > 1 {
        rows.push(vec![KillEvent::new(1, 0.5)]);
    }
    rows
}

#[test]
fn cached_training_digest_is_pinned() {
    let s = scenario();
    let corpus = corpus_bytes(&s);
    let mut d = Fnv::new();
    for pct in CACHE_PCT {
        for selection in [CacheSelection::Arrival, CacheSelection::EfficiencyAware] {
            let cache = Some((corpus * pct / 100, selection));
            let r =
                s.run_training(&TrainingRequest { cache, ..TrainingRequest::new(EPOCHS) }).unwrap();
            let held = r.cache.unwrap();
            d.fold(held.cached_samples);
            d.fold(held.cached_bytes);
            d.fold(r.stats.total_traffic_bytes);
            for epoch in [&r.stats.cold().total, &r.stats.warm().total] {
                d.fold(epoch.epoch_seconds.to_bits());
                d.fold(epoch.traffic_bytes);
                d.fold(epoch.storage_cpu_busy_seconds.to_bits());
            }
        }
    }
    assert_eq!(d.0, 0xfc35_e68e_7e88_741e, "cached training digest {:#x}", d.0);
}

#[test]
fn policy_training_digest_is_pinned() {
    let mut d = Fnv::new();
    for storage_cores in [1, 2, 48] {
        let mut s = scenario();
        s.config = ClusterConfig::paper_testbed(storage_cores);
        for policy in standard_policies() {
            let request =
                TrainingRequest { policy: Some(policy.as_ref()), ..TrainingRequest::new(EPOCHS) };
            let r = s.run_training(&request).unwrap();
            for epoch in [&r.stats.first_epoch.total, &r.stats.steady_epoch.total] {
                d.fold(epoch.epoch_seconds.to_bits());
                d.fold(epoch.traffic_bytes);
                d.fold(epoch.storage_cpu_busy_seconds.to_bits());
            }
            d.fold(r.stats.total_seconds.to_bits());
            d.fold(r.stats.total_traffic_bytes);
        }
    }
    assert_eq!(d.0, 0xeb18_3121_73c8_2e88, "policy training digest {:#x}", d.0);
}

#[test]
fn fleet_training_digest_is_pinned() {
    let s = scenario();
    let mut steady = Fnv::new();
    let mut first = Fnv::new();
    let mut cold = Fnv::new();
    for (shards, replication) in FLEETS {
        for kills in kill_rows(replication) {
            let request = fleet(shards, replication, &kills);
            let r = s.run_training(&request).unwrap();
            steady.fold_fleet_epoch(&r.stats.steady_epoch);
            for shard in &r.per_shard {
                steady.fold(shard.samples);
                steady.fold(shard.offloaded_samples);
                steady.fold(shard.transfer_bytes);
                steady.fold(shard.storage_cpu_seconds.to_bits());
            }
            first.fold_fleet_epoch(&r.stats.first_epoch);
            first.fold(r.stats.total_traffic_bytes);
            // The same fleet behind a zero-byte cache: its cold epoch is the
            // un-offloaded one.
            let cache = Some((0, CacheSelection::EfficiencyAware));
            let zero = s.run_training(&TrainingRequest { cache, ..request }).unwrap();
            cold.fold_fleet_epoch(zero.stats.cold());
            cold.fold(zero.stats.total_traffic_bytes);
        }
    }
    assert_eq!(steady.0, 0xe083_055a_80ff_7837, "fleet steady + per-shard digest {:#x}", steady.0);
    assert_eq!(cold.0, 0xa924_1c41_34a1_98f3, "un-offloaded fleet epoch digest {:#x}", cold.0);
    // `0xac32_289e_0f52_cbee` at `41c073d`, where an uncached fleet run
    // skipped SOPHON's profiling epoch; now the un-offloaded digest.
    assert_eq!(first.0, cold.0, "fleet first-epoch digest {:#x}", first.0);
}

#[test]
fn fleet_cached_training_digest_is_pinned() {
    let s = scenario();
    let corpus = corpus_bytes(&s);
    let mut d = Fnv::new();
    for (shards, replication) in FLEETS {
        for pct in CACHE_PCT {
            for kills in kill_rows(replication) {
                let cache = Some((corpus * pct / 100, CacheSelection::EfficiencyAware));
                let request = TrainingRequest { cache, ..fleet(shards, replication, &kills) };
                let r = s.run_training(&request).unwrap();
                let held = r.cache.unwrap();
                d.fold(held.cached_samples);
                d.fold(held.cached_bytes);
                d.fold(r.stats.total_traffic_bytes);
                d.fold_fleet_epoch(r.stats.cold());
                d.fold_fleet_epoch(r.stats.warm());
            }
        }
    }
    assert_eq!(d.0, 0x1dfd_1a7f_29dd_4947, "fleet cached training digest {:#x}", d.0);
}

fn fold_adaptive(d: &mut Fnv, r: &AdaptiveEpochReport) {
    d.fold(r.digest);
    d.fold(r.batches);
    d.fold(r.traffic_bytes);
    d.fold(r.epoch_seconds.to_bits());
    d.fold(r.mean_fidelity.to_bits());
    d.fold(r.replans.len() as u64);
    for replan in &r.replans {
        d.fold(replan.batch);
    }
}

#[test]
fn adaptive_fleet_epoch_digest_is_pinned() {
    const BATCH: usize = 64;
    let ds = DatasetSpec::openimages_like(SAMPLES, 23);
    let pipeline = PipelineSpec::standard_train();
    let model = CostModel::realistic();
    let ps: Vec<SampleProfile> =
        ds.records().map(|r| r.analytic_profile(&pipeline, &model)).collect();
    let config = ClusterConfig::paper_testbed(2);
    let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, BATCH);
    let map = ShardMap::new(4, 2, 11);
    let nodes = fleet_nodes_sharing_link(&config, 4);
    let batches = (ps.len() / BATCH) as u64;

    let mut d = Fnv::new();
    let mut replans = 0;
    let reroute = FeedbackConfig::default();
    let brownout = FeedbackConfig {
        cooldown_batches: 2,
        brownout: Some(BrownoutConfig::default()),
        ..FeedbackConfig::default()
    };
    let rows = [
        (chaos_straggler_and_squeeze(17, 4, batches), &reroute),
        (chaos_link_squeeze(17, 4, batches), &brownout),
    ];
    for (chaos, feedback) in &rows {
        let fixed = run_fleet_epoch_adaptive(&ctx, &map, &nodes, chaos, None).unwrap();
        let adaptive = run_fleet_epoch_adaptive(&ctx, &map, &nodes, chaos, Some(feedback)).unwrap();
        assert_eq!(fixed.digest, adaptive.digest, "replans must not reorder samples");
        replans += adaptive.replans.len();
        fold_adaptive(&mut d, &fixed);
        fold_adaptive(&mut d, &adaptive);
    }
    assert!(replans > 0, "the golden must cover at least one replan");
    assert_eq!(d.0, 0x7247_8cd8_e68d_68d5, "adaptive fleet epoch digest {:#x}", d.0);
}
