//! Adaptive vs static replanning under mid-epoch chaos.
//!
//! Runs the same sharded fleet epoch twice per chaos seed on the paper
//! testbed: once with the plan frozen at epoch start (**static**), once
//! with the telemetry feedback loop closed (**adaptive**,
//! `sophon::ext::feedback`). The chaos schedule — a CPU straggler onset at
//! ~20% of the epoch and a link squeeze on a different node at ~35% — is a
//! pure function of the seed, and neither run is told about it: the
//! adaptive run has to *detect* the drift from stage telemetry, wait out
//! its cooldown, and replan against the estimated node parameters.
//!
//! Reports epoch time, traffic, replan count, and the batch digest for
//! both runs, plus a determinism check (the adaptive run repeated
//! end-to-end must reproduce the same replan batches and digest).
//!
//! ```sh
//! cargo run --release -p bench --bin adaptive_replan
//! cargo run --release -p bench --bin adaptive_replan -- \
//!     --seeds 11,17,83 --json target/adaptive_replan.json --assert
//! ```
//!
//! `--assert` exits nonzero unless, at every seed: the adaptive epoch
//! beats the static one by at least [`MIN_GAIN`], the controller actually
//! replanned, the two runs' batch digests are bit-identical (replanning
//! changes *where* work runs, never *what* reaches the GPU), and the
//! repeated adaptive run reproduces the first exactly (the CI smoke gate).

use bench::gate::{fixed, list, Args, Clock, Report, Verdicts};
use cluster::{ClusterConfig, GpuModel};
use datasets::DatasetSpec;
use fleet::ShardMap;
use pipeline::{CostModel, PipelineSpec, SampleProfile};
use sophon::engine::PlanningContext;
use sophon::ext::feedback::{
    chaos_straggler_and_squeeze, run_fleet_epoch_adaptive, AdaptiveEpochReport, FeedbackConfig,
};
use sophon::ext::sharding::fleet_nodes_sharing_link;

/// The adaptive epoch must beat the static one by at least this fraction.
const MIN_GAIN: f64 = 0.05;

/// Storage nodes in the fleet.
const SHARDS: usize = 4;

/// Replicas per sample (gives failover plans somewhere to go).
const REPLICATION: usize = 2;

/// Training batch size.
const BATCH: usize = 64;

/// One seed's static, adaptive and repeated adaptive epochs.
fn run_seed(
    profiles: &[SampleProfile],
    pipeline: &PipelineSpec,
    cores: usize,
    seed: u64,
) -> [AdaptiveEpochReport; 3] {
    let config = ClusterConfig::paper_testbed(cores);
    let ctx = PlanningContext::new(profiles, pipeline, &config, GpuModel::AlexNet, BATCH);
    let map = ShardMap::new(SHARDS, REPLICATION, seed);
    let nodes = fleet_nodes_sharing_link(&config, SHARDS);
    let batches = (profiles.len() / BATCH) as u64;
    let chaos = chaos_straggler_and_squeeze(seed, SHARDS, batches);
    let feedback = FeedbackConfig::default();
    [None, Some(&feedback), Some(&feedback)].map(|feedback| {
        run_fleet_epoch_adaptive(&ctx, &map, &nodes, &chaos, feedback).expect("fleet epoch")
    })
}

fn main() {
    let args = Args::parse(
        "adaptive_replan",
        &[("--seeds", "11,17,83"), ("--samples", "2048"), ("--cores", "2")],
    );
    let seeds: Vec<u64> = args.list("--seeds");
    let samples: u64 = args.value("--samples");
    let cores: usize = args.value("--cores");

    let ds = DatasetSpec::openimages_like(samples, 23);
    let pipeline = PipelineSpec::standard_train();
    let model = CostModel::realistic();
    let profiles: Vec<SampleProfile> =
        ds.records().map(|r| r.analytic_profile(&pipeline, &model)).collect();

    let mut report = Report::new("adaptive_replan")
        .param("samples", samples)
        .param("storage_cores", cores)
        .param("shards", SHARDS)
        .param("batch", BATCH)
        .param("min_gain", MIN_GAIN);
    let mut verdicts = Verdicts::default();
    for &seed in &seeds {
        let [frozen, adaptive, repeat] = run_seed(&profiles, &pipeline, cores, seed);
        let gain = 1.0 - adaptive.epoch_seconds / frozen.epoch_seconds;
        let replan_batches: Vec<u64> = adaptive.replans.iter().map(|r| r.batch).collect();
        let digests_match = adaptive.digest == frozen.digest;
        let deterministic = repeat == adaptive;
        report.row([
            ("seed", seed.to_string()),
            ("static_s", fixed(frozen.epoch_seconds, 3)),
            ("adaptive_s", fixed(adaptive.epoch_seconds, 3)),
            ("gain_pct", fixed(gain * 100.0, 1)),
            ("static_gb", fixed(frozen.traffic_bytes as f64 / 1e9, 3)),
            ("adaptive_gb", fixed(adaptive.traffic_bytes as f64 / 1e9, 3)),
            ("replans", replan_batches.len().to_string()),
            ("replan_batches", list(&replan_batches)),
            ("digests_match", digests_match.to_string()),
            ("deterministic", deterministic.to_string()),
        ]);
        verdicts.check(
            Clock::Virtual,
            !replan_batches.is_empty(),
            format!("seed {seed} never replanned — the controller missed the injected drift"),
        );
        verdicts.check(
            Clock::Virtual,
            gain >= MIN_GAIN,
            format!(
                "seed {seed} adaptive {:.2}s vs static {:.2}s — gain {:.1}% below the {:.0}% \
                 floor",
                adaptive.epoch_seconds,
                frozen.epoch_seconds,
                gain * 100.0,
                MIN_GAIN * 100.0
            ),
        );
        verdicts.check(
            Clock::Virtual,
            digests_match,
            format!(
                "seed {seed} adaptive and static batch digests differ — replanning changed \
                 batch contents"
            ),
        );
        verdicts.check(
            Clock::Virtual,
            deterministic,
            format!("seed {seed} repeated adaptive run diverged (replans at {replan_batches:?})"),
        );
    }
    report.publish(&args);
    verdicts.finish(&args);
}
