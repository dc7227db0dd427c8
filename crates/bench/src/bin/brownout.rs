//! Brownout vs fixed fidelity under a fleet-wide link squeeze.
//!
//! Sweeps link bandwidth against epoch time and delivered fidelity on the
//! paper testbed: per chaos seed, a calm baseline (no chaos, no feedback)
//! is followed, at each squeeze severity, by a **fixed**-fidelity run (the
//! plan frozen at epoch start) and a **browned** run (the feedback loop
//! closed with a [`BrownoutConfig`] fidelity ladder). The chaos schedule —
//! every node's link squeezed to the same residual factor at ~15% of the
//! epoch, never lifting — is a pure function of the seed, and rerouting
//! cannot absorb it: every replica sits behind an equally squeezed link,
//! so only shedding bytes keeps the epoch bounded.
//!
//! The corpus is ImageNet-like on purpose: most raw encodings are smaller
//! than the post-crop raster, raw serving dominates the plan, and the link
//! — not the storage CPU — is the binding resource.
//!
//! ```sh
//! cargo run --release -p bench --bin brownout
//! cargo run --release -p bench --bin brownout -- \
//!     --seeds 17,83 --json target/brownout.json --assert
//! ```
//!
//! `--assert` exits nonzero unless, at every seed under the harshest
//! squeeze ([`GATE_FACTOR`]): the browned epoch stays within
//! [`CALM_CEILING`]x of the calm baseline while the fixed-fidelity run
//! exceeds [`COLLAPSE_FLOOR`]x, the controller actually replanned,
//! delivered mean fidelity lies in `[min_fidelity, 1)`, every run's batch
//! digest matches the calm baseline's (brownout changes how many bytes
//! move, never what reaches the GPU), and the browned run repeated
//! end-to-end reproduces the first exactly.

use bench::gate::{fixed, Args, Clock, Report, Verdicts};
use cluster::{ClusterConfig, GpuModel};
use datasets::DatasetSpec;
use fleet::ShardMap;
use pipeline::{CostModel, PipelineSpec, SampleProfile};
use sophon::engine::PlanningContext;
use sophon::ext::feedback::{
    chaos_link_squeeze_to, run_fleet_epoch_adaptive, AdaptiveEpochReport, BrownoutConfig,
    ChaosEvent, FeedbackConfig,
};
use sophon::ext::sharding::fleet_nodes_sharing_link;

/// Browned epochs must stay within this multiple of the calm baseline.
const CALM_CEILING: f64 = 1.5;

/// Fixed-fidelity epochs must exceed this multiple of the calm baseline
/// (the collapse brownout is rescuing the run from).
const COLLAPSE_FLOOR: f64 = 3.0;

/// Residual link factors swept, harshest last.
const SWEEP: [f64; 3] = [0.5, 0.35, 0.25];

/// The sweep point the `--assert` gates judge: its harshest.
const GATE_FACTOR: f64 = SWEEP[SWEEP.len() - 1];

/// Storage nodes in the fleet.
const SHARDS: usize = 4;

/// Replicas per sample.
const REPLICATION: usize = 2;

/// Training batch size.
const BATCH: usize = 64;

/// Placement seed for the shard map. Pinned so the sweep varies only the
/// chaos schedule: the seed under test perturbs *when* links collapse,
/// not where samples live.
const MAP_SEED: u64 = 11;

/// One seed's calm baseline, then its fixed, browned and repeated browned
/// epochs at each link factor of the sweep.
fn run_seed(
    profiles: &[SampleProfile],
    pipeline: &PipelineSpec,
    cores: usize,
    seed: u64,
) -> (AdaptiveEpochReport, Vec<[AdaptiveEpochReport; 3]>) {
    let config = ClusterConfig::paper_testbed(cores);
    let ctx = PlanningContext::new(profiles, pipeline, &config, GpuModel::AlexNet, BATCH);
    let map = ShardMap::new(SHARDS, REPLICATION, MAP_SEED);
    let nodes = fleet_nodes_sharing_link(&config, SHARDS);
    let batches = (profiles.len() / BATCH) as u64;
    // With ~32 batches per epoch and the squeeze landing at ~15%, the
    // default 4-batch cooldown wastes an eighth of the epoch at full
    // fidelity after the trip; a 2-batch cooldown halves the reaction
    // lag while the deadband still prevents thrash.
    let feedback = FeedbackConfig {
        cooldown_batches: 2,
        brownout: Some(BrownoutConfig::default()),
        ..FeedbackConfig::default()
    };
    let epoch = |chaos: &[ChaosEvent], feedback: Option<&FeedbackConfig>| {
        run_fleet_epoch_adaptive(&ctx, &map, &nodes, chaos, feedback).expect("fleet epoch")
    };
    let calm = epoch(&[], None);
    let sweep = SWEEP.map(|link_factor| {
        let chaos = chaos_link_squeeze_to(seed, SHARDS, batches, link_factor);
        [None, Some(&feedback), Some(&feedback)].map(|feedback| epoch(&chaos, feedback))
    });
    (calm, sweep.into())
}

fn main() {
    let args =
        Args::parse("brownout", &[("--seeds", "17,83"), ("--samples", "2048"), ("--cores", "2")]);
    let seeds: Vec<u64> = args.list("--seeds");
    let samples: u64 = args.value("--samples");
    let cores: usize = args.value("--cores");

    let ds = DatasetSpec::imagenet_like(samples, 23);
    let pipeline = PipelineSpec::standard_train();
    let model = CostModel::realistic();
    let profiles: Vec<SampleProfile> =
        ds.records().map(|r| r.analytic_profile(&pipeline, &model)).collect();

    let mut report = Report::new("brownout")
        .param("samples", samples)
        .param("storage_cores", cores)
        .param("shards", SHARDS)
        .param("batch", BATCH)
        .param("calm_ceiling", CALM_CEILING)
        .param("collapse_floor", COLLAPSE_FLOOR)
        .param("gate_factor", GATE_FACTOR);
    let mut verdicts = Verdicts::default();
    let floor = BrownoutConfig::default().min_fidelity;
    for &seed in &seeds {
        let (calm, sweep) = run_seed(&profiles, &pipeline, cores, seed);
        for (link_factor, [fixed_fidelity, browned, repeat]) in SWEEP.into_iter().zip(sweep) {
            let digests_match =
                browned.digest == calm.digest && fixed_fidelity.digest == calm.digest;
            report.row([
                ("seed", seed.to_string()),
                ("link_factor", link_factor.to_string()),
                ("calm_s", fixed(calm.epoch_seconds, 3)),
                ("fixed_s", fixed(fixed_fidelity.epoch_seconds, 3)),
                ("browned_s", fixed(browned.epoch_seconds, 3)),
                ("calm_gb", fixed(calm.traffic_bytes as f64 / 1e9, 3)),
                ("fixed_gb", fixed(fixed_fidelity.traffic_bytes as f64 / 1e9, 3)),
                ("browned_gb", fixed(browned.traffic_bytes as f64 / 1e9, 3)),
                ("replans", browned.replans.len().to_string()),
                ("mean_fidelity", fixed(browned.mean_fidelity, 4)),
                ("digests_match", digests_match.to_string()),
                ("deterministic", (repeat == browned).to_string()),
            ]);
            verdicts.check(
                Clock::Virtual,
                digests_match,
                format!(
                    "seed {seed} factor {link_factor} batch digests diverged from the calm \
                     baseline — degradation changed batch contents"
                ),
            );
            verdicts.check(
                Clock::Virtual,
                repeat == browned,
                format!("seed {seed} factor {link_factor} repeated browned run diverged"),
            );
            if link_factor != GATE_FACTOR {
                continue;
            }
            verdicts.check(
                Clock::Virtual,
                !browned.replans.is_empty(),
                format!("seed {seed} never replanned — the controller missed the squeeze"),
            );
            verdicts.check(
                Clock::Virtual,
                browned.epoch_seconds <= calm.epoch_seconds * CALM_CEILING,
                format!(
                    "seed {seed} browned {:.2}s vs calm {:.2}s — exceeds the {CALM_CEILING}x \
                     ceiling",
                    browned.epoch_seconds, calm.epoch_seconds
                ),
            );
            verdicts.check(
                Clock::Virtual,
                fixed_fidelity.epoch_seconds >= calm.epoch_seconds * COLLAPSE_FLOOR,
                format!(
                    "seed {seed} fixed {:.2}s vs calm {:.2}s — the squeeze is not biting \
                     (wanted >= {COLLAPSE_FLOOR}x)",
                    fixed_fidelity.epoch_seconds, calm.epoch_seconds
                ),
            );
            verdicts.check(
                Clock::Virtual,
                (floor..1.0).contains(&browned.mean_fidelity),
                format!(
                    "seed {seed} delivered mean fidelity {:.3} outside [{floor}, 1)",
                    browned.mean_fidelity
                ),
            );
        }
    }
    report.publish(&args);
    verdicts.finish(&args);
}
