//! End-to-end chaos: a replicated TCP fleet under an aggressive fault plan
//! (drops, delays, truncations, bit-flips, injected errors) still delivers
//! every sample, bit-identical to a fault-free run — and the injected fault
//! sequence reproduces exactly from the seed.
//!
//! CI runs this suite under several seeds via the `CHAOS_SEED` environment
//! variable (default 17); any failure reproduces locally with
//! `CHAOS_SEED=<seed> cargo test --test chaos_end_to_end`.

use cluster::{ClusterConfig, GpuModel};
use datasets::DatasetSpec;
use fleet::ShardMap;
use netsim::Bandwidth;
use pipeline::{CostModel, PipelineSpec, TensorBatch};
use sophon::engine::PlanningContext;
use sophon::ext::sharding::{self, FleetPlanRequest};
use sophon::live::{Corpus, Session};
use sophon::loader::LoaderConfig;
use sophon::OffloadPlan;
use storage::{FaultKind, FaultPlan, FaultRecord, ServerConfig};

const N: u64 = 16;
const BATCH: usize = 4;
const NODES: usize = 3;
const REPLICATION: usize = 2;

/// Seed for the fault schedule; CI sweeps this via the environment.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(17)
}

/// Runs one epoch over a live fleet, optionally under chaos, and returns
/// the collated batches plus the fleet-wide fault log.
fn run_epoch(
    corpus: &Corpus,
    map: &ShardMap,
    plan: &OffloadPlan,
    chaos: Option<&FaultPlan>,
) -> (Vec<TensorBatch>, Vec<FaultRecord>) {
    // The production resilience stack per node: a finite deadline turns a
    // dropped response frame into `DeadlineExceeded`, and the retry layer
    // re-issues the batch until the fault plan's attempt bound clears it.
    let config = LoaderConfig::new(corpus.spec().seed, BATCH);
    let mut builder =
        Session::builder(corpus, PipelineSpec::standard_train(), plan.clone(), config)
            .shards(map.clone())
            .server(ServerConfig {
                cores: 2,
                bandwidth: Bandwidth::from_gbps(10.0),
                ..ServerConfig::default()
            })
            .resilient();
    if let Some(p) = chaos {
        builder = builder.faults(p.clone());
    }
    let mut session = builder.start().unwrap();
    let mut batches: Vec<TensorBatch> = Vec::new();
    session.run_epoch(0, &[], |b| batches.push(b)).unwrap();
    (batches, session.harness().fault_logs())
}

#[test]
fn aggressive_chaos_loses_nothing_and_reproduces_per_seed() {
    let seed = chaos_seed();
    let ds = DatasetSpec::mini(N, 88);
    let corpus = Corpus::materialize(&ds);
    let pipeline = PipelineSpec::standard_train();
    let profiles = corpus.profiles(&pipeline, &CostModel::realistic()).unwrap();
    let config = ClusterConfig::paper_testbed(2).with_bandwidth(Bandwidth::from_mbps(100.0));
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, BATCH);
    let map = ShardMap::new(NODES, REPLICATION, 17);
    let nodes = sharding::fleet_nodes(&config, NODES);
    let sharded = sharding::plan_fleet(&ctx, &FleetPlanRequest::new(&map, &nodes)).unwrap();
    assert!(
        sharded.plan.offloaded_samples() > 0,
        "the chaos run must exercise offloaded fetches, not just raw reads"
    );

    // The scripted bit-flip pins at least one corruption regardless of the
    // seed's random schedule, so the CRC detection path always runs.
    let chaos = FaultPlan::aggressive(seed).script(0, 0, 0, FaultKind::BitFlip);

    let (chaos_batches, log_a) = run_epoch(&corpus, &map, &sharded.plan, Some(&chaos));
    let delivered: usize = chaos_batches.iter().map(TensorBatch::len).sum();
    assert_eq!(delivered as u64, N, "chaos lost samples (seed {seed})");
    assert!(!log_a.is_empty(), "the aggressive plan injected nothing (seed {seed})");
    assert!(
        log_a.iter().any(|r| r.sample_id == 0 && r.attempt == 0 && r.kind == "bit-flip"),
        "the scripted bit-flip never fired (seed {seed})"
    );

    // Bit-identity: chaos may delay, reorder retries, and corrupt frames,
    // but every surviving tensor must equal the fault-free run's.
    let (clean_batches, clean_log) = run_epoch(&corpus, &map, &sharded.plan, None);
    assert!(clean_log.is_empty());
    assert_eq!(chaos_batches, clean_batches, "chaos perturbed tensor contents (seed {seed})");

    // Determinism: the same seed injects the identical fault sequence.
    let (_, log_b) = run_epoch(&corpus, &map, &sharded.plan, Some(&chaos));
    assert_eq!(log_a, log_b, "fault sequence did not reproduce (seed {seed})");
}
