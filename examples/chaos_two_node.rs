//! Chaos demo over **real TCP sockets**: two replicated storage nodes serve
//! an epoch while a seeded [`storage::FaultPlan`] drops, delays, truncates,
//! bit-flips, and errors their responses on the wire. The client stack —
//! per-request [`storage::Deadline`] budgets, CRC32 frame verification, and
//! a bounded [`storage::RetryingTransport`] — absorbs every fault: all
//! samples arrive, bit-identical to a fault-free run, and the injected
//! fault sequence is a pure function of the seed.
//!
//! ```sh
//! cargo run --release --example chaos_two_node [seed]
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use cluster::{ClusterConfig, GpuModel};
use datasets::DatasetSpec;
use fleet::ShardMap;
use netsim::Bandwidth;
use pipeline::{CostModel, PipelineSpec, TensorBatch};
use sophon::engine::PlanningContext;
use sophon::ext::sharding::{self, FleetPlanRequest};
use sophon::live::{Corpus, Session};
use sophon::loader::LoaderConfig;
use storage::{FaultKind, FaultPlan, ServerConfig};

const SAMPLES: u64 = 32;
const NODES: usize = 2;
const REPLICATION: usize = 2;
const BATCH: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let ds = DatasetSpec::mini(SAMPLES, 1234);
    println!("materializing {SAMPLES} samples...");
    let corpus = Corpus::materialize(&ds);

    let pipeline = PipelineSpec::standard_train();
    let profiles = corpus.profiles(&pipeline, &CostModel::realistic())?;
    let config = ClusterConfig::paper_testbed(2).with_bandwidth(Bandwidth::from_mbps(100.0));
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, BATCH);
    let map = ShardMap::new(NODES, REPLICATION, 7);
    let nodes = sharding::fleet_nodes(&config, NODES);
    let sharded = sharding::plan_fleet(&ctx, &FleetPlanRequest::new(&map, &nodes))?;
    println!(
        "fleet plan: {} of {SAMPLES} samples offloaded across {NODES} replicated shards",
        sharded.plan.offloaded_samples()
    );

    // The aggressive preset fires every fault kind at rates that make
    // multi-fault batches routine; the scripted bit-flip guarantees the CRC
    // path is exercised whatever the seed.
    let chaos = FaultPlan::aggressive(seed).script(0, 0, 0, FaultKind::BitFlip);
    println!("chaos: aggressive fault plan, seed {seed}\n");

    let server_config =
        ServerConfig { cores: 2, bandwidth: Bandwidth::from_gbps(10.0), ..ServerConfig::default() };
    let run = |faults: Option<&FaultPlan>| -> Result<_, Box<dyn std::error::Error>> {
        // The resilience stack: a finite deadline turns dropped frames into
        // retryable timeouts; CRC32 turns corrupted frames into retryable
        // wire errors; the retry layer re-issues until the plan's attempt
        // bound lets the batch through.
        let config = LoaderConfig::new(ds.seed, BATCH);
        let mut builder = Session::builder(&corpus, pipeline.clone(), sharded.plan.clone(), config)
            .shards(map.clone())
            .server(server_config)
            .resilient();
        if let Some(plan) = faults {
            builder = builder.faults(plan.clone());
        }
        let mut session = builder.start()?;
        let mut batches: Vec<TensorBatch> = Vec::new();
        let start = Instant::now();
        session.run_epoch(0, &[], |b| batches.push(b))?;
        Ok((batches, session.harness().fault_logs(), start.elapsed()))
    };

    let (chaos_batches, fault_log, chaos_elapsed) = run(Some(&chaos))?;
    let mut by_kind: BTreeMap<&str, usize> = BTreeMap::new();
    for record in &fault_log {
        *by_kind.entry(record.kind).or_insert(0) += 1;
    }
    println!("epoch under chaos: {chaos_elapsed:?}, {} faults injected:", fault_log.len());
    for (kind, count) in &by_kind {
        println!("  {kind:<10} x{count}");
    }

    let (clean_batches, _, clean_elapsed) = run(None)?;
    println!("fault-free epoch:  {clean_elapsed:?}");

    let delivered: usize = chaos_batches.iter().map(TensorBatch::len).sum();
    assert_eq!(delivered as u64, SAMPLES, "chaos lost samples");
    assert_eq!(chaos_batches, clean_batches, "chaos perturbed tensor contents");
    println!(
        "\nall {SAMPLES} samples delivered through {} injected faults; \
         batches bit-identical to the fault-free run",
        fault_log.len()
    );
    println!("rerun with the same seed to see the identical fault sequence.");
    Ok(())
}
