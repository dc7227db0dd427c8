//! Four-node fleet demo over **real TCP sockets**, with a mid-epoch node
//! kill: the corpus is sharded across four storage servers by a
//! consistent-hash [`fleet::ShardMap`] with 2-way replication, planned
//! shard-by-shard with SOPHON, and fetched through a scatter-gather
//! [`fleet::FleetTransport`]. One node is killed while the epoch is
//! running — every sample still arrives, served by its replica, and the
//! collated batches are bit-identical to a single-node run.
//!
//! ```sh
//! cargo run --release --example fleet_four_node
//! ```

use cluster::{ClusterConfig, GpuModel, KillEvent};
use datasets::DatasetSpec;
use fleet::ShardMap;
use netsim::Bandwidth;
use pipeline::{CostModel, PipelineSpec, TensorBatch};
use sophon::engine::PlanningContext;
use sophon::ext::sharding::{self, FleetPlanRequest};
use sophon::live::{Corpus, Session};
use sophon::loader::LoaderConfig;
use storage::ServerConfig;

const SAMPLES: u64 = 32;
const NODES: usize = 4;
const REPLICATION: usize = 2;
const BATCH: usize = 4;
const PLACEMENT_SEED: u64 = 7;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = DatasetSpec::mini(SAMPLES, 1234);
    println!("materializing {SAMPLES} samples...");
    let corpus = Corpus::materialize(&ds);

    // Shard-aware SOPHON plan: each shard's samples are planned against its
    // own storage node.
    let pipeline = PipelineSpec::standard_train();
    let profiles = corpus.profiles(&pipeline, &CostModel::realistic())?;
    let config = ClusterConfig::paper_testbed(2).with_bandwidth(Bandwidth::from_mbps(100.0));
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, BATCH);
    let map = ShardMap::new(NODES, REPLICATION, PLACEMENT_SEED);
    let nodes = sharding::fleet_nodes(&config, NODES);
    let sharded = sharding::plan_fleet(&ctx, &FleetPlanRequest::new(&map, &nodes))?;
    println!(
        "fleet plan: {} of {SAMPLES} samples offloaded across {NODES} shards\n",
        sharded.plan.offloaded_samples()
    );
    for s in &sharded.per_shard {
        println!(
            "  node{}: {} samples ({} offloaded), {:.1} MB planned transfer",
            s.shard,
            s.samples,
            s.offloaded_samples,
            s.transfer_bytes as f64 / 1e6
        );
    }

    // Four live TCP servers, each storing its primaries plus replicas.
    let server_config =
        ServerConfig { cores: 2, bandwidth: Bandwidth::from_gbps(10.0), ..ServerConfig::default() };
    let session = |map: ShardMap| {
        let config = LoaderConfig::new(ds.seed, BATCH);
        Session::builder(&corpus, pipeline.clone(), sharded.plan.clone(), config)
            .shards(map)
            .server(server_config)
            .start()
    };

    // Kill one node after the second of eight batches; replication 2 means
    // every one of its samples has a surviving replica.
    let victim = map.primary(0);
    println!("\nrunning the epoch; killing node{victim} mid-epoch...");
    let mut fleet = session(map)?;
    let mut fleet_batches: Vec<TensorBatch> = Vec::new();
    fleet.run_epoch(0, &[KillEvent::new(victim, 0.25)], |b| fleet_batches.push(b))?;
    for t in fleet.harness().traffic() {
        println!("  {}: {:.2} MB in {} responses", t.label, t.bytes as f64 / 1e6, t.messages);
    }
    let total = fleet.harness().traffic_total();
    println!("  fleet total: {:.2} MB", total.bytes as f64 / 1e6);
    drop(fleet);

    // Reference: the same plan through one storage server.
    let mut single_batches: Vec<TensorBatch> = Vec::new();
    session(ShardMap::new(1, 1, 0))?.run_epoch(0, &[], |b| single_batches.push(b))?;

    let delivered: usize = fleet_batches.iter().map(TensorBatch::len).sum();
    assert_eq!(delivered as u64, SAMPLES, "fleet lost samples");
    assert_eq!(fleet_batches, single_batches, "fleet batches diverged from single-node");
    println!(
        "\nall {SAMPLES} samples delivered despite the kill; \
         batches bit-identical to the single-node run"
    );
    Ok(())
}
