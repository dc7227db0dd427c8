//! A complete training loop on the public API: SOPHON plans offloading,
//! an [`sophon::loader::OffloadingLoader`] streams collated NCHW batches
//! from a real TCP storage server, and a toy "model" consumes them.
//!
//! ```sh
//! cargo run --release --example train_loop
//! ```

use std::time::Instant;

use cluster::{ClusterConfig, GpuModel};
use datasets::DatasetSpec;
use netsim::Bandwidth;
use pipeline::{CostModel, PipelineSpec};
use sophon::engine::PlanningContext;
use sophon::loader::{LoaderConfig, OffloadingLoader};
use sophon::prelude::*;
use storage::{ObjectStore, ServerConfig, TcpStorageClient, TcpStorageServer};

const SAMPLES: u64 = 24;
const BATCH: usize = 8;
const EPOCHS: u64 = 2;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = DatasetSpec::mini(SAMPLES, 7777);
    println!("materializing {SAMPLES} samples and starting the TCP storage server...");
    let store = ObjectStore::materialize_dataset(&ds, 0..SAMPLES);
    let server = TcpStorageServer::bind(
        store,
        ServerConfig { cores: 4, bandwidth: Bandwidth::from_mbps(80.0), ..ServerConfig::default() },
        "127.0.0.1:0",
    )?;

    // Plan with SOPHON over live profiles.
    let pipeline = PipelineSpec::standard_train();
    let model = CostModel::realistic();
    let profiles = sophon::profiler::stage2::profile_corpus_live(&ds, &pipeline, &model, 0)?;
    let config = ClusterConfig::paper_testbed(4).with_bandwidth(Bandwidth::from_mbps(80.0));
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, BATCH);
    let plan = SophonPolicy::without_stage1_gate().plan(&ctx)?;
    println!("plan: {} of {SAMPLES} samples offloaded\n", plan.offloaded_samples());

    let transport = TcpStorageClient::connect(server.local_addr())?;
    let mut loader_config = LoaderConfig::new(ds.seed, BATCH);
    loader_config.reencode_quality = Some(85); // selective compression on the wire
    let mut loader = OffloadingLoader::new(transport, pipeline, plan, loader_config)?;

    // The "model": track a running mean activation as a stand-in for a
    // forward pass, proving the batches carry real data.
    let mut running_mean = 0.0f64;
    let mut seen = 0usize;
    let start = Instant::now();
    for epoch in 0..EPOCHS {
        let mut batches = 0usize;
        loader.run_epoch(epoch, |batch| {
            let sum: f64 = batch.as_slice().iter().map(|&v| f64::from(v)).sum();
            running_mean =
                (running_mean * seen as f64 + sum) / (seen as f64 + batch.element_count() as f64);
            seen += batch.element_count();
            batches += 1;
        })?;
        println!("epoch {epoch}: {batches} batches, running activation mean {running_mean:+.4}");
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "\ntrained {EPOCHS} epochs x {SAMPLES} samples in {elapsed:.2}s wall; \
         {:.2} MB over the wire",
        server.response_bytes() as f64 / 1e6
    );
    server.shutdown();
    Ok(())
}
