//! A complete training loop on the public API: SOPHON plans offloading,
//! a [`sophon::live::Session`] streams collated NCHW batches from a real
//! TCP storage server, and a toy "model" consumes them.
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
use sophon::live::{Corpus, Session};
use sophon::loader::LoaderConfig;
use sophon::prelude::*;
use storage::ServerConfig;

const SAMPLES: u64 = 24;
const BATCH: usize = 8;
const EPOCHS: u64 = 2;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = DatasetSpec::mini(SAMPLES, 7777);
    println!("materializing {SAMPLES} samples and starting the TCP storage server...");
    let corpus = Corpus::materialize(&ds);

    // Plan with SOPHON over live profiles.
    let pipeline = PipelineSpec::standard_train();
    let profiles = corpus.profiles(&pipeline, &CostModel::realistic())?;
    let config = ClusterConfig::paper_testbed(4).with_bandwidth(Bandwidth::from_mbps(80.0));
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, BATCH);
    let plan = SophonPolicy::without_stage1_gate().plan(&ctx)?;
    println!("plan: {} of {SAMPLES} samples offloaded\n", plan.offloaded_samples());

    let mut loader_config = LoaderConfig::new(ds.seed, BATCH);
    loader_config.reencode_quality = Some(85); // selective compression on the wire
    let mut session = Session::builder(&corpus, pipeline, plan, loader_config)
        .server(ServerConfig {
            cores: 4,
            bandwidth: Bandwidth::from_mbps(80.0),
            ..ServerConfig::default()
        })
        .start()?;

    // The "model": track a running mean activation as a stand-in for a
    // forward pass, proving the batches carry real data.
    let mut running_mean = 0.0f64;
    let mut seen = 0usize;
    let start = Instant::now();
    for epoch in 0..EPOCHS {
        let mut batches = 0usize;
        session.run_epoch(epoch, &[], |batch| {
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
        session.harness().traffic_total().bytes as f64 / 1e6
    );
    Ok(())
}
