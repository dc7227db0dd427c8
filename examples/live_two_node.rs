//! Live two-node demo: real bytes through a real bandwidth-throttled link.
//!
//! A storage server bound to 127.0.0.1 executes offloaded preprocessing
//! prefixes over a materialized corpus and paces its responses at 40 Mbps
//! (a token bucket in front of the socket); the "compute node" (this
//! thread) fetches over the loopback and finishes the pipeline. Compares
//! No-Off against the SOPHON plan on wall-clock time and measured wire
//! bytes — the end-to-end path of the paper's Figure 2.
//!
//! ```sh
//! cargo run --release --example live_two_node
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

const SAMPLES: u64 = 48;
const BATCH: usize = 8;

fn run_epoch(
    corpus: &Corpus,
    plan: &OffloadPlan,
    label: &str,
) -> Result<(f64, u64), Box<dyn std::error::Error>> {
    let config = LoaderConfig::new(corpus.spec().seed, BATCH);
    let mut session =
        Session::builder(corpus, PipelineSpec::standard_train(), plan.clone(), config)
            .server(ServerConfig {
                cores: 4,
                bandwidth: Bandwidth::from_mbps(40.0),
                ..ServerConfig::default()
            })
            .start()?;

    // Finish the remaining pipeline suffix locally and "feed the GPU".
    let start = Instant::now();
    let mut tensor_bytes = 0u64;
    session.run_epoch(0, &[], |batch| tensor_bytes += batch.byte_len() as u64)?;
    let elapsed = start.elapsed().as_secs_f64();
    let wire = session.harness().traffic_total().bytes;
    println!(
        "{label:<8} wall {elapsed:>6.2}s   wire {:>8.2} MB   tensors {:>8.2} MB",
        wire as f64 / 1e6,
        tensor_bytes as f64 / 1e6
    );
    Ok((elapsed, wire))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = DatasetSpec::mini(SAMPLES, 2024);
    println!("materializing {SAMPLES} samples through the real codec...");
    let corpus = Corpus::materialize(&ds);
    println!("corpus: {:.1} MB encoded\n", corpus.store().total_bytes() as f64 / 1e6);

    // Plan with SOPHON over live profiles of the materialized corpus.
    let pipeline = PipelineSpec::standard_train();
    let profiles = corpus.profiles(&pipeline, &CostModel::realistic())?;
    let config = ClusterConfig::paper_testbed(4).with_bandwidth(Bandwidth::from_mbps(40.0));
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, BATCH);
    let plan = SophonPolicy::without_stage1_gate().plan(&ctx)?;
    println!("SOPHON plan: offloading {} of {SAMPLES} samples\n", plan.offloaded_samples());

    let (t_none, wire_none) = run_epoch(&corpus, &OffloadPlan::none(SAMPLES as usize), "no-off")?;
    let (t_sophon, wire_sophon) = run_epoch(&corpus, &plan, "sophon")?;

    println!(
        "\nSOPHON moved {:.2}x fewer bytes and finished {:.2}x faster (wall clock, real transfer)",
        wire_none as f64 / wire_sophon as f64,
        t_none / t_sophon
    );
    Ok(())
}
