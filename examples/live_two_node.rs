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
use pipeline::{CostModel, PipelineSpec, SampleKey, SplitPoint};
use sophon::engine::PlanningContext;
use sophon::prelude::*;
use storage::{FetchRequest, ObjectStore, ServerConfig, TcpStorageClient, TcpStorageServer};

const SAMPLES: u64 = 48;
const EPOCH: u64 = 0;

fn run_epoch(
    ds: &DatasetSpec,
    store: ObjectStore,
    plan: &OffloadPlan,
    label: &str,
) -> Result<(f64, u64), Box<dyn std::error::Error>> {
    let pipeline = PipelineSpec::standard_train();
    let server = TcpStorageServer::bind(
        store,
        ServerConfig { cores: 4, bandwidth: Bandwidth::from_mbps(40.0), ..ServerConfig::default() },
        "127.0.0.1:0",
    )?;
    let mut client = TcpStorageClient::connect(server.local_addr())?;
    client.configure(ds.seed, pipeline.clone())?;

    let start = Instant::now();
    let requests: Vec<_> =
        (0..SAMPLES).map(|id| FetchRequest::new(id, EPOCH, plan.split(id as usize))).collect();
    let responses = client.fetch_many_requests(&requests)?;
    // Finish the remaining pipeline suffix locally and "feed the GPU".
    let mut tensor_bytes = 0u64;
    for resp in responses {
        let split = SplitPoint::new(resp.ops_applied as usize);
        let key = SampleKey::new(ds.seed, resp.sample_id, EPOCH);
        let tensor = pipeline.run_suffix(resp.data, split, key)?;
        tensor_bytes += tensor.byte_len();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let wire = server.response_bytes();
    println!(
        "{label:<8} wall {elapsed:>6.2}s   wire {:>8.2} MB   tensors {:>8.2} MB",
        wire as f64 / 1e6,
        tensor_bytes as f64 / 1e6
    );
    server.shutdown();
    Ok((elapsed, wire))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = DatasetSpec::mini(SAMPLES, 2024);
    println!("materializing {SAMPLES} samples through the real codec...");
    let store = ObjectStore::materialize_dataset(&ds, 0..SAMPLES);
    println!("corpus: {:.1} MB encoded\n", store.total_bytes() as f64 / 1e6);

    // Plan with SOPHON over live profiles of the materialized corpus.
    let pipeline = PipelineSpec::standard_train();
    let model = CostModel::realistic();
    let profiles = sophon::profiler::stage2::profile_corpus_live(&ds, &pipeline, &model, EPOCH)?;
    let config = ClusterConfig::paper_testbed(4).with_bandwidth(Bandwidth::from_mbps(40.0));
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, 8);
    let plan = SophonPolicy::without_stage1_gate().plan(&ctx)?;
    println!("SOPHON plan: offloading {} of {SAMPLES} samples\n", plan.offloaded_samples());

    let (t_none, wire_none) = run_epoch(
        &ds,
        ObjectStore::materialize_dataset(&ds, 0..SAMPLES),
        &OffloadPlan::none(SAMPLES as usize),
        "no-off",
    )?;
    let (t_sophon, wire_sophon) =
        run_epoch(&ds, ObjectStore::materialize_dataset(&ds, 0..SAMPLES), &plan, "sophon")?;

    println!(
        "\nSOPHON moved {:.2}x fewer bytes and finished {:.2}x faster (wall clock, real transfer)",
        wire_none as f64 / wire_sophon as f64,
        t_none / t_sophon
    );
    Ok(())
}
