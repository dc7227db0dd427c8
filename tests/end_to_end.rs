//! Whole-system integration tests spanning every crate: dataset →
//! profiling → SOPHON plan → (a) live execution through the real storage
//! server and throttled link, and (b) virtual-time simulation — checking
//! the two agree where they must.

use cluster::{ClusterConfig, GpuModel};
use datasets::DatasetSpec;
use netsim::Bandwidth;
use pipeline::{CostModel, PipelineSpec, SampleKey, SplitPoint, StageData};
use sophon::engine::PlanningContext;
use sophon::live::{Corpus, Session};
use sophon::loader::LoaderConfig;
use sophon::prelude::*;
use storage::{ServerConfig, TcpStorageClient, TcpStorageServer};

const N: u64 = 12;

fn live_setup() -> (DatasetSpec, Corpus, PipelineSpec) {
    let ds = DatasetSpec::mini(N, 99);
    let corpus = Corpus::materialize(&ds);
    (ds, corpus, PipelineSpec::standard_train())
}

fn server_config(cores: usize) -> ServerConfig {
    ServerConfig { cores, bandwidth: Bandwidth::from_gbps(10.0), ..ServerConfig::default() }
}

#[test]
fn sophon_offloaded_tensors_equal_local_tensors() {
    // The core correctness claim: whatever split SOPHON chooses, the tensor
    // the GPU sees is bit-identical to unsplit local preprocessing.
    let (ds, corpus, pipeline) = live_setup();
    let store = corpus.store();
    let profiles = corpus.profiles(&pipeline, &CostModel::realistic()).unwrap();
    let config = ClusterConfig::paper_testbed(2).with_bandwidth(Bandwidth::from_mbps(100.0));
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, 4);
    let plan = SophonPolicy::without_stage1_gate().plan(&ctx).unwrap();
    assert!(plan.offloaded_samples() > 0, "mini corpus should offer offload candidates");

    let server = TcpStorageServer::bind(store.clone(), server_config(2), "127.0.0.1:0").unwrap();
    let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
    client.configure(ds.seed, pipeline.clone()).unwrap();

    let epoch = 1u64;
    for id in 0..N {
        let split = plan.split(id as usize);
        let remote = client.fetch(id, epoch, split).unwrap();
        let key = SampleKey::new(ds.seed, id, epoch);
        let via_server = pipeline.run_suffix(remote, split, key).unwrap();
        let local = pipeline.run(StageData::Encoded(store.get(id).unwrap()), key).unwrap();
        assert_eq!(
            via_server.as_tensor().unwrap().to_le_bytes(),
            local.as_tensor().unwrap().to_le_bytes(),
            "sample {id} split {split:?} diverged"
        );
    }
    server.shutdown();
}

#[test]
fn wire_traffic_matches_plan_prediction() {
    // Bytes measured on the live link must match the plan's per-sample
    // `size_at(split)` prediction exactly (payload part; framing adds 29
    // bytes per raw response: the length prefix, a 21-byte head and the
    // CRC).
    let (ds, corpus, pipeline) = live_setup();
    let profiles = corpus.profiles(&pipeline, &CostModel::realistic()).unwrap();
    let plan = OffloadPlan::from_splits(
        (0..N as usize)
            .map(|i| if i % 2 == 0 { SplitPoint::new(2) } else { SplitPoint::NONE })
            .collect(),
    );
    let expected_payload: u64 =
        profiles.iter().zip(plan.iter()).map(|(p, s)| p.size_at(s.offloaded_ops())).sum();

    let server =
        TcpStorageServer::bind(corpus.store().clone(), server_config(3), "127.0.0.1:0").unwrap();
    let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
    client.configure(ds.seed, pipeline).unwrap();
    let reqs: Vec<_> =
        (0..N).map(|id| storage::FetchRequest::new(id, 0, plan.split(id as usize))).collect();
    let responses = client.fetch_many_requests(&reqs).unwrap();
    assert_eq!(responses.len(), N as usize);

    // The meter counts a frame before the write that completes it, so
    // every response the client holds is already in it.
    let framing = server.response_bytes() - expected_payload;
    server.shutdown();
    assert!(framing < N * 32, "framing overhead {framing} bytes is too large for {N} responses");
}

#[test]
fn simulated_and_predicted_traffic_agree_at_scale() {
    let ds = DatasetSpec::openimages_like(4_096, 17);
    let scenario = Scenario::new(ds, ClusterConfig::paper_testbed(48), GpuModel::AlexNet, 256);
    for report in scenario.run_all().unwrap() {
        assert_eq!(
            report.epoch.traffic_bytes, report.summary.transfer_bytes,
            "{}: simulated vs planned traffic",
            report.policy
        );
        // The cost-vector makespan is a lower bound on the simulated epoch,
        // and a reasonably tight one for pipelined execution.
        assert!(
            report.epoch.epoch_seconds >= report.costs.makespan() * 0.98,
            "{}: epoch {} below makespan {}",
            report.policy,
            report.epoch.epoch_seconds,
            report.costs.makespan()
        );
        assert!(
            report.epoch.epoch_seconds <= report.costs.makespan() * 1.35 + 1.0,
            "{}: epoch {} far above makespan {}",
            report.policy,
            report.epoch.epoch_seconds,
            report.costs.makespan()
        );
    }
}

#[test]
fn augmentations_vary_across_epochs_through_the_server() {
    // §3.3: offloading must not freeze augmentations. Fetch the same sample
    // in two epochs with the same split; the crops must differ.
    let (ds, corpus, pipeline) = live_setup();
    let server =
        TcpStorageServer::bind(corpus.store().clone(), server_config(1), "127.0.0.1:0").unwrap();
    let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
    client.configure(ds.seed, pipeline).unwrap();
    let a = client.fetch(3, 0, SplitPoint::new(2)).unwrap();
    let b = client.fetch(3, 1, SplitPoint::new(2)).unwrap();
    assert_eq!(a.byte_len(), b.byte_len());
    assert_ne!(
        a.as_image().unwrap().as_raw(),
        b.as_image().unwrap().as_raw(),
        "epoch 0 and 1 produced identical augmented crops"
    );
    server.shutdown();
}

#[test]
fn loader_over_tcp_with_retry_and_compression() {
    // The full adoption stack in one test: SOPHON plan → retrying TCP
    // transport → offloading loader with wire re-compression → collated
    // NCHW batches identical in shape to local preprocessing.
    let ds = DatasetSpec::mini(8, 123);
    let corpus = Corpus::materialize(&ds);
    let pipeline = PipelineSpec::standard_train();
    let model = CostModel::realistic();
    let plan = OffloadPlan::from_splits(
        ds.records().map(|r| r.analytic_profile(&pipeline, &model).best_split()).collect(),
    );

    let mut config = LoaderConfig::new(ds.seed, 3);
    config.reencode_quality = Some(85);
    let mut session = Session::builder(&corpus, pipeline, plan, config)
        .server(server_config(2))
        .resilient()
        .start()
        .unwrap();
    let mut total_samples = 0usize;
    let batches = session
        .run_epoch(2, &[], |b| {
            assert_eq!(b.shape(), (224, 224));
            total_samples += b.len();
        })
        .unwrap();
    assert_eq!(batches, 3);
    assert_eq!(total_samples, 8);
}

#[test]
fn warm_cache_epochs_are_bit_identical_to_cold_fetches() {
    // The cache correctness claim: serving a sample's epoch-stable prefix
    // from the near-compute cache must yield bit-identical TensorBatches
    // to fetching it fresh — in *every* epoch, because the suffix (the
    // random ops) still reruns with that epoch's RNG. And caching must not
    // freeze augmentations: consecutive warm epochs still differ.
    use cache::SampleCache;
    use sophon::ext::caching::{self, CacheSelection};
    use sophon::ext::sharding::{self, FleetPlanRequest};

    let (ds, corpus, pipeline) = live_setup();
    let profiles = corpus.profiles(&pipeline, &CostModel::realistic()).unwrap();
    let config = ClusterConfig::paper_testbed(2).with_bandwidth(Bandwidth::from_mbps(100.0));
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, 4);
    // Full budget: every sample is pinned at an epoch-stable split.
    let assign =
        caching::choose_cache_contents(&ctx, u64::MAX / 2, CacheSelection::EfficiencyAware);
    assert_eq!(assign.cached_samples(), N as usize);
    // The two-node testbed is the one-shard fleet.
    let map = fleet::ShardMap::new(1, 1, 0);
    let nodes = sharding::fleet_nodes(&config, 1);
    let request = FleetPlanRequest { cache: Some(&assign), ..FleetPlanRequest::new(&map, &nodes) };
    let plan = sharding::plan_fleet(&ctx, &request).unwrap().plan;

    let run_epochs = |cache: Option<SampleCache>, epochs: &[u64]| {
        let config = LoaderConfig::new(ds.seed, 4);
        let mut builder = Session::builder(&corpus, pipeline.clone(), plan.clone(), config)
            .server(server_config(2));
        if let Some(cache) = cache {
            builder = builder.cache(cache, []);
        }
        let mut session = builder.start().unwrap();
        let mut batches: Vec<Vec<pipeline::TensorBatch>> = Vec::new();
        for &e in epochs {
            let mut got = Vec::new();
            session.run_epoch(e, &[], |b| got.push(b)).unwrap();
            batches.push(got);
        }
        (batches, session.harness().traffic_total().bytes)
    };

    // Cached run: epoch 0 cold (fills the cache), epochs 3 and 4 warm.
    let (cached, cached_wire) =
        run_epochs(Some(SampleCache::efficiency_aware(u64::MAX / 2)), &[0, 3, 4]);
    // Reference run without any cache, fetching epochs 3 and 4 fresh.
    let (fresh, fresh_wire) = run_epochs(None, &[3, 4]);

    assert_eq!(cached[1], fresh[0], "warm epoch 3 diverged from a fresh fetch");
    assert_eq!(cached[2], fresh[1], "warm epoch 4 diverged from a fresh fetch");
    assert_ne!(cached[1], cached[2], "caching must not freeze augmentations across epochs");
    assert!(
        cached_wire < fresh_wire,
        "two warm epochs ({cached_wire} wire bytes incl. cold fill) should move \
         less than two fresh epochs ({fresh_wire})"
    );
}

#[test]
fn caching_and_retrying_transports_compose_either_way() {
    // Compile-time check: the decorators stack in either order under the
    // loader's `FetchTransport` bound.
    use cache::CachingTransport;
    use storage::{FetchTransport, RetryingTransport};

    fn assert_transport<X: FetchTransport>() {}
    assert_transport::<CachingTransport<RetryingTransport<TcpStorageClient>>>();
    assert_transport::<RetryingTransport<CachingTransport<TcpStorageClient>>>();
}

#[test]
fn umbrella_crate_reexports_compile() {
    // The root crate's re-exports expose the whole workspace.
    let _ = sophon_repro::imagery::Rgb::BLACK;
    let _ = sophon_repro::codec::Quality::default();
    let _ = sophon_repro::pipeline::PipelineSpec::standard_train();
    let _ = sophon_repro::datasets::DatasetSpec::mini(1, 1);
    let _ = sophon_repro::netsim::Bandwidth::from_mbps(500.0);
    let _ = sophon_repro::cluster::ClusterConfig::paper_testbed(48);
    let _ = sophon_repro::storage::ObjectStore::new();
    let _ = sophon_repro::sophon::policy::standard_policies();
}
