//! Times the end-to-end offloading data loader over the live in-process
//! storage server (real bytes, real threads, throttled pipes).

use criterion::{criterion_group, criterion_main, Criterion};
use netsim::Bandwidth;
use pipeline::{CostModel, PipelineSpec};
use sophon::loader::{LoaderConfig, OffloadingLoader};
use sophon::OffloadPlan;
use storage::{ObjectStore, ServerConfig, TcpStorageClient, TcpStorageServer};

const N: u64 = 16;

fn bench(c: &mut Criterion) {
    let ds = datasets::DatasetSpec::mini(N, 321);
    let store = ObjectStore::materialize_dataset(&ds, 0..N);
    let pipeline = PipelineSpec::standard_train();
    let model = CostModel::realistic();
    let plan = OffloadPlan::from_splits(
        ds.records().map(|r| r.analytic_profile(&pipeline, &model).best_split()).collect(),
    );

    let mut group = c.benchmark_group("loader_live");
    group.sample_size(10);
    for (name, reencode) in [("plain", None), ("compressed", Some(85u8))] {
        group.bench_function(format!("epoch_{N}samples/{name}"), |b| {
            b.iter_batched(
                || {
                    let server = TcpStorageServer::bind(
                        store.clone(),
                        ServerConfig {
                            cores: 4,
                            bandwidth: Bandwidth::from_gbps(10.0),
                            ..ServerConfig::default()
                        },
                        "127.0.0.1:0",
                    )
                    .unwrap();
                    let client = TcpStorageClient::connect(server.local_addr()).unwrap();
                    let mut config = LoaderConfig::new(ds.seed, 8);
                    config.reencode_quality = reencode;
                    config.workers = 4;
                    let loader =
                        OffloadingLoader::new(client, pipeline.clone(), plan.clone(), config)
                            .expect("configure succeeds");
                    (server, loader)
                },
                |(server, mut loader)| {
                    let mut total = 0usize;
                    loader.run_epoch(0, |b| total += b.len()).expect("epoch runs");
                    assert_eq!(total, N as usize);
                    server.shutdown();
                },
                criterion::BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
