//! Near-compute cache effectiveness: the budget sweep (planner +
//! simulator) at 0/10/30/100% of corpus bytes, plus live hit/miss costs
//! through a `CachingTransport` over the in-process storage server.

use cache::{CachingTransport, SampleCache};
use criterion::{criterion_group, criterion_main, Criterion};
use netsim::Bandwidth;
use pipeline::{PipelineSpec, SplitPoint};
use storage::{
    FetchRequest, FetchTransport, ObjectStore, ServerConfig, TcpStorageClient, TcpStorageServer,
};

const SAMPLES: u64 = 4_096;
const EPOCHS: u64 = 10;

fn sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_sweep");
    group.sample_size(10);
    for pct in [0u64, 10, 30, 100] {
        group.bench_function(format!("budget_{pct}pct"), |b| {
            b.iter(|| bench::cache_sweep(SAMPLES, EPOCHS, &[pct]))
        });
    }
    group.finish();
}

fn live_transport(c: &mut Criterion) {
    let n = 64u64;
    let ds = datasets::DatasetSpec::mini(n, 7);
    let store = ObjectStore::materialize_dataset(&ds, 0..n);
    let server = TcpStorageServer::bind(
        store,
        ServerConfig { cores: 3, bandwidth: Bandwidth::from_gbps(10.0), ..ServerConfig::default() },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut transport = CachingTransport::new(
        TcpStorageClient::connect(server.local_addr()).unwrap(),
        SampleCache::efficiency_aware(1 << 30),
    );
    transport.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
    let requests: Vec<FetchRequest> =
        (0..n).map(|id| FetchRequest::new(id, 0, SplitPoint::NONE)).collect();
    // Cold epoch fills the cache; everything after is a pure hit path.
    transport.fetch_many_requests(&requests).unwrap();

    let mut group = c.benchmark_group("cache_live");
    group.sample_size(10);
    let mut epoch = 1u64;
    group.bench_function("warm_batch_64", |b| {
        b.iter(|| {
            let reqs: Vec<FetchRequest> =
                (0..n).map(|id| FetchRequest::new(id, epoch, SplitPoint::NONE)).collect();
            epoch += 1;
            transport.fetch_many_requests(&reqs).unwrap()
        })
    });
    group.finish();
    assert_eq!(
        transport.cache_stats().misses,
        n,
        "warm batches must be served entirely from cache"
    );
}

criterion_group!(benches, sweep, live_transport);
criterion_main!(benches);
