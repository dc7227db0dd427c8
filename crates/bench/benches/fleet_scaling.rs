//! Fleet scaling: the shard-count sweep (per-shard planning + fleet
//! simulator) at 1/2/4/8 nodes with 2-way replication, plus the live
//! scatter-gather path through a `FleetTransport` over four in-fleet TCP
//! servers.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use fleet::{FleetTransport, ShardMap};
use netsim::Bandwidth;
use pipeline::{PipelineSpec, SplitPoint};
use storage::{FetchRequest, FetchTransport, MultiServerHarness, ObjectStore, ServerConfig};

const SAMPLES: u64 = 4_096;

fn sweep(c: &mut Criterion) {
    let table = bench::fleet_scaling_table(SAMPLES);
    println!("\n{table}");
    let mut group = c.benchmark_group("fleet_sweep");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        group.bench_function(format!("shards_{shards}"), |b| {
            b.iter(|| bench::fleet_scaling(SAMPLES, 2, &[shards]))
        });
    }
    group.finish();
}

fn live_scatter_gather(c: &mut Criterion) {
    let n = 64u64;
    let ds = datasets::DatasetSpec::mini(n, 11);
    let store = ObjectStore::materialize_dataset(&ds, 0..n);
    let map = ShardMap::new(4, 2, 3);
    let harness = MultiServerHarness::spawn(
        &store,
        4,
        ServerConfig { cores: 2, bandwidth: Bandwidth::from_gbps(10.0), ..ServerConfig::default() },
        |id| map.owners(id),
    )
    .unwrap();
    let mut fleet =
        FleetTransport::new(harness.clients().unwrap(), map, Some(Duration::from_millis(100)));
    fleet.configure(ds.seed, PipelineSpec::standard_train()).unwrap();

    let mut group = c.benchmark_group("fleet_live");
    group.sample_size(10);
    let mut epoch = 0u64;
    group.bench_function("batch_64_over_4_nodes", |b| {
        b.iter(|| {
            let reqs: Vec<FetchRequest> =
                (0..n).map(|id| FetchRequest::new(id, epoch, SplitPoint::NONE)).collect();
            epoch += 1;
            fleet.fetch_many_requests(&reqs).unwrap()
        })
    });
    group.finish();
    assert_eq!(fleet.alive_nodes(), 4, "no node should die during the bench");
    drop(fleet);
    harness.shutdown();
}

criterion_group!(benches, sweep, live_scatter_gather);
criterion_main!(benches);
