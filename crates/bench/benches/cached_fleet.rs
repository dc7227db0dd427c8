//! Cache × fleet composition: the budget sweep over a sharded fleet
//! (global cache selection + per-shard residual planning + cold/warm
//! fleet simulation) at 0/10/30/100% of corpus bytes.

use criterion::{criterion_group, criterion_main, Criterion};

const SAMPLES: u64 = 4_096;
const EPOCHS: u64 = 10;
const SHARDS: usize = 4;
const REPLICATION: usize = 2;

fn sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("cached_fleet_sweep");
    group.sample_size(10);
    for pct in [0u64, 10, 30, 100] {
        group.bench_function(format!("budget_{pct}pct"), |b| {
            b.iter(|| bench::cached_fleet_sweep(SAMPLES, EPOCHS, SHARDS, REPLICATION, &[pct]))
        });
    }
    group.finish();
}

fn plan_only(c: &mut Criterion) {
    use cluster::{ClusterConfig, GpuModel};
    use fleet::ShardMap;
    use sophon::engine::PlanningContext;
    use sophon::ext::caching::{choose_cache_contents, CacheSelection};
    use sophon::ext::sharding::{self, FleetPlanRequest};

    let ds = bench::openimages(SAMPLES);
    let pipeline = pipeline::PipelineSpec::standard_train();
    let model = pipeline::CostModel::realistic();
    let profiles: Vec<_> = ds.records().map(|r| r.analytic_profile(&pipeline, &model)).collect();
    let config = ClusterConfig::paper_testbed(8);
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, 256);
    let map = ShardMap::new(SHARDS, REPLICATION, bench::SEED);
    let nodes = sharding::fleet_nodes(&config, SHARDS);
    let budget: u64 = profiles.iter().map(|p| p.raw_bytes).sum::<u64>() * 30 / 100;

    let mut group = c.benchmark_group("cached_fleet_plan");
    group.sample_size(10);
    group.bench_function("plan_30pct_4shards", |b| {
        b.iter(|| {
            // Selection and planning together, as a warm-epoch replan pays.
            let assignment = choose_cache_contents(&ctx, budget, CacheSelection::EfficiencyAware);
            let request = FleetPlanRequest {
                cache: Some(&assignment),
                ..FleetPlanRequest::new(&map, &nodes)
            };
            sharding::plan_fleet(&ctx, &request).expect("planning succeeds")
        })
    });
    group.finish();
}

criterion_group!(benches, sweep, plan_only);
criterion_main!(benches);
