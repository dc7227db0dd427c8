//! Regenerates the extension experiments (paper §6 future work, implemented
//! here): selective compression, heterogeneous CPUs, multi-tenant core
//! scheduling, and provisioning — then times the planners.

use bench::openimages;
use cluster::{ClusterConfig, FleetNodeConfig, GpuModel};
use criterion::{criterion_group, criterion_main, Criterion};
use pipeline::{CostModel, PipelineSpec};
use sophon::engine::{DecisionEngine, PlanningContext};
use sophon::ext::compression::CompressionExt;
use sophon::ext::multitenant::{allocate_storage_cores, TenantJob};
use sophon::ext::provisioning::{min_storage_cores_for, Provisioning};
use sophon::ext::sharding::{plan_fleet, FleetPlanRequest};

fn bench(c: &mut Criterion) {
    let ds = openimages(4_096);
    let records: Vec<_> = ds.records().collect();
    let pipeline = PipelineSpec::standard_train();
    let model = CostModel::realistic();
    let profiles: Vec<_> = records.iter().map(|r| r.analytic_profile(&pipeline, &model)).collect();
    let config = ClusterConfig::paper_testbed(48);
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, 256);

    // --- Print the extension results ---------------------------------
    let plan = DecisionEngine::new().plan(&ctx);
    let (_, comp) = CompressionExt::default().apply(&ctx, &records, &plan).unwrap();
    println!(
        "\nselective compression: {} samples re-encoded, {:.2} GB -> {:.2} GB ({:.2}x)",
        comp.compressed_samples,
        comp.bytes_before as f64 / 1e9,
        comp.bytes_after as f64 / 1e9,
        comp.compression_gain()
    );

    print!("heterogeneous CPUs (offloaded samples by storage speed): ");
    let one_shard = fleet::ShardMap::new(1, 1, 0);
    for factor in [0.25, 0.5, 1.0, 2.0] {
        // A storage core at `factor`x a compute core is a node at that speed.
        let node = [FleetNodeConfig::nominal(&config).with_speed(factor)];
        let p = plan_fleet(&ctx, &FleetPlanRequest::new(&one_shard, &node)).unwrap().plan;
        print!("{factor}x -> {}  ", p.offloaded_samples());
    }
    println!();

    let jobs: Vec<TenantJob> = (0..3)
        .map(|i| TenantJob {
            name: format!("job-{i}"),
            profiles: profiles.clone(),
            pipeline: pipeline.clone(),
            gpu: GpuModel::AlexNet,
            batch_size: 256,
            config: ClusterConfig::paper_testbed(0),
        })
        .collect();
    let allocs = allocate_storage_cores(&jobs, 12).unwrap();
    print!("multi-tenant core grants (12 total): ");
    for (a, _) in &allocs {
        print!("{}={}  ", a.name, a.cores);
    }
    println!();

    let baseline = ctx.baseline_costs().makespan();
    match min_storage_cores_for(&ctx, baseline * 0.6).unwrap() {
        Provisioning::Cores(k) => println!("provisioning: {k} cores reach 60% of baseline time"),
        Provisioning::Unreachable { best_seconds } => {
            println!("provisioning: unreachable (best {best_seconds:.1}s)")
        }
    }

    // --- Time the planners -------------------------------------------
    c.bench_function("ext/compression_plan_4096", |b| {
        b.iter(|| {
            std::hint::black_box(CompressionExt::default().apply(&ctx, &records, &plan).unwrap())
        })
    });
    c.bench_function("ext/multitenant_allocate_3x12", |b| {
        b.iter(|| std::hint::black_box(allocate_storage_cores(&jobs, 12).unwrap()))
    });
    c.bench_function("ext/provisioning_search", |b| {
        b.iter(|| std::hint::black_box(min_storage_cores_for(&ctx, baseline * 0.6).unwrap()))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
