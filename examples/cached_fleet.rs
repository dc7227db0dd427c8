//! Cache × fleet composition demo: a near-compute sample cache in front
//! of a sharded storage fleet, planned per shard on the uncached residual.
//!
//! The fleet is *scale-matched on bandwidth*: four storage nodes split the
//! trainer's 500 Mbps ingress link evenly, so sharding buys aggregate
//! preprocessing CPU (4 × 2 cores) rather than aggregate bandwidth. Under
//! that fleet each shard's `T_Net` stays as predominant as the single
//! node's while its `T_CS` guard relaxes fourfold — so the composed plan
//! offloads the residual strictly deeper than cache-only planning, and the
//! cache removes whole samples fleet-only planning still ships. The demo
//! verifies the strict inequality both ways on the same seeded corpus,
//! then simulates the full cold + warm training run.
//!
//! ```sh
//! cargo run --release --example cached_fleet
//! ```

use cluster::{simulate_training, ClusterConfig, EpochSpec, GpuModel, TrainingSpec};
use datasets::DatasetSpec;
use fleet::ShardMap;
use pipeline::{CostModel, PipelineSpec, SampleProfile};
use sophon::engine::PlanningContext;
use sophon::ext::caching::{self, CacheSelection};
use sophon::ext::sharding::{self, FleetPlanRequest};
use sophon::OffloadPlan;

const SAMPLES: u64 = 1_600;
const SEED: u64 = 11;
const SHARDS: usize = 4;
const REPLICATION: usize = 2;
const PLACEMENT_SEED: u64 = 7;
const STORAGE_CORES: usize = 2;
const BATCH: usize = 256;
const BUDGET_PCT: u64 = 30;
const EPOCHS: u64 = 10;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = DatasetSpec::openimages_like(SAMPLES, SEED);
    let pipeline = PipelineSpec::standard_train();
    let model = CostModel::realistic();
    let profiles: Vec<SampleProfile> =
        ds.records().map(|r| r.analytic_profile(&pipeline, &model)).collect();
    let config = ClusterConfig::paper_testbed(STORAGE_CORES);
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, BATCH);
    let corpus_bytes: u64 = profiles.iter().map(|p| p.raw_bytes).sum();
    let budget = corpus_bytes * BUDGET_PCT / 100;

    let map = ShardMap::new(SHARDS, REPLICATION, PLACEMENT_SEED);
    let nodes = sharding::fleet_nodes_sharing_link(&config, SHARDS);
    println!(
        "corpus: {SAMPLES} samples, {:.2} GB | cache budget: {:.2} GB ({BUDGET_PCT}%)",
        corpus_bytes as f64 / 1e9,
        budget as f64 / 1e9,
    );
    println!(
        "fleet: {SHARDS} nodes x {STORAGE_CORES} cores, {:.0} Mbps each \
         (sharing the single node's {:.0} Mbps)\n",
        nodes[0].link_bps / 1e6,
        config.link_bps / 1e6,
    );

    // Baseline 1 — cache-only: one storage node, same cache budget.
    let assignment = caching::choose_cache_contents(&ctx, budget, CacheSelection::EfficiencyAware);
    let one_map = ShardMap::new(1, 1, 0);
    let one_node = sharding::fleet_nodes(&config, 1);
    let cache_plan = sharding::plan_fleet(
        &ctx,
        &FleetPlanRequest {
            cache: Some(&assignment),
            ..FleetPlanRequest::new(&one_map, &one_node)
        },
    )?
    .plan;
    let cache_works = caching::warm_sample_works(&ctx, &cache_plan, &assignment)?;
    let cache_only: u64 = cache_works.iter().map(|w| w.transfer_bytes).sum();

    // Baseline 2 — fleet-only: the same fleet hardware, no cache.
    let fleet = FleetPlanRequest::new(&map, &nodes);
    let fleet_only = sharding::plan_fleet(&ctx, &fleet)?.total_transfer_bytes();

    // The composition: the same global cache selection, then per-shard
    // residual planning against each node's own cores and link.
    let fc = sharding::plan_fleet(&ctx, &FleetPlanRequest { cache: Some(&assignment), ..fleet })?;
    let composed = fc.total_transfer_bytes();

    println!("warm-epoch traffic on the same seeded corpus:");
    println!("  {:<28} {:>10.2} MB", "cache-only (1 node)", cache_only as f64 / 1e6);
    println!("  {:<28} {:>10.2} MB", "fleet-only (4 nodes)", fleet_only as f64 / 1e6);
    println!("  {:<28} {:>10.2} MB", "cache x fleet (composed)", composed as f64 / 1e6);
    assert!(composed < cache_only, "composed {composed} must beat cache-only {cache_only}");
    assert!(composed < fleet_only, "composed {composed} must beat fleet-only {fleet_only}");
    println!(
        "  -> composed saves {:.1}% vs cache-only, {:.1}% vs fleet-only\n",
        (1.0 - composed as f64 / cache_only as f64) * 100.0,
        (1.0 - composed as f64 / fleet_only as f64) * 100.0,
    );
    for s in &fc.per_shard {
        println!(
            "  node{}: {} residual ({} offloaded) + {} cached, {:.2} MB warm",
            s.shard,
            s.samples,
            s.offloaded_samples,
            s.cached_samples,
            s.transfer_bytes as f64 / 1e6,
        );
    }

    // Full training run: cold epoch fetches everything raw through the
    // fleet and fills the cache, warm epochs ship only each shard's
    // residual.
    let cold_works = OffloadPlan::none(profiles.len()).to_sample_works(&profiles)?;
    let warm_works = caching::warm_sample_works(&ctx, &fc.plan, &assignment)?;
    let stats = simulate_training(
        &config,
        &TrainingSpec {
            nodes: &nodes,
            first: &EpochSpec::new(cold_works, BATCH, GpuModel::AlexNet),
            steady: &EpochSpec::new(warm_works, BATCH, GpuModel::AlexNet),
            owners: Some(&map.owner_table(profiles.len())),
            kills: &[],
            epochs: EPOCHS,
        },
    )?;
    assert_eq!(stats.warm().total.traffic_bytes, composed, "simulation must match the plan");
    println!(
        "\n{EPOCHS}-epoch run: cold {:.1} s / {:.2} GB, warm {:.1} s / {:.2} GB \
         ({:.1}% of cold traffic avoided)",
        stats.cold().total.epoch_seconds,
        stats.cold().total.traffic_bytes as f64 / 1e9,
        stats.warm().total.epoch_seconds,
        stats.warm().total.traffic_bytes as f64 / 1e9,
        stats.warm_traffic_reduction() * 100.0,
    );
    Ok(())
}
