//! Live two-node demo of the near-compute sample cache.
//!
//! Real bytes, real codec, real bandwidth-throttled link: a storage server
//! streams a mini corpus to a [`sophon::live::Session`] whose loader reads
//! through a [`cache::CachingTransport`] holding ~30% of the corpus. Epoch 0 runs
//! cold (every sample crosses the wire, the cache fills); later epochs run
//! warm, fetching only the uncached residual. Two cache configurations are
//! compared at the same budget:
//!
//! * **LRU** — admit everything, evict the coldest (arrival-order
//!   selection in the planner);
//! * **efficiency-aware** — admission ranked by wire bytes saved per cache
//!   byte spent, seeded with the decision engine's per-sample hints.
//!
//! The efficiency-aware cache ends each warm epoch with less residual
//! wire traffic than LRU at the same budget — the cache-aware analogue of
//! SOPHON's data-selective offloading argument.
//!
//! ```sh
//! cargo run --release --example cached_two_node
//! ```

use cache::{AdmissionHint, SampleCache};
use cluster::{ClusterConfig, GpuModel};
use datasets::DatasetSpec;
use netsim::Bandwidth;
use pipeline::{CostModel, PipelineSpec, SampleProfile};
use sophon::engine::PlanningContext;
use sophon::ext::caching::{self, CacheAssignment, CacheSelection};
use sophon::ext::sharding::{self, FleetPlanRequest};
use sophon::live::{Corpus, Session};
use sophon::loader::LoaderConfig;
use sophon::OffloadPlan;
use storage::ServerConfig;

const SAMPLES: u64 = 48;
const BATCH: usize = 8;
const WARM_EPOCHS: u64 = 2;

struct CacheRun {
    label: &'static str,
    cold_wire: u64,
    warm_wire: u64,
    hit_rate: f64,
    cached_entries: usize,
}

fn run_with_cache(
    corpus: &Corpus,
    profiles: &[SampleProfile],
    plan: &OffloadPlan,
    cache: SampleCache,
    with_hints: bool,
    label: &'static str,
) -> Result<CacheRun, Box<dyn std::error::Error>> {
    let hints = profiles.iter().enumerate().filter(|_| with_hints).map(|(i, p)| {
        let shipped = p.size_at(plan.split(i).offloaded_ops());
        (p.sample_id, AdmissionHint { saved_bytes: shipped, efficiency: p.efficiency() })
    });
    let config = LoaderConfig::new(corpus.spec().seed, BATCH);
    let mut session =
        Session::builder(corpus, PipelineSpec::standard_train(), plan.clone(), config)
            .server(ServerConfig {
                cores: 4,
                bandwidth: Bandwidth::from_mbps(40.0),
                ..ServerConfig::default()
            })
            .cache(cache, hints)
            .start()?;
    let wire = |session: &Session| session.harness().traffic_total().bytes;

    // Cold epoch: everything crosses the wire, the cache fills.
    session.run_epoch(0, &[], |_| {})?;
    let cold_wire = wire(&session);

    // Warm epochs: only the uncached residual is fetched.
    for epoch in 1..=WARM_EPOCHS {
        session.run_epoch(epoch, &[], |_| {})?;
    }
    let warm_wire = (wire(&session) - cold_wire) / WARM_EPOCHS;

    let cache = session.cache().expect("the session has a cache");
    Ok(CacheRun {
        label,
        cold_wire,
        warm_wire,
        hit_rate: cache.stats().hit_rate(),
        cached_entries: cache.len(),
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = DatasetSpec::mini(SAMPLES, 2024);
    println!("materializing {SAMPLES} samples through the real codec...");
    let corpus = Corpus::materialize(&ds);
    let corpus_bytes = corpus.store().total_bytes();
    let budget = corpus_bytes * 30 / 100;
    println!(
        "corpus: {:.1} MB encoded; cache budget {:.1} MB (30%)\n",
        corpus_bytes as f64 / 1e6,
        budget as f64 / 1e6
    );

    let pipeline = PipelineSpec::standard_train();
    let profiles = corpus.profiles(&pipeline, &CostModel::realistic())?;
    let config = ClusterConfig::paper_testbed(4).with_bandwidth(Bandwidth::from_mbps(40.0));
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, BATCH);

    // Plan once per selection policy; the plan pins cached samples at
    // their cached (epoch-stable) split so every warm fetch is a hit.
    let lru_assign = caching::choose_cache_contents(&ctx, budget, CacheSelection::Arrival);
    // The two-node testbed is the one-shard fleet.
    let map = fleet::ShardMap::new(1, 1, 0);
    let nodes = sharding::fleet_nodes(&config, 1);
    let plan_around = |assignment: &CacheAssignment| {
        let request =
            FleetPlanRequest { cache: Some(assignment), ..FleetPlanRequest::new(&map, &nodes) };
        sharding::plan_fleet(&ctx, &request).map(|p| p.plan)
    };
    let lru_plan = plan_around(&lru_assign)?;
    let eff_assign = caching::choose_cache_contents(&ctx, budget, CacheSelection::EfficiencyAware);
    let eff_plan = plan_around(&eff_assign)?;
    println!(
        "planner pinned {} (lru) vs {} (efficiency-aware) of {SAMPLES} samples\n",
        lru_assign.cached_samples(),
        eff_assign.cached_samples()
    );

    let lru =
        run_with_cache(&corpus, &profiles, &lru_plan, SampleCache::lru(budget), false, "lru")?;
    let eff = run_with_cache(
        &corpus,
        &profiles,
        &eff_plan,
        SampleCache::efficiency_aware(budget),
        true,
        "efficiency",
    )?;

    println!(
        "{:<12} {:>14} {:>16} {:>10} {:>9}",
        "cache", "cold wire (MB)", "warm wire (MB)", "hit rate", "entries"
    );
    for run in [&lru, &eff] {
        println!(
            "{:<12} {:>14.2} {:>16.2} {:>9.1}% {:>9}",
            run.label,
            run.cold_wire as f64 / 1e6,
            run.warm_wire as f64 / 1e6,
            run.hit_rate * 100.0,
            run.cached_entries
        );
    }
    println!(
        "\nefficiency-aware admission cut residual warm traffic {:.2}x vs LRU at the same budget",
        lru.warm_wire as f64 / eff.warm_wire.max(1) as f64
    );
    Ok(())
}
