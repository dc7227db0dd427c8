//! Shared harness regenerating every table and figure of the SOPHON paper.
//!
//! Each `figure_*` function computes one artifact's data and renders it as a
//! plain-text table, and the `figures` binary prints them. Corpus sizes
//! default to the paper's scale (40 960 samples ≈ 12 GB for OpenImages) —
//! everything is virtual-time, so full-scale runs take seconds.

pub mod gate;

use std::fmt::Write as _;

use cluster::{simulate_epoch, ClusterConfig, EpochSpec, GpuModel};
use datasets::stats::CorpusStats;
use datasets::DatasetSpec;
use pipeline::{CostModel, PipelineSpec};
use sophon::policy::standard_policies;
use sophon::prelude::*;

/// Paper-scale corpus length ("each subset comprises over 40,000 images").
pub const PAPER_SAMPLES: u64 = 40_960;
/// Corpus seed shared by all figures.
pub const SEED: u64 = 2024;

/// The OpenImages-like evaluation corpus at a given scale.
pub fn openimages(len: u64) -> DatasetSpec {
    DatasetSpec::openimages_like(len, SEED)
}

/// The ImageNet-like evaluation corpus at a given scale.
pub fn imagenet(len: u64) -> DatasetSpec {
    DatasetSpec::imagenet_like(len, SEED)
}

/// Builds the paper's testbed scenario.
pub fn scenario(ds: DatasetSpec, storage_cores: usize, gpu: GpuModel) -> Scenario {
    Scenario::new(ds, ClusterConfig::paper_testbed(storage_cores), gpu, 256)
}

/// Table 1 — capability matrix of offloading systems.
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: Existing Offloading vs SOPHON (capability matrix)");
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>20} {:>15} {:>14}",
        "policy", "offloads", "operation-selective", "data-selective", "near-storage"
    );
    let mark = |b: bool| if b { "yes" } else { "-" };
    for p in standard_policies() {
        let c = p.capabilities();
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>20} {:>15} {:>14}",
            p.name(),
            mark(c.offloads_preprocessing),
            mark(c.operation_selective),
            mark(c.data_selective),
            mark(c.near_storage)
        );
    }
    out
}

/// Figure 1a — per-stage sizes of a benefiting sample ("Sample A") and a
/// raw-minimal sample ("Sample B").
pub fn figure_1a() -> String {
    let ds = openimages(4_096);
    let spec = PipelineSpec::standard_train();
    let model = CostModel::realistic();
    // Sample A: largest encoded sample (clearly benefits). Sample B: a
    // sample smaller than the post-crop raster (raw is minimal).
    let records: Vec<_> = ds.records().collect();
    let a = records.iter().max_by_key(|r| r.encoded_bytes).expect("non-empty corpus");
    let b = records
        .iter()
        .filter(|r| r.encoded_bytes < 100_000)
        .max_by_key(|r| r.encoded_bytes)
        .expect("corpus has small samples");

    let mut out = String::new();
    let _ = writeln!(out, "Figure 1a: sample size through the preprocessing pipeline (bytes)");
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>12}",
        "stage",
        format!("sample A #{}", a.id),
        format!("sample B #{}", b.id)
    );
    let pa = a.analytic_profile(&spec, &model);
    let pb = b.analytic_profile(&spec, &model);
    let stage_names = [
        "raw (encoded)",
        "decode",
        "random_resized_crop",
        "random_horizontal_flip",
        "to_tensor",
        "normalize",
    ];
    for (stage, name) in stage_names.iter().enumerate() {
        let _ = writeln!(out, "{:<24} {:>12} {:>12}", name, pa.size_at(stage), pb.size_at(stage));
    }
    let _ = writeln!(
        out,
        "min stage: sample A -> {} ({} B), sample B -> {} ({} B)",
        stage_names[pa.min_stage().0],
        pa.min_stage().1,
        stage_names[pb.min_stage().0],
        pb.min_stage().1
    );
    out
}

/// Figure 1b — fraction of each corpus whose minimum size falls at each
/// stage (OpenImages ≈ 76 % benefit, ImageNet ≈ 26 %).
pub fn figure_1b(len: u64) -> String {
    let spec = PipelineSpec::standard_train();
    let model = CostModel::realistic();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 1b: where each sample's minimum size occurs");
    let _ = writeln!(
        out,
        "{:<18} {:>10} {:>12} {:>18} {:>14}",
        "dataset", "samples", "raw minimal", "post-crop minimal", "benefit frac"
    );
    for ds in [openimages(len), imagenet(len)] {
        let stats = CorpusStats::compute(&ds, &spec, &model);
        let post_crop: u64 = stats.min_stage_counts[1..].iter().sum();
        let _ = writeln!(
            out,
            "{:<18} {:>10} {:>12} {:>18} {:>13.1}%",
            ds.name,
            stats.len,
            stats.min_stage_counts[0],
            post_crop,
            stats.benefit_fraction() * 100.0
        );
    }
    out
}

/// Figure 1c — distribution of offloading efficiency (bytes saved per CPU
/// second) across the OpenImages-like corpus.
pub fn figure_1c(len: u64) -> String {
    let spec = PipelineSpec::standard_train();
    let model = CostModel::realistic();
    let stats = CorpusStats::compute(&openimages(len), &spec, &model);
    let zero = stats.efficiencies.iter().filter(|&&e| e == 0.0).count();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 1c: offloading efficiency distribution (OpenImages-like)");
    let _ = writeln!(
        out,
        "zero-efficiency samples: {} / {} ({:.1}%)",
        zero,
        stats.len,
        zero as f64 * 100.0 / stats.len as f64
    );
    for q in [0.25, 0.5, 0.75, 0.9, 0.99] {
        let _ = writeln!(
            out,
            "p{:<4} {:>12.1} KB saved per CPU-second",
            (q * 100.0) as u32,
            stats.efficiency_percentile(q) / 1e3
        );
    }
    out
}

/// Figure 1d — GPU utilization of three models training behind the 500 Mbps
/// link with no offloading.
pub fn figure_1d(len: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 1d: GPU utilization under the 500 Mbps link (No-Off)");
    let _ = writeln!(out, "{:<10} {:>10} {:>12}", "model", "GPU util", "idle time");
    for gpu in [GpuModel::ResNet50, GpuModel::ResNet18, GpuModel::AlexNet] {
        let s = scenario(imagenet(len), 48, gpu);
        let report = s.run(&NoOffPolicy).expect("no-off always simulates");
        let util = report.epoch.gpu_utilization();
        let _ = writeln!(
            out,
            "{:<10} {:>9.1}% {:>11.1}%",
            gpu.name(),
            util * 100.0,
            (1.0 - util) * 100.0
        );
    }
    out
}

/// Figure 3 — per-epoch training time and data traffic for every policy on
/// both datasets, with 48 storage cores.
pub fn figure_3(len: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 3: training time & traffic per epoch, 48 storage cores");
    for ds in [openimages(len), imagenet(len)] {
        let name = ds.name.clone();
        let s = scenario(ds, 48, GpuModel::AlexNet);
        let reports = s.run_all().expect("all policies simulate at 48 cores");
        let base_traffic = reports[0].epoch.traffic_bytes as f64;
        let base_time = reports[0].epoch.epoch_seconds;
        let _ = writeln!(out, "\n[{name}]");
        let _ = writeln!(
            out,
            "{:<12} {:>11} {:>13} {:>13} {:>12}",
            "policy", "epoch (s)", "vs no-off", "traffic (GB)", "vs no-off"
        );
        for r in &reports {
            let _ = writeln!(
                out,
                "{:<12} {:>11.1} {:>12.2}x {:>13.2} {:>11.2}x",
                r.policy,
                r.epoch.epoch_seconds,
                base_time / r.epoch.epoch_seconds,
                r.epoch.traffic_bytes as f64 / 1e9,
                base_traffic / r.epoch.traffic_bytes as f64
            );
        }
    }
    out
}

/// Figure 4 — training time and traffic vs storage-node preprocessing
/// cores, OpenImages-like corpus.
pub fn figure_4(len: u64) -> String {
    let ds = openimages(len);
    let policies = standard_policies();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 4: epoch time (s) vs storage-node cores (OpenImages-like)");
    let _ = write!(out, "{:<7}", "cores");
    for p in &policies {
        let _ = write!(out, " {:>11}", p.name());
    }
    let _ = writeln!(out);
    for cores in [0usize, 1, 2, 3, 4, 5, 8] {
        let s = scenario(ds.clone(), cores, GpuModel::AlexNet);
        let profiles = s.profiles();
        let _ = write!(out, "{cores:<7}");
        for p in &policies {
            match s.run_with_profiles(p.as_ref(), &profiles) {
                Ok(r) => {
                    let _ = write!(out, " {:>10.1}s", r.epoch.epoch_seconds);
                }
                Err(_) => {
                    let _ = write!(out, " {:>11}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    // Traffic panel.
    let _ = writeln!(out, "\ntraffic per epoch (GB):");
    let _ = write!(out, "{:<7}", "cores");
    for p in &policies {
        let _ = write!(out, " {:>11}", p.name());
    }
    let _ = writeln!(out);
    for cores in [1usize, 2, 4, 8] {
        let s = scenario(ds.clone(), cores, GpuModel::AlexNet);
        let profiles = s.profiles();
        let _ = write!(out, "{cores:<7}");
        for p in &policies {
            match s.run_with_profiles(p.as_ref(), &profiles) {
                Ok(r) => {
                    let _ = write!(out, " {:>10.2}G", r.epoch.traffic_bytes as f64 / 1e9);
                }
                Err(_) => {
                    let _ = write!(out, " {:>11}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Discussion-section experiment: how SOPHON's advantage varies with link
/// bandwidth, including the crossover where the workload stops being
/// I/O-bound and SOPHON (correctly) stops offloading.
pub fn discussion_bandwidth_sweep(len: u64) -> String {
    use netsim::Bandwidth;
    let ds = openimages(len);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Discussion: SOPHON vs No-Off across link bandwidths (OpenImages-like, AlexNet)"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>9} {:>12} {:>11}",
        "bandwidth", "no-off (s)", "sophon (s)", "speedup", "offloaded", "class"
    );
    for mbps in [100.0, 250.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 16_000.0] {
        let config = ClusterConfig::paper_testbed(48).with_bandwidth(Bandwidth::from_mbps(mbps));
        let s = Scenario::new(ds.clone(), config, GpuModel::AlexNet, 256);
        let no_off = s.run(&NoOffPolicy).expect("no-off simulates");
        let sophon = s.run(&SophonPolicy::default()).expect("sophon simulates");
        let class = s.workload_class().expect("the probe simulates");
        let _ = writeln!(
            out,
            "{:<12} {:>12.1} {:>12.1} {:>8.2}x {:>12} {:>11?}",
            format!("{} Mbps", mbps),
            no_off.epoch.epoch_seconds,
            sophon.epoch.epoch_seconds,
            no_off.epoch.epoch_seconds / sophon.epoch.epoch_seconds,
            sophon.summary.offloaded_samples,
            class
        );
    }
    let _ =
        writeln!(out, "\nSOPHON's gain grows as the link tightens; on fast links the stage-1 gate");
    let _ = writeln!(out, "classifies the job GPU-bound and SOPHON degrades to No-Off.");
    out
}

/// Discussion-section experiment: multi-GPU data-parallel training behind
/// the 500 Mbps link. Adding GPUs without fixing the link buys nothing;
/// SOPHON restores part of the scaling.
pub fn discussion_gpus(len: u64) -> String {
    let ds = imagenet(len);
    let mut out = String::new();
    let _ =
        writeln!(out, "Discussion: multi-GPU scaling behind 500 Mbps (ImageNet-like, ResNet50)");
    let _ = writeln!(
        out,
        "{:<6} {:>12} {:>12} {:>14} {:>14}",
        "GPUs", "no-off (s)", "sophon (s)", "no-off util", "sophon util"
    );
    for gpus in [1usize, 2, 4, 8] {
        let config = ClusterConfig::paper_testbed(48).with_gpus(gpus);
        let s = Scenario::new(ds.clone(), config, GpuModel::ResNet50, 256);
        let profiles = s.profiles();
        let no_off = s.run_with_profiles(&NoOffPolicy, &profiles).expect("no-off simulates");
        let sophon =
            s.run_with_profiles(&SophonPolicy::default(), &profiles).expect("sophon simulates");
        let _ = writeln!(
            out,
            "{:<6} {:>12.1} {:>12.1} {:>13.1}% {:>13.1}%",
            gpus,
            no_off.epoch.epoch_seconds,
            sophon.epoch.epoch_seconds,
            no_off.epoch.gpu_utilization() * 100.0,
            sophon.epoch.gpu_utilization() * 100.0
        );
    }
    out
}

/// Amortization experiment: total training time over `epochs` epochs,
/// charging SOPHON its un-offloaded profiling epoch.
pub fn training_amortization(len: u64, epochs: u64) -> String {
    let ds = openimages(len);
    let s = scenario(ds, 48, GpuModel::AlexNet);
    let mut out = String::new();
    let _ = writeln!(out, "Training-run amortization over {epochs} epochs (OpenImages-like)");
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>14} {:>18}",
        "policy", "epoch 0 (s)", "steady (s)", "total (s)", "profiling overhead"
    );
    for p in standard_policies() {
        let request = TrainingRequest { policy: Some(p.as_ref()), ..TrainingRequest::new(epochs) };
        match s.run_training(&request) {
            Ok(r) => {
                let _ = writeln!(
                    out,
                    "{:<12} {:>14.1} {:>14.1} {:>14.1} {:>17.2}%",
                    r.policy,
                    r.stats.first_epoch.total.epoch_seconds,
                    r.stats.steady_epoch.total.epoch_seconds,
                    r.stats.total_seconds,
                    r.profiling_overhead() * 100.0
                );
            }
            Err(_) => {
                let _ = writeln!(out, "{:<12} {:>14}", p.name(), "-");
            }
        }
    }
    out
}

/// Simulated epoch seconds of a greedy plan over `ds` that takes the
/// beneficial samples in descending `key` order. With `stopping_rule` it
/// stops as the engine does, once the link no longer dominates, and skips
/// a sample that would lengthen the epoch; without it, every beneficial
/// sample is offloaded.
fn epoch_with_ordering<F>(
    ds: &DatasetSpec,
    storage_cores: usize,
    key: F,
    stopping_rule: bool,
) -> f64
where
    F: Fn(&pipeline::SampleProfile) -> f64,
{
    let s = scenario(ds.clone(), storage_cores, GpuModel::AlexNet);
    let profiles = s.profiles();
    let ctx = sophon::engine::PlanningContext::new(
        &profiles,
        &s.pipeline,
        &s.config,
        s.gpu,
        s.batch_size,
    );
    // Greedy loop identical to the engine, but ordered by `key`.
    let mut order: Vec<usize> =
        (0..profiles.len()).filter(|&i| profiles[i].efficiency() > 0.0).collect();
    order.sort_by(|&a, &b| key(&profiles[b]).partial_cmp(&key(&profiles[a])).expect("finite keys"));
    let mut plan = OffloadPlan::none(profiles.len());
    let mut costs = ctx.baseline_costs();
    let storage_cores_f = s.config.storage_cores.max(1) as f64;
    let compute_cores_f = s.config.compute_cores as f64;
    for i in order {
        if stopping_rule && !costs.network_predominant() {
            break;
        }
        let p = &profiles[i];
        let (stage, min_size) = p.min_stage();
        let prefix = p.prefix_seconds(stage);
        let next = CostVector::new(
            costs.t_g,
            (costs.t_cc - prefix / compute_cores_f).max(0.0),
            costs.t_cs + prefix / storage_cores_f,
            (costs.t_net - (p.raw_bytes - min_size) as f64 * 8.0 / s.config.link_bps).max(0.0),
        );
        if stopping_rule && next.makespan() > costs.makespan() {
            continue;
        }
        plan.set_split(i, p.best_split());
        costs = next;
    }
    let works = plan.to_sample_works(&profiles).expect("plan matches profiles");
    simulate_epoch(&s.config, &EpochSpec::new(works, 256, GpuModel::AlexNet))
        .expect("feasible plan")
        .epoch_seconds
}

/// A pseudo-random candidate order: a hash of the sample id.
fn hashed_id(p: &pipeline::SampleProfile) -> f64 {
    (p.sample_id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11) as f64
}

/// Ablations of SOPHON's design choices (DESIGN.md §5): the candidate
/// order (efficiency, the paper's, vs raw size vs pseudo-random) and the
/// bottleneck-aware stopping rule vs offloading every beneficial sample,
/// at one and four storage cores.
pub fn ablations(len: u64) -> String {
    let ds = openimages(len);
    let rows: [(&str, &dyn Fn(usize) -> f64); 4] = [
        ("efficiency order (paper)", &|k| epoch_with_ordering(&ds, k, |p| p.efficiency(), true)),
        ("raw-size order", &|k| epoch_with_ordering(&ds, k, |p| p.raw_bytes as f64, true)),
        ("pseudo-random order", &|k| epoch_with_ordering(&ds, k, hashed_id, true)),
        ("no stopping rule", &|k| epoch_with_ordering(&ds, k, |p| p.efficiency(), false)),
    ];
    let mut out = String::new();
    let _ = writeln!(out, "Ablation: epoch seconds by candidate ordering and stopping rule");
    let _ = writeln!(out, "{:<28} {:>10} {:>10}", "variant", "1 core", "4 cores");
    for (name, epoch) in rows {
        let _ = writeln!(out, "{:<28} {:>9.1}s {:>9.1}s", name, epoch(1), epoch(4));
    }
    out
}

/// The paper's future-work extensions, implemented here: selective
/// compression, heterogeneous storage CPUs, multi-tenant core grants and
/// provisioning, each on the OpenImages-like corpus with 48 storage cores.
pub fn extensions(len: u64) -> String {
    use cluster::FleetNodeConfig;
    use sophon::engine::{DecisionEngine, PlanningContext};
    use sophon::ext::compression::CompressionExt;
    use sophon::ext::multitenant::{allocate_storage_cores, TenantJob};
    use sophon::ext::provisioning::{min_storage_cores_for, Provisioning};
    use sophon::ext::sharding::{plan_fleet, FleetPlanRequest};

    let records: Vec<_> = openimages(len).records().collect();
    let pipeline = PipelineSpec::standard_train();
    let model = CostModel::realistic();
    let profiles: Vec<_> = records.iter().map(|r| r.analytic_profile(&pipeline, &model)).collect();
    let config = ClusterConfig::paper_testbed(48);
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, 256);
    let mut out = String::new();

    let plan = DecisionEngine::new().plan(&ctx);
    let (_, comp) =
        CompressionExt::default().apply(&ctx, &records, &plan).expect("plan matches the corpus");
    let _ = writeln!(
        out,
        "selective compression: {} samples re-encoded, {:.2} GB -> {:.2} GB ({:.2}x)",
        comp.compressed_samples,
        comp.bytes_before as f64 / 1e9,
        comp.bytes_after as f64 / 1e9,
        comp.compression_gain()
    );

    let _ = write!(out, "heterogeneous CPUs (offloaded samples by storage speed): ");
    let one_shard = fleet::ShardMap::new(1, 1, 0);
    for factor in [0.25, 0.5, 1.0, 2.0] {
        // A storage core at `factor`x a compute core is a node at that speed.
        let node = [FleetNodeConfig::nominal(&config).with_speed(factor)];
        let request = FleetPlanRequest::new(&one_shard, &node);
        let p = plan_fleet(&ctx, &request).expect("one-node fleet plans").plan;
        let _ = write!(out, "{factor}x -> {}  ", p.offloaded_samples());
    }
    let _ = writeln!(out);

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
    let _ = write!(out, "multi-tenant core grants (12 total): ");
    for (a, _) in allocate_storage_cores(&jobs, 12).expect("three jobs share 12 cores") {
        let _ = write!(out, "{}={}  ", a.name, a.cores);
    }
    let _ = writeln!(out);

    let target = ctx.baseline_costs().makespan() * 0.6;
    let _ = match min_storage_cores_for(&ctx, target).expect("provisioning searches") {
        Provisioning::Cores(k) => {
            writeln!(out, "provisioning: {k} cores reach 60% of baseline time")
        }
        Provisioning::Unreachable { best_seconds } => {
            writeln!(out, "provisioning: unreachable (best {best_seconds:.1}s)")
        }
    };
    out
}

/// One row of a near-compute cache budget sweep, over one storage node or
/// a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSweepRow {
    /// Cache budget as a percentage of corpus raw bytes.
    pub budget_pct: u64,
    /// Storage nodes behind the cache.
    pub shards: usize,
    /// Selection policy name.
    pub selection: String,
    /// Samples pinned under the budget.
    pub cached_samples: u64,
    /// Cold-epoch (profiling + cache-filling) wire bytes over all links.
    pub cold_traffic_bytes: u64,
    /// Steady-state warm-epoch wire bytes over all links.
    pub warm_traffic_bytes: u64,
    /// Steady-state warm-epoch time in virtual seconds.
    pub warm_epoch_seconds: f64,
    /// Busiest node's share of warm-epoch served samples.
    pub peak_node_share: f64,
}

/// Runs `fleet` behind a cache of `budget_pct` percent of `corpus_bytes`.
fn cache_sweep_row(
    s: &Scenario,
    fleet: TrainingRequest<'_>,
    corpus_bytes: u64,
    budget_pct: u64,
    selection: sophon::ext::caching::CacheSelection,
) -> CacheSweepRow {
    let cache = Some((corpus_bytes * budget_pct / 100, selection));
    let r = s.run_training(&TrainingRequest { cache, ..fleet }).expect("cache run simulates");
    CacheSweepRow {
        budget_pct,
        shards: fleet.shards,
        selection: selection.name().to_string(),
        cached_samples: r.cache.expect("request had a cache").cached_samples,
        cold_traffic_bytes: r.stats.cold().total.traffic_bytes,
        warm_traffic_bytes: r.stats.warm().total.traffic_bytes,
        warm_epoch_seconds: r.stats.warm().total.epoch_seconds,
        peak_node_share: r.stats.warm().peak_node_share(),
    }
}

/// Sweeps the near-compute cache over `budgets_pct` (percent of corpus
/// bytes) for every selection policy, returning one row per
/// `(budget, selection)` pair.
pub fn cache_sweep(len: u64, epochs: u64, budgets_pct: &[u64]) -> Vec<CacheSweepRow> {
    use sophon::ext::caching::CacheSelection;
    let s = scenario(openimages(len), 48, GpuModel::AlexNet);
    let corpus_bytes: u64 = s.profiles().iter().map(|p| p.raw_bytes).sum();
    let mut rows = Vec::new();
    for &pct in budgets_pct {
        for sel in
            [CacheSelection::Arrival, CacheSelection::SizeAware, CacheSelection::EfficiencyAware]
        {
            rows.push(cache_sweep_row(&s, TrainingRequest::new(epochs), corpus_bytes, pct, sel));
        }
    }
    rows
}

/// Cache-effectiveness artifact: cold-vs-warm traffic and epoch time
/// across cache budgets and selection policies.
pub fn cache_effectiveness(len: u64, epochs: u64) -> String {
    let rows = cache_sweep(len, epochs, &[0, 10, 30, 100]);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Near-compute cache effectiveness over {epochs} epochs (OpenImages-like, 48 storage cores)"
    );
    let _ = writeln!(
        out,
        "{:<8} {:<18} {:>8} {:>14} {:>14} {:>12}",
        "budget", "selection", "cached", "cold (GB)", "warm (GB)", "warm (s)"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<8} {:<18} {:>8} {:>14.2} {:>14.2} {:>12.1}",
            format!("{}%", r.budget_pct),
            r.selection,
            r.cached_samples,
            r.cold_traffic_bytes as f64 / 1e9,
            r.warm_traffic_bytes as f64 / 1e9,
            r.warm_epoch_seconds,
        );
    }
    out
}

/// One row of the fleet shard-count sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScalingRow {
    /// Storage nodes in the fleet.
    pub shards: usize,
    /// Replicas per sample.
    pub replication: usize,
    /// Steady-state epoch time in virtual seconds.
    pub epoch_seconds: f64,
    /// Steady-state epoch bytes over all links.
    pub traffic_bytes: u64,
    /// Busiest node's share of served samples.
    pub peak_node_share: f64,
    /// Busiest node's offloaded CPU core-seconds under the sharded plan.
    pub peak_storage_cpu_seconds: f64,
}

/// Sweeps the storage fleet over `shard_counts` (replication capped at the
/// shard count), planning per shard and simulating a steady epoch.
pub fn fleet_scaling(len: u64, replication: usize, shard_counts: &[usize]) -> Vec<FleetScalingRow> {
    let s = scenario(openimages(len), 8, GpuModel::AlexNet);
    shard_counts
        .iter()
        .map(|&shards| {
            let rep = replication.min(shards).max(1);
            let request = TrainingRequest {
                shards,
                replication: rep,
                placement_seed: SEED,
                ..TrainingRequest::new(2)
            };
            let r = s.run_training(&request).expect("fleet simulates");
            FleetScalingRow {
                shards,
                replication: rep,
                epoch_seconds: r.stats.steady_epoch.total.epoch_seconds,
                traffic_bytes: r.stats.steady_epoch.total.traffic_bytes,
                peak_node_share: r.stats.steady_epoch.peak_node_share(),
                peak_storage_cpu_seconds: r
                    .per_shard
                    .iter()
                    .map(|p| p.storage_cpu_seconds)
                    .fold(0.0, f64::max),
            }
        })
        .collect()
}

/// Fleet-scaling artifact: epoch time, traffic, and load balance as the
/// shard count grows.
pub fn fleet_scaling_table(len: u64) -> String {
    let rows = fleet_scaling(len, 2, &[1, 2, 4, 8]);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fleet scaling: sharded storage, per-shard planning (OpenImages-like, 8 cores/node)"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>11} {:>14} {:>12} {:>16}",
        "shards", "replication", "epoch (s)", "traffic (GB)", "peak share", "peak CPU (s)"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>11.1} {:>14.2} {:>11.0}% {:>16.1}",
            r.shards,
            r.replication,
            r.epoch_seconds,
            r.traffic_bytes as f64 / 1e9,
            r.peak_node_share * 100.0,
            r.peak_storage_cpu_seconds,
        );
    }
    let _ = writeln!(
        out,
        "\nAggregate link capacity grows with the shard count, so epoch time falls until"
    );
    let _ = writeln!(out, "compute-side resources (GPU, local CPU) take over as the bottleneck.");
    out
}

/// Sweeps the cache × fleet composition over `budgets_pct` (percent of
/// corpus bytes) at a fixed shard count, planning each shard's uncached
/// residual against that node's own cores and link.
pub fn cached_fleet_sweep(
    len: u64,
    epochs: u64,
    shards: usize,
    replication: usize,
    budgets_pct: &[u64],
) -> Vec<CacheSweepRow> {
    use sophon::ext::caching::CacheSelection;
    let s = scenario(openimages(len), 8, GpuModel::AlexNet);
    let corpus_bytes: u64 = s.profiles().iter().map(|p| p.raw_bytes).sum();
    let fleet = TrainingRequest {
        shards,
        replication,
        placement_seed: SEED,
        ..TrainingRequest::new(epochs)
    };
    budgets_pct
        .iter()
        .map(|&pct| cache_sweep_row(&s, fleet, corpus_bytes, pct, CacheSelection::EfficiencyAware))
        .collect()
}

/// Cache × fleet artifact: warm-epoch traffic and time across cache
/// budgets over a sharded fleet.
pub fn cached_fleet_table(len: u64) -> String {
    let rows = cached_fleet_sweep(len, 10, 4, 2, &[0, 10, 30, 100]);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Cache x fleet: warm epochs over 4 shards, 2-way replication (OpenImages-like, 8 cores/node)"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>14} {:>14} {:>12} {:>12}",
        "budget", "cached", "cold (GB)", "warm (GB)", "warm (s)", "peak share"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>14.2} {:>14.2} {:>12.1} {:>11.0}%",
            format!("{}%", r.budget_pct),
            r.cached_samples,
            r.cold_traffic_bytes as f64 / 1e9,
            r.warm_traffic_bytes as f64 / 1e9,
            r.warm_epoch_seconds,
            r.peak_node_share * 100.0,
        );
    }
    let _ = writeln!(
        out,
        "\nThe cache removes whole samples from every shard's warm traffic while each"
    );
    let _ = writeln!(out, "shard's own cores keep offloading the residual it still serves.");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_render() {
        assert!(table1().contains("sophon"));
        assert!(figure_1a().contains("150528"));
        assert!(figure_1b(512).contains("openimages-like"));
        assert!(figure_1c(512).contains("zero-efficiency"));
        assert!(figure_1d(512).contains("resnet50"));
        assert!(figure_3(512).contains("sophon"));
        assert!(figure_4(512).contains("cores"));
        assert!(discussion_bandwidth_sweep(512).contains("Mbps"));
        assert!(discussion_gpus(512).contains("GPUs"));
        assert!(training_amortization(512, 10).contains("overhead"));
        assert!(ablations(512).contains("no stopping rule"));
        assert!(extensions(512).contains("provisioning"));
    }

    #[test]
    fn cache_sweep_holds_its_acceptance_properties() {
        let rows = cache_sweep(1_024, 10, &[0, 10, 30, 100]);
        // At 0% budget the warm epoch is just the plain SOPHON plan — all
        // selections must agree on it; at 100% warm traffic is exactly 0.
        let zero: Vec<u64> =
            rows.iter().filter(|r| r.budget_pct == 0).map(|r| r.warm_traffic_bytes).collect();
        assert!(zero.windows(2).all(|w| w[0] == w[1]), "0% budget must be selection-blind");
        for r in &rows {
            match r.budget_pct {
                0 => assert!(r.warm_traffic_bytes <= r.cold_traffic_bytes),
                100 => assert_eq!(
                    r.warm_traffic_bytes, 0,
                    "{} at 100% budget must zero warm traffic",
                    r.selection
                ),
                _ => assert!(
                    r.warm_traffic_bytes < zero[0],
                    "{} at {}% must beat the cache-less plan",
                    r.selection,
                    r.budget_pct
                ),
            }
        }
        // Efficiency-aware never ships more residual traffic than the
        // LRU/arrival baseline at any intermediate budget.
        for pct in [10u64, 30] {
            let at = |name: &str| {
                rows.iter()
                    .find(|r| r.budget_pct == pct && r.selection == name)
                    .unwrap()
                    .warm_traffic_bytes
            };
            assert!(
                at("efficiency-aware") <= at("lru"),
                "at {pct}%: efficiency-aware {} vs lru {}",
                at("efficiency-aware"),
                at("lru")
            );
        }
        assert!(cache_effectiveness(512, 5).contains("efficiency-aware"));
    }

    #[test]
    fn fleet_scaling_monotonically_relieves_the_link() {
        let rows = fleet_scaling(2_048, 2, &[1, 2, 4]);
        assert_eq!(rows.len(), 3);
        // Replication is capped by the shard count.
        assert_eq!(rows[0].replication, 1);
        assert_eq!(rows[1].replication, 2);
        // More shards never slow the epoch on this I/O-bound corpus, and
        // four shards give a clear win over one.
        for w in rows.windows(2) {
            assert!(
                w[1].epoch_seconds <= w[0].epoch_seconds * 1.0001,
                "{} shards {} vs {} shards {}",
                w[1].shards,
                w[1].epoch_seconds,
                w[0].shards,
                w[0].epoch_seconds
            );
        }
        assert!(rows[2].epoch_seconds < rows[0].epoch_seconds * 0.6);
        // Placement keeps the busiest node's share near 1/n.
        assert!(rows[2].peak_node_share < 0.5);
        assert!(fleet_scaling_table(512).contains("shards"));
    }

    #[test]
    fn cached_fleet_sweep_composes_both_savings() {
        let rows = cached_fleet_sweep(1_024, 5, 4, 2, &[0, 30, 100]);
        assert_eq!(rows.len(), 3);
        // More cache budget never increases warm fleet traffic.
        for w in rows.windows(2) {
            assert!(
                w[1].warm_traffic_bytes <= w[0].warm_traffic_bytes,
                "{}% budget {} vs {}% budget {}",
                w[1].budget_pct,
                w[1].warm_traffic_bytes,
                w[0].budget_pct,
                w[0].warm_traffic_bytes
            );
        }
        // A real budget strictly beats the cache-less fleet; a full budget
        // zeroes the wires entirely.
        assert!(rows[1].warm_traffic_bytes < rows[0].warm_traffic_bytes);
        assert_eq!(rows[2].warm_traffic_bytes, 0);
        for r in &rows {
            assert!(r.warm_traffic_bytes <= r.cold_traffic_bytes);
            assert!(
                r.peak_node_share < 0.5,
                "{}% budget share {}",
                r.budget_pct,
                r.peak_node_share
            );
        }
        assert!(cached_fleet_table(512).contains("Cache x fleet"));
    }

    #[test]
    fn efficiency_ordering_beats_random_under_tight_cpu() {
        let ds = openimages(2_048);
        let eff = epoch_with_ordering(&ds, 1, |p| p.efficiency(), true);
        let hashed = epoch_with_ordering(&ds, 1, hashed_id, true);
        assert!(eff <= hashed + 1e-9, "efficiency {eff} vs hashed {hashed}");
    }
}
