//! Property tests on the decision engine's invariants, over randomized
//! corpora and cluster shapes.

use cluster::{ClusterConfig, GpuModel};
use datasets::DatasetSpec;
use pipeline::{CostModel, PipelineSpec, SampleProfile};
use proptest::prelude::*;
use sophon_planner::engine::{DecisionEngine, PlanningContext};
use sophon_planner::prelude::*;

fn profiles_for(ds: &DatasetSpec) -> Vec<SampleProfile> {
    let spec = PipelineSpec::standard_train();
    let model = CostModel::realistic();
    ds.records().map(|r| r.analytic_profile(&spec, &model)).collect()
}

fn arb_dataset() -> impl Strategy<Value = DatasetSpec> {
    (any::<u64>(), 100u64..800, prop_oneof![Just(0u8), Just(1u8)]).prop_map(
        |(seed, len, family)| {
            if family == 0 {
                DatasetSpec::openimages_like(len, seed)
            } else {
                DatasetSpec::imagenet_like(len, seed)
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine never offloads a sample whose raw form is already minimal,
    /// and every offloaded sample sits at its minimum-size split.
    #[test]
    fn plan_offloads_only_beneficial_samples(
        ds in arb_dataset(),
        cores in 0usize..16,
    ) {
        let profiles = profiles_for(&ds);
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(cores);
        let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, 256);
        let plan = DecisionEngine::new().plan(&ctx);
        for (i, p) in profiles.iter().enumerate() {
            if plan.split(i).is_offloaded() {
                prop_assert!(p.efficiency() > 0.0, "sample {i} offloaded without benefit");
                prop_assert_eq!(plan.split(i), p.best_split(), "sample {} at wrong split", i);
            }
        }
    }

    /// Planned traffic never exceeds the raw (No-Off) traffic.
    #[test]
    fn plan_never_increases_traffic(
        ds in arb_dataset(),
        cores in 0usize..16,
    ) {
        let profiles = profiles_for(&ds);
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(cores);
        let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, 256);
        let plan = DecisionEngine::new().plan(&ctx);
        let summary = plan.summarize(&profiles).unwrap();
        prop_assert!(summary.transfer_bytes <= summary.raw_bytes);
    }

    /// The plan's predicted makespan never exceeds the baseline's — the
    /// engine may stop early but never makes things worse.
    #[test]
    fn plan_never_worse_than_baseline(
        ds in arb_dataset(),
        cores in 0usize..16,
        gpu in prop_oneof![
            Just(GpuModel::AlexNet),
            Just(GpuModel::ResNet18),
            Just(GpuModel::ResNet50),
        ],
    ) {
        let profiles = profiles_for(&ds);
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(cores);
        let ctx = PlanningContext::new(&profiles, &pipeline, &config, gpu, 256);
        let plan = DecisionEngine::new().plan(&ctx);
        let planned = ctx.costs_for_plan(&plan).unwrap();
        prop_assert!(planned.makespan() <= ctx.baseline_costs().makespan() + 1e-9);
    }

    /// End-to-end via the runner: SOPHON's simulated epoch never loses to
    /// No-Off by more than rounding, for arbitrary corpora and resources.
    #[test]
    fn sophon_never_loses_full_stack(
        ds in arb_dataset(),
        cores in 0usize..8,
    ) {
        let scenario = Scenario::new(
            ds,
            ClusterConfig::paper_testbed(cores),
            GpuModel::AlexNet,
            64,
        );
        let profiles = scenario.profiles();
        let no_off = scenario.run_with_profiles(&NoOffPolicy, &profiles).unwrap();
        let sophon = scenario
            .run_with_profiles(&SophonPolicy::default(), &profiles)
            .unwrap();
        // The engine plans against steady-state costs; on sub-second epochs
        // (a handful of batches) pipeline-fill effects can cost a few tens
        // of milliseconds, so the property carries an absolute fill-time
        // slack alongside the relative one. At the paper's scale the strict
        // version is asserted in `paper_experiments.rs`.
        prop_assert!(
            sophon.epoch.epoch_seconds <= no_off.epoch.epoch_seconds * 1.01 + 0.05,
            "sophon {} vs no-off {}",
            sophon.epoch.epoch_seconds,
            no_off.epoch.epoch_seconds
        );
    }

    /// Heterogeneous speed factors: a slower storage node never offloads
    /// more than a faster one on the same corpus.
    #[test]
    fn hetero_offload_monotone_in_speed(ds in arb_dataset()) {
        let profiles = profiles_for(&ds);
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(2);
        let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, 256);
        let one_shard = cluster::ShardMap::new(1, 1, 0);
        let mut last = 0usize;
        for factor in [0.25, 0.5, 1.0, 2.0] {
            let node = [cluster::FleetNodeConfig::nominal(&config).with_speed(factor)];
            let request = sophon_planner::ext::sharding::FleetPlanRequest::new(&one_shard, &node);
            let plan = sophon_planner::ext::sharding::plan_fleet(&ctx, &request).unwrap().plan;
            let n = plan.offloaded_samples();
            prop_assert!(n >= last, "factor {factor}: {n} < {last}");
            last = n;
        }
    }
}
