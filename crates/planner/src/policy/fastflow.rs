use pipeline::SplitPoint;

use crate::engine::PlanningContext;
use crate::{OffloadPlan, SophonError};

use super::{Capabilities, Policy};

/// `FastFlow`-style baseline: a coarse-grained, whole-pipeline,
/// whole-dataset offloading decision.
///
/// Modeled on FastFlow (VLDB '23) as characterized in the paper: it profiles
/// aggregate throughput and decides between *offload everything* and
/// *offload nothing*, treating the preprocessing pipeline as a single unit
/// and all samples uniformly. Because offloading everything ships inflated
/// float tensors across the bottleneck link, its own estimate talks it out
/// of offloading in every scenario the paper evaluates — "FastFlow
/// consistently decides against preprocessing offloading".
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FastFlowPolicy;

impl Policy for FastFlowPolicy {
    fn name(&self) -> &'static str {
        "fastflow"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            offloads_preprocessing: true,
            operation_selective: false,
            data_selective: false,
            // FastFlow offloads to auxiliary CPU workers rather than into
            // the storage service itself.
            near_storage: false,
        }
    }

    fn plan(&self, ctx: &PlanningContext<'_>) -> Result<OffloadPlan, SophonError> {
        let n = ctx.profiles.len();
        let none = OffloadPlan::none(n);
        let all = OffloadPlan::uniform(n, SplitPoint::new(ctx.modality.op_count()));
        let cost_none = ctx.costs_for_plan(&none)?;
        let cost_all = ctx.costs_for_plan(&all)?;
        if cost_all.makespan() < cost_none.makespan() {
            Ok(all)
        } else {
            Ok(none)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, GpuModel};
    use datasets::DatasetSpec;
    use pipeline::{CostModel, PipelineSpec, SampleProfile};

    fn profiles(ds: &DatasetSpec) -> Vec<SampleProfile> {
        let pipeline = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        ds.records().map(|r| r.analytic_profile(&pipeline, &model)).collect()
    }

    #[test]
    fn declines_offloading_in_paper_setups() {
        // Both evaluation datasets, bandwidth-bound: offloading the whole
        // pipeline would inflate traffic, so FastFlow picks none.
        for ds in [DatasetSpec::openimages_like(1000, 1), DatasetSpec::imagenet_like(1000, 1)] {
            let ps = profiles(&ds);
            let pipeline = PipelineSpec::standard_train();
            let config = ClusterConfig::paper_testbed(48);
            let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
            let plan = FastFlowPolicy.plan(&ctx).unwrap();
            assert_eq!(plan.offloaded_samples(), 0, "dataset {}", ds.name);
        }
    }

    #[test]
    fn offloads_when_compute_cpu_is_the_bottleneck() {
        // FastFlow's home turf: fast link, starved compute node. Offloading
        // everything then genuinely helps, and the policy should take it.
        let ds = DatasetSpec::imagenet_like(1000, 1);
        let ps = profiles(&ds);
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(48)
            .with_bandwidth(netsim::Bandwidth::from_gbps(100.0))
            .with_compute_cores(1);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let plan = FastFlowPolicy.plan(&ctx).unwrap();
        assert_eq!(plan.offloaded_samples(), 1000);
    }
}
