use crate::engine::{DecisionEngine, PlanningContext};
use crate::profiler::{Stage1Probe, WorkloadClass};
use crate::{OffloadPlan, SophonError};

use super::{Capabilities, Policy};

/// The SOPHON policy: stage-1 gate, then efficiency-ordered selective
/// offloading via the [`DecisionEngine`].
#[derive(Debug, Clone, Copy)]
pub struct SophonPolicy {
    /// Whether to run the stage-1 probe and refuse to offload for non-I/O-
    /// bound workloads (the paper's behaviour). Disable only in ablations.
    pub(crate) stage1_gate: bool,
}

impl Default for SophonPolicy {
    fn default() -> Self {
        SophonPolicy { stage1_gate: true }
    }
}

impl SophonPolicy {
    /// An ablation variant that skips the stage-1 bottleneck check.
    pub fn without_stage1_gate() -> SophonPolicy {
        SophonPolicy { stage1_gate: false }
    }
}

impl Policy for SophonPolicy {
    fn name(&self) -> &'static str {
        "sophon"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            offloads_preprocessing: true,
            operation_selective: true,
            data_selective: true,
            near_storage: true,
        }
    }

    fn plan(&self, ctx: &PlanningContext<'_>) -> Result<OffloadPlan, SophonError> {
        if self.stage1_gate {
            let class = Stage1Probe::run(ctx)?.classify();
            if class != WorkloadClass::IoBound {
                // Not our bottleneck: fall back to standard training.
                return Ok(OffloadPlan::none(ctx.profiles.len()));
            }
        }
        Ok(DecisionEngine::new().plan(ctx))
    }

    fn requires_profiling_epoch(&self) -> bool {
        // Stage-2 metrics come from running epoch 0 without offloading.
        true
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
    fn achieves_paper_traffic_reductions() {
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(48);

        // OpenImages: ~2.2x reduction.
        let ds = DatasetSpec::openimages_like(3000, 7);
        let ps = profiles(&ds);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let plan = SophonPolicy::default().plan(&ctx).unwrap();
        let r = plan.summarize(&ps).unwrap().traffic_reduction();
        assert!((1.8..2.8).contains(&r), "OpenImages reduction {r}");

        // ImageNet: ~1.2x reduction (and crucially, a reduction — unlike
        // Resize-Off).
        let ds = DatasetSpec::imagenet_like(3000, 7);
        let ps = profiles(&ds);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let plan = SophonPolicy::default().plan(&ctx).unwrap();
        let r = plan.summarize(&ps).unwrap().traffic_reduction();
        assert!((1.05..1.5).contains(&r), "ImageNet reduction {r}");
    }

    #[test]
    fn gpu_bound_workload_is_left_alone() {
        let ds = DatasetSpec::openimages_like(1000, 7);
        let ps = profiles(&ds);
        let pipeline = PipelineSpec::standard_train();
        let config =
            ClusterConfig::paper_testbed(48).with_bandwidth(netsim::Bandwidth::from_gbps(100.0));
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::ResNet50, 256);
        let plan = SophonPolicy::default().plan(&ctx).unwrap();
        assert_eq!(plan.offloaded_samples(), 0);
    }
}
