use crate::engine::PlanningContext;
use crate::{OffloadPlan, SophonError};

use super::{Capabilities, Policy};

/// `Resize-Off`: offload `Decode` + `RandomResizedCrop` for *every* sample.
///
/// Operation-selective but not data-selective: it ships the 150 528-byte
/// crop even for samples whose raw form is smaller, which is why it *adds*
/// 1.3× traffic on ImageNet in the paper, and why its storage-CPU appetite
/// makes it slower than `No-Off` when the storage node has ≤ 2 cores.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ResizeOffPolicy;

impl Policy for ResizeOffPolicy {
    fn name(&self) -> &'static str {
        "resize-off"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            offloads_preprocessing: true,
            operation_selective: true,
            data_selective: false,
            near_storage: true,
        }
    }

    fn plan(&self, ctx: &PlanningContext<'_>) -> Result<OffloadPlan, SophonError> {
        // Split right after the modality's size-reducing crop (or the
        // deterministic resize chain in the eval pipeline); without one,
        // offload nothing.
        Ok(OffloadPlan::uniform(ctx.profiles.len(), ctx.modality.resize_off_split()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, GpuModel};
    use datasets::DatasetSpec;
    use pipeline::{CostModel, PipelineSpec, SplitPoint};

    fn plan_for(ds: &DatasetSpec) -> (OffloadPlan, Vec<pipeline::SampleProfile>) {
        let pipeline = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        let ps: Vec<_> = ds.records().map(|r| r.analytic_profile(&pipeline, &model)).collect();
        let config = ClusterConfig::paper_testbed(48);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        (ResizeOffPolicy.plan(&ctx).unwrap(), ps)
    }

    #[test]
    fn reduces_openimages_but_inflates_imagenet() {
        let (plan, ps) = plan_for(&DatasetSpec::openimages_like(1500, 3));
        let s = plan.summarize(&ps).unwrap();
        assert!(s.traffic_reduction() > 1.6, "OpenImages reduction {}", s.traffic_reduction());

        let (plan, ps) = plan_for(&DatasetSpec::imagenet_like(1500, 3));
        let s = plan.summarize(&ps).unwrap();
        assert!(s.traffic_reduction() < 0.9, "ImageNet should inflate: {}", s.traffic_reduction());
    }

    #[test]
    fn every_sample_is_offloaded_at_split_two() {
        let (plan, _) = plan_for(&DatasetSpec::mini(40, 1));
        assert_eq!(plan.offloaded_samples(), 40);
        assert!(plan.iter().all(|s| s == SplitPoint::new(2)));
    }
}
