use pipeline::SplitPoint;

use crate::engine::PlanningContext;
use crate::{OffloadPlan, SophonError};

use super::{Capabilities, Policy};

/// `All-Off`: every operation of every sample runs on the storage node; the
/// wire carries finished (normalized, float) tensors.
///
/// In the paper's evaluation this is the *worst* policy: `ToTensor` inflates
/// each sample to 602 112 bytes, raising traffic 1.9× (OpenImages) to 5.1×
/// (ImageNet) over `No-Off`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AllOffPolicy;

impl Policy for AllOffPolicy {
    fn name(&self) -> &'static str {
        "all-off"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            offloads_preprocessing: true,
            operation_selective: false,
            data_selective: false,
            near_storage: true,
        }
    }

    fn plan(&self, ctx: &PlanningContext<'_>) -> Result<OffloadPlan, SophonError> {
        Ok(OffloadPlan::uniform(ctx.profiles.len(), SplitPoint::new(ctx.modality.op_count())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, GpuModel};
    use datasets::DatasetSpec;
    use pipeline::{CostModel, PipelineSpec};

    #[test]
    fn traffic_blows_up_as_in_figure_3() {
        let ds = DatasetSpec::imagenet_like(1000, 2);
        let pipeline = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        let ps: Vec<_> = ds.records().map(|r| r.analytic_profile(&pipeline, &model)).collect();
        let config = ClusterConfig::paper_testbed(48);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let plan = AllOffPolicy.plan(&ctx).unwrap();
        let summary = plan.summarize(&ps).unwrap();
        let inflation = summary.transfer_bytes as f64 / summary.raw_bytes as f64;
        // The paper reports 5.1x for ImageNet.
        assert!((4.0..6.5).contains(&inflation), "inflation {inflation}");
    }
}
