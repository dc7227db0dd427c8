//! Decision explanations: why SOPHON offloaded what it offloaded.
//!
//! The greedy run's baseline, its final cost vector and the context's
//! offload table tell the story an operator wants: where the baseline
//! stood, what the engine did, which resource finally bound, and how close
//! to balanced the cluster ended up.

use crate::engine::{DecisionEngine, PlanningContext};
use crate::{Bottleneck, CostVector, OffloadPlan};

/// A condensed account of one planning run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    /// Cost vector before any offloading.
    pub(crate) baseline: CostVector,
    /// Cost vector after the final applied sample.
    pub(crate) final_costs: CostVector,
    /// Samples the engine offloaded.
    pub(crate) offloaded_samples: u64,
    /// Candidate samples (positive efficiency) that were available.
    pub(crate) candidates: u64,
    /// The bottleneck before planning.
    pub(crate) initial_bottleneck: Bottleneck,
    /// The bottleneck after planning.
    pub(crate) final_bottleneck: Bottleneck,
    /// Why the greedy loop stopped.
    pub(crate) stop_reason: StopReason,
}

/// Why the engine stopped offloading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StopReason {
    /// The workload was never network-bound; nothing was offloaded.
    NotIoBound,
    /// The storage node has no preprocessing cores.
    NoStorageCores,
    /// Every positive-efficiency sample was offloaded.
    CandidatesExhausted,
    /// The network ceased to be the predominant cost.
    NetworkNoLongerPredominant,
}

impl ExplainReport {
    /// Plans with the engine and explains the run.
    pub fn compute(ctx: &PlanningContext<'_>) -> (OffloadPlan, ExplainReport) {
        let candidates = ctx.offload_table().candidates().len() as u64;
        let baseline = ctx.baseline_costs();
        let (plan, final_costs) = DecisionEngine::new().plan_from(ctx, baseline, |_| {});
        let offloaded = plan.offloaded_samples() as u64;
        let stop_reason = if !baseline.network_predominant() {
            StopReason::NotIoBound
        } else if ctx.config.storage_cores == 0 {
            StopReason::NoStorageCores
        } else if offloaded >= candidates {
            StopReason::CandidatesExhausted
        } else {
            StopReason::NetworkNoLongerPredominant
        };
        let report = ExplainReport {
            baseline,
            final_costs,
            offloaded_samples: offloaded,
            candidates,
            initial_bottleneck: baseline.predominant(),
            final_bottleneck: final_costs.predominant(),
            stop_reason,
        };
        (plan, report)
    }

    /// Renders a short human-readable account.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "baseline:  {} (bottleneck: {:?})",
            self.baseline, self.initial_bottleneck
        );
        let _ = writeln!(
            out,
            "offloaded: {} of {} candidate samples",
            self.offloaded_samples, self.candidates
        );
        let _ = writeln!(
            out,
            "final:     {} (bottleneck: {:?})",
            self.final_costs, self.final_bottleneck
        );
        let reason = match self.stop_reason {
            StopReason::NotIoBound => "workload is not I/O-bound; standard training",
            StopReason::NoStorageCores => "storage node has no preprocessing cores",
            StopReason::CandidatesExhausted => "every beneficial sample is offloaded",
            StopReason::NetworkNoLongerPredominant => "network is no longer the predominant cost",
        };
        let _ = writeln!(out, "stopped:   {reason}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, GpuModel};
    use datasets::DatasetSpec;
    use pipeline::{CostModel, PipelineSpec, SampleProfile};

    fn profiles(ds: &DatasetSpec) -> Vec<SampleProfile> {
        let spec = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        ds.records().map(|r| r.analytic_profile(&spec, &model)).collect()
    }

    #[test]
    fn ample_cpu_exhausts_candidates() {
        let ds = DatasetSpec::openimages_like(1000, 3);
        let ps = profiles(&ds);
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(48);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let (plan, report) = ExplainReport::compute(&ctx);
        assert_eq!(report.initial_bottleneck, Bottleneck::Network);
        assert_eq!(report.stop_reason, StopReason::CandidatesExhausted);
        assert_eq!(report.offloaded_samples, plan.offloaded_samples() as u64);
        assert_eq!(report.offloaded_samples, report.candidates);
        assert!(report.final_costs.t_net < report.baseline.t_net);
        let text = report.render();
        assert!(text.contains("every beneficial sample"), "{text}");
    }

    #[test]
    fn one_core_stops_on_bottleneck_shift() {
        let ds = DatasetSpec::openimages_like(2000, 3);
        let ps = profiles(&ds);
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(1);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let (_, report) = ExplainReport::compute(&ctx);
        assert_eq!(report.stop_reason, StopReason::NetworkNoLongerPredominant);
        assert!(report.offloaded_samples < report.candidates);
    }

    #[test]
    fn gpu_bound_is_reported() {
        let ds = DatasetSpec::imagenet_like(500, 3);
        let ps = profiles(&ds);
        let pipeline = PipelineSpec::standard_train();
        let config =
            ClusterConfig::paper_testbed(48).with_bandwidth(netsim::Bandwidth::from_gbps(100.0));
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::ResNet50, 256);
        let (plan, report) = ExplainReport::compute(&ctx);
        assert_eq!(report.stop_reason, StopReason::NotIoBound);
        assert_eq!(plan.offloaded_samples(), 0);
        assert_eq!(report.initial_bottleneck, Bottleneck::Gpu);
    }

    #[test]
    fn zero_cores_is_reported() {
        let ds = DatasetSpec::openimages_like(300, 3);
        let ps = profiles(&ds);
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(0);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let (_, report) = ExplainReport::compute(&ctx);
        assert_eq!(report.stop_reason, StopReason::NoStorageCores);
        assert_eq!(report.offloaded_samples, 0);
    }
}
