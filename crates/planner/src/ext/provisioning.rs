//! Capacity provisioning: how many storage-side cores does a job need?
//!
//! Figure 4 shows diminishing returns in storage cores; an operator's dual
//! question is *"what is the smallest core grant that achieves a target
//! epoch time?"*. Because predicted epoch time is non-increasing in the
//! grant (more cores never hurt), the answer is found by galloping + binary
//! search over the engine's predictions.

use crate::engine::{DecisionEngine, PlanningContext};
use crate::SophonError;

/// Result of a provisioning query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Provisioning {
    /// The target is met with this many cores (the smallest such grant).
    Cores(usize),
    /// The target is unreachable: even unlimited storage CPU leaves the
    /// predicted epoch above the target (some other resource binds).
    Unreachable {
        /// The best achievable epoch time.
        best_seconds: f64,
    },
}

/// Predicted epoch seconds with a given storage-core grant.
fn predicted(ctx: &PlanningContext<'_>, cores: usize) -> Result<f64, SophonError> {
    let config = ctx.config.with_storage_cores(cores);
    // A clone shares the context's offload table: a core grant moves
    // only where the greedy pass stops, never its order.
    let mut scoped = ctx.clone();
    scoped.config = &config;
    let plan = DecisionEngine::new().plan(&scoped);
    Ok(scoped.costs_for_plan(&plan)?.makespan())
}

/// Finds the smallest storage-core grant whose predicted epoch time is at
/// most `target_seconds`.
///
/// # Errors
///
/// Propagates planning failures.
///
/// # Panics
///
/// Panics when `target_seconds` is not positive and finite.
pub fn min_storage_cores_for(
    ctx: &PlanningContext<'_>,
    target_seconds: f64,
) -> Result<Provisioning, SophonError> {
    assert!(target_seconds.is_finite() && target_seconds > 0.0, "invalid target {target_seconds}");
    if predicted(ctx, 0)? <= target_seconds {
        return Ok(Provisioning::Cores(0));
    }
    // Gallop until the target is met or the curve flattens.
    let mut hi = 1usize;
    let mut hi_val = predicted(ctx, hi)?;
    let mut plateau = predicted(ctx, 4096)?;
    if plateau > target_seconds {
        return Ok(Provisioning::Unreachable { best_seconds: plateau });
    }
    while hi_val > target_seconds {
        hi *= 2;
        hi_val = predicted(ctx, hi)?;
        if hi > 4096 {
            plateau = hi_val;
            break;
        }
    }
    if hi_val > target_seconds {
        return Ok(Provisioning::Unreachable { best_seconds: plateau });
    }
    // Binary search in (hi/2, hi].
    let mut lo = hi / 2; // predicted(lo) > target (or lo == 0 handled above)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if predicted(ctx, mid)? <= target_seconds {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(Provisioning::Cores(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, GpuModel};
    use datasets::DatasetSpec;
    use pipeline::{CostModel, PipelineSpec, SampleProfile};

    fn setup() -> (Vec<SampleProfile>, PipelineSpec, ClusterConfig) {
        let ds = DatasetSpec::openimages_like(2000, 5);
        let pipeline = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        let ps: Vec<_> = ds.records().map(|r| r.analytic_profile(&pipeline, &model)).collect();
        (ps, pipeline, ClusterConfig::paper_testbed(0))
    }

    #[test]
    fn answer_is_minimal_and_sufficient() {
        let (ps, pipeline, config) = setup();
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let baseline = predicted(&ctx, 0).unwrap();
        let target = baseline * 0.75;
        match min_storage_cores_for(&ctx, target).unwrap() {
            Provisioning::Cores(k) => {
                assert!(k > 0, "a 25% cut needs some cores");
                assert!(predicted(&ctx, k).unwrap() <= target);
                if k > 1 {
                    assert!(predicted(&ctx, k - 1).unwrap() > target, "grant {k} not minimal");
                }
            }
            other => panic!("expected a grant, got {other:?}"),
        }
    }

    #[test]
    fn trivial_target_needs_zero_cores() {
        let (ps, pipeline, config) = setup();
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let baseline = predicted(&ctx, 0).unwrap();
        assert_eq!(min_storage_cores_for(&ctx, baseline * 2.0).unwrap(), Provisioning::Cores(0));
    }

    #[test]
    fn impossible_target_reports_best() {
        let (ps, pipeline, config) = setup();
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        match min_storage_cores_for(&ctx, 1e-3).unwrap() {
            Provisioning::Unreachable { best_seconds } => {
                assert!(best_seconds > 1e-3);
            }
            other => panic!("expected unreachable, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid target")]
    fn negative_target_panics() {
        let (ps, pipeline, config) = setup();
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let _ = min_storage_cores_for(&ctx, -1.0);
    }
}
