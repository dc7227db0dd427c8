//! Offloading policies: SOPHON and the paper's baselines (§4).

mod all_off;
mod fastflow;
mod no_off;
mod resize_off;
mod sophon;

use all_off::AllOffPolicy;
use fastflow::FastFlowPolicy;
pub use no_off::NoOffPolicy;
use resize_off::ResizeOffPolicy;
pub use sophon::SophonPolicy;

use crate::engine::PlanningContext;
use crate::{OffloadPlan, SophonError};

/// The capability matrix of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Offloads any preprocessing at all.
    pub offloads_preprocessing: bool,
    /// Can offload a strict subset of the pipeline's operations
    /// ("operation selective" / "partial data preprocessing").
    pub operation_selective: bool,
    /// Chooses samples individually ("data selective" — SOPHON's novelty).
    pub data_selective: bool,
    /// Executes offloaded work on the storage node rather than extra
    /// compute/CPU nodes ("to near storage").
    pub near_storage: bool,
}

/// A strategy that decides, per sample, how much preprocessing to offload.
///
/// Policies are pure planners: they read a [`PlanningContext`] (profiles +
/// cluster resources) and emit an [`OffloadPlan`]. Execution — simulated or
/// live — is shared machinery in [`crate::runner`].
pub trait Policy {
    /// Short identifier used in reports ("sophon", "no-off", …).
    fn name(&self) -> &'static str;

    /// Where the policy sits in the paper's Table 1.
    fn capabilities(&self) -> Capabilities;

    /// Computes the per-sample offload plan.
    ///
    /// # Errors
    ///
    /// Policies that consult the simulator may propagate [`SophonError`].
    fn plan(&self, ctx: &PlanningContext<'_>) -> Result<OffloadPlan, SophonError>;

    /// Whether the policy needs a first epoch without offloading to collect
    /// per-sample profiles (SOPHON's on-the-fly stage-2 profiling).
    fn requires_profiling_epoch(&self) -> bool {
        false
    }
}

/// All five built-in policies, in the paper's presentation order.
pub fn standard_policies() -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(NoOffPolicy),
        Box::new(AllOffPolicy),
        Box::new(FastFlowPolicy),
        Box::new(ResizeOffPolicy),
        Box::new(SophonPolicy::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_shape() {
        // SOPHON is the only policy with every capability — the paper's
        // Table 1 claim.
        let policies = standard_policies();
        let full: Vec<_> = policies
            .iter()
            .filter(|p| {
                let c = p.capabilities();
                c.offloads_preprocessing
                    && c.operation_selective
                    && c.data_selective
                    && c.near_storage
            })
            .map(|p| p.name())
            .collect();
        assert_eq!(full, vec!["sophon"]);
    }

    #[test]
    fn names_are_unique() {
        let policies = standard_policies();
        let mut names: Vec<_> = policies.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), policies.len());
    }
}
