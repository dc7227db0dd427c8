/// Errors from SOPHON planning and experiment runs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SophonError {
    /// The cluster simulation rejected the workload.
    Sim(cluster::SimError),
    /// A pipeline execution failed during profiling.
    Pipeline(pipeline::PipelineError),
    /// An audio pipeline execution failed during profiling.
    Audio(audio::AudioPipelineError),
    /// The plan and profile collections disagree in length.
    PlanMismatch {
        /// Number of per-sample profiles.
        profiles: usize,
        /// Number of plan entries.
        plan: usize,
    },
    /// An input of the fleet planner is not parallel to what it describes
    /// (the shard map's nodes, or the corpus).
    FleetMismatch {
        /// Which input disagreed, and with what.
        what: &'static str,
        /// Entries it needed.
        expected: usize,
        /// Entries it had.
        got: usize,
    },
    /// A policy produced a split outside the pipeline.
    BadSplit {
        /// Offending sample.
        sample_id: u64,
        /// The split requested.
        split: usize,
        /// Pipeline length.
        len: usize,
    },
}

impl std::fmt::Display for SophonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SophonError::Sim(e) => write!(f, "cluster simulation failed: {e}"),
            SophonError::Pipeline(e) => write!(f, "profiling failed: {e}"),
            SophonError::Audio(e) => write!(f, "audio profiling failed: {e}"),
            SophonError::PlanMismatch { profiles, plan } => {
                write!(f, "plan has {plan} entries for {profiles} profiles")
            }
            SophonError::FleetMismatch { what, expected, got } => {
                write!(f, "{what} has {got} entries, expected {expected}")
            }
            SophonError::BadSplit { sample_id, split, len } => {
                write!(f, "sample {sample_id}: split {split} exceeds pipeline length {len}")
            }
        }
    }
}

impl std::error::Error for SophonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SophonError::Sim(e) => Some(e),
            SophonError::Pipeline(e) => Some(e),
            SophonError::Audio(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cluster::SimError> for SophonError {
    fn from(e: cluster::SimError) -> Self {
        SophonError::Sim(e)
    }
}

impl From<pipeline::PipelineError> for SophonError {
    fn from(e: pipeline::PipelineError) -> Self {
        SophonError::Pipeline(e)
    }
}

impl From<audio::AudioPipelineError> for SophonError {
    fn from(e: audio::AudioPipelineError) -> Self {
        SophonError::Audio(e)
    }
}
