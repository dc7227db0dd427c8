//! Per-sample execution traces of a simulated epoch.
//!
//! A trace records the completion time of every stage for every sample —
//! the raw material for debugging pipeline stalls, rendering Gantt-style
//! timelines, and asserting causality invariants in tests.

use crate::EpochStats;

/// One sample's timeline within a simulated epoch (virtual seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleTrace {
    /// Sample index in loading order.
    pub sample: u64,
    /// Batch the sample belongs to.
    pub batch: u64,
    /// Prefetch gate the sample waited for (batch `b - window` leaving the
    /// GPU).
    pub gate: f64,
    /// Storage read completion.
    pub read_done: f64,
    /// Offloaded-preprocessing completion (equals `read_done` when nothing
    /// was offloaded).
    pub offload_done: f64,
    /// Link-transfer completion.
    pub transfer_done: f64,
    /// Local-preprocessing completion (equals `transfer_done` when the full
    /// pipeline was offloaded).
    pub local_done: f64,
    /// GPU completion of the sample's batch.
    pub batch_done: f64,
}

impl SampleTrace {
    /// End-to-end latency from gate to batch completion.
    pub fn latency(&self) -> f64 {
        self.batch_done - self.gate
    }

    /// Seconds the finished sample waited for its batch to reach the GPU
    /// and complete — loader-ahead-of-GPU time.
    pub fn batch_wait(&self) -> f64 {
        self.batch_done - self.local_done
    }
}

/// Errors from trace validation.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum TraceError {
    /// A sample's stages completed out of causal order.
    CausalityViolation {
        /// The offending sample.
        sample: u64,
        /// The stage that finished impossibly early.
        later_stage: &'static str,
        /// Its completion time.
        later: f64,
        /// The stage it should have followed.
        earlier_stage: &'static str,
        /// That stage's completion time.
        earlier: f64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::CausalityViolation {
                sample,
                later_stage,
                later,
                earlier_stage,
                earlier,
            } => {
                write!(
                    f,
                    "sample {sample}: {later_stage} ({later:.6}) precedes {earlier_stage} ({earlier:.6})"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The full timeline of one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTrace {
    samples: Vec<SampleTrace>,
    stats: EpochStats,
}

impl EpochTrace {
    pub(crate) fn new(samples: Vec<SampleTrace>, stats: EpochStats) -> EpochTrace {
        EpochTrace { samples, stats }
    }

    /// Per-sample timelines in loading order.
    pub fn samples(&self) -> &[SampleTrace] {
        &self.samples
    }

    /// The epoch's aggregate statistics.
    pub fn stats(&self) -> &EpochStats {
        &self.stats
    }

    /// Validates causality for every sample: stages complete in order and
    /// batches complete after their samples.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::CausalityViolation`] describing the first
    /// violated invariant.
    pub fn check_causality(&self) -> Result<(), TraceError> {
        for t in &self.samples {
            let chain = [
                ("gate", t.gate),
                ("read", t.read_done),
                ("offload", t.offload_done),
                ("transfer", t.transfer_done),
                ("local", t.local_done),
                ("batch", t.batch_done),
            ];
            for w in chain.windows(2) {
                if w[1].1 + 1e-12 < w[0].1 {
                    return Err(TraceError::CausalityViolation {
                        sample: t.sample,
                        later_stage: w[1].0,
                        later: w[1].1,
                        earlier_stage: w[0].0,
                        earlier: w[0].1,
                    });
                }
            }
        }
        Ok(())
    }

    /// Mean end-to-end sample latency.
    pub fn mean_latency(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(SampleTrace::latency).sum::<f64>() / self.samples.len() as f64
    }

    /// Renders a compact textual timeline of the first `n` samples
    /// (debugging aid).
    pub fn render_head(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>7} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "sample", "batch", "read", "offload", "transfer", "local", "gpu"
        );
        for t in self.samples.iter().take(n) {
            let _ = writeln!(
                out,
                "{:>7} {:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
                t.sample,
                t.batch,
                t.read_done,
                t.offload_done,
                t.transfer_done,
                t.local_done,
                t.batch_done
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        simulate_epoch, simulate_epoch_traced, ClusterConfig, EpochSpec, GpuModel, SampleWork,
    };

    fn spec() -> EpochSpec {
        let samples: Vec<_> = (0..200u64)
            .map(|i| SampleWork::new(0.001 + (i % 7) as f64 * 1e-4, 50_000 + i * 100, 0.002))
            .collect();
        EpochSpec::new(samples, 32, GpuModel::ResNet18)
    }

    #[test]
    fn trace_covers_every_sample_in_order() {
        let trace = simulate_epoch_traced(&ClusterConfig::paper_testbed(4), &spec()).unwrap();
        assert_eq!(trace.samples().len(), 200);
        for (i, t) in trace.samples().iter().enumerate() {
            assert_eq!(t.sample, i as u64);
            assert_eq!(t.batch, i as u64 / 32);
        }
    }

    #[test]
    fn causality_holds() {
        let trace = simulate_epoch_traced(&ClusterConfig::paper_testbed(4), &spec()).unwrap();
        trace.check_causality().unwrap();
        assert!(trace.mean_latency() > 0.0);
    }

    #[test]
    fn traced_stats_match_untraced() {
        let config = ClusterConfig::paper_testbed(4);
        let stats = simulate_epoch(&config, &spec()).unwrap();
        let trace = simulate_epoch_traced(&config, &spec()).unwrap();
        assert_eq!(trace.stats(), &stats);
    }

    #[test]
    fn batch_done_filled_for_all_samples() {
        let trace = simulate_epoch_traced(&ClusterConfig::paper_testbed(4), &spec()).unwrap();
        for t in trace.samples() {
            assert!(t.batch_done > 0.0, "sample {} has no batch completion", t.sample);
            assert!(t.batch_wait() >= -1e-12);
        }
    }

    #[test]
    fn render_head_is_readable() {
        let trace = simulate_epoch_traced(&ClusterConfig::paper_testbed(4), &spec()).unwrap();
        let text = trace.render_head(3);
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("transfer"));
    }
}
