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

    /// Every sample's stages complete in order, and its batch after it.
    fn assert_causal(trace: &super::EpochTrace) {
        for t in trace.samples() {
            let chain = [
                ("gate", t.gate),
                ("read", t.read_done),
                ("offload", t.offload_done),
                ("transfer", t.transfer_done),
                ("local", t.local_done),
                ("batch", t.batch_done),
            ];
            for w in chain.windows(2) {
                assert!(
                    w[1].1 + 1e-12 >= w[0].1,
                    "sample {}: {:?} precedes {:?}",
                    t.sample,
                    w[1],
                    w[0]
                );
            }
        }
    }

    #[test]
    fn causality_holds() {
        assert_causal(&simulate_epoch_traced(&ClusterConfig::paper_testbed(4), &spec()).unwrap());
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
