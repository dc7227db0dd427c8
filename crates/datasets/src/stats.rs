//! Corpus-level statistics: the quantities behind the paper's Figure 1.

use pipeline::{CostModel, PipelineSpec, SampleProfile};

use crate::DatasetSpec;

/// Aggregate statistics of a corpus under a preprocessing pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusStats {
    /// Corpus name.
    pub(crate) name: String,
    /// Number of samples.
    pub len: u64,
    /// Count of samples whose minimum size is at each stage
    /// (index 0 = raw; the paper's Figure 1b).
    pub min_stage_counts: Vec<u64>,
    /// Total raw encoded bytes.
    pub(crate) total_raw_bytes: u64,
    /// Total bytes when every sample transfers at its minimum stage.
    pub(crate) total_min_bytes: u64,
    /// Offloading efficiencies (bytes saved per CPU second), one per sample;
    /// zeros for samples best left raw (the paper's Figure 1c).
    pub efficiencies: Vec<f64>,
    /// Total single-core preprocessing seconds over the corpus.
    pub(crate) total_cpu_seconds: f64,
}

impl CorpusStats {
    /// Computes statistics from analytic profiles of every record.
    pub fn compute(ds: &DatasetSpec, spec: &PipelineSpec, model: &CostModel) -> CorpusStats {
        let profiles: Vec<SampleProfile> =
            ds.records().map(|r| r.analytic_profile(spec, model)).collect();
        Self::from_profiles(&ds.name, &profiles, spec)
    }

    /// Computes statistics from pre-measured profiles.
    pub(crate) fn from_profiles(
        name: &str,
        profiles: &[SampleProfile],
        spec: &PipelineSpec,
    ) -> CorpusStats {
        let mut min_stage_counts = vec![0u64; spec.len() + 1];
        let mut total_raw_bytes = 0u64;
        let mut total_min_bytes = 0u64;
        let mut efficiencies = Vec::with_capacity(profiles.len());
        let mut total_cpu_seconds = 0.0;
        for p in profiles {
            let (stage, size) = p.min_stage();
            min_stage_counts[stage] += 1;
            total_raw_bytes += p.raw_bytes;
            total_min_bytes += size;
            efficiencies.push(p.efficiency());
            total_cpu_seconds += p.total_seconds();
        }
        CorpusStats {
            name: name.to_string(),
            len: profiles.len() as u64,
            min_stage_counts,
            total_raw_bytes,
            total_min_bytes,
            efficiencies,
            total_cpu_seconds,
        }
    }

    /// Fraction of samples that benefit from some offloading (minimum size
    /// not at the raw stage) — 0.76 for the OpenImages-like corpus, 0.26 for
    /// the ImageNet-like one.
    pub fn benefit_fraction(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        1.0 - self.min_stage_counts[0] as f64 / self.len as f64
    }

    /// Percentiles of the efficiency distribution; `q` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics when the corpus is empty or `q` is outside `[0, 1]`.
    pub fn efficiency_percentile(&self, q: f64) -> f64 {
        assert!(!self.efficiencies.is_empty(), "empty corpus");
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let mut sorted = self.efficiencies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("efficiencies are finite"));
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(ds: DatasetSpec) -> CorpusStats {
        CorpusStats::compute(&ds, &PipelineSpec::standard_train(), &CostModel::realistic())
    }

    #[test]
    fn openimages_figure_1b() {
        let s = stats(DatasetSpec::openimages_like(3_000, 1));
        let f = s.benefit_fraction();
        assert!((0.70..0.82).contains(&f), "benefit fraction {f}");
        // All benefiting samples bottom out after RandomResizedCrop (stage 2).
        assert_eq!(s.min_stage_counts[1], 0);
        assert_eq!(s.min_stage_counts[3], 0);
        assert_eq!(s.min_stage_counts[4], 0);
        assert_eq!(s.min_stage_counts[5], 0);
    }

    #[test]
    fn imagenet_figure_1b() {
        let s = stats(DatasetSpec::imagenet_like(3_000, 1));
        let f = s.benefit_fraction();
        assert!((0.20..0.32).contains(&f), "benefit fraction {f}");
    }

    #[test]
    fn figure_1c_efficiency_distribution() {
        let s = stats(DatasetSpec::openimages_like(3_000, 2));
        // ~24 % of samples have zero efficiency (raw is minimal)...
        let zero = s.efficiencies.iter().filter(|&&e| e == 0.0).count();
        let frac = zero as f64 / s.len as f64;
        assert!((0.18..0.30).contains(&frac), "zero-efficiency fraction {frac}");
        // ...and the rest vary widely (the long tail the policy exploits).
        let p50 = s.efficiency_percentile(0.5);
        let p95 = s.efficiency_percentile(0.95);
        assert!(p95 > p50 * 2.0, "p50={p50} p95={p95}");
    }

    #[test]
    fn traffic_reduction_bound_exceeds_papers_result() {
        // SOPHON achieves 2.2x on OpenImages; the corpus ceiling (offload
        // everything beneficial) must be at least that.
        let s = stats(DatasetSpec::openimages_like(3_000, 3));
        let ceiling = s.total_raw_bytes as f64 / s.total_min_bytes as f64;
        assert!(ceiling > 2.0, "ceiling {ceiling}");
    }

    #[test]
    fn empty_corpus_is_safe() {
        let s = stats(DatasetSpec::mini(0, 1));
        assert_eq!(s.benefit_fraction(), 0.0);
        assert_eq!(s.len, 0);
    }
}
