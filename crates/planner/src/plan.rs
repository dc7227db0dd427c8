use cluster::SampleWork;
use pipeline::{SampleProfile, SplitPoint};

use crate::SophonError;

/// A per-sample offloading decision for one training job.
///
/// Entry `i` names how many leading pipeline operations sample `i` executes
/// on the storage node. The plan is what SOPHON attaches to fetch requests
/// (paper Figure 2, step d).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffloadPlan {
    splits: Vec<SplitPoint>,
}

impl OffloadPlan {
    /// A plan offloading nothing for `len` samples (the `No-Off` baseline
    /// and SOPHON's profiling epoch).
    pub fn none(len: usize) -> OffloadPlan {
        OffloadPlan { splits: vec![SplitPoint::NONE; len] }
    }

    /// A plan applying the same split to every sample (`All-Off`,
    /// `Resize-Off`).
    pub fn uniform(len: usize, split: SplitPoint) -> OffloadPlan {
        OffloadPlan { splits: vec![split; len] }
    }

    /// A plan from explicit per-sample splits.
    pub fn from_splits(splits: Vec<SplitPoint>) -> OffloadPlan {
        OffloadPlan { splits }
    }

    /// Number of samples covered.
    pub fn len(&self) -> usize {
        self.splits.len()
    }

    /// Whether the plan covers zero samples.
    pub fn is_empty(&self) -> bool {
        self.splits.is_empty()
    }

    /// The split for sample `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn split(&self, i: usize) -> SplitPoint {
        self.splits[i]
    }

    /// Iterates over per-sample splits.
    pub fn iter(&self) -> impl Iterator<Item = SplitPoint> + '_ {
        self.splits.iter().copied()
    }

    /// Sets the split for sample `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn set_split(&mut self, i: usize, split: SplitPoint) {
        self.splits[i] = split;
    }

    /// Number of samples with any offloading.
    pub fn offloaded_samples(&self) -> usize {
        self.splits.iter().filter(|s| s.is_offloaded()).count()
    }

    /// Translates the plan into per-sample resource demands for the cluster
    /// simulator, using each sample's profile.
    ///
    /// # Errors
    ///
    /// Returns [`SophonError::PlanMismatch`] when lengths differ and
    /// [`SophonError::BadSplit`] when a split exceeds a profile's pipeline.
    pub fn to_sample_works(
        &self,
        profiles: &[SampleProfile],
    ) -> Result<Vec<SampleWork>, SophonError> {
        // One exact allocation, where a `collect` through `Result` cannot
        // see the length and grows its buffer by doubling.
        self.works_and_summary(profiles).map(|(works, _)| works)
    }

    /// Summarizes the plan against its profiles, folding each sample's work
    /// into the totals in index order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OffloadPlan::to_sample_works`].
    pub fn summarize(&self, profiles: &[SampleProfile]) -> Result<PlanSummary, SophonError> {
        self.fold_works(profiles, |_| {})
    }

    /// [`OffloadPlan::to_sample_works`] and [`OffloadPlan::summarize`] in
    /// one pass over the profiles.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OffloadPlan::to_sample_works`].
    pub(crate) fn works_and_summary(
        &self,
        profiles: &[SampleProfile],
    ) -> Result<(Vec<SampleWork>, PlanSummary), SophonError> {
        let mut works = Vec::with_capacity(profiles.len());
        let summary = self.fold_works(profiles, |work| works.push(work))?;
        Ok((works, summary))
    }

    /// Folds each sample's work into a summary in index order, handing
    /// every work to `each` on the way.
    fn fold_works(
        &self,
        profiles: &[SampleProfile],
        mut each: impl FnMut(SampleWork),
    ) -> Result<PlanSummary, SophonError> {
        self.check_len(profiles)?;
        // `-0.0` is the identity `Iterator::sum` starts an `f64` total
        // from, so the CPU totals keep the sign an all-zero sum has always
        // had.
        let mut summary = PlanSummary {
            samples: profiles.len() as u64,
            offloaded_samples: 0,
            transfer_bytes: 0,
            raw_bytes: 0,
            storage_cpu_seconds: -0.0,
            compute_cpu_seconds: -0.0,
        };
        for (p, &split) in profiles.iter().zip(&self.splits) {
            let work = sample_work(p, split)?;
            summary.offloaded_samples += u64::from(split.is_offloaded());
            summary.transfer_bytes += work.transfer_bytes;
            summary.raw_bytes += p.raw_bytes;
            summary.storage_cpu_seconds += work.storage_cpu_seconds;
            summary.compute_cpu_seconds += work.compute_cpu_seconds;
            each(work);
        }
        Ok(summary)
    }

    fn check_len(&self, profiles: &[SampleProfile]) -> Result<(), SophonError> {
        if profiles.len() == self.splits.len() {
            Ok(())
        } else {
            Err(SophonError::PlanMismatch { profiles: profiles.len(), plan: self.splits.len() })
        }
    }
}

/// One sample's resource demands when its first `split` ops run on the
/// storage node.
fn sample_work(p: &SampleProfile, split: SplitPoint) -> Result<SampleWork, SophonError> {
    let k = split.offloaded_ops();
    if k > p.stages.len() {
        return Err(SophonError::BadSplit {
            sample_id: p.sample_id,
            split: k,
            len: p.stages.len(),
        });
    }
    let storage = p.prefix_seconds(k);
    let transfer = p.size_at(k);
    let compute = p.total_seconds() - storage;
    Ok(SampleWork::new(storage, transfer, compute.max(0.0)))
}

/// Aggregate demands implied by an [`OffloadPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSummary {
    /// Samples covered.
    pub(crate) samples: u64,
    /// Samples with at least one op offloaded.
    pub offloaded_samples: u64,
    /// Total bytes on the wire per epoch.
    pub transfer_bytes: u64,
    /// Total raw bytes (the `No-Off` traffic).
    pub raw_bytes: u64,
    /// Total offloaded single-core CPU seconds.
    pub(crate) storage_cpu_seconds: f64,
    /// Total local single-core CPU seconds.
    pub(crate) compute_cpu_seconds: f64,
}

impl PlanSummary {
    /// Traffic reduction factor vs. transferring every sample raw.
    pub fn traffic_reduction(&self) -> f64 {
        self.raw_bytes as f64 / self.transfer_bytes.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::DatasetSpec;
    use pipeline::{CostModel, PipelineSpec};

    fn profiles(n: u64) -> Vec<SampleProfile> {
        let ds = DatasetSpec::openimages_like(n, 3);
        let spec = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        ds.records().map(|r| r.analytic_profile(&spec, &model)).collect()
    }

    #[test]
    fn none_plan_transfers_raw() {
        let ps = profiles(50);
        let plan = OffloadPlan::none(50);
        let sum = plan.summarize(&ps).unwrap();
        assert_eq!(sum.transfer_bytes, sum.raw_bytes);
        assert_eq!(sum.offloaded_samples, 0);
        assert_eq!(sum.storage_cpu_seconds, 0.0);
        assert!((sum.traffic_reduction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_plan_transfers_tensors() {
        let ps = profiles(50);
        let plan = OffloadPlan::uniform(50, SplitPoint::new(5));
        let sum = plan.summarize(&ps).unwrap();
        assert_eq!(sum.transfer_bytes, 50 * 602_112);
        assert_eq!(sum.offloaded_samples, 50);
        assert_eq!(sum.compute_cpu_seconds, 0.0);
    }

    #[test]
    fn split_two_transfers_crops() {
        let ps = profiles(20);
        let plan = OffloadPlan::uniform(20, SplitPoint::new(2));
        let sum = plan.summarize(&ps).unwrap();
        assert_eq!(sum.transfer_bytes, 20 * 150_528);
        // CPU splits between nodes and totals are conserved.
        let total: f64 = ps.iter().map(|p| p.total_seconds()).sum();
        assert!((sum.storage_cpu_seconds + sum.compute_cpu_seconds - total).abs() < 1e-9);
    }

    #[test]
    fn mismatch_reported() {
        let ps = profiles(5);
        let plan = OffloadPlan::none(4);
        assert!(matches!(
            plan.summarize(&ps),
            Err(SophonError::PlanMismatch { profiles: 5, plan: 4 })
        ));
    }

    #[test]
    fn bad_split_reported() {
        let ps = profiles(3);
        let plan = OffloadPlan::uniform(3, SplitPoint::new(9));
        assert!(matches!(plan.summarize(&ps), Err(SophonError::BadSplit { split: 9, .. })));
    }

    /// The summary as it was computed before it was folded: every sample's
    /// work collected, then each field summed. The oracle `summarize` is
    /// checked against.
    fn summarize_reference(
        plan: &OffloadPlan,
        profiles: &[SampleProfile],
    ) -> Result<PlanSummary, SophonError> {
        let works = plan.to_sample_works(profiles)?;
        let raw_bytes: u64 = profiles.iter().map(|p| p.raw_bytes).sum();
        Ok(PlanSummary {
            samples: works.len() as u64,
            offloaded_samples: plan.offloaded_samples() as u64,
            transfer_bytes: works.iter().map(|w| w.transfer_bytes).sum(),
            raw_bytes,
            storage_cpu_seconds: works.iter().map(|w| w.storage_cpu_seconds).sum(),
            compute_cpu_seconds: works.iter().map(|w| w.compute_cpu_seconds).sum(),
        })
    }

    fn summary_bits(s: &PlanSummary) -> [u64; 6] {
        [
            s.samples,
            s.offloaded_samples,
            s.transfer_bytes,
            s.raw_bytes,
            s.storage_cpu_seconds.to_bits(),
            s.compute_cpu_seconds.to_bits(),
        ]
    }

    #[test]
    fn folded_summary_matches_the_collected_one_bit_for_bit() {
        let ps = profiles(400);
        let plans = [
            ("none", OffloadPlan::none(400)),
            ("all", OffloadPlan::uniform(400, SplitPoint::new(5))),
            (
                "every split",
                OffloadPlan::from_splits((0..400).map(|i| SplitPoint::new(i % 6)).collect()),
            ),
            ("best", OffloadPlan::from_splits(ps.iter().map(SampleProfile::best_split).collect())),
        ];
        for (name, plan) in &plans {
            let got = plan.summarize(&ps).unwrap();
            let want = summarize_reference(plan, &ps).unwrap();
            assert_eq!(summary_bits(&got), summary_bits(&want), "{name}");
        }
        // An empty corpus sums nothing, from the same identity.
        let empty = OffloadPlan::none(0);
        assert_eq!(
            summary_bits(&empty.summarize(&[]).unwrap()),
            summary_bits(&summarize_reference(&empty, &[]).unwrap())
        );
        // A short plan and out-of-range splits fail with the same first
        // error.
        let short = OffloadPlan::none(399);
        assert_eq!(short.summarize(&ps), summarize_reference(&short, &ps));
        let mut bad = OffloadPlan::none(400);
        bad.set_split(7, SplitPoint::new(9));
        bad.set_split(300, SplitPoint::new(12));
        let err = bad.summarize(&ps).unwrap_err();
        assert_eq!(err, summarize_reference(&bad, &ps).unwrap_err());
        assert!(matches!(err, SophonError::BadSplit { split: 9, .. }), "{err:?}");
    }

    #[test]
    fn set_split_changes_one_sample() {
        let ps = profiles(3);
        let mut plan = OffloadPlan::none(3);
        plan.set_split(1, SplitPoint::new(2));
        assert_eq!(plan.offloaded_samples(), 1);
        let works = plan.to_sample_works(&ps).unwrap();
        assert_eq!(works[0].transfer_bytes, ps[0].raw_bytes);
        assert_eq!(works[1].transfer_bytes, 150_528);
    }
}
