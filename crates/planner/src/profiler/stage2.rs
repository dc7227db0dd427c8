//! Stage-2, "on-the-fly" per-sample profiling.
//!
//! The first training epoch runs with no offloading; while it streams, the
//! profiler records each sample's byte size after every operation and each
//! operation's CPU cost. Two equivalent paths exist:
//!
//! * [`profile_corpus_analytic`] — derives every profile from the dataset's
//!   sample records and the analytic cost model, in O(samples) with no
//!   pixels touched. This is what the large-scale simulated experiments use.
//! * `sophon::live::Corpus::profiles` — measures the real pipeline over the
//!   bytes a live corpus stores (the path a production deployment would
//!   take), in the crate that materialises and serves them.
//!
//! Both paths produce [`SampleProfile`]s with identical stage-size
//! semantics, a property asserted in `datasets`' fidelity tests.
//!
//! A [`ProfileSet`] is one analytic derivation kept as data: the profiles
//! and the corpus, pipeline and cost model they came from, so a holder can
//! tell whether they still describe its inputs.

use std::fmt;

use datasets::DatasetSpec;
use pipeline::{CostModel, PipelineSpec, SampleProfile};

/// Profiles the whole corpus analytically (no rendering).
pub fn profile_corpus_analytic(
    ds: &DatasetSpec,
    pipeline: &PipelineSpec,
    model: &CostModel,
) -> Vec<SampleProfile> {
    ds.records().map(|r| r.analytic_profile(pipeline, model)).collect()
}

/// A corpus' analytic profiles with their provenance.
#[derive(Clone)]
pub struct ProfileSet {
    dataset: DatasetSpec,
    pipeline: PipelineSpec,
    cost_model: CostModel,
    profiles: Vec<SampleProfile>,
}

impl ProfileSet {
    /// Derives every profile of `ds` through `pipeline` under `model`
    /// ([`profile_corpus_analytic`]) and records those three inputs.
    pub(crate) fn analytic(
        ds: &DatasetSpec,
        pipeline: &PipelineSpec,
        model: &CostModel,
    ) -> ProfileSet {
        ProfileSet {
            profiles: profile_corpus_analytic(ds, pipeline, model),
            dataset: ds.clone(),
            pipeline: pipeline.clone(),
            cost_model: model.clone(),
        }
    }

    /// The profiles, one per sample in corpus order.
    pub fn profiles(&self) -> &[SampleProfile] {
        &self.profiles
    }

    /// Whether these profiles were derived from exactly these inputs.
    pub(crate) fn is_derived_from(
        &self,
        ds: &DatasetSpec,
        pipeline: &PipelineSpec,
        model: &CostModel,
    ) -> bool {
        self.dataset == *ds && self.pipeline == *pipeline && self.cost_model == *model
    }
}

/// The provenance and the length; forty thousand profiles are not a
/// readable debug line.
impl fmt::Debug for ProfileSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProfileSet")
            .field("dataset", &self.dataset)
            .field("pipeline", &self.pipeline)
            .field("cost_model", &self.cost_model)
            .field("len", &self.profiles.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_profiles_cover_corpus_in_order() {
        let ds = DatasetSpec::openimages_like(300, 4);
        let ps =
            profile_corpus_analytic(&ds, &PipelineSpec::standard_train(), &CostModel::realistic());
        assert_eq!(ps.len(), 300);
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(p.sample_id, i as u64);
            assert_eq!(p.stages.len(), 5);
        }
    }

    #[test]
    fn a_set_records_what_it_was_derived_from() {
        let (ds, pipeline, model) = (
            DatasetSpec::openimages_like(64, 4),
            PipelineSpec::standard_train(),
            CostModel::realistic(),
        );
        let set = ProfileSet::analytic(&ds, &pipeline, &model);
        assert_eq!(set.profiles(), profile_corpus_analytic(&ds, &pipeline, &model).as_slice());
        assert!(set.is_derived_from(&ds, &pipeline, &model));
        assert!(!set.is_derived_from(&DatasetSpec::openimages_like(64, 5), &pipeline, &model));
        assert!(!set.is_derived_from(&ds, &PipelineSpec::standard_eval(), &model));
        let cheaper =
            CostModel { decode_ns_per_pixel: model.decode_ns_per_pixel / 2.0, ..model.clone() };
        assert!(!set.is_derived_from(&ds, &pipeline, &cheaper));
    }
}
