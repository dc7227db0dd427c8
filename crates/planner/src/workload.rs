//! Concrete workloads behind the modality abstraction.
//!
//! [`PlanningContext`](crate::engine::PlanningContext) holds a
//! `&dyn Modality`, which is all the *planner* needs. Everything around
//! the planner — profiling a corpus, naming samples, executing a split
//! end-to-end, digesting outputs for bit-identity checks — still needs
//! the concrete pipeline and dataset types. [`ModalWorkload`] is that
//! enum-dispatch layer: one value bundling a dataset with its pipeline,
//! constructed per `--modality` flag, from which the CLI, benches, and
//! examples derive profiles, planning contexts, and digests without
//! naming `PipelineSpec` or `AudioPipeline` themselves.

use audio::{profile_clip, AudioDatasetSpec, AudioPipeline};
use datasets::DatasetSpec;
use pipeline::{
    CostModel, Modality, PipelineSpec, SampleKey, SampleProfile, SplitPoint, StageData,
};

use crate::SophonError;

/// FNV-1a offset basis (the digest seed used across the repo).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_byte(digest: &mut u64, byte: u8) {
    *digest ^= u64::from(byte);
    *digest = digest.wrapping_mul(FNV_PRIME);
}

fn fnv_bytes(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        fnv_byte(digest, b);
    }
}

/// A dataset paired with the pipeline that preprocesses it.
///
/// The two modalities deliberately have opposite split structure: image
/// pipelines shrink early (the crop) and blow up late (`ToTensor`), so
/// the byte minimum sits mid-pipeline; audio pipelines shrink *late*
/// (mel features are far smaller than lossless PCM), so the minimum
/// usually sits at the end — and quiet tonal clips whose lossless
/// encoding collapses stay raw. One planner handles both because it
/// reads only profiles and the [`Modality`] surface.
#[derive(Debug, Clone)]
pub enum ModalWorkload {
    /// Synthetic imagery through the paper's five-op pipeline.
    Image {
        /// The corpus.
        dataset: DatasetSpec,
        /// The preprocessing pipeline.
        pipeline: PipelineSpec,
        /// Analytic per-op cost model for profiling.
        cost_model: CostModel,
    },
    /// Synthetic speech-like audio through decode → resample → crop →
    /// mel → normalize.
    Audio {
        /// The corpus.
        dataset: AudioDatasetSpec,
        /// The preprocessing pipeline.
        pipeline: AudioPipeline,
    },
}

impl ModalWorkload {
    /// The standard image workload: an OpenImages-like corpus through the
    /// training pipeline with realistic costs.
    pub fn image_standard(samples: u64, seed: u64) -> ModalWorkload {
        ModalWorkload::Image {
            dataset: DatasetSpec::openimages_like(samples, seed),
            pipeline: PipelineSpec::standard_train(),
            cost_model: CostModel::realistic(),
        }
    }

    /// The standard audio workload: a speech-like corpus through the
    /// mel front-end.
    pub fn audio_standard(samples: u64, seed: u64) -> ModalWorkload {
        ModalWorkload::Audio {
            dataset: AudioDatasetSpec::speech_like(samples, seed),
            pipeline: AudioPipeline::standard_train(),
        }
    }

    /// The workload's pipeline behind the planner-facing trait.
    pub fn modality(&self) -> &dyn Modality {
        match self {
            ModalWorkload::Image { pipeline, .. } => pipeline,
            ModalWorkload::Audio { pipeline, .. } => pipeline,
        }
    }

    /// Stable lowercase modality name (`"image"`, `"audio"`).
    pub fn modality_name(&self) -> &'static str {
        self.modality().modality_name()
    }

    /// Number of samples in the corpus.
    pub fn len(&self) -> u64 {
        match self {
            ModalWorkload::Image { dataset, .. } => dataset.len,
            ModalWorkload::Audio { dataset, .. } => dataset.len,
        }
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The corpus seed, which also keys augmentation randomness.
    pub(crate) fn dataset_seed(&self) -> u64 {
        match self {
            ModalWorkload::Image { dataset, .. } => dataset.seed,
            ModalWorkload::Audio { dataset, .. } => dataset.seed,
        }
    }

    /// The stable augmentation key for `(sample, epoch)` — identical on
    /// the storage and compute side of any split.
    pub fn sample_key(&self, sample_id: u64, epoch: u64) -> SampleKey {
        SampleKey::new(self.dataset_seed(), sample_id, epoch)
    }

    /// Per-sample stage profiles for the decision engine.
    ///
    /// Image profiles are analytic (the calibrated size/cost model);
    /// audio profiles run each clip through the real pipeline and
    /// measure every stage.
    ///
    /// # Errors
    ///
    /// Propagates audio execution failures.
    pub fn profiles(&self) -> Result<Vec<SampleProfile>, SophonError> {
        match self {
            ModalWorkload::Image { dataset, pipeline, cost_model } => {
                Ok(dataset.records().map(|r| r.analytic_profile(pipeline, cost_model)).collect())
            }
            ModalWorkload::Audio { dataset, pipeline } => (0..dataset.len)
                .map(|id| {
                    profile_clip(pipeline, dataset.materialize(id), self.sample_key(id, 0))
                        .map_err(SophonError::from)
                })
                .collect(),
        }
    }

    /// Executes sample `sample_id` exactly as a deployed split would —
    /// the offloaded prefix first (storage side), then the suffix on its
    /// output (compute side) — and returns an FNV-1a digest of the final
    /// representation's bytes.
    ///
    /// The digest is a per-sample bit-identity witness: for a fixed
    /// `(sample, epoch)` it is invariant across every split point, which
    /// is the property that makes selective offloading transparent to
    /// training.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures and out-of-range splits.
    pub fn split_digest(
        &self,
        sample_id: u64,
        epoch: u64,
        split: SplitPoint,
    ) -> Result<u64, SophonError> {
        let key = self.sample_key(sample_id, epoch);
        let mut digest = FNV_OFFSET;
        match self {
            ModalWorkload::Image { dataset, pipeline, .. } => {
                let raw = StageData::Encoded(dataset.materialize(sample_id).into());
                let mid = pipeline.run_prefix(raw, split, key)?;
                let out = pipeline.run_suffix(mid, split, key)?;
                digest_stage_data(&mut digest, &out);
            }
            ModalWorkload::Audio { dataset, pipeline } => {
                let raw = dataset.materialize(sample_id);
                let mid = pipeline.run_prefix(raw, split, key)?;
                let out = pipeline.run_suffix(mid, split, key)?;
                digest_audio_data(&mut digest, &out);
            }
        }
        Ok(digest)
    }
}

fn digest_stage_data(digest: &mut u64, data: &StageData) {
    if let Some(bytes) = data.as_encoded() {
        fnv_bytes(digest, bytes);
    } else if let Some(img) = data.as_image() {
        fnv_bytes(digest, img.as_raw());
    } else if let Some(t) = data.as_tensor() {
        for v in t.as_slice() {
            fnv_bytes(digest, &v.to_le_bytes());
        }
    }
}

fn digest_audio_data(digest: &mut u64, data: &audio::AudioData) {
    match data {
        audio::AudioData::Encoded(bytes) => fnv_bytes(digest, bytes),
        audio::AudioData::Pcm(w) => {
            fnv_bytes(digest, &w.sample_rate().to_le_bytes());
            for s in w.samples() {
                fnv_bytes(digest, &s.to_le_bytes());
            }
        }
        audio::AudioData::Features(s) => {
            for v in s.as_slice() {
                fnv_bytes(digest, &v.to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modalities_profile() {
        let image = ModalWorkload::image_standard(8, 3);
        let audio = ModalWorkload::audio_standard(8, 3);
        assert_eq!(image.modality_name(), "image");
        assert_eq!(audio.modality_name(), "audio");
        for w in [image, audio] {
            let profiles = w.profiles().unwrap();
            assert_eq!(profiles.len(), 8);
            assert_eq!(profiles[0].stages.len(), w.modality().op_count());
        }
    }

    #[test]
    fn split_digest_is_invariant_across_splits() {
        for w in [ModalWorkload::image_standard(2, 5), ModalWorkload::audio_standard(2, 5)] {
            for epoch in [0u64, 2] {
                let full = w.split_digest(1, epoch, SplitPoint::NONE).unwrap();
                for k in 1..=w.modality().op_count() {
                    let d = w.split_digest(1, epoch, SplitPoint::new(k)).unwrap();
                    assert_eq!(d, full, "{} split {k} epoch {epoch}", w.modality_name());
                }
            }
        }
    }

    #[test]
    fn digests_vary_per_epoch_and_modality() {
        let image = ModalWorkload::image_standard(2, 5);
        let audio = ModalWorkload::audio_standard(2, 5);
        // Random augmentation makes epochs differ...
        assert_ne!(
            audio.split_digest(0, 0, SplitPoint::NONE).unwrap(),
            audio.split_digest(0, 1, SplitPoint::NONE).unwrap()
        );
        // ...and the two modalities never produce the same bytes.
        assert_ne!(
            image.split_digest(0, 0, SplitPoint::NONE).unwrap(),
            audio.split_digest(0, 0, SplitPoint::NONE).unwrap()
        );
    }

    #[test]
    fn out_of_range_split_is_typed() {
        let w = ModalWorkload::audio_standard(1, 1);
        let err = w.split_digest(0, 0, SplitPoint::new(9)).unwrap_err();
        assert!(matches!(err, SophonError::Audio(_)));
    }
}
