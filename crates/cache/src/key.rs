//! Cache keys and the epoch-stability gate.
//!
//! The single correctness rule of the sample cache lives here: an entry may
//! only hold a representation that is **bit-identical in every epoch**.
//! Augmentation randomness is keyed by `(dataset seed, sample, epoch)`, so
//! any intermediate at or past the first randomized op differs between
//! epochs and must never be replayed across them. [`StableSplit`] encodes
//! that rule in the type layer: the only way to obtain one is
//! [`StableSplit::try_new`], which consults
//! [`Modality::split_is_epoch_stable`] — so a [`CacheKey`] (which can
//! only be built from a `StableSplit`) is proof that the cached bytes are
//! safe to serve in any epoch. The key deliberately has **no epoch field**,
//! and it carries the **modality name**, so entries from two pipelines that
//! happen to share a dataset seed and sample index (say, image sample 7 and
//! audio clip 7) can never alias.

use pipeline::{Modality, SplitPoint};

/// Errors from cache-key construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CacheError {
    /// The split's output embeds per-epoch augmentation randomness (or is
    /// out of range) and may not be cached across epochs.
    UnstableSplit {
        /// The rejected split's op count.
        split: usize,
        /// Length of the deterministic prefix of the pipeline.
        stable_ops: usize,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::UnstableSplit { split, stable_ops } => write!(
                f,
                "split {split} is not epoch-stable (deterministic prefix is \
                 {stable_ops} ops); caching it would replay one epoch's \
                 augmentations in another"
            ),
        }
    }
}

impl std::error::Error for CacheError {}

/// A split point proven epoch-stable for a particular pipeline.
///
/// Constructible only through [`StableSplit::try_new`]; holding one is a
/// static guarantee that the corresponding intermediate can be cached and
/// replayed in any epoch without changing training results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct StableSplit(SplitPoint);

impl StableSplit {
    /// Validates `split` against the modality's deterministic prefix.
    ///
    /// Any concrete pipeline (`&PipelineSpec`, `&AudioPipeline`) coerces
    /// into the `&dyn Modality` parameter.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnstableSplit`] when the split is past the first
    /// randomized op (or past the end of the pipeline).
    pub(crate) fn try_new(
        split: SplitPoint,
        modality: &dyn Modality,
    ) -> Result<StableSplit, CacheError> {
        if modality.split_is_epoch_stable(split) {
            Ok(StableSplit(split))
        } else {
            Err(CacheError::UnstableSplit {
                split: split.offloaded_ops(),
                stable_ops: modality.deterministic_prefix_ops(),
            })
        }
    }
}

/// Identity of a cached representation.
///
/// Two fetches hit the same entry iff they come from the same modality and
/// dataset, name the same sample, ask for the same (stable) split, and
/// carry the same re-compression directive. Epoch is intentionally absent:
/// stability of the split (enforced by `StableSplit`) is what makes that
/// sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Modality name ([`Modality::modality_name`]): image and audio entries
    /// for the same `(dataset_seed, sample_id)` are different bytes and
    /// must never collide.
    pub(crate) modality: &'static str,
    /// Dataset seed (distinguishes datasets and their augmentation keying).
    pub(crate) dataset_seed: u64,
    /// Sample id within the dataset.
    pub(crate) sample_id: u64,
    /// The epoch-stable split whose output is cached.
    pub(crate) split: StableSplit,
    /// Re-compression quality the transfer was produced with, if any. A
    /// raw fetch and a re-encoded fetch are different bytes and must not
    /// alias.
    pub(crate) reencode_quality: Option<u8>,
}

impl CacheKey {
    /// Builds a key after proving the split stable for the modality.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheError::UnstableSplit`].
    pub fn try_new(
        dataset_seed: u64,
        sample_id: u64,
        split: SplitPoint,
        reencode_quality: Option<u8>,
        modality: &dyn Modality,
    ) -> Result<CacheKey, CacheError> {
        Ok(CacheKey {
            modality: modality.modality_name(),
            dataset_seed,
            sample_id,
            split: StableSplit::try_new(split, modality)?,
            reencode_quality,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::PipelineSpec;

    #[test]
    fn modalities_never_alias() {
        // Image sample 7 and audio clip 7 from seed 1, both at a stable
        // split, must land in different cache entries.
        let image = PipelineSpec::standard_train();
        let audio = audio::AudioPipeline::standard_train();
        let img_key = CacheKey::try_new(1, 7, SplitPoint::NONE, None, &image).unwrap();
        let audio_key = CacheKey::try_new(1, 7, SplitPoint::NONE, None, &audio).unwrap();
        assert_ne!(img_key, audio_key, "cross-modality cache collision");
        // Audio's deterministic prefix is deeper than imagery's: split 2
        // (decode + resample) caches for audio, not for images.
        assert!(CacheKey::try_new(1, 7, SplitPoint::new(2), None, &audio).is_ok());
        assert!(CacheKey::try_new(1, 7, SplitPoint::new(2), None, &image).is_err());
    }

    #[test]
    fn stable_splits_accepted_unstable_rejected() {
        let train = PipelineSpec::standard_train();
        assert!(StableSplit::try_new(SplitPoint::NONE, &train).is_ok());
        assert!(StableSplit::try_new(SplitPoint::new(1), &train).is_ok());
        // Splits 2..=5 sit past RandomResizedCrop: replaying them would pin
        // epoch-0 augmentations forever.
        for ops in 2..=5 {
            let err = StableSplit::try_new(SplitPoint::new(ops), &train).unwrap_err();
            assert_eq!(err, CacheError::UnstableSplit { split: ops, stable_ops: 1 });
        }
        // Out of range is also unstable.
        assert!(StableSplit::try_new(SplitPoint::new(9), &train).is_err());
    }

    #[test]
    fn eval_pipeline_caches_any_split() {
        let eval = PipelineSpec::standard_eval();
        for split in eval.split_points() {
            assert!(StableSplit::try_new(split, &eval).is_ok());
        }
    }

    #[test]
    fn keys_distinguish_quality_and_split() {
        let train = PipelineSpec::standard_train();
        let a = CacheKey::try_new(1, 7, SplitPoint::NONE, None, &train).unwrap();
        let b = CacheKey::try_new(1, 7, SplitPoint::NONE, Some(85), &train).unwrap();
        let c = CacheKey::try_new(1, 7, SplitPoint::new(1), None, &train).unwrap();
        assert_ne!(a, b, "re-encoded bytes must not alias raw bytes");
        assert_ne!(a, c, "different splits are different representations");
        assert_eq!(a, CacheKey::try_new(1, 7, SplitPoint::NONE, None, &train).unwrap());
    }

    #[test]
    fn error_message_names_the_rule() {
        let train = PipelineSpec::standard_train();
        let err = StableSplit::try_new(SplitPoint::new(3), &train).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("not epoch-stable"), "got: {msg}");
    }
}
