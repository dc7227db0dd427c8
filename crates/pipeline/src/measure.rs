//! Per-sample pipeline measurement: stage sizes and operation costs.
//!
//! This is the instrument behind the paper's Figure 1 analysis and behind
//! SOPHON's stage-2 profiler: running the full pipeline once for a sample
//! while recording the byte size after every operation and each operation's
//! CPU cost.

use crate::rng::SampleKey;
use crate::{CostModel, PipelineError, PipelineSpec, SplitPoint, StageData};

/// One operation's measurement within a [`SampleProfile`]. Which operation
/// it measured is its index in the pipeline the profile was taken through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageMeasurement {
    /// Byte size of the operation's output.
    pub out_bytes: u64,
    /// Modeled single-core CPU seconds for the operation.
    pub seconds: f64,
}

/// The complete size/time profile of one sample through a pipeline.
///
/// Stage indices are as in `PipelineSpec::kind_at`: stage 0 is the raw
/// encoded sample; stage `i` is the output of operation `i - 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleProfile {
    /// Sample index within its dataset.
    pub sample_id: u64,
    /// Byte size of the raw encoded sample (stage 0).
    pub raw_bytes: u64,
    /// Per-operation measurements (stages 1..=len).
    pub stages: Vec<StageMeasurement>,
}

impl SampleProfile {
    /// Runs `spec` over `data`, recording sizes and modeled costs.
    ///
    /// # Errors
    ///
    /// Propagates the first pipeline failure.
    pub fn measure(
        spec: &PipelineSpec,
        data: StageData,
        key: SampleKey,
        model: &CostModel,
    ) -> Result<SampleProfile, PipelineError> {
        let raw_bytes = data.byte_len();
        let mut stages = Vec::with_capacity(spec.len());
        let mut current = data;
        for (idx, &op) in spec.ops().iter().enumerate() {
            let mut rng = crate::AugmentRng::for_op(key, idx);
            let input_pixels = current.pixel_count();
            let input_bytes = current.byte_len();
            let output = op.apply(current, &mut rng)?;
            let seconds = model.op_seconds_for_dims(
                op,
                input_pixels,
                input_bytes,
                output.pixel_count(),
                output.byte_len(),
            );
            stages.push(StageMeasurement { out_bytes: output.byte_len(), seconds });
            current = output;
        }
        Ok(SampleProfile { sample_id: key.sample_id, raw_bytes, stages })
    }

    /// Byte size at a stage (0 = raw).
    ///
    /// # Panics
    ///
    /// Panics when `stage > stages.len()`.
    pub fn size_at(&self, stage: usize) -> u64 {
        if stage == 0 {
            self.raw_bytes
        } else {
            self.stages[stage - 1].out_bytes
        }
    }

    /// Number of stages including the raw stage (`ops + 1`).
    pub fn stage_count(&self) -> usize {
        self.stages.len() + 1
    }

    /// The earliest stage achieving the minimum byte size, with that size.
    ///
    /// Stage 0 means the sample is smallest in its raw encoded form — the
    /// paper's "24 % of OpenImages / 74 % of ImageNet should not be
    /// offloaded" case.
    pub fn min_stage(&self) -> (usize, u64) {
        let mut best_stage = 0usize;
        let mut best = self.raw_bytes;
        for (i, m) in self.stages.iter().enumerate() {
            if m.out_bytes < best {
                best = m.out_bytes;
                best_stage = i + 1;
            }
        }
        (best_stage, best)
    }

    /// Single-core CPU seconds to execute operations `0..stage` (the prefix
    /// that must be offloaded to transfer the stage-`stage` representation).
    pub fn prefix_seconds(&self, stage: usize) -> f64 {
        self.stages[..stage].iter().map(|m| m.seconds).sum()
    }

    /// Total single-core CPU seconds for the whole pipeline.
    pub fn total_seconds(&self) -> f64 {
        self.prefix_seconds(self.stages.len())
    }

    /// The paper's *offloading efficiency*: bytes of traffic saved per
    /// second of storage-node CPU spent, at the optimal split. Zero when the
    /// raw form is already minimal.
    pub fn efficiency(&self) -> f64 {
        let (stage, size) = self.min_stage();
        if stage == 0 {
            return 0.0;
        }
        let saved = (self.raw_bytes - size) as f64;
        let secs = self.prefix_seconds(stage);
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            saved / secs
        }
    }

    /// The split point that transfers the minimum representation.
    pub fn best_split(&self) -> SplitPoint {
        SplitPoint::new(self.min_stage().0)
    }
}

/// Measures every sample produced by an iterator of `(key, data)` pairs.
///
/// # Errors
///
/// Propagates the first failing sample.
pub fn measure_corpus<I>(
    spec: &PipelineSpec,
    samples: I,
    model: &CostModel,
) -> Result<Vec<SampleProfile>, PipelineError>
where
    I: IntoIterator<Item = (SampleKey, StageData)>,
{
    samples.into_iter().map(|(key, data)| SampleProfile::measure(spec, data, key, model)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use codec::Quality;
    use imagery::synth::SynthSpec;

    fn profile_of(width: u32, height: u32, complexity: f64) -> SampleProfile {
        let img = SynthSpec::new(width, height).complexity(complexity).render(1);
        let data = StageData::Encoded(codec::encode(&img, Quality::default()).into());
        SampleProfile::measure(
            &PipelineSpec::standard_train(),
            data,
            SampleKey::new(1, 1, 0),
            &CostModel::realistic(),
        )
        .unwrap()
    }

    #[test]
    fn stage_sizes_follow_figure_1a_shape() {
        // A large detailed image: raw encoded > post-crop (151 KB), and
        // ToTensor inflates 4x.
        let p = profile_of(1280, 960, 0.7);
        assert!(p.raw_bytes > 150_528, "raw = {}", p.raw_bytes);
        assert_eq!(p.size_at(2), 150_528); // after RandomResizedCrop
        assert_eq!(p.size_at(3), 150_528); // flip preserves size
        assert_eq!(p.size_at(4), 602_112); // ToTensor: 4x
        assert_eq!(p.size_at(5), 602_112); // Normalize preserves size
        let (stage, size) = p.min_stage();
        assert_eq!((stage, size), (2, 150_528));
        assert!(p.efficiency() > 0.0);
    }

    #[test]
    fn small_image_prefers_raw_like_sample_b() {
        let p = profile_of(224, 168, 0.2);
        let (stage, _) = p.min_stage();
        assert_eq!(stage, 0, "small image should be smallest raw");
        assert_eq!(p.efficiency(), 0.0);
        assert_eq!(p.best_split(), SplitPoint::NONE);
    }

    #[test]
    fn prefix_seconds_monotone() {
        let p = profile_of(800, 600, 0.5);
        let mut last = 0.0;
        for stage in 0..=p.stages.len() {
            let s = p.prefix_seconds(stage);
            assert!(s >= last);
            last = s;
        }
        assert!(p.total_seconds() > 0.0);
    }

    #[test]
    fn measure_corpus_collects_all() {
        let spec = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        let samples: Vec<_> = (0..5u64)
            .map(|id| {
                let img = SynthSpec::new(320, 240).complexity(0.5).render(id);
                (
                    SampleKey::new(7, id, 0),
                    StageData::Encoded(codec::encode(&img, Quality::default()).into()),
                )
            })
            .collect();
        let profiles = measure_corpus(&spec, samples, &model).unwrap();
        assert_eq!(profiles.len(), 5);
        assert!(profiles.iter().enumerate().all(|(i, p)| p.sample_id == i as u64));
    }
}
