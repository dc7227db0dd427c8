//! The audio preprocessing operations and pipeline, with split execution.
//!
//! Mirrors the image pipeline's contract: each op is a pure function of its
//! input and a per-`(sample, epoch, op)` augmentation stream, so any prefix
//! can run near storage and any suffix on the compute node with bit-exact
//! results.

use pipeline::{AugmentRng, SampleKey, SplitPoint};

use crate::codec::AudioCodecError;
use crate::mel::{mel_spectrogram, MelError};
use crate::waveform::WaveformError;
use crate::AudioData;

/// An audio preprocessing operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AudioOp {
    /// Rice-coded bytes → PCM.
    Decode,
    /// Linear resample to a target rate.
    Resample {
        /// Target sample rate in Hz.
        to_hz: u32,
    },
    /// Random fixed-length window (epoch-varying augmentation). Clips
    /// shorter than the window are kept whole.
    RandomCrop {
        /// Window length in milliseconds.
        millis: u32,
    },
    /// PCM → log-mel features.
    MelSpectrogram {
        /// FFT size (power of two).
        n_fft: u16,
        /// Hop between frames.
        hop: u16,
        /// Mel bands.
        n_mels: u16,
    },
    /// Per-clip feature standardization.
    Normalize,
}

impl AudioOp {
    /// Whether this op draws from the augmentation stream (its output
    /// varies per epoch).
    pub(crate) fn is_random(self) -> bool {
        matches!(self, AudioOp::RandomCrop { .. })
    }

    /// Short name for traces and profiles.
    pub(crate) fn name(self) -> &'static str {
        match self {
            AudioOp::Decode => "audio_decode",
            AudioOp::Resample { .. } => "resample",
            AudioOp::RandomCrop { .. } => "random_crop",
            AudioOp::MelSpectrogram { .. } => "mel_spectrogram",
            AudioOp::Normalize => "normalize_features",
        }
    }

    /// Applies the operation.
    ///
    /// # Errors
    ///
    /// Returns [`AudioPipelineError`] on stage mismatches or decode
    /// failures.
    pub(crate) fn apply(
        self,
        data: AudioData,
        rng: &mut AugmentRng,
    ) -> Result<AudioData, AudioPipelineError> {
        match (self, data) {
            (AudioOp::Decode, AudioData::Encoded(bytes)) => {
                Ok(AudioData::Pcm(crate::codec::decode(&bytes)?))
            }
            (AudioOp::Resample { to_hz }, AudioData::Pcm(w)) => {
                Ok(AudioData::Pcm(w.resample(to_hz)?))
            }
            (AudioOp::RandomCrop { millis }, AudioData::Pcm(w)) => {
                let want = (u64::from(millis) * u64::from(w.sample_rate()) / 1000) as usize;
                if want == 0 || want >= w.len() {
                    return Ok(AudioData::Pcm(w));
                }
                let offset = rng.next_below((w.len() - want + 1) as u64) as usize;
                Ok(AudioData::Pcm(w.window(offset, want)?))
            }
            (AudioOp::MelSpectrogram { n_fft, hop, n_mels }, AudioData::Pcm(w)) => {
                Ok(AudioData::Features(mel_spectrogram(
                    &w,
                    usize::from(n_fft),
                    usize::from(hop),
                    usize::from(n_mels),
                )?))
            }
            (AudioOp::Normalize, AudioData::Features(mut s)) => {
                s.normalize();
                Ok(AudioData::Features(s))
            }
            (op, data) => Err(AudioPipelineError::StageMismatch {
                op,
                got: match data {
                    AudioData::Encoded(_) => "encoded",
                    AudioData::Pcm(_) => "pcm",
                    AudioData::Features(_) => "features",
                },
            }),
        }
    }
}

/// Errors from the audio pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AudioPipelineError {
    /// An op received data of the wrong stage.
    StageMismatch {
        /// The failing op.
        op: AudioOp,
        /// The stage it received.
        got: &'static str,
    },
    /// Decoding the stored bytes failed.
    Codec(AudioCodecError),
    /// A waveform kernel (resample/window) rejected its parameters.
    Waveform(WaveformError),
    /// Mel feature extraction failed.
    Mel(MelError),
    /// A split exceeds the pipeline length.
    SplitOutOfRange {
        /// Requested split.
        split: usize,
        /// Pipeline length.
        len: usize,
    },
}

impl std::fmt::Display for AudioPipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AudioPipelineError::StageMismatch { op, got } => {
                write!(f, "op {op:?} cannot consume {got} data")
            }
            AudioPipelineError::Codec(e) => write!(f, "audio decode failed: {e}"),
            AudioPipelineError::Waveform(e) => write!(f, "waveform op failed: {e}"),
            AudioPipelineError::Mel(e) => write!(f, "mel extraction failed: {e}"),
            AudioPipelineError::SplitOutOfRange { split, len } => {
                write!(f, "split {split} out of range for {len}-op pipeline")
            }
        }
    }
}

impl std::error::Error for AudioPipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AudioPipelineError::Codec(e) => Some(e),
            AudioPipelineError::Waveform(e) => Some(e),
            AudioPipelineError::Mel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AudioCodecError> for AudioPipelineError {
    fn from(e: AudioCodecError) -> Self {
        AudioPipelineError::Codec(e)
    }
}

impl From<WaveformError> for AudioPipelineError {
    fn from(e: WaveformError) -> Self {
        AudioPipelineError::Waveform(e)
    }
}

impl From<MelError> for AudioPipelineError {
    fn from(e: MelError) -> Self {
        AudioPipelineError::Mel(e)
    }
}

/// An ordered audio pipeline with split execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AudioPipeline {
    ops: Vec<AudioOp>,
}

impl AudioPipeline {
    /// Builds a pipeline from ops.
    pub(crate) fn new(ops: Vec<AudioOp>) -> AudioPipeline {
        AudioPipeline { ops }
    }

    /// The standard speech front-end: Decode → Resample(16 kHz) →
    /// RandomCrop(2 s) → MelSpectrogram(512/256/64) → Normalize.
    pub fn standard_train() -> AudioPipeline {
        AudioPipeline::new(vec![
            AudioOp::Decode,
            AudioOp::Resample { to_hz: 16_000 },
            AudioOp::RandomCrop { millis: 2_000 },
            AudioOp::MelSpectrogram { n_fft: 512, hop: 256, n_mels: 64 },
            AudioOp::Normalize,
        ])
    }

    /// The operations, in order.
    pub fn ops(&self) -> &[AudioOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the pipeline is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    fn run_range(
        &self,
        mut data: AudioData,
        range: std::ops::Range<usize>,
        key: SampleKey,
    ) -> Result<AudioData, AudioPipelineError> {
        for idx in range {
            let mut rng = AugmentRng::for_op(key, idx);
            data = self.ops[idx].apply(data, &mut rng)?;
        }
        Ok(data)
    }

    /// Runs the whole pipeline.
    ///
    /// # Errors
    ///
    /// Propagates the first op failure.
    pub fn run(&self, data: AudioData, key: SampleKey) -> Result<AudioData, AudioPipelineError> {
        self.run_range(data, 0..self.ops.len(), key)
    }

    /// Runs only the offloaded prefix.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range splits; propagates op failures.
    pub fn run_prefix(
        &self,
        data: AudioData,
        split: SplitPoint,
        key: SampleKey,
    ) -> Result<AudioData, AudioPipelineError> {
        self.check(split)?;
        self.run_range(data, 0..split.offloaded_ops(), key)
    }

    /// Runs the remaining suffix.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range splits; propagates op failures.
    pub fn run_suffix(
        &self,
        data: AudioData,
        split: SplitPoint,
        key: SampleKey,
    ) -> Result<AudioData, AudioPipelineError> {
        self.check(split)?;
        self.run_range(data, split.offloaded_ops()..self.ops.len(), key)
    }

    fn check(&self, split: SplitPoint) -> Result<(), AudioPipelineError> {
        if split.offloaded_ops() > self.ops.len() {
            return Err(AudioPipelineError::SplitOutOfRange {
                split: split.offloaded_ops(),
                len: self.ops.len(),
            });
        }
        Ok(())
    }
}

impl pipeline::Modality for AudioPipeline {
    fn modality_name(&self) -> &'static str {
        "audio"
    }

    fn op_count(&self) -> usize {
        self.ops.len()
    }

    fn op_name(&self, idx: usize) -> &'static str {
        self.ops[idx].name()
    }

    fn op_is_random(&self, idx: usize) -> bool {
        self.ops[idx].is_random()
    }

    fn stage_supports_reencode(&self, _stage: usize) -> bool {
        // PCM and mel intermediates have no lossy re-encode pass; the
        // selective-compression planner is a no-op for audio.
        false
    }

    fn resize_off_split(&self) -> SplitPoint {
        // The size-reducing op analogous to the image crop is the random
        // window: Resize-Off offloads everything up to and including it.
        self.ops
            .iter()
            .position(|op| matches!(op, AudioOp::RandomCrop { .. }))
            .map(|i| SplitPoint::new(i + 1))
            .unwrap_or(SplitPoint::NONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthAudioSpec;

    fn encoded(seed: u64, tonality: f64) -> AudioData {
        let w = SynthAudioSpec::new(22_050, 3.0).tonality(tonality).render(seed);
        AudioData::Encoded(crate::codec::encode(&w))
    }

    #[test]
    fn full_pipeline_produces_features() {
        let out =
            AudioPipeline::standard_train().run(encoded(1, 0.6), SampleKey::new(9, 1, 0)).unwrap();
        let AudioData::Features(s) = out else { panic!("no features: {out:?}") };
        // 64 mel bands; 2 s at 16 kHz with 512/256: (32000-512)/256+1 = 124 frames.
        assert_eq!(s.as_slice().len(), 64 * 124);
    }

    #[test]
    fn split_equals_unsplit_everywhere() {
        let spec = AudioPipeline::standard_train();
        let key = SampleKey::new(4, 7, 3);
        let full = spec.run(encoded(2, 0.5), key).unwrap();
        for split in 0..=spec.len() {
            let split = SplitPoint::new(split);
            let mid = spec.run_prefix(encoded(2, 0.5), split, key).unwrap();
            let out = spec.run_suffix(mid, split, key).unwrap();
            assert_eq!(out, full, "split {split:?} diverged");
        }
    }

    #[test]
    fn crops_vary_per_epoch() {
        let spec = AudioPipeline::standard_train();
        let a = spec.run(encoded(3, 0.5), SampleKey::new(1, 5, 0)).unwrap();
        let b = spec.run(encoded(3, 0.5), SampleKey::new(1, 5, 1)).unwrap();
        assert_ne!(a, b, "augmentation must vary across epochs");
    }

    #[test]
    fn stage_mismatch_reported() {
        let mut rng = AugmentRng::for_sample(0, 0, 0);
        let err = AudioOp::Normalize.apply(encoded(1, 0.5), &mut rng).unwrap_err();
        assert!(matches!(err, AudioPipelineError::StageMismatch { .. }));
    }

    #[test]
    fn short_clip_skips_crop() {
        let w = SynthAudioSpec::new(16_000, 0.5).render(8); // 0.5 s < 2 s crop
        let spec = AudioPipeline::standard_train();
        let out = spec
            .run(AudioData::Encoded(crate::codec::encode(&w)), SampleKey::new(0, 0, 0))
            .unwrap();
        assert!(matches!(out, AudioData::Features(_)));
    }

    #[test]
    fn modality_impl_matches_pipeline_structure() {
        use pipeline::Modality;
        let spec = AudioPipeline::standard_train();
        let m: &dyn Modality = &spec;
        assert_eq!(m.modality_name(), "audio");
        assert_eq!(m.op_count(), 5);
        assert_eq!(m.op_name(0), "audio_decode");
        // Only the random window is epoch-varying: the cacheable prefix
        // is Decode + Resample, and Resize-Off splits after the crop.
        assert_eq!(m.deterministic_prefix_ops(), 2);
        assert!(m.split_is_epoch_stable(SplitPoint::new(2)));
        assert!(!m.split_is_epoch_stable(SplitPoint::new(3)));
        assert_eq!(m.resize_off_split(), SplitPoint::new(3));
        for stage in 0..=5 {
            assert!(!m.stage_supports_reencode(stage), "audio never re-encodes");
        }
    }

    #[test]
    fn out_of_range_split_rejected() {
        let spec = AudioPipeline::standard_train();
        let err = spec
            .run_prefix(encoded(1, 0.5), SplitPoint::new(9), SampleKey::new(0, 0, 0))
            .unwrap_err();
        assert!(matches!(err, AudioPipelineError::SplitOutOfRange { split: 9, len: 5 }));
    }
}
