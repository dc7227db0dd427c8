//! Synthetic audio corpora.
//!
//! Clip durations are log-normal (speech-command-like: most clips a few
//! seconds, a long tail), tonality is a truncated normal, and source rates
//! mix common values — enough variety that SOPHON's per-clip decisions
//! genuinely differ.

use imagery::rng::Rng;

use crate::{codec, AudioData, SynthAudioSpec, Waveform};

/// A deterministic synthetic audio corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct AudioDatasetSpec {
    /// Corpus seed.
    pub seed: u64,
    /// Number of clips.
    pub len: u64,
    /// Median clip duration in seconds.
    pub(crate) median_seconds: f64,
    /// Log-space duration spread.
    pub(crate) sigma: f64,
    /// Mean tonality.
    pub(crate) tonality_mean: f64,
}

/// Per-clip metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ClipRecord {
    /// Clip index.
    pub(crate) id: u64,
    /// Source sample rate in Hz.
    pub(crate) sample_rate: u32,
    /// Duration in seconds.
    pub(crate) duration_seconds: f64,
    /// Tonality in `[0, 1]`.
    pub(crate) tonality: f64,
    /// Amplitude in `[0, 1]` (quiet clips compress far better).
    pub(crate) amplitude: f64,
}

impl AudioDatasetSpec {
    /// A speech-like corpus: median 3 s clips, moderate tonality.
    pub fn speech_like(len: u64, seed: u64) -> AudioDatasetSpec {
        AudioDatasetSpec { seed, len, median_seconds: 3.0, sigma: 0.5, tonality_mean: 0.45 }
    }

    /// Per-clip metadata.
    ///
    /// # Panics
    ///
    /// Panics when `id >= len`.
    pub(crate) fn record(&self, id: u64) -> ClipRecord {
        assert!(id < self.len, "clip {id} out of range");
        let mut rng = Rng::seed_from_u64(
            self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ id.wrapping_mul(0xd6e8_feb8_6659_fd93),
        );
        let z: f64 = {
            let u1 = rng.range_f64(f64::MIN_POSITIVE..1.0);
            let u2 = rng.range_f64(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let duration = (self.median_seconds * (z * self.sigma).exp()).clamp(0.5, 20.0);
        let tonality = (self.tonality_mean + rng.range_f64(-0.35..0.35)).clamp(0.0, 1.0);
        // ~20% of clips are quiet (hushed speech, room tone): these compress
        // below their feature size and are SOPHON's keep-raw cases.
        let amplitude =
            if rng.gen_bool(0.2) { rng.range_f64(0.03..0.15) } else { rng.range_f64(0.5..1.0) };
        let sample_rate =
            *[16_000u32, 22_050, 44_100].get(rng.range_usize(0..3)).expect("three rates");
        ClipRecord { id, sample_rate, duration_seconds: duration, tonality, amplitude }
    }

    /// Renders clip `id`'s waveform.
    pub(crate) fn waveform(&self, id: u64) -> Waveform {
        let r = self.record(id);
        SynthAudioSpec::new(r.sample_rate, r.duration_seconds)
            .tonality(r.tonality)
            .amplitude(r.amplitude)
            .render(self.seed ^ id.wrapping_mul(0x2545_f491_4f6c_dd1d))
    }

    /// Renders and losslessly encodes clip `id` (the stored form).
    pub fn materialize(&self, id: u64) -> AudioData {
        AudioData::Encoded(codec::encode(&self.waveform(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_deterministic_and_bounded() {
        let ds = AudioDatasetSpec::speech_like(100, 5);
        for r in (0..ds.len).map(|id| ds.record(id)) {
            assert_eq!(ds.record(r.id), r);
            assert!((0.5..=20.0).contains(&r.duration_seconds));
            assert!((0.0..=1.0).contains(&r.tonality));
            assert!((0.0..=1.0).contains(&r.amplitude));
            assert!([16_000, 22_050, 44_100].contains(&r.sample_rate));
        }
    }

    #[test]
    fn corpus_has_duration_variety() {
        let ds = AudioDatasetSpec::speech_like(200, 7);
        let durations: Vec<f64> = (0..ds.len).map(|id| ds.record(id).duration_seconds).collect();
        let min = durations.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = durations.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 3.0, "durations too uniform: {min}..{max}");
    }

    #[test]
    fn materialized_clips_decode() {
        let ds = AudioDatasetSpec::speech_like(4, 9);
        for id in 0..4 {
            let AudioData::Encoded(bytes) = ds.materialize(id) else { panic!("encoded") };
            let w = codec::decode(&bytes).unwrap();
            assert_eq!(w.sample_rate(), ds.record(id).sample_rate);
        }
    }
}
