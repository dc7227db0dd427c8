//! Bridging the audio pipeline into SOPHON's generic profile model.
//!
//! The decision engine never inspects *which* operations a profile's stages
//! represent — only their output sizes and CPU costs
//! ([`pipeline::SampleProfile`] exposes exactly that). So an audio clip's
//! measured stages slot straight in.

use pipeline::{AugmentRng, SampleKey, SampleProfile, StageMeasurement};

use crate::ops::AudioPipelineError;
use crate::{AudioData, AudioOp, AudioPipeline};

/// Analytic per-sample CPU costs for audio ops, in seconds — the audio
/// analogue of [`pipeline::CostModel`], calibrated to scalar-DSP rates.
fn op_seconds(op: AudioOp, in_samples: u64, in_bytes: u64, out_values: u64) -> f64 {
    let ns = match op {
        // Rice decoding: ~6 ns per encoded byte + 4 ns per produced sample.
        AudioOp::Decode => in_bytes as f64 * 6.0 + out_values as f64 * 4.0,
        // Linear resampling: ~8 ns per output sample.
        AudioOp::Resample { .. } => out_values as f64 * 8.0,
        // Cropping is a copy.
        AudioOp::RandomCrop { .. } => out_values as f64 * 1.0,
        // FFT front-end: ~60 ns per input sample (n log n amortized + mel).
        AudioOp::MelSpectrogram { .. } => in_samples as f64 * 60.0,
        AudioOp::Normalize => out_values as f64 * 4.0,
    };
    ns * 1e-9
}

/// Measures one clip through an audio pipeline, producing a generic
/// [`SampleProfile`] the SOPHON engine consumes unmodified.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn profile_clip(
    spec: &AudioPipeline,
    data: AudioData,
    key: SampleKey,
) -> Result<SampleProfile, AudioPipelineError> {
    let raw_bytes = data.byte_len();
    let mut stages = Vec::with_capacity(spec.len());
    let mut current = data;
    for (idx, &op) in spec.ops().iter().enumerate() {
        let mut rng = AugmentRng::for_op(key, idx);
        let in_bytes = current.byte_len();
        let in_samples = match &current {
            AudioData::Pcm(w) => w.len() as u64,
            AudioData::Encoded(_) => 0,
            AudioData::Features(s) => s.as_slice().len() as u64,
        };
        let output = op.apply(current, &mut rng)?;
        let out_values = match &output {
            AudioData::Pcm(w) => w.len() as u64,
            AudioData::Features(s) => s.as_slice().len() as u64,
            AudioData::Encoded(b) => b.len() as u64,
        };
        stages.push(StageMeasurement {
            out_bytes: output.byte_len(),
            seconds: op_seconds(op, in_samples, in_bytes, out_values),
        });
        current = output;
    }
    Ok(SampleProfile { sample_id: key.sample_id, raw_bytes, stages })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{codec, SynthAudioSpec};

    fn profile(tonality: f64, seconds: f64, seed: u64) -> SampleProfile {
        let w = SynthAudioSpec::new(22_050, seconds).tonality(tonality).render(seed);
        profile_clip(
            &AudioPipeline::standard_train(),
            AudioData::Encoded(codec::encode(&w)),
            SampleKey::new(1, seed, 0),
        )
        .unwrap()
    }

    #[test]
    fn noisy_long_clips_minimize_at_features() {
        // A noisy 5 s clip: encoded ≈ PCM size; the 2 s crop + mel features
        // are far smaller, so the minimum sits at the end of the pipeline —
        // SOPHON would offload the whole front-end.
        let p = profile(0.1, 5.0, 3);
        let (stage, size) = p.min_stage();
        assert!(stage >= 4, "min stage {stage}");
        assert!(size < p.raw_bytes / 4);
        assert!(p.efficiency() > 0.0);
    }

    #[test]
    fn quiet_tonal_clips_stay_raw() {
        // A quiet, highly tonal clip (LPC residuals near zero) compresses
        // below its mel-feature size: raw is minimal, no offloading — the
        // audio analogue of the paper's "Sample B".
        let w = crate::SynthAudioSpec::new(22_050, 1.5).tonality(1.0).amplitude(0.12).render(3);
        let p = profile_clip(
            &AudioPipeline::standard_train(),
            AudioData::Encoded(codec::encode(&w)),
            SampleKey::new(1, 3, 0),
        )
        .unwrap();
        assert_eq!(
            p.min_stage().0,
            0,
            "sizes: {:?}",
            (0..=5).map(|s| p.size_at(s)).collect::<Vec<_>>()
        );
        assert_eq!(p.efficiency(), 0.0);
    }

    #[test]
    fn stage_sizes_follow_the_audio_structure() {
        let p = profile(0.5, 3.0, 9);
        // Decode: PCM at 22.05 kHz x 3 s x 2 B.
        assert_eq!(p.size_at(1), 2 * 66_150);
        // Resample to 16 kHz.
        assert_eq!(p.size_at(2), 2 * 48_000);
        // Crop to 2 s.
        assert_eq!(p.size_at(3), 2 * 32_000);
        // Mel: 124 frames x 64 mels x 4 B.
        assert_eq!(p.size_at(4), 124 * 64 * 4);
        assert_eq!(p.size_at(5), p.size_at(4));
        // Costs are positive and the FFT dominates.
        let mel_cost = p.stages[3].seconds;
        assert!(p.stages.iter().all(|s| s.seconds > 0.0));
        assert!(mel_cost > p.stages[2].seconds);
    }

    #[test]
    fn profiles_are_deterministic() {
        assert_eq!(profile(0.4, 2.5, 7), profile(0.4, 2.5, 7));
    }
}
