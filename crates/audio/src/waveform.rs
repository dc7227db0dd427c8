use imagery::rng::Rng;

/// Errors from waveform construction and slicing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WaveformError {
    /// A sample rate of zero makes duration undefined.
    ZeroSampleRate,
    /// A waveform must carry at least one sample.
    EmptySamples,
    /// A resample target rate of zero is degenerate.
    ZeroTargetRate,
    /// A requested window does not fit in the waveform.
    WindowOutOfRange {
        /// First sample of the window.
        offset: usize,
        /// Requested window length (zero is also rejected).
        len: usize,
        /// Samples actually available.
        available: usize,
    },
}

impl std::fmt::Display for WaveformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaveformError::ZeroSampleRate => write!(f, "sample rate must be positive"),
            WaveformError::EmptySamples => write!(f, "waveform must be non-empty"),
            WaveformError::ZeroTargetRate => write!(f, "resample target rate must be positive"),
            WaveformError::WindowOutOfRange { offset, len, available } => write!(
                f,
                "window out of range: {len} samples at offset {offset} from {available} available"
            ),
        }
    }
}

impl std::error::Error for WaveformError {}

/// A mono PCM waveform with 16-bit samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waveform {
    sample_rate: u32,
    samples: Vec<i16>,
}

impl Waveform {
    /// Wraps samples at a rate.
    ///
    /// # Panics
    ///
    /// Panics when `sample_rate` is zero or `samples` is empty; use
    /// [`Waveform::try_new`] to handle untrusted dimensions.
    pub(crate) fn new(sample_rate: u32, samples: Vec<i16>) -> Waveform {
        Waveform::try_new(sample_rate, samples).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor for untrusted dimensions.
    ///
    /// # Errors
    ///
    /// [`WaveformError::ZeroSampleRate`] / [`WaveformError::EmptySamples`]
    /// for degenerate inputs.
    pub(crate) fn try_new(sample_rate: u32, samples: Vec<i16>) -> Result<Waveform, WaveformError> {
        if sample_rate == 0 {
            return Err(WaveformError::ZeroSampleRate);
        }
        if samples.is_empty() {
            return Err(WaveformError::EmptySamples);
        }
        Ok(Waveform { sample_rate, samples })
    }

    /// Samples per second.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// The PCM samples.
    pub fn samples(&self) -> &[i16] {
        &self.samples
    }

    /// Number of samples.
    pub(crate) fn len(&self) -> usize {
        self.samples.len()
    }

    /// Raw PCM byte size (2 bytes/sample) — what an un-offloaded loader
    /// would move once decoded.
    pub(crate) fn byte_len(&self) -> usize {
        self.samples.len() * 2
    }

    /// Linear-interpolation resample to `target_rate`.
    ///
    /// # Errors
    ///
    /// [`WaveformError::ZeroTargetRate`] when `target_rate` is zero.
    pub(crate) fn resample(&self, target_rate: u32) -> Result<Waveform, WaveformError> {
        if target_rate == 0 {
            return Err(WaveformError::ZeroTargetRate);
        }
        if target_rate == self.sample_rate {
            return Ok(self.clone());
        }
        let ratio = f64::from(self.sample_rate) / f64::from(target_rate);
        let out_len = ((self.samples.len() as f64) / ratio).floor().max(1.0) as usize;
        let samples = (0..out_len)
            .map(|i| {
                let pos = i as f64 * ratio;
                let i0 = pos.floor() as usize;
                let i1 = (i0 + 1).min(self.samples.len() - 1);
                let frac = pos - i0 as f64;
                let v =
                    f64::from(self.samples[i0]) * (1.0 - frac) + f64::from(self.samples[i1]) * frac;
                v.round().clamp(-32768.0, 32767.0) as i16
            })
            .collect();
        Ok(Waveform { sample_rate: target_rate, samples })
    }

    /// The window of `len` samples starting at `offset`.
    ///
    /// # Errors
    ///
    /// [`WaveformError::WindowOutOfRange`] when the window exceeds the
    /// waveform or `len` is zero.
    pub(crate) fn window(&self, offset: usize, len: usize) -> Result<Waveform, WaveformError> {
        let available = self.samples.len();
        if len == 0 || offset.checked_add(len).is_none_or(|end| end > available) {
            return Err(WaveformError::WindowOutOfRange { offset, len, available });
        }
        Ok(Waveform {
            sample_rate: self.sample_rate,
            samples: self.samples[offset..offset + len].to_vec(),
        })
    }
}

/// Deterministic synthetic audio: a sum of harmonics plus noise.
///
/// `tonality` in `[0, 1]` is the audio analogue of the image generator's
/// complexity knob, inverted: 1.0 is a clean harmonic tone (the lossless
/// codec's residuals collapse, tiny encoded size), 0.0 is white noise
/// (incompressible).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthAudioSpec {
    sample_rate: u32,
    duration_seconds: f64,
    tonality: f64,
    amplitude: f64,
}

impl SynthAudioSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics for zero rate or non-positive duration.
    pub fn new(sample_rate: u32, duration_seconds: f64) -> SynthAudioSpec {
        assert!(sample_rate > 0, "sample rate must be positive");
        assert!(
            duration_seconds.is_finite() && duration_seconds > 0.0,
            "duration must be positive"
        );
        SynthAudioSpec { sample_rate, duration_seconds, tonality: 0.5, amplitude: 1.0 }
    }

    /// Sets the tonality in `[0, 1]` (clamped).
    #[must_use]
    pub fn tonality(mut self, t: f64) -> SynthAudioSpec {
        self.tonality = t.clamp(0.0, 1.0);
        self
    }

    /// Sets the overall amplitude in `[0, 1]` (clamped; 1.0 = full scale).
    /// Quiet clips compress dramatically better — silence is the best
    /// compressor's friend.
    #[must_use]
    pub(crate) fn amplitude(mut self, a: f64) -> SynthAudioSpec {
        self.amplitude = a.clamp(0.0, 1.0);
        self
    }

    /// Renders the waveform deterministically from `seed`.
    pub fn render(&self, seed: u64) -> Waveform {
        let mut rng = Rng::seed_from_u64(seed ^ 0x4155_4449_4f21);
        let n = (self.duration_seconds * f64::from(self.sample_rate)).round().max(1.0) as usize;
        // Natural-ish spectra: low fundamentals with 1/h^2 harmonic rolloff,
        // which linear prediction captures well (as it does real speech).
        let fundamental = rng.range_f64(70.0..350.0);
        let harmonics: Vec<(f64, f64, f64)> = (1..=5)
            .map(|h| {
                (
                    fundamental * f64::from(h),
                    rng.range_f64(0.5..1.0) / f64::from(h * h),
                    rng.range_f64(0.0..std::f64::consts::TAU),
                )
            })
            .collect();
        let tone_amp = self.tonality;
        let noise_amp = 1.0 - self.tonality;
        let dt = 1.0 / f64::from(self.sample_rate);
        let samples = (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                let tone: f64 = harmonics
                    .iter()
                    .map(|&(f, a, p)| a * (std::f64::consts::TAU * f * t + p).sin())
                    .sum();
                let noise = rng.range_f64(-1.0..1.0);
                let v = 0.5 * self.amplitude * (tone_amp * tone + noise_amp * noise);
                (v.clamp(-1.0, 1.0) * 32767.0) as i16
            })
            .collect();
        Waveform { sample_rate: self.sample_rate, samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_deterministic() {
        let spec = SynthAudioSpec::new(16_000, 0.5).tonality(0.8);
        assert_eq!(spec.render(3), spec.render(3));
        assert_ne!(spec.render(3), spec.render(4));
    }

    #[test]
    fn duration_and_bytes() {
        let w = SynthAudioSpec::new(16_000, 2.0).render(1);
        assert_eq!(w.len(), 32_000);
        assert_eq!(w.byte_len(), 64_000);
    }

    #[test]
    fn resample_halves_and_doubles() {
        let w = SynthAudioSpec::new(32_000, 1.0).tonality(1.0).render(2);
        let down = w.resample(16_000).unwrap();
        assert_eq!(down.sample_rate(), 16_000);
        assert!((down.len() as f64 - 16_000.0).abs() <= 1.0);
        let same = w.resample(32_000).unwrap();
        assert_eq!(same, w);
    }

    #[test]
    fn window_extracts_exact_slice() {
        let w = SynthAudioSpec::new(8_000, 1.0).render(5);
        let win = w.window(100, 256).unwrap();
        assert_eq!(win.len(), 256);
        assert_eq!(win.samples()[0], w.samples()[100]);
    }

    #[test]
    fn degenerate_shapes_are_typed_errors() {
        let w = SynthAudioSpec::new(8_000, 0.1).render(5);
        let avail = w.len();
        assert_eq!(
            w.window(0, avail + 1).unwrap_err(),
            WaveformError::WindowOutOfRange { offset: 0, len: avail + 1, available: avail }
        );
        assert_eq!(
            w.window(3, 0).unwrap_err(),
            WaveformError::WindowOutOfRange { offset: 3, len: 0, available: avail }
        );
        assert_eq!(w.resample(0).unwrap_err(), WaveformError::ZeroTargetRate);
        assert_eq!(Waveform::try_new(0, vec![1]).unwrap_err(), WaveformError::ZeroSampleRate);
        assert_eq!(Waveform::try_new(8_000, vec![]).unwrap_err(), WaveformError::EmptySamples);
        assert!(w.window(0, avail + 1).unwrap_err().to_string().contains("window out of range"));
    }

    #[test]
    fn tonality_controls_spectral_shape() {
        // A pure tone has far lower sample-to-sample variation than noise.
        let tv = |w: &Waveform| -> f64 {
            w.samples()
                .windows(2)
                .map(|p| f64::from(p[1]) - f64::from(p[0]))
                .map(f64::abs)
                .sum::<f64>()
                / w.len() as f64
        };
        let tonal = SynthAudioSpec::new(16_000, 0.5).tonality(1.0).render(7);
        let noisy = SynthAudioSpec::new(16_000, 0.5).tonality(0.0).render(7);
        assert!(tv(&noisy) > tv(&tonal) * 2.0);
    }
}
