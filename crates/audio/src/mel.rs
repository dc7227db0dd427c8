//! Mel filterbank and log-mel spectrogram features.

use crate::fft::{power_spectrum, FftError};
use crate::Waveform;

/// Errors from mel feature extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MelError {
    /// A filterbank needs at least one filter.
    ZeroMels,
    /// The FFT size must be a power of two.
    BadFftSize {
        /// The rejected size.
        n_fft: usize,
    },
    /// A sample rate of zero makes the Nyquist limit undefined.
    ZeroSampleRate,
    /// A hop of zero would never advance between frames.
    ZeroHop,
    /// The waveform is shorter than one analysis frame.
    FrameTooShort {
        /// Samples available.
        len: usize,
        /// Samples one frame needs.
        n_fft: usize,
    },
    /// The FFT kernel rejected a frame.
    Fft(FftError),
}

impl std::fmt::Display for MelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MelError::ZeroMels => write!(f, "need at least one mel filter"),
            MelError::BadFftSize { n_fft } => {
                write!(f, "n_fft must be a power of two, got {n_fft}")
            }
            MelError::ZeroSampleRate => write!(f, "sample rate must be positive"),
            MelError::ZeroHop => write!(f, "hop must be positive"),
            MelError::FrameTooShort { len, n_fft } => {
                write!(f, "waveform of {len} samples is shorter than one {n_fft}-sample frame")
            }
            MelError::Fft(e) => write!(f, "FFT failed: {e}"),
        }
    }
}

impl std::error::Error for MelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MelError::Fft(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FftError> for MelError {
    fn from(e: FftError) -> MelError {
        MelError::Fft(e)
    }
}

/// Hz → mel (HTK convention).
pub(crate) fn hz_to_mel(hz: f64) -> f64 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Mel → Hz (HTK convention).
pub(crate) fn mel_to_hz(mel: f64) -> f64 {
    700.0 * (10f64.powf(mel / 2595.0) - 1.0)
}

/// Triangular mel filterbank: `n_mels` filters over `n_fft/2 + 1` bins.
///
/// # Errors
///
/// [`MelError`] for degenerate parameters (zero filters, zero rate, `n_fft`
/// not a power of two).
pub(crate) fn filterbank(
    n_mels: usize,
    n_fft: usize,
    sample_rate: u32,
) -> Result<Vec<Vec<f64>>, MelError> {
    if n_mels == 0 {
        return Err(MelError::ZeroMels);
    }
    if !n_fft.is_power_of_two() {
        return Err(MelError::BadFftSize { n_fft });
    }
    if sample_rate == 0 {
        return Err(MelError::ZeroSampleRate);
    }
    let n_bins = n_fft / 2 + 1;
    let f_max = f64::from(sample_rate) / 2.0;
    let mel_max = hz_to_mel(f_max);
    // n_mels + 2 equally spaced mel points.
    let points: Vec<f64> =
        (0..n_mels + 2).map(|i| mel_to_hz(mel_max * i as f64 / (n_mels + 1) as f64)).collect();
    let bin_of = |hz: f64| hz / f_max * (n_bins - 1) as f64;
    Ok((0..n_mels)
        .map(|m| {
            let (lo, mid, hi) = (bin_of(points[m]), bin_of(points[m + 1]), bin_of(points[m + 2]));
            (0..n_bins)
                .map(|b| {
                    let b = b as f64;
                    if b < lo || b > hi {
                        0.0
                    } else if b <= mid {
                        (b - lo) / (mid - lo).max(1e-9)
                    } else {
                        (hi - b) / (hi - mid).max(1e-9)
                    }
                })
                .collect()
        })
        .collect())
}

/// A log-mel spectrogram: `n_mels × frames` features, stored frame-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrogram {
    n_mels: usize,
    frames: usize,
    data: Vec<f32>,
}

impl Spectrogram {
    /// Byte size when transferred (`4` bytes per value).
    pub(crate) fn byte_len(&self) -> usize {
        self.data.len() * 4
    }

    /// Flat frame-major values.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Standardizes all values in place to zero mean, unit variance.
    pub(crate) fn normalize(&mut self) {
        let n = self.data.len() as f64;
        let mean = self.data.iter().map(|&v| f64::from(v)).sum::<f64>() / n;
        let var = self.data.iter().map(|&v| (f64::from(v) - mean).powi(2)).sum::<f64>() / n;
        let std = var.sqrt().max(1e-9);
        for v in &mut self.data {
            *v = ((f64::from(*v) - mean) / std) as f32;
        }
    }
}

/// Computes the log-mel spectrogram of a waveform.
///
/// Frames of `n_fft` samples advance by `hop`; each frame is Hann-windowed,
/// transformed, pooled through the mel filterbank, and log-compressed.
///
/// # Errors
///
/// [`MelError`] for degenerate parameters or a waveform shorter than one
/// frame.
pub(crate) fn mel_spectrogram(
    w: &Waveform,
    n_fft: usize,
    hop: usize,
    n_mels: usize,
) -> Result<Spectrogram, MelError> {
    if hop == 0 {
        return Err(MelError::ZeroHop);
    }
    if w.len() < n_fft {
        return Err(MelError::FrameTooShort { len: w.len(), n_fft });
    }
    let bank = filterbank(n_mels, n_fft, w.sample_rate())?;
    let window: Vec<f64> = (0..n_fft)
        .map(|i| 0.5 - 0.5 * (2.0 * std::f64::consts::PI * i as f64 / (n_fft - 1) as f64).cos())
        .collect();
    let n_frames = (w.len() - n_fft) / hop + 1;
    let mut data = Vec::with_capacity(n_frames * n_mels);
    let samples = w.samples();
    let mut frame_buf = vec![0f64; n_fft];
    for f in 0..n_frames {
        let start = f * hop;
        for (i, b) in frame_buf.iter_mut().enumerate() {
            *b = f64::from(samples[start + i]) / 32768.0 * window[i];
        }
        let spec = power_spectrum(&frame_buf)?;
        for filt in &bank {
            let energy: f64 = filt.iter().zip(spec.iter()).map(|(a, b)| a * b).sum();
            data.push((energy + 1e-10).ln() as f32);
        }
    }
    Ok(Spectrogram { n_mels, frames: n_frames, data })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthAudioSpec;

    #[test]
    fn mel_scale_roundtrips() {
        for hz in [0.0, 100.0, 1000.0, 8000.0] {
            assert!((mel_to_hz(hz_to_mel(hz)) - hz).abs() < 1e-6);
        }
    }

    #[test]
    fn filterbank_covers_spectrum() {
        let bank = filterbank(40, 512, 16_000).unwrap();
        assert_eq!(bank.len(), 40);
        assert_eq!(bank[0].len(), 257);
        // Every filter has some mass; interior bins are covered by some filter.
        for (m, filt) in bank.iter().enumerate() {
            assert!(filt.iter().sum::<f64>() > 0.0, "filter {m} empty");
        }
        let coverage: Vec<f64> = (0..257).map(|b| bank.iter().map(|f| f[b]).sum::<f64>()).collect();
        let uncovered = coverage[2..250].iter().filter(|&&c| c == 0.0).count();
        assert!(uncovered < 5, "{uncovered} interior bins uncovered");
    }

    #[test]
    fn spectrogram_shape_and_size() {
        let w = SynthAudioSpec::new(16_000, 1.0).render(1); // 16 000 samples
        let s = mel_spectrogram(&w, 512, 256, 64).unwrap();
        assert_eq!(s.n_mels, 64);
        assert_eq!(s.frames, (16_000 - 512) / 256 + 1);
        assert_eq!(s.byte_len(), s.n_mels * s.frames * 4);
        // Feature bytes are far below PCM bytes — the audio pipeline's
        // SOPHON opportunity.
        assert!(s.byte_len() < w.byte_len());
    }

    #[test]
    fn tone_lights_up_the_right_band() {
        // 1 kHz tone at 16 kHz: energy in the filter whose center is nearest
        // 1 kHz, not in the top band.
        let sr = 16_000u32;
        let samples: Vec<i16> = (0..16_000)
            .map(|i| {
                ((2.0 * std::f64::consts::PI * 1000.0 * i as f64 / f64::from(sr)).sin() * 20_000.0)
                    as i16
            })
            .collect();
        let w = Waveform::new(sr, samples);
        let s = mel_spectrogram(&w, 512, 256, 40).unwrap();
        // Average each band over time.
        let band_energy: Vec<f64> = (0..40)
            .map(|m| (0..s.frames).map(|f| f64::from(s.data[f * 40 + m])).sum::<f64>())
            .collect();
        let peak =
            band_energy.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        // 1 kHz = mel 999.9; with 40 bands to 8 kHz Nyquist (mel 2840), the
        // peak lands in the lower third.
        assert!((8..20).contains(&peak), "peak band {peak}");
    }

    #[test]
    fn normalize_standardizes() {
        let w = SynthAudioSpec::new(8_000, 0.5).render(2);
        let mut s = mel_spectrogram(&w, 256, 128, 32).unwrap();
        s.normalize();
        let n = s.as_slice().len() as f64;
        let mean: f64 = s.as_slice().iter().map(|&v| f64::from(v)).sum::<f64>() / n;
        let var: f64 =
            s.as_slice().iter().map(|&v| f64::from(v).powi(2)).sum::<f64>() / n - mean * mean;
        assert!(mean.abs() < 1e-3, "mean {mean}");
        assert!((var - 1.0).abs() < 1e-2, "var {var}");
    }

    #[test]
    fn degenerate_parameters_are_typed_errors() {
        let w = SynthAudioSpec::new(8_000, 0.5).render(2);
        assert_eq!(filterbank(0, 512, 16_000).unwrap_err(), MelError::ZeroMels);
        assert_eq!(filterbank(40, 500, 16_000).unwrap_err(), MelError::BadFftSize { n_fft: 500 });
        assert_eq!(filterbank(40, 512, 0).unwrap_err(), MelError::ZeroSampleRate);
        assert_eq!(mel_spectrogram(&w, 256, 0, 32).unwrap_err(), MelError::ZeroHop);
        assert_eq!(
            mel_spectrogram(&w, 8_192, 128, 32).unwrap_err(),
            MelError::FrameTooShort { len: w.len(), n_fft: 8_192 }
        );
        // FftError converts (and chains as a source) through MelError.
        let e = MelError::from(crate::fft::FftError::NotPowerOfTwo { len: 100 });
        assert_eq!(e, MelError::Fft(crate::fft::FftError::NotPowerOfTwo { len: 100 }));
        assert!(std::error::Error::source(&e).is_some());
    }
}
