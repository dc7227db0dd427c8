//! Iterative radix-2 complex FFT.
//!
//! Small, allocation-light, and exactly what a mel front-end needs. Sizes
//! must be powers of two; the mel op pads its frames accordingly.

/// A complex number (re, im).
pub(crate) type Complex = (f64, f64);

/// Errors from the FFT kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FftError {
    /// Radix-2 decimation needs a power-of-two size.
    NotPowerOfTwo {
        /// The rejected length.
        len: usize,
    },
}

impl std::fmt::Display for FftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FftError::NotPowerOfTwo { len } => {
                write!(f, "FFT size must be a power of two, got {len}")
            }
        }
    }
}

impl std::error::Error for FftError {}

/// In-place radix-2 decimation-in-time FFT.
///
/// # Errors
///
/// [`FftError::NotPowerOfTwo`] when `data.len()` is not a power of two.
pub(crate) fn fft_in_place(data: &mut [Complex]) -> Result<(), FftError> {
    let n = data.len();
    if !n.is_power_of_two() {
        return Err(FftError::NotPowerOfTwo { len: n });
    }
    if n <= 1 {
        return Ok(());
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2usize;
    while len <= n {
        let angle = -2.0 * std::f64::consts::PI / len as f64;
        let (w_re, w_im) = (angle.cos(), angle.sin());
        for start in (0..n).step_by(len) {
            let (mut cur_re, mut cur_im) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (a_re, a_im) = data[start + k];
                let (b_re, b_im) = data[start + k + len / 2];
                let t_re = b_re * cur_re - b_im * cur_im;
                let t_im = b_re * cur_im + b_im * cur_re;
                data[start + k] = (a_re + t_re, a_im + t_im);
                data[start + k + len / 2] = (a_re - t_re, a_im - t_im);
                let next_re = cur_re * w_re - cur_im * w_im;
                cur_im = cur_re * w_im + cur_im * w_re;
                cur_re = next_re;
            }
        }
        len <<= 1;
    }
    Ok(())
}

/// Power spectrum (|X_k|²) of a real frame, returning `n/2 + 1` bins.
///
/// # Errors
///
/// [`FftError::NotPowerOfTwo`] when `frame.len()` is not a power of two.
pub(crate) fn power_spectrum(frame: &[f64]) -> Result<Vec<f64>, FftError> {
    let mut data: Vec<Complex> = frame.iter().map(|&v| (v, 0.0)).collect();
    fft_in_place(&mut data)?;
    Ok(data[..frame.len() / 2 + 1].iter().map(|&(re, im)| re * re + im * im).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive DFT for cross-checking.
    fn dft(data: &[Complex]) -> Vec<Complex> {
        let n = data.len();
        (0..n)
            .map(|k| {
                let mut acc = (0.0, 0.0);
                for (j, &(re, im)) in data.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    let (c, s) = (ang.cos(), ang.sin());
                    acc.0 += re * c - im * s;
                    acc.1 += re * s + im * c;
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        let mut data: Vec<Complex> = (0..64)
            .map(|i| (((i * 37 + 11) % 17) as f64 - 8.0, ((i * 13) % 7) as f64 - 3.0))
            .collect();
        let expected = dft(&data);
        fft_in_place(&mut data).unwrap();
        for (a, b) in data.iter().zip(expected.iter()) {
            assert!((a.0 - b.0).abs() < 1e-9, "{a:?} vs {b:?}");
            assert!((a.1 - b.1).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn pure_tone_concentrates_in_one_bin() {
        let n = 256;
        let k0 = 19usize;
        let frame: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64).sin())
            .collect();
        let spec = power_spectrum(&frame).unwrap();
        let peak = spec.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(peak, k0);
        let total: f64 = spec.iter().sum();
        assert!(spec[k0] / total > 0.95, "energy leaked: {}", spec[k0] / total);
    }

    #[test]
    fn parseval_holds() {
        let frame: Vec<f64> = (0..128).map(|i| ((i as f64) * 0.37).sin() * 3.0).collect();
        let time_energy: f64 = frame.iter().map(|v| v * v).sum();
        let mut data: Vec<Complex> = frame.iter().map(|&v| (v, 0.0)).collect();
        fft_in_place(&mut data).unwrap();
        let freq_energy: f64 = data.iter().map(|&(re, im)| re * re + im * im).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-9);
    }

    #[test]
    fn non_power_of_two_is_a_typed_error() {
        let mut d = vec![(0.0, 0.0); 100];
        let err = fft_in_place(&mut d).unwrap_err();
        assert_eq!(err, FftError::NotPowerOfTwo { len: 100 });
        assert!(err.to_string().contains("power of two"));
        assert_eq!(power_spectrum(&[0.0; 100]).unwrap_err(), FftError::NotPowerOfTwo { len: 100 });
    }

    #[test]
    fn size_one_is_identity() {
        let mut d = vec![(5.0, -2.0)];
        fft_in_place(&mut d).unwrap();
        assert_eq!(d, vec![(5.0, -2.0)]);
    }
}
