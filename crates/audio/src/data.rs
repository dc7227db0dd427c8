use crate::mel::Spectrogram;
use crate::Waveform;

/// A clip at some stage of the audio pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum AudioData {
    /// Rice-coded lossless bytes (the stored form).
    Encoded(Vec<u8>),
    /// Decoded 16-bit PCM.
    Pcm(Waveform),
    /// Log-mel features.
    Features(Spectrogram),
}

impl AudioData {
    /// Exact size in bytes when transferred.
    pub fn byte_len(&self) -> u64 {
        match self {
            AudioData::Encoded(b) => b.len() as u64,
            AudioData::Pcm(w) => w.byte_len() as u64,
            AudioData::Features(s) => s.byte_len() as u64,
        }
    }

    /// Borrows the PCM, when at that stage.
    pub fn as_pcm(&self) -> Option<&Waveform> {
        match self {
            AudioData::Pcm(w) => Some(w),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthAudioSpec;

    #[test]
    fn byte_len_matches_stage() {
        let w = SynthAudioSpec::new(8_000, 0.5).render(1);
        assert_eq!(AudioData::Pcm(w.clone()).byte_len(), w.byte_len() as u64);
        let enc = crate::codec::encode(&w);
        assert_eq!(AudioData::Encoded(enc.clone()).byte_len(), enc.len() as u64);
        let s = crate::mel::mel_spectrogram(&w, 256, 128, 32).unwrap();
        assert_eq!(AudioData::Features(s.clone()).byte_len(), s.byte_len() as u64);
    }
}
