//! Property-based tests for the SJPG codec.

use codec::{decode, encode, Quality};
use imagery::synth::SynthSpec;
use imagery::RasterImage;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encode/decode roundtrip preserves dimensions for arbitrary sizes,
    /// complexities, qualities, and seeds.
    #[test]
    fn roundtrip_preserves_dimensions(
        w in 1u32..200,
        h in 1u32..200,
        c in 0f64..=1.0,
        q in 1u8..=100,
        seed in any::<u64>(),
    ) {
        let img = SynthSpec::new(w, h).complexity(c).render(seed);
        let bytes = encode(&img, Quality::new(q).unwrap());
        let back = decode(&bytes).unwrap();
        prop_assert_eq!((back.width(), back.height()), (w, h));
    }

    /// Decoding is total: arbitrary byte soup never panics.
    #[test]
    fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&data);
    }

    /// Encoding is deterministic.
    #[test]
    fn encode_deterministic(seed in any::<u64>(), q in 1u8..=100) {
        let img = SynthSpec::new(64, 48).complexity(0.5).render(seed);
        let quality = Quality::new(q).unwrap();
        prop_assert_eq!(encode(&img, quality), encode(&img, quality));
    }

    /// Reconstruction error is bounded at high quality: per-pixel error under
    /// a generous threshold for arbitrary smooth-ish images.
    #[test]
    fn reconstruction_error_bounded(seed in any::<u64>()) {
        let img = SynthSpec::new(64, 64).complexity(0.2).render(seed);
        let back = decode(&encode(&img, Quality::new(95).unwrap())).unwrap();
        let mut err = 0u64;
        for (a, b) in img.as_raw().iter().zip(back.as_raw().iter()) {
            err += u64::from(a.abs_diff(*b));
        }
        let mae = err as f64 / img.raw_len() as f64;
        prop_assert!(mae < 8.0, "mean absolute error {mae}");
    }
}

#[test]
fn mutated_streams_decode_to_result_not_panic() {
    let img = SynthSpec::new(33, 57).complexity(0.9).render(11);
    let bytes = encode(&img, Quality::default());
    // Truncate at every length.
    for len in 0..bytes.len() {
        let _ = decode(&bytes[..len]);
    }
}

#[test]
fn large_image_roundtrip() {
    let img = SynthSpec::new(1024, 768).complexity(0.5).render(3);
    let bytes = encode(&img, Quality::default());
    // A realistic photograph-like compression ratio: clearly below raw,
    // clearly above the constant-image floor.
    let ratio = img.raw_len() as f64 / bytes.len() as f64;
    assert!(ratio > 2.0 && ratio < 60.0, "implausible ratio {ratio}");
    let back = decode(&bytes).unwrap();
    assert_eq!(back.raw_len(), img.raw_len());
}

#[test]
fn tiny_images_work() {
    for (w, h) in [(1u32, 1u32), (1, 9), (9, 1), (7, 7), (8, 8)] {
        let img = SynthSpec::new(w, h).complexity(0.5).render(1);
        let back = decode(&encode(&img, Quality::default())).unwrap();
        assert_eq!((back.width(), back.height()), (w, h));
    }
}

#[test]
fn raw_vs_encoded_crossover_matches_paper_semantics() {
    // A large detailed image encodes to more bytes than a 224x224 raw crop
    // (sample benefits from offload); a small image encodes to fewer
    // (no benefit). This is the Figure 1a dichotomy.
    let crop_raw = 224usize * 224 * 3;
    let large = SynthSpec::new(1280, 960).complexity(0.7).render(5);
    let small = SynthSpec::new(320, 240).complexity(0.3).render(5);
    let large_enc = encode(&large, Quality::default()).len();
    let small_enc = encode(&small, Quality::default()).len();
    assert!(large_enc > crop_raw, "large sample should exceed crop size: {large_enc}");
    assert!(small_enc < crop_raw, "small sample should be below crop size: {small_enc}");
}

#[test]
fn decode_rejects_wrong_magic_quickly() {
    let mut data = vec![0u8; 64];
    data[..4].copy_from_slice(b"JUNK");
    assert!(decode(&data).is_err());
}

#[test]
fn filled_image_beats_any_entropy_floor() {
    let img = RasterImage::filled(512, 512, imagery::Rgb::gray(128));
    let bytes = encode(&img, Quality::default());
    // Each all-zero block costs 2 bytes (DC delta + EOB): 12,288 blocks for a
    // 512x512 image -> ~24.6 KB vs 768 KB raw, a ~32x ratio.
    assert!(bytes.len() * 25 < img.raw_len(), "got {} bytes", bytes.len());
}
