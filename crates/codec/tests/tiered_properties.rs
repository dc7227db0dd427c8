//! Property tests for tiered (progressive) SJPG streams.
//!
//! Three families: tier roundtrips (every boundary prefix decodes, stored
//! PSNR is monotone in tier, off-boundary cuts are typed errors), decoder
//! totality (random prefixes and bit-flips never panic), and index
//! consistency (the directory honestly describes the byte stream).

use codec::{
    decode_tiered, encode_tiered, truncate_to_tier, DecodeError, Quality, TierIndex, TierSpec,
    BLOCK_AREA,
};
use imagery::synth::SynthSpec;
use proptest::prelude::*;

/// A random strictly increasing band ladder ending at the full spectrum.
fn arb_spec() -> impl Strategy<Value = TierSpec> {
    proptest::collection::vec(1u8..BLOCK_AREA as u8, 0..4).prop_map(|interior| {
        let mut ends: Vec<u8> = interior;
        ends.sort_unstable();
        ends.dedup();
        ends.push(BLOCK_AREA as u8);
        TierSpec::new(ends)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every tier prefix decodes, reports its tier, and keeps the image
    /// dimensions; decoded PSNR is monotone in tier (up to measurement
    /// noise at the scale of a hundredth of a dB).
    #[test]
    fn tier_prefixes_decode_and_psnr_is_monotone(
        w in 1u32..96,
        h in 1u32..96,
        c in 0f64..=1.0,
        q in 20u8..=100,
        seed in any::<u64>(),
        spec in arb_spec(),
    ) {
        let img = SynthSpec::new(w, h).complexity(c).render(seed);
        let bytes = encode_tiered(&img, Quality::new(q).unwrap(), &spec);
        let index = TierIndex::parse(&bytes).unwrap();
        prop_assert_eq!(index.tier_count() as usize, spec.tiers());
        let mut last_psnr = f64::NEG_INFINITY;
        for t in 0..index.tier_count() {
            let prefix = truncate_to_tier(&bytes, t).unwrap();
            let out = decode_tiered(prefix).unwrap();
            prop_assert_eq!(out.tier, t);
            prop_assert_eq!((out.image.width(), out.image.height()), (w, h));
            let psnr = index.tiers[t as usize].psnr_db;
            prop_assert!(
                psnr >= last_psnr - 0.05,
                "PSNR not monotone at tier {}: {} after {}", t, psnr, last_psnr
            );
            last_psnr = psnr;
        }
        // The full prefix is the whole stream.
        prop_assert_eq!(index.tiers.last().unwrap().end_offset as usize, bytes.len());
    }

    /// A prefix cut anywhere off a tier boundary is rejected with the
    /// typed error, and decoding never panics at any cut length.
    #[test]
    fn off_boundary_cuts_are_rejected_never_panic(
        c in 0f64..=1.0,
        seed in any::<u64>(),
        spec in arb_spec(),
    ) {
        let img = SynthSpec::new(40, 24).complexity(c).render(seed);
        let bytes = encode_tiered(&img, Quality::default(), &spec);
        let index = TierIndex::parse(&bytes).unwrap();
        let boundaries: Vec<usize> =
            index.tiers.iter().map(|b| b.end_offset as usize).collect();
        for len in 0..=bytes.len() {
            let result = decode_tiered(&bytes[..len]);
            if boundaries.contains(&len) {
                prop_assert!(result.is_ok(), "boundary prefix {} failed: {:?}", len, result);
            } else {
                prop_assert!(result.is_err(), "off-boundary prefix {} decoded", len);
            }
        }
    }

    /// Arbitrary byte soup never panics the tiered decoder or the index
    /// parser.
    #[test]
    fn decode_tiered_is_total_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_tiered(&data);
        let _ = TierIndex::parse(&data);
    }

    /// Bit-flips of a valid stream produce a Result — decoded image or
    /// typed error — never a panic, and errors chain their source.
    #[test]
    fn bit_flips_never_panic(
        seed in any::<u64>(),
        flip_byte in any::<u64>(),
        flip_bit in 0u8..8,
    ) {
        use std::error::Error;
        let img = SynthSpec::new(32, 32).complexity(0.6).render(seed);
        let bytes = encode_tiered(&img, Quality::default(), &TierSpec::default());
        let mut corrupted = bytes.clone();
        let at = (flip_byte % corrupted.len() as u64) as usize;
        corrupted[at] ^= 1 << flip_bit;
        if let Err(e) = decode_tiered(&corrupted) {
            // Codec-structure defects must expose the inner error.
            if matches!(e, DecodeError::Codec(_)) {
                prop_assert!(e.source().is_some());
            }
            prop_assert!(!e.to_string().is_empty());
        }
    }

    /// Random truncation of random *corrupted* prefixes stays total too —
    /// the fuzz sweep the satellite asks for.
    #[test]
    fn random_prefixes_of_corrupted_streams_never_panic(
        seed in any::<u64>(),
        cut in any::<u64>(),
        flips in proptest::collection::vec((any::<u64>(), 0u8..8), 0..4),
    ) {
        let img = SynthSpec::new(24, 40).complexity(0.8).render(seed);
        let mut bytes =
            encode_tiered(&img, Quality::default(), &TierSpec::new(vec![2, 9, 33, 64]));
        for (at, bit) in flips {
            let i = (at % bytes.len() as u64) as usize;
            bytes[i] ^= 1 << bit;
        }
        bytes.truncate((cut % (bytes.len() as u64 + 1)) as usize);
        let _ = decode_tiered(&bytes);
    }
}

#[test]
fn truncate_requests_beyond_the_ladder_are_typed() {
    let img = SynthSpec::new(16, 16).complexity(0.5).render(3);
    let bytes = encode_tiered(&img, Quality::default(), &TierSpec::default());
    assert!(matches!(
        truncate_to_tier(&bytes, 9),
        Err(DecodeError::UnknownTier { tier: 9, tiers: 3 })
    ));
}
