//! A region decode is the crop of the full decode, bit for bit: for odd
//! dimensions, and rectangles on every corner and across block boundaries.

use codec::{decode, decode_region, encode, Quality};
use imagery::synth::SynthSpec;
use imagery::Rect;
use proptest::prelude::*;

/// Rectangles that exercise a `width × height` image: the whole, single
/// pixels in every corner, the corners themselves, and boxes that start and
/// end on, just before and just after 8- and 16-pixel boundaries.
fn rects(width: u32, height: u32) -> Vec<Rect> {
    let mut out = vec![Rect::full(width, height)];
    let (right, bottom) = (width - 1, height - 1);
    for (x, y) in [(0, 0), (right, 0), (0, bottom), (right, bottom), (width / 2, height / 2)] {
        out.push(Rect::new(x, y, 1, 1));
    }
    for (w, h) in [(9, 7), (width / 2, height / 2)] {
        let (w, h) = (w.clamp(1, width), h.clamp(1, height));
        for (x, y) in [(0, 0), (width - w, 0), (0, height - h), (width - w, height - h)] {
            out.push(Rect::new(x, y, w, h));
        }
    }
    for start in [7u32, 8, 9, 15, 16, 17] {
        for len in [1u32, 2, 8, 9, 16, 17] {
            if start + len <= width.min(height) {
                out.push(Rect::new(start, start, len, len));
                out.push(Rect::new(start, 0, len, height));
                out.push(Rect::new(0, start, width, len));
            }
        }
    }
    out
}

#[test]
fn classic_region_equals_crop_of_full_decode() {
    for (width, height) in [(75u32, 53u32), (64, 48), (33, 17), (8, 8), (1, 1), (5, 40)] {
        let img = SynthSpec::new(width, height).complexity(0.7).render(u64::from(width * height));
        for quality in [Quality::default(), Quality::new(97).unwrap()] {
            let bytes = encode(&img, quality);
            let full = decode(&bytes).unwrap();
            for rect in rects(width, height) {
                assert_eq!(
                    decode_region(&bytes, rect).unwrap(),
                    full.crop(rect).unwrap(),
                    "{width}x{height} {quality:?} {rect:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary shapes, contents, qualities and rectangles.
    #[test]
    fn arbitrary_region_equals_crop(
        w in 1u32..120,
        h in 1u32..120,
        c in 0f64..=1.0,
        q in 1u8..=100,
        seed in any::<u64>(),
        corner in (0f64..1.0, 0f64..1.0),
        extent in (0f64..1.0, 0f64..1.0),
    ) {
        let img = SynthSpec::new(w, h).complexity(c).render(seed);
        let bytes = encode(&img, Quality::new(q).unwrap());
        let x = (corner.0 * f64::from(w)) as u32;
        let y = (corner.1 * f64::from(h)) as u32;
        let rect = Rect::new(
            x,
            y,
            1 + (extent.0 * f64::from(w - x - 1)) as u32,
            1 + (extent.1 * f64::from(h - y - 1)) as u32,
        );
        prop_assert_eq!(decode_region(&bytes, rect).unwrap(), decode(&bytes).unwrap().crop(rect).unwrap());
    }

    /// A corrupt stream fails a region decode exactly as it fails a full
    /// one: the whole stream is parsed either way.
    #[test]
    fn corrupt_streams_fail_alike(
        flips in proptest::collection::vec((any::<u64>(), 0u8..8), 1..4),
        q in 1u8..=100,
        cut in 0usize..40,
    ) {
        let img = SynthSpec::new(40, 32).complexity(0.6).render(3);
        let mut bytes = encode(&img, Quality::new(q).unwrap());
        for (at, bit) in flips {
            // The header's geometry stays: the rectangle must keep fitting.
            let at = 15 + (at as usize) % (bytes.len() - 15);
            bytes[at] ^= 1 << bit;
        }
        bytes.truncate(bytes.len() - cut.min(bytes.len() - 15));
        let rect = Rect::new(9, 5, 20, 18);
        match decode(&bytes) {
            Ok(full) => prop_assert_eq!(decode_region(&bytes, rect).unwrap(), full.crop(rect).unwrap()),
            Err(e) => prop_assert_eq!(decode_region(&bytes, rect).unwrap_err(), e),
        }
    }
}
