//! The workspace's one seeded generator.
//!
//! Every random stream in the workspace comes from [`Rng`]: the corpus
//! renderers here and in `datasets` and `audio`, `pipeline::AugmentRng`'s
//! per-(sample, epoch, op) augmentation streams and the loader's shuffle.
//! Stored bytes, plans and digests are pinned to these streams, so the
//! generator and each draw below are fixed: xoshiro256++ seeded through
//! SplitMix64, with one draw method per kind of value the workspace takes.

use std::ops::{Range, RangeInclusive};

/// xoshiro256++ (Blackman and Vigna), seeded by expanding a `u64` through
/// SplitMix64. Each `range_*` draw panics on an empty range.
#[derive(Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The stream for `seed`: the state words are the first four SplitMix64
    /// outputs from `seed`. SplitMix64's output mix is a bijection, so at
    /// most one of four consecutive outputs is 0 and the state is never the
    /// all-zero one xoshiro must not start from.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut state = seed;
        let s = [(); 4].map(|()| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        });
        Rng { s }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform byte: the low 8 bits of one draw.
    pub(crate) fn u8(&mut self) -> u8 {
        self.next_u64() as u8
    }

    /// A fair coin: the low bit of one draw.
    pub(crate) fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        self.unit_f64() < p
    }

    /// A uniform `f64` in `[range.start, range.end)`.
    pub fn range_f64(&mut self, range: Range<f64>) -> f64 {
        let Range { start, end } = range;
        assert!(start < end, "range_f64: empty range");
        let v = start + self.unit_f64() * (end - start);
        // Rounding may land on the open bound.
        if v >= end {
            start
        } else {
            v
        }
    }

    /// A uniform `i64` in `[range.start, range.end)`.
    pub(crate) fn range_i64(&mut self, range: Range<i64>) -> i64 {
        assert!(range.start < range.end, "range_i64: empty range");
        let span = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add(self.below(span) as i64)
    }

    /// A uniform `u32` in `[range.start, range.end)`.
    pub(crate) fn range_u32(&mut self, range: Range<u32>) -> u32 {
        assert!(range.start < range.end, "range_u32: empty range");
        range.start + self.below(u64::from(range.end - range.start)) as u32
    }

    /// A uniform `usize` in `[range.start, range.end)`.
    pub fn range_usize(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "range_usize: empty range");
        range.start + self.below((range.end - range.start) as u64) as usize
    }

    /// A uniform `usize` in `[start, end]` (a Fisher–Yates step).
    pub fn range_usize_inclusive(&mut self, range: RangeInclusive<usize>) -> usize {
        let (start, end) = range.into_inner();
        assert!(start <= end, "range_usize_inclusive: empty range");
        let span = (end - start) as u64;
        if span == u64::MAX {
            return self.next_u64() as usize;
        }
        start + self.below(span + 1) as usize
    }

    /// A uniform `f64` in `[0, 1)` from the draw's top 53 bits.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A draw in `[0, span)` by widening multiply; the bias is below
    /// `span / 2^64`.
    fn below(&mut self, span: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    /// Eight draws of `f` from a fresh seed-7 stream.
    fn seven<T>(mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let mut rng = Rng::seed_from_u64(7);
        (0..8).map(|_| f(&mut rng)).collect()
    }

    // The constants below are the streams the workspace has always drawn;
    // every stored corpus byte, plan and digest rests on them, so a change
    // to the generator or to any draw must leave them as they are.

    #[test]
    fn the_first_draws_of_four_seeds_are_pinned() {
        let pinned: [(u64, [u64; 8]); 4] = [
            (
                0,
                [
                    0x53175d61490b23df,
                    0x61da6f3dc380d507,
                    0x5c0fdf91ec9a7bfc,
                    0x02eebf8c3bbe5e1a,
                    0x7eca04ebaf4a5eea,
                    0x0543c37757f08d9a,
                    0xdb7490c75ab5026e,
                    0xd87343e6464bc959,
                ],
            ),
            (
                1,
                [
                    0xcfc5d07f6f03c29b,
                    0xbf424132963fe08d,
                    0x19a37d5757aaf520,
                    0xbf08119f05cd56d6,
                    0x2f47184b86186fa4,
                    0x97299fcae7202345,
                    0xfca3c79508f41507,
                    0x85fea5c90363f221,
                ],
            ),
            (
                7,
                [
                    0x0e2c1a002aae913d,
                    0x2c0fc8ddfa4e9e14,
                    0xb7b311b3b0d45872,
                    0x6d5d9f6a6318013c,
                    0xf6b263f2f5790376,
                    0x77385b627c22c489,
                    0xb951f9b3621ea380,
                    0x54705b5adc01e528,
                ],
            ),
            (
                2024,
                [
                    0x8641253f8fed82d1,
                    0x4b7eeec62af66af9,
                    0x3e595fe9cf746b2a,
                    0x6bf1aa430346476c,
                    0xbf8964d6922c13c4,
                    0xceecac21bb20bc65,
                    0xfa80bc903817a43f,
                    0xa9b7d31dc2646815,
                ],
            ),
        ];
        for (seed, want) in pinned {
            let mut rng = Rng::seed_from_u64(seed);
            assert_eq!(want.map(|_| rng.next_u64()), want, "seed {seed}");
        }
    }

    /// `next_u64`, the `u64` draw, is pinned above.
    #[test]
    fn every_kind_of_draw_is_pinned() {
        assert_eq!(seven(Rng::u8), [61, 20, 114, 60, 118, 137, 128, 40]);
        assert_eq!(seven(Rng::bool), [true, false, false, false, false, true, false, false]);
        assert_eq!(seven(|r| r.range_i64(-5..48)), [-3, 4, 33, 17, 46, 19, 33, 12]);
        assert_eq!(seven(|r| r.range_u32(8..64)), [11, 17, 48, 31, 61, 34, 48, 26]);
        assert_eq!(seven(|r| r.range_usize(0..3)), [0, 0, 2, 1, 2, 1, 2, 0]);
        assert_eq!(
            seven(|r| r.range_f64(-1.0..1.0).to_bits()),
            [
                0xbfec74f97ff5545c,
                0xbfe4fc0dc8816c5a,
                0x3fdbd988d9d86a2c,
                0xbfc2a260959ce800,
                0x3fedac98fcbd5e40,
                0xbfb18f493b07ba80,
                0x3fdca8fcd9b10f50,
                0xbfd5c7d25291ff10,
            ]
        );
        assert_eq!(seven(|r| r.range_usize_inclusive(0..=9)), [0, 1, 7, 4, 9, 4, 7, 3]);
        assert_eq!(
            seven(|r| r.gen_bool(0.2)),
            [true, true, false, false, false, false, false, false]
        );
    }

    #[test]
    fn ranges_respect_their_bounds() {
        let mut rng = Rng::seed_from_u64(42);
        for _ in 0..10_000 {
            assert!((8..64).contains(&rng.range_u32(8..64)));
            assert!((-1.0..1.0).contains(&rng.range_f64(-1.0..1.0)));
            assert!(rng.range_usize_inclusive(0..=6) <= 6);
            assert!((8..48).contains(&rng.range_i64(8..48)));
        }
    }

    #[test]
    fn gen_bool_follows_its_probability() {
        let mut rng = Rng::seed_from_u64(1);
        let heads = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = heads as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
    }
}
