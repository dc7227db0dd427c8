use imagery::rng::Rng;

/// Identity of one sample's augmentation draws in one epoch.
///
/// A `SampleKey` plus an operation index fully determines the random stream
/// an operation sees, which is what makes split execution reproduce unsplit
/// execution exactly — both the storage node and the compute node can
/// construct the stream for any operation independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleKey {
    /// Seed of the dataset the sample belongs to.
    pub(crate) dataset_seed: u64,
    /// Sample index within the dataset.
    pub sample_id: u64,
    /// Training epoch (augmentations vary per epoch; see paper §3.3).
    pub(crate) epoch: u64,
}

impl SampleKey {
    /// Creates a key.
    pub fn new(dataset_seed: u64, sample_id: u64, epoch: u64) -> SampleKey {
        SampleKey { dataset_seed, sample_id, epoch }
    }
}

/// Deterministic augmentation randomness keyed by `(dataset seed, sample,
/// epoch)`.
///
/// Two properties matter for SOPHON:
///
/// * **Split equivalence** — when a prefix of the pipeline runs on the
///   storage node, the random crop/flip parameters it draws must be the same
///   ones the compute node would have drawn, or split execution would change
///   the training data. Deriving the stream purely from
///   `(dataset_seed, sample_id, epoch)` guarantees this: both nodes construct
///   identical streams.
/// * **Epoch variability** — §3.3 of the paper stresses that augmentations
///   must differ per epoch (this is why "preprocess once and store" loses
///   accuracy). Including the epoch in the key keeps that property.
///
/// ```
/// use pipeline::AugmentRng;
/// let mut a = AugmentRng::for_sample(1, 42, 0);
/// let mut b = AugmentRng::for_sample(1, 42, 0);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let mut c = AugmentRng::for_sample(1, 42, 1); // next epoch: new draws
/// let mut a2 = AugmentRng::for_sample(1, 42, 0);
/// assert_ne!(a2.next_u64(), c.next_u64());
/// ```
#[derive(Debug)]
pub struct AugmentRng {
    inner: Rng,
}

impl AugmentRng {
    /// Creates the augmentation stream for one sample in one epoch.
    pub fn for_sample(dataset_seed: u64, sample_id: u64, epoch: u64) -> AugmentRng {
        // Mix the three keys through distinct odd multipliers so that
        // (seed, id, epoch) collisions cannot alias.
        let mixed = dataset_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ sample_id.wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            ^ epoch.wrapping_mul(0x1656_67b1_9e37_79f9);
        AugmentRng { inner: Rng::seed_from_u64(mixed) }
    }

    /// Creates the independent substream for operation `op_index` of the
    /// sample identified by `key`.
    ///
    /// Every pipeline operation gets its own substream so that splitting the
    /// pipeline between two machines never shifts the draws a later
    /// operation sees.
    pub fn for_op(key: SampleKey, op_index: usize) -> AugmentRng {
        let mut base = Self::for_sample(key.dataset_seed, key.sample_id, key.epoch);
        let lane = base.next_u64() ^ (op_index as u64).wrapping_mul(0xd6e8_feb8_6659_fd93);
        AugmentRng { inner: Rng::seed_from_u64(lane) }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Draws a uniform `f64` in `[0, 1)`.
    pub(crate) fn next_unit_f64(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Draws a uniform `f64` in `[lo, hi)`.
    pub(crate) fn next_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        unit_into(self.next_unit_f64(), lo, hi)
    }

    /// Draws a uniform integer in `[0, n)`; `n` must be positive.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        // Multiply-shift bounded sampling (Lemire); bias is negligible for
        // the small ranges used by augmentations.
        ((u128::from(self.inner.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// `u` in `[0, 1)` mapped onto `[lo, hi)`. Rounding may land
/// `lo + u * (hi - lo)` on `hi`; such a draw reads as `lo`, as it does in
/// `imagery::rng::Rng::range_f64`.
fn unit_into(u: f64, lo: f64, hi: f64) -> f64 {
    let v = lo + u * (hi - lo);
    if v >= hi {
        lo
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The op stream split execution rests on, pinned draw for draw.
    #[test]
    fn an_op_stream_is_pinned() {
        let mut r = AugmentRng::for_op(SampleKey::new(1, 42, 0), 1);
        let want = [0x4205775ef2040ecd, 0x81d7722c9f6d5da3, 0x3c46ca612e5257b8, 0x3e658d18466ee52a];
        assert_eq!(want.map(|_| r.next_u64()), want);
    }

    #[test]
    fn identical_keys_identical_streams() {
        let mut a = AugmentRng::for_sample(7, 11, 3);
        let mut b = AugmentRng::for_sample(7, 11, 3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn any_key_component_changes_stream() {
        let base: Vec<u64> = {
            let mut r = AugmentRng::for_sample(1, 2, 3);
            (0..4).map(|_| r.next_u64()).collect()
        };
        for (s, i, e) in [(2u64, 2u64, 3u64), (1, 3, 3), (1, 2, 4)] {
            let mut r = AugmentRng::for_sample(s, i, e);
            let v: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
            assert_ne!(v, base, "key ({s},{i},{e}) aliased the base stream");
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = AugmentRng::for_sample(0, 0, 0);
        for _ in 0..1000 {
            let v = r.next_unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn a_draw_that_rounds_onto_the_open_bound_reads_as_the_low_one() {
        // The largest unit draw: `1 + u` is halfway between `2 - 2^-52`
        // and `2`, and rounds to the even `2`.
        let u = 1.0 - f64::EPSILON / 2.0;
        let (lo, hi) = (1.0, 2.0);
        assert_eq!(lo + u * (hi - lo), hi, "the unguarded draw lands on the open bound");
        assert_eq!(unit_into(u, lo, hi), lo);
        assert_eq!(unit_into(0.5, lo, hi), 1.5);
        assert_eq!(unit_into(0.0, lo, hi), lo);
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut r = AugmentRng::for_sample(5, 5, 5);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.next_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values should appear: {seen:?}");
    }
}
