use codec::Quality;
use imagery::rng::Rng;

use crate::model;
use crate::record::SampleRecord;

/// Log-normal distribution of modeled encoded sample sizes.
///
/// Parameters are in bytes; `sigma` is the standard deviation of the natural
/// log. The calibrated corpora pin the two statistics the paper reports: the
/// fraction of samples above the 150 528-byte post-crop size, and the mean
/// sample size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SizeModel {
    /// Median encoded size in bytes.
    pub(crate) median_bytes: f64,
    /// Log-space standard deviation.
    pub(crate) sigma: f64,
    /// Lower clamp (bytes).
    pub(crate) min_bytes: f64,
    /// Upper clamp (bytes).
    pub(crate) max_bytes: f64,
}

/// Truncated-normal distribution of content complexity in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ComplexityModel {
    /// Mean complexity.
    pub(crate) mean: f64,
    /// Standard deviation before clamping.
    pub(crate) std: f64,
}

/// Mix of aspect ratios samples are drawn from (width : height).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AspectMix {
    /// `(aspect ratio, relative weight)` choices.
    pub(crate) choices: Vec<(f64, f64)>,
}

impl AspectMix {
    /// The photographic default: landscape-dominated with some portrait and
    /// square images.
    pub(crate) fn photographic() -> AspectMix {
        AspectMix {
            choices: vec![
                (4.0 / 3.0, 0.35),
                (3.0 / 2.0, 0.25),
                (16.0 / 9.0, 0.10),
                (1.0, 0.10),
                (3.0 / 4.0, 0.12),
                (2.0 / 3.0, 0.08),
            ],
        }
    }

    fn sample(&self, rng: &mut Rng) -> f64 {
        let total: f64 = self.choices.iter().map(|&(_, w)| w).sum();
        let mut draw = rng.range_f64(0.0..total);
        for &(ratio, w) in &self.choices {
            if draw < w {
                // Jitter ±6 % so dimensions are not exactly gridded.
                return ratio * rng.range_f64(0.94..1.06);
            }
            draw -= w;
        }
        self.choices.last().map(|&(r, _)| r).unwrap_or(4.0 / 3.0)
    }
}

/// A deterministic synthetic corpus.
///
/// Every sample's metadata is a pure function of `(spec, sample id)`;
/// [`DatasetSpec::materialize`] additionally renders the real image bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Human-readable corpus name (appears in reports).
    pub name: String,
    /// Master seed; changing it produces an entirely different corpus with
    /// the same statistics.
    pub seed: u64,
    /// Number of samples.
    pub len: u64,
    /// Encoded-size distribution.
    pub(crate) sizes: SizeModel,
    /// Complexity distribution.
    pub(crate) complexity: ComplexityModel,
    /// Aspect-ratio mix.
    pub(crate) aspects: AspectMix,
    /// Codec quality used when materializing.
    pub(crate) quality_value: u8,
}

impl DatasetSpec {
    /// An OpenImages-like corpus: mean sample ≈ 300 KB, ~76 % of samples
    /// larger than the 150 528-byte post-crop raster.
    pub fn openimages_like(len: u64, seed: u64) -> DatasetSpec {
        DatasetSpec {
            name: "openimages-like".to_string(),
            seed,
            len,
            sizes: SizeModel {
                median_bytes: 256_000.0,
                sigma: 0.75,
                min_bytes: 8_000.0,
                max_bytes: 4_000_000.0,
            },
            complexity: ComplexityModel { mean: 0.45, std: 0.18 },
            aspects: AspectMix::photographic(),
            quality_value: 85,
        }
    }

    /// An ImageNet-like corpus: mean sample ≈ 120 KB, only ~26 % of samples
    /// larger than the post-crop raster.
    pub fn imagenet_like(len: u64, seed: u64) -> DatasetSpec {
        DatasetSpec {
            name: "imagenet-like".to_string(),
            seed,
            len,
            sizes: SizeModel {
                median_bytes: 99_000.0,
                sigma: 0.65,
                min_bytes: 6_000.0,
                max_bytes: 2_000_000.0,
            },
            complexity: ComplexityModel { mean: 0.50, std: 0.18 },
            aspects: AspectMix::photographic(),
            quality_value: 85,
        }
    }

    /// A small-image corpus used by fast functional tests: same machinery,
    /// bounded materialization cost.
    pub fn mini(len: u64, seed: u64) -> DatasetSpec {
        DatasetSpec {
            name: "mini".to_string(),
            seed,
            len,
            sizes: SizeModel {
                median_bytes: 140_000.0,
                sigma: 0.8,
                min_bytes: 5_000.0,
                max_bytes: 450_000.0,
            },
            complexity: ComplexityModel { mean: 0.45, std: 0.2 },
            aspects: AspectMix::photographic(),
            quality_value: 85,
        }
    }

    /// The codec quality used when materializing samples.
    pub fn quality(&self) -> Quality {
        Quality::new(self.quality_value).expect("spec carries a valid quality")
    }

    /// Deterministic per-sample RNG.
    fn rng_for(&self, id: u64) -> Rng {
        let mixed = self
            .seed
            .wrapping_mul(0xa076_1d64_78bd_642f)
            .wrapping_add(id.wrapping_mul(0xe703_7ed1_a0b4_28db));
        Rng::seed_from_u64(mixed)
    }

    /// The metadata of sample `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id >= len`.
    pub fn record(&self, id: u64) -> SampleRecord {
        assert!(id < self.len, "sample {id} out of range (len {})", self.len);
        let mut rng = self.rng_for(id);
        // Complexity: truncated normal.
        let z: f64 = sample_standard_normal(&mut rng);
        let complexity = (self.complexity.mean + z * self.complexity.std).clamp(0.02, 0.98);
        // Encoded size: log-normal, clamped.
        let z: f64 = sample_standard_normal(&mut rng);
        let bytes = (self.sizes.median_bytes * (z * self.sizes.sigma).exp())
            .clamp(self.sizes.min_bytes, self.sizes.max_bytes);
        // Dimensions from the inverted size model and the aspect mix.
        let pixels = model::pixels_for_encoded_size(complexity, bytes);
        let aspect = self.aspects.sample(&mut rng);
        let width = ((pixels * aspect).sqrt().round() as u32).clamp(32, 6000);
        let height = ((pixels / aspect).sqrt().round() as u32).clamp(32, 6000);
        let encoded_bytes = model::encoded_size(complexity, width, height);
        SampleRecord { id, width, height, complexity, encoded_bytes }
    }

    /// Iterates over all sample records.
    pub fn records(&self) -> impl Iterator<Item = SampleRecord> + '_ {
        (0..self.len).map(|id| self.record(id))
    }

    /// Renders sample `id` and encodes it with the real codec, returning the
    /// encoded bytes. Expensive — intended for functional tests, examples,
    /// and the live storage server.
    ///
    /// # Panics
    ///
    /// Panics when `id >= len`.
    pub fn materialize(&self, id: u64) -> Vec<u8> {
        let rec = self.record(id);
        let img = imagery::synth::SynthSpec::new(rec.width, rec.height)
            .complexity(rec.complexity)
            .render(self.seed ^ id.wrapping_mul(0x2545_f491_4f6c_dd1d));
        codec::encode(&img, self.quality())
    }

    /// Total modeled corpus size in bytes.
    pub fn total_encoded_bytes(&self) -> u64 {
        self.records().map(|r| r.encoded_bytes).sum()
    }
}

/// Box–Muller standard normal draw.
fn sample_standard_normal(rng: &mut Rng) -> f64 {
    let u1 = rng.range_f64(f64::MIN_POSITIVE..1.0);
    let u2 = rng.range_f64(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::CROPPED_RAW_BYTES;

    #[test]
    fn records_are_deterministic() {
        let ds = DatasetSpec::openimages_like(100, 7);
        assert_eq!(ds.record(13), ds.record(13));
        let ds2 = DatasetSpec::openimages_like(100, 7);
        assert_eq!(ds.record(13), ds2.record(13));
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetSpec::openimages_like(10, 1).record(0);
        let b = DatasetSpec::openimages_like(10, 2).record(0);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_panics() {
        DatasetSpec::openimages_like(5, 1).record(5);
    }

    #[test]
    fn openimages_benefit_fraction_matches_paper() {
        let ds = DatasetSpec::openimages_like(4_000, 11);
        let benefit = ds.records().filter(|r| r.encoded_bytes > CROPPED_RAW_BYTES).count();
        let frac = benefit as f64 / 4_000.0;
        assert!((0.70..0.82).contains(&frac), "OpenImages benefit fraction {frac}");
    }

    #[test]
    fn imagenet_benefit_fraction_matches_paper() {
        let ds = DatasetSpec::imagenet_like(4_000, 11);
        let benefit = ds.records().filter(|r| r.encoded_bytes > CROPPED_RAW_BYTES).count();
        let frac = benefit as f64 / 4_000.0;
        assert!((0.20..0.32).contains(&frac), "ImageNet benefit fraction {frac}");
    }

    #[test]
    fn openimages_mean_size_near_300kb() {
        let ds = DatasetSpec::openimages_like(4_000, 3);
        let mean = ds.total_encoded_bytes() as f64 / 4_000.0;
        assert!((220_000.0..400_000.0).contains(&mean), "mean sample size {mean}");
    }

    #[test]
    fn imagenet_mean_size_near_120kb() {
        let ds = DatasetSpec::imagenet_like(4_000, 3);
        let mean = ds.total_encoded_bytes() as f64 / 4_000.0;
        assert!((90_000.0..160_000.0).contains(&mean), "mean sample size {mean}");
    }

    #[test]
    fn complexity_within_bounds() {
        let ds = DatasetSpec::openimages_like(500, 5);
        for r in ds.records() {
            assert!((0.02..=0.98).contains(&r.complexity));
            assert!(r.width >= 32 && r.height >= 32);
        }
    }

    #[test]
    fn aspect_mix_produces_landscape_and_portrait() {
        let ds = DatasetSpec::openimages_like(500, 9);
        let landscape = ds.records().filter(|r| r.width > r.height).count();
        let portrait = ds.records().filter(|r| r.width < r.height).count();
        assert!(landscape > 250, "landscape = {landscape}");
        assert!(portrait > 50, "portrait = {portrait}");
    }

    #[test]
    fn materialized_size_tracks_model() {
        // Real encoded size should be within 35 % of the modeled size for
        // moderate images (the model is a statistical fit, not an oracle).
        let ds = DatasetSpec::mini(40, 21);
        let mut checked = 0;
        for id in 0..8u64 {
            let rec = ds.record(id);
            if rec.width * rec.height > 700_000 {
                continue; // keep the test fast
            }
            let real = ds.materialize(id).len() as f64;
            let modeled = rec.encoded_bytes as f64;
            let ratio = real / modeled;
            assert!(
                (0.65..1.45).contains(&ratio),
                "sample {id} ({}x{} c={:.2}): real {real} vs modeled {modeled}",
                rec.width,
                rec.height,
                rec.complexity
            );
            checked += 1;
        }
        assert!(checked >= 3, "too few samples checked");
    }
}
