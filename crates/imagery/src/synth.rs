//! Deterministic synthetic image generation.
//!
//! The SOPHON paper measures real JPEG photographs; here we stand in a
//! generator whose images have *content-dependent compressibility*. The key
//! knob is [`SynthSpec::complexity`]: low-complexity images are smooth
//! gradients that an 8×8 DCT codec compresses aggressively (small encoded
//! size), high-complexity images carry multi-octave value noise and sharp
//! edges that survive quantization (large encoded size). Together with the
//! resolution distribution in the `datasets` crate this reproduces the
//! paper's per-sample size variance — the foundation of every offloading
//! decision.

use crate::rng::Rng;
use crate::round::round_f64_to_u8;
use crate::{RasterImage, Rgb, CHANNELS};

/// Background structure of a synthetic image.
///
/// The default [`Pattern::Gradient`] is the calibrated baseline every
/// corpus generator uses; the other patterns diversify content for codec
/// and pipeline testing (stripes and checkers carry strong directional
/// frequencies that exercise different DCT coefficients).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pattern {
    /// Smooth two-corner color gradient (the calibrated default).
    #[default]
    Gradient,
    /// Diagonal color stripes.
    Stripes,
    /// Checkerboard.
    Checker,
    /// Radial gradient from a random center.
    Radial,
}

/// Specification for one synthetic image.
///
/// A `SynthSpec` plus a seed fully determines the rendered image, so corpora
/// are reproducible without storing pixels.
///
/// ```
/// use imagery::synth::SynthSpec;
/// let a = SynthSpec::new(320, 240).complexity(0.8).render(7);
/// let b = SynthSpec::new(320, 240).complexity(0.8).render(7);
/// assert_eq!(a, b); // deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthSpec {
    width: u32,
    height: u32,
    complexity: f64,
    blobs: u32,
    pattern: Pattern,
}

impl SynthSpec {
    /// Creates a spec for a `width × height` image with default complexity 0.5.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        SynthSpec { width, height, complexity: 0.5, blobs: 6, pattern: Pattern::Gradient }
    }

    /// Sets the content complexity in `[0, 1]`; values are clamped.
    ///
    /// 0.0 renders a pure smooth gradient, 1.0 a noisy high-frequency scene.
    #[must_use]
    pub fn complexity(mut self, c: f64) -> Self {
        self.complexity = c.clamp(0.0, 1.0);
        self
    }

    /// Sets the number of soft elliptical "objects" composited over the
    /// background (default 6).
    #[must_use]
    pub fn blobs(mut self, n: u32) -> Self {
        self.blobs = n;
        self
    }

    /// Sets the background pattern (default [`Pattern::Gradient`]).
    #[must_use]
    pub fn pattern(mut self, p: Pattern) -> Self {
        self.pattern = p;
        self
    }

    /// Renders the image deterministically from `seed`.
    pub fn render(&self, seed: u64) -> RasterImage {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5350_4f48_4f4e_u64);
        let mut img = match self.pattern {
            Pattern::Gradient => render_gradient(self.width, self.height, &mut rng),
            Pattern::Stripes => render_stripes(self.width, self.height, &mut rng),
            Pattern::Checker => render_checker(self.width, self.height, &mut rng),
            Pattern::Radial => render_radial(self.width, self.height, &mut rng),
        };
        composite_blobs(&mut img, self.blobs, &mut rng);
        if self.complexity > 0.0 {
            apply_noise(&mut img, self.complexity, &mut rng);
        }
        img
    }
}

/// Renders a smooth two-corner color gradient background.
fn render_gradient(width: u32, height: u32, rng: &mut Rng) -> RasterImage {
    let c0 = Rgb::new(rng.u8(), rng.u8(), rng.u8());
    let c1 = Rgb::new(rng.u8(), rng.u8(), rng.u8());
    let c2 = Rgb::new(rng.u8(), rng.u8(), rng.u8());
    let mut img = RasterImage::new(width, height).expect("validated dimensions");
    for y in 0..height {
        let ty = f32::from(y as u16) / height.max(2) as f32;
        let left = c0.lerp(c2, ty);
        let right = c1.lerp(c2, 1.0 - ty);
        for x in 0..width {
            let tx = f32::from(x as u16) / width.max(2) as f32;
            img.put_pixel(x, y, left.lerp(right, tx));
        }
    }
    img
}

/// Renders diagonal stripes with random period, angle sign, and colors.
fn render_stripes(width: u32, height: u32, rng: &mut Rng) -> RasterImage {
    let a = Rgb::new(rng.u8(), rng.u8(), rng.u8());
    let b = Rgb::new(rng.u8(), rng.u8(), rng.u8());
    let period = rng.range_i64(8..48);
    let slope: i64 = if rng.bool() { 1 } else { -1 };
    let mut img = RasterImage::new(width, height).expect("validated dimensions");
    for y in 0..height {
        for x in 0..width {
            let phase = (i64::from(x) + slope * i64::from(y)).rem_euclid(period);
            // Soft edges: a two-pixel blend keeps the stripes codec-friendly.
            let t = (phase.min(period - phase)) as f32 / period as f32;
            img.put_pixel(x, y, a.lerp(b, (t * 4.0).min(1.0)));
        }
    }
    img
}

/// Renders a checkerboard with a random cell size.
fn render_checker(width: u32, height: u32, rng: &mut Rng) -> RasterImage {
    let a = Rgb::new(rng.u8(), rng.u8(), rng.u8());
    let b = Rgb::new(rng.u8(), rng.u8(), rng.u8());
    let cell = rng.range_u32(8..64);
    let mut img = RasterImage::new(width, height).expect("validated dimensions");
    for y in 0..height {
        for x in 0..width {
            let c = if ((x / cell) + (y / cell)).is_multiple_of(2) { a } else { b };
            img.put_pixel(x, y, c);
        }
    }
    img
}

/// Renders a radial gradient from a random center.
fn render_radial(width: u32, height: u32, rng: &mut Rng) -> RasterImage {
    let a = Rgb::new(rng.u8(), rng.u8(), rng.u8());
    let b = Rgb::new(rng.u8(), rng.u8(), rng.u8());
    let cx = rng.range_f64(0.0..f64::from(width));
    let cy = rng.range_f64(0.0..f64::from(height));
    let max_r = f64::from(width).hypot(f64::from(height));
    let mut img = RasterImage::new(width, height).expect("validated dimensions");
    for y in 0..height {
        for x in 0..width {
            let d = (f64::from(x) - cx).hypot(f64::from(y) - cy) / max_r;
            img.put_pixel(x, y, a.lerp(b, d as f32));
        }
    }
    img
}

/// Composites soft-edged ellipses ("objects") over the background.
fn composite_blobs(img: &mut RasterImage, blobs: u32, rng: &mut Rng) {
    let (w, h) = (img.width(), img.height());
    for _ in 0..blobs {
        let cx = rng.range_f64(0.0..f64::from(w));
        let cy = rng.range_f64(0.0..f64::from(h));
        let rx = rng.range_f64(f64::from(w) * 0.05..f64::from(w) * 0.3);
        let ry = rng.range_f64(f64::from(h) * 0.05..f64::from(h) * 0.3);
        let color = Rgb::new(rng.u8(), rng.u8(), rng.u8());
        let x0 = (cx - rx).max(0.0) as u32;
        let x1 = ((cx + rx).ceil() as u32).min(w);
        let y0 = (cy - ry).max(0.0) as u32;
        let y1 = ((cy + ry).ceil() as u32).min(h);
        for y in y0..y1 {
            for x in x0..x1 {
                let dx = (f64::from(x) - cx) / rx;
                let dy = (f64::from(y) - cy) / ry;
                let d = dx * dx + dy * dy;
                if d < 1.0 {
                    // Soft edge: full color in the core, feathered boundary.
                    let alpha = ((1.0 - d) * 3.0).min(1.0) as f32;
                    let base = img.pixel(x, y);
                    img.put_pixel(x, y, base.lerp(color, alpha));
                }
            }
        }
    }
}

/// Adds multi-octave value noise; amplitude and octave count grow with
/// `complexity`.
fn apply_noise(img: &mut RasterImage, complexity: f64, rng: &mut Rng) {
    let width = img.width();
    let octaves = 1 + (complexity * 3.0).round() as u32;
    let amplitude = 10.0 + complexity * 70.0;
    let lattice_seed = rng.next_u64();
    let mut noise = ValueNoise::new(lattice_seed, octaves, amplitude, width);
    let mut n = vec![0f64; width as usize];
    let row_len = width as usize * CHANNELS;
    for (row, y) in img.as_raw_mut().chunks_exact_mut(row_len).zip(0u32..) {
        noise.row(y, &mut n);
        for ((px, &n), x) in row.chunks_exact_mut(CHANNELS).zip(&n).zip(0u32..) {
            // Per-pixel white noise floor grows with complexity; this is the
            // high-frequency content that defeats DCT quantization.
            let white = (hash2(lattice_seed ^ 0x77, x, y) - 0.5) * complexity * 60.0;
            for v in px {
                *v = round_f64_to_u8(f64::from(*v) + n + white);
            }
        }
    }
}

/// Multi-octave value noise over an image `width` pixels wide, summed one
/// pixel row at a time: octave `o` has lattice seed `seed + o`, cells of
/// `8 / 2^o` pixels and amplitude `amplitude * 0.55^o`.
///
/// Each pixel's sum equals, bit for bit, adding up
/// `amp * value_noise(seed + o, x / cell, y / cell)` over the octaves in
/// order (the oracle in the tests): every value goes through the same
/// operations in the same order, and only work shared between pixels is
/// hoisted. A column's lattice cell and `smoothstep` weight depend on the
/// column alone and a row's on the row alone, so each is computed once; the
/// horizontal interpolation `v0 + (v1 - v0) * fx` along a lattice row
/// depends on the column and that lattice row only, so a lattice row is
/// hashed and interpolated once and kept while consecutive pixel rows fall
/// in the same cell.
struct ValueNoise {
    octaves: Vec<Octave>,
}

/// One octave of [`ValueNoise`].
struct Octave {
    seed: u64,
    amp: f64,
    cell: f64,
    /// Per pixel column: its lattice column and its `smoothstep` weight.
    columns: Vec<(usize, f64)>,
    /// Hashes of one lattice row, one past the last lattice column used.
    lattice: Vec<f64>,
    /// The top and bottom edges of the current cell row: a lattice row
    /// interpolated at every pixel column, tagged with its index.
    top: (Option<u32>, Vec<f64>),
    bottom: (Option<u32>, Vec<f64>),
}

impl ValueNoise {
    fn new(seed: u64, octaves: u32, amplitude: f64, width: u32) -> ValueNoise {
        let (mut amp, mut cell) = (amplitude, 8.0f64);
        let octaves = (0..octaves)
            .map(|o| {
                let octave = Octave::new(seed.wrapping_add(u64::from(o)), amp, cell, width);
                amp *= 0.55;
                cell /= 2.0;
                octave
            })
            .collect();
        ValueNoise { octaves }
    }

    /// Writes row `y`'s noise into `n`, one value per pixel column.
    fn row(&mut self, y: u32, n: &mut [f64]) {
        n.fill(0.0);
        for octave in &mut self.octaves {
            octave.add_row(y, n);
        }
    }
}

impl Octave {
    fn new(seed: u64, amp: f64, cell: f64, width: u32) -> Octave {
        let columns: Vec<(usize, f64)> = (0..width)
            .map(|x| {
                let xf = f64::from(x) / cell;
                let x0 = xf.floor();
                (x0 as i64 as u32 as usize, smoothstep(xf - x0))
            })
            .collect();
        let lattice = vec![0.0; columns.last().map_or(0, |&(xi, _)| xi) + 2];
        let edge = (None, vec![0.0; width as usize]);
        Octave { seed, amp, cell, columns, lattice, top: edge.clone(), bottom: edge }
    }

    /// Adds this octave's row `y` to `n`.
    fn add_row(&mut self, y: u32, n: &mut [f64]) {
        let yf = f64::from(y) / self.cell;
        let y0 = yf.floor();
        let fy = smoothstep(yf - y0);
        let yi = y0 as i64 as u32;
        if self.bottom.0 == Some(yi) {
            std::mem::swap(&mut self.top, &mut self.bottom);
        }
        for (edge, lattice_row) in [(&mut self.top, yi), (&mut self.bottom, yi.wrapping_add(1))] {
            if edge.0 != Some(lattice_row) {
                for (xi, v) in self.lattice.iter_mut().enumerate() {
                    *v = hash2(self.seed, xi as u32, lattice_row);
                }
                for (out, &(xi, fx)) in edge.1.iter_mut().zip(&self.columns) {
                    let (v0, v1) = (self.lattice[xi], self.lattice[xi + 1]);
                    *out = v0 + (v1 - v0) * fx;
                }
                edge.0 = Some(lattice_row);
            }
        }
        for ((n, &top), &bottom) in n.iter_mut().zip(&self.top.1).zip(&self.bottom.1) {
            *n += self.amp * (top + (bottom - top) * fy - 0.5);
        }
    }
}

/// Smooth 2-D value noise in `[-0.5, 0.5]` from a hashed integer lattice:
/// the per-pixel form [`ValueNoise`] is checked against.
#[cfg(test)]
fn value_noise(seed: u64, x: f64, y: f64) -> f64 {
    let x0 = x.floor();
    let y0 = y.floor();
    let fx = smoothstep(x - x0);
    let fy = smoothstep(y - y0);
    let (xi, yi) = (x0 as i64 as u32, y0 as i64 as u32);
    let v00 = hash2(seed, xi, yi);
    let v10 = hash2(seed, xi.wrapping_add(1), yi);
    let v01 = hash2(seed, xi, yi.wrapping_add(1));
    let v11 = hash2(seed, xi.wrapping_add(1), yi.wrapping_add(1));
    let top = v00 + (v10 - v00) * fx;
    let bottom = v01 + (v11 - v01) * fx;
    top + (bottom - top) * fy - 0.5
}

fn smoothstep(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

/// Hashes a lattice coordinate to a uniform value in `[0, 1)`.
fn hash2(seed: u64, x: u32, y: u32) -> f64 {
    let mut v = seed ^ (u64::from(x) << 32) ^ u64::from(y);
    // SplitMix64 finalizer.
    v = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    v = (v ^ (v >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    v = (v ^ (v >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    v ^= v >> 31;
    (v >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_deterministic() {
        let spec = SynthSpec::new(64, 48).complexity(0.7);
        assert_eq!(spec.render(1), spec.render(1));
    }

    #[test]
    fn different_seeds_differ() {
        let spec = SynthSpec::new(64, 48);
        assert_ne!(spec.render(1), spec.render(2));
    }

    #[test]
    fn complexity_is_clamped() {
        let spec = SynthSpec::new(8, 8).complexity(9.0);
        assert_eq!(spec.complexity, 1.0);
        let spec = SynthSpec::new(8, 8).complexity(-1.0);
        assert_eq!(spec.complexity, 0.0);
    }

    #[test]
    fn zero_complexity_is_smooth() {
        // Neighboring pixels in a pure gradient+blob image differ slowly.
        let img = SynthSpec::new(128, 128).complexity(0.0).blobs(0).render(3);
        let mut max_delta = 0i32;
        for y in 0..127 {
            for x in 0..127 {
                let a = img.pixel(x, y);
                let b = img.pixel(x + 1, y);
                max_delta = max_delta.max((i32::from(a.r) - i32::from(b.r)).abs());
            }
        }
        assert!(max_delta <= 8, "gradient should be smooth, got delta {max_delta}");
    }

    #[test]
    fn high_complexity_is_rough() {
        let smooth = SynthSpec::new(96, 96).complexity(0.0).blobs(0).render(5);
        let rough = SynthSpec::new(96, 96).complexity(1.0).blobs(0).render(5);
        let roughness = |img: &RasterImage| -> f64 {
            let mut acc = 0f64;
            for y in 0..95 {
                for x in 0..95 {
                    let a = img.pixel(x, y);
                    let b = img.pixel(x + 1, y);
                    acc += f64::from((i32::from(a.g) - i32::from(b.g)).unsigned_abs());
                }
            }
            acc
        };
        assert!(roughness(&rough) > roughness(&smooth) * 4.0);
    }

    #[test]
    fn value_noise_in_range() {
        for i in 0..200 {
            let v = value_noise(9, f64::from(i) * 0.37, f64::from(i) * 0.11);
            assert!((-0.5..=0.5).contains(&v), "noise out of range: {v}");
        }
    }

    /// The per-pixel sum [`ValueNoise`] is checked against.
    fn noise_reference(seed: u64, octaves: u32, amplitude: f64, x: u32, y: u32) -> f64 {
        let mut n = 0.0f64;
        let mut amp = amplitude;
        let mut cell = 8.0f64;
        for o in 0..octaves {
            let (xf, yf) = (f64::from(x) / cell, f64::from(y) / cell);
            n += amp * value_noise(seed.wrapping_add(u64::from(o)), xf, yf);
            amp *= 0.55;
            cell /= 2.0;
        }
        n
    }

    #[test]
    fn noise_rows_match_the_per_pixel_sum() {
        for width in 1..=40u32 {
            for octaves in 1..=4 {
                let (seed, amplitude) = (u64::from(width) * 977 + u64::from(octaves), 35.9);
                let mut noise = ValueNoise::new(seed, octaves, amplitude, width);
                let mut n = vec![0f64; width as usize];
                for y in 0..40 {
                    noise.row(y, &mut n);
                    for (x, v) in (0..width).zip(&n) {
                        let want = noise_reference(seed, octaves, amplitude, x, y);
                        assert_eq!(v.to_bits(), want.to_bits(), "{width} wide, {octaves} octaves");
                    }
                }
            }
        }
    }

    #[test]
    fn noise_pass_matches_the_per_pixel_pass() {
        // Complexities with 1, 2, 3 and 4 octaves.
        for (w, h) in [(1, 1), (1, 17), (40, 3), (37, 61)] {
            for c in [0.02, 0.3, 0.5, 0.98] {
                let base = SynthSpec::new(w, h).complexity(0.0).render(u64::from(w * h));
                let (mut got, mut want) = (base.clone(), base);
                apply_noise(&mut got, c, &mut Rng::seed_from_u64(3));
                let lattice_seed = Rng::seed_from_u64(3).next_u64();
                let octaves = 1 + (c * 3.0).round() as u32;
                for y in 0..h {
                    for x in 0..w {
                        let n = noise_reference(lattice_seed, octaves, 10.0 + c * 70.0, x, y);
                        let white = (hash2(lattice_seed ^ 0x77, x, y) - 0.5) * c * 60.0;
                        let adj =
                            |v: u8| (f64::from(v) + n + white).round().clamp(0.0, 255.0) as u8;
                        let p = want.pixel(x, y);
                        want.put_pixel(x, y, Rgb::new(adj(p.r), adj(p.g), adj(p.b)));
                    }
                }
                assert_eq!(got, want, "{w}x{h} complexity {c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_panic() {
        let _ = SynthSpec::new(0, 10);
    }

    #[test]
    fn patterns_render_deterministically_and_differ() {
        let base = SynthSpec::new(64, 64).complexity(0.3).blobs(2);
        let rendered: Vec<RasterImage> =
            [Pattern::Gradient, Pattern::Stripes, Pattern::Checker, Pattern::Radial]
                .into_iter()
                .map(|p| base.pattern(p).render(5))
                .collect();
        for (i, img) in rendered.iter().enumerate() {
            // Deterministic per (spec, seed).
            assert_eq!(
                img,
                &[Pattern::Gradient, Pattern::Stripes, Pattern::Checker, Pattern::Radial,]
                    .into_iter()
                    .map(|p| base.pattern(p).render(5))
                    .nth(i)
                    .unwrap()
            );
        }
        for i in 0..rendered.len() {
            for j in i + 1..rendered.len() {
                assert_ne!(rendered[i], rendered[j], "patterns {i} and {j} identical");
            }
        }
    }

    #[test]
    fn default_pattern_is_gradient() {
        // The calibrated corpora rely on the default staying put.
        let a = SynthSpec::new(32, 32).render(9);
        let b = SynthSpec::new(32, 32).pattern(Pattern::Gradient).render(9);
        assert_eq!(a, b);
    }

    #[test]
    fn checker_has_exactly_two_colors_without_noise() {
        let img =
            SynthSpec::new(64, 64).complexity(0.0).blobs(0).pattern(Pattern::Checker).render(3);
        let mut colors = std::collections::HashSet::new();
        for y in 0..64 {
            for x in 0..64 {
                colors.insert(img.pixel(x, y));
            }
        }
        assert_eq!(colors.len(), 2, "checker should be two-tone");
    }
}
