//! Bilinear resizing, one source row at a time.
//!
//! Each output sample is `left + (right - left) * w` in `f64`, first along
//! a row and then between two rows, rounded half away from zero
//! ([`round_f64_to_u8`]). The horizontal pass runs in two steps: it gathers
//! the bytes under each output sample's left and right tap into two `u8`
//! rows, then lerps the two rows against a weight row computed once per
//! resizer. Every lane does the same three IEEE operations on the same
//! operands, in the same order, as the per-pixel loop it replaced (kept as
//! the test oracle): the gather only moves bytes, and the weight each
//! sample reads is its column's. What changes is that the lerp runs over
//! contiguous rows, so it vectorizes.

use crate::round::round_f64_to_u8;
use crate::{RasterImage, CHANNELS};

/// The two source samples and the weight along one axis for destination
/// index `d`: the sample centre `(d + 0.5) * scale - 0.5`, clamped to the
/// image, split into its floor and fraction.
fn taps(d: u32, scale: f64, extent: u32) -> (usize, usize, f64) {
    let f = ((f64::from(d) + 0.5) * scale - 0.5).max(0.0);
    let i0 = (f.floor() as u32).min(extent - 1);
    let i1 = (i0 + 1).min(extent - 1);
    (i0 as usize, i1 as usize, f - f64::from(i0))
}

/// The horizontal pass: per output column, its two source pixels; per
/// output sample (column × channel), its column's weight; and the two rows
/// the taps are gathered into.
#[derive(Debug, Default)]
struct Columns {
    taps: Vec<(usize, usize)>,
    weights: Vec<f64>,
    left: Vec<u8>,
    right: Vec<u8>,
}

impl Columns {
    /// The columns of a resize from `src_width` to `new_width` pixels.
    fn new(src_width: u32, new_width: u32) -> Columns {
        let sx = f64::from(src_width) / f64::from(new_width);
        let (taps, weights): (Vec<_>, Vec<_>) = (0..new_width)
            .map(|dx| {
                let (x0, x1, wx) = taps(dx, sx, src_width);
                ((x0, x1), [wx; CHANNELS])
            })
            .unzip();
        let samples = new_width as usize * CHANNELS;
        Columns { taps, weights: weights.concat(), left: vec![0; samples], right: vec![0; samples] }
    }

    /// Interpolates the source `row` to the output width, into `out`.
    fn lerp(&mut self, row: &[u8], out: &mut [f64]) {
        let (pixels, _) = row.as_chunks::<CHANNELS>();
        let (left, _) = self.left.as_chunks_mut::<CHANNELS>();
        let (right, _) = self.right.as_chunks_mut::<CHANNELS>();
        for ((left, right), &(x0, x1)) in left.iter_mut().zip(right).zip(&self.taps) {
            *left = pixels[x0];
            *right = pixels[x1];
        }
        let samples = self.left.iter().zip(&self.right).zip(&self.weights);
        for (out, ((&left, &right), &wx)) in out.iter_mut().zip(samples) {
            let (left, right) = (f64::from(left), f64::from(right));
            *out = left + (right - left) * wx;
        }
    }
}

/// A bilinear resize fed its source rows top to bottom, as a decoder
/// produces them: [`RasterImage::resize_bilinear`] is this resizer fed an
/// image's own rows, so there is one resize implementation.
///
/// Each source row some output row reads is interpolated horizontally to
/// the new width once, and the last two are kept: every output row blends
/// two adjacent source rows, and is written as soon as the lower of the two
/// arrives. A source row no output row reads is dropped unread. An image
/// the size of the target is copied row by row.
///
/// ```
/// use imagery::{synth::SynthSpec, BilinearResizer};
///
/// let img = SynthSpec::new(40, 30).complexity(0.5).render(3);
/// let mut resizer = BilinearResizer::new(40, 30, 17, 23);
/// for row in img.as_raw().chunks_exact(40 * 3) {
///     resizer.push_row(row);
/// }
/// let out = resizer.finish();
/// assert_eq!((out.width(), out.height()), (17, 23));
/// ```
#[derive(Debug)]
pub struct BilinearResizer {
    src_width: u32,
    src_height: u32,
    /// The horizontal pass; no columns for the copy path.
    columns: Columns,
    /// Per output row: its two source rows and the vertical weight.
    rows: Vec<(usize, usize, f64)>,
    /// The last two interpolated source rows, older first, as (source row,
    /// samples).
    kept: [(usize, Vec<f64>); 2],
    /// The next source row [`BilinearResizer::push_row`] expects.
    next_src: usize,
    /// The first output row not yet written.
    next_out: usize,
    data: Vec<u8>,
}

impl BilinearResizer {
    /// A resizer from `src_width × src_height` to `new_width × new_height`.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero.
    pub fn new(src_width: u32, src_height: u32, new_width: u32, new_height: u32) -> Self {
        assert!(new_width > 0 && new_height > 0, "resize target must be non-empty");
        assert!(src_width > 0 && src_height > 0, "resize source must be non-empty");
        let out_row_len = new_width as usize * CHANNELS;
        let data = vec![0u8; out_row_len * new_height as usize];
        if (src_width, src_height) == (new_width, new_height) {
            return BilinearResizer {
                src_width,
                src_height,
                columns: Columns::default(),
                rows: Vec::new(),
                kept: Default::default(),
                next_src: 0,
                next_out: 0,
                data,
            };
        }
        // Scale factor mapping destination pixel centers into source space.
        let sy = f64::from(src_height) / f64::from(new_height);
        BilinearResizer {
            src_width,
            src_height,
            columns: Columns::new(src_width, new_width),
            rows: (0..new_height).map(|dy| taps(dy, sy, src_height)).collect(),
            kept: std::array::from_fn(|_| (usize::MAX, vec![0f64; out_row_len])),
            next_src: 0,
            next_out: 0,
            data,
        }
    }

    /// Takes the next source row, `src_width × 3` interleaved RGB bytes,
    /// and writes every output row it completes.
    ///
    /// # Panics
    ///
    /// Panics when `row` is not one source row long or every source row
    /// has already been pushed.
    pub fn push_row(&mut self, row: &[u8]) {
        assert_eq!(row.len(), self.src_width as usize * CHANNELS, "source row length");
        assert!(self.next_src < self.src_height as usize, "more rows than the source height");
        let y = self.next_src;
        self.next_src += 1;
        if self.columns.taps.is_empty() {
            self.data[y * row.len()..][..row.len()].copy_from_slice(row);
            return;
        }
        // An output row is written as soon as its lower row arrives, so
        // the first one pending reads `y`, or no output row does.
        if self.rows.get(self.next_out).is_none_or(|&(y0, ..)| y < y0) {
            return;
        }
        self.kept.swap(0, 1);
        let (index, samples) = &mut self.kept[1];
        *index = y;
        self.columns.lerp(row, samples);
        let out_row_len = self.columns.weights.len();
        while let Some(&(y0, _, wy)) = self.rows.get(self.next_out).filter(|r| r.1 == y) {
            let [older, newer] = &self.kept;
            let upper = if newer.0 == y0 { &newer.1 } else { &older.1 };
            let out_row = &mut self.data[self.next_out * out_row_len..][..out_row_len];
            for ((px, &top), &bottom) in out_row.iter_mut().zip(upper).zip(&newer.1) {
                *px = round_f64_to_u8(top + (bottom - top) * wy);
            }
            self.next_out += 1;
        }
    }

    /// The resized image.
    ///
    /// # Panics
    ///
    /// Panics when fewer than the source height's rows were pushed.
    pub fn finish(self) -> RasterImage {
        assert_eq!(self.next_src, self.src_height as usize, "every source row must be pushed");
        let (width, height) = if self.columns.taps.is_empty() {
            (self.src_width, self.src_height)
        } else {
            (self.columns.taps.len() as u32, self.rows.len() as u32)
        };
        RasterImage::from_raw(width, height, self.data).expect("buffer sized from the target")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use proptest::prelude::*;

    /// The horizontal pass before the gather, kept as the oracle: per
    /// output column and channel, the two source bytes read in place.
    fn lerp_reference(row: &[u8], src_width: u32, new_width: u32) -> Vec<f64> {
        let sx = f64::from(src_width) / f64::from(new_width);
        let mut out = vec![0f64; new_width as usize * CHANNELS];
        for (dx, px) in (0..new_width).zip(out.chunks_exact_mut(CHANNELS)) {
            let (x0, x1, wx) = taps(dx, sx, src_width);
            for c in 0..CHANNELS {
                let left = f64::from(row[x0 * CHANNELS + c]);
                let right = f64::from(row[x1 * CHANNELS + c]);
                px[c] = left + (right - left) * wx;
            }
        }
        out
    }

    /// A whole resize from [`lerp_reference`] and `f64::round`: each output
    /// row blends the reference interpolations of its two source rows.
    fn resize_reference(img: &RasterImage, new_width: u32, new_height: u32) -> Vec<u8> {
        let (w, h) = (img.width(), img.height());
        let row = |y: usize| &img.as_raw()[y * w as usize * CHANNELS..][..w as usize * CHANNELS];
        let sy = f64::from(h) / f64::from(new_height);
        let mut out = Vec::new();
        for dy in 0..new_height {
            let (y0, y1, wy) = taps(dy, sy, h);
            let top = lerp_reference(row(y0), w, new_width);
            let bottom = lerp_reference(row(y1), w, new_width);
            out.extend(
                top.iter()
                    .zip(&bottom)
                    .map(|(&t, &b)| (t + (b - t) * wy).round().clamp(0.0, 255.0) as u8),
            );
        }
        out
    }

    /// `(source, target)` sizes of one kind: 0 is 1×1 at one end, 1 a pure
    /// upscale, 2 a pure downscale, 3 the copy path, and 4 a crop drawn the
    /// way `RandomResizedCrop` draws one (area 8–100 % of a source up to
    /// 500 px a side, log-uniform aspect 3/4–4/3) into 224×224.
    fn geometry(kind: u8, [a, b, c, d]: [u32; 4], scale: f64, ratio: f64) -> [u32; 4] {
        match kind {
            0 if a % 2 == 0 => [1, 1, c, d],
            0 => [a, b, 1, 1],
            1 => [a.min(c), b.min(d), a.max(c), b.max(d)],
            2 => [a.max(c), b.max(d), a.min(c), b.min(d)],
            3 => [a, b, a, b],
            _ => {
                let (width, height) = (a * 5, b * 5);
                let area = f64::from(width * height) * (0.08 + 0.92 * scale);
                let (lo, hi) = ((3.0f64 / 4.0).ln(), (4.0f64 / 3.0).ln());
                let ratio = (lo + (hi - lo) * ratio).exp();
                let w = ((area * ratio).sqrt().round() as u32).clamp(1, width);
                let h = ((area / ratio).sqrt().round() as u32).clamp(1, height);
                [w, h, 224, 224]
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The gathered horizontal pass gives every sample of every row the
        /// per-pixel loop's `f64` bit for bit, and the resizer every byte of
        /// the reference resize, on random bytes.
        #[test]
        fn gather_then_lerp_matches_the_per_pixel_oracle(
            kind in 0u8..5,
            sides in (1u32..=100, 1u32..=100, 1u32..=100, 1u32..=100),
            scale in 0f64..1.0,
            ratio in 0f64..1.0,
            seed in any::<u64>(),
        ) {
            let [sw, sh, nw, nh] = geometry(kind, [sides.0, sides.1, sides.2, sides.3], scale, ratio);
            let mut rng = Rng::seed_from_u64(seed);
            let raw = (0..sw * sh * CHANNELS as u32).map(|_| rng.next_u64() as u8).collect();
            let img = RasterImage::from_raw(sw, sh, raw).unwrap();
            let mut columns = Columns::new(sw, nw);
            let mut lerped = vec![0f64; nw as usize * CHANNELS];
            for row in img.as_raw().chunks_exact(sw as usize * CHANNELS) {
                columns.lerp(row, &mut lerped);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&lerped), bits(&lerp_reference(row, sw, nw)));
            }
            let out = img.resize_bilinear(nw, nh);
            prop_assert_eq!((out.width(), out.height()), (nw, nh));
            prop_assert_eq!(out.as_raw(), &resize_reference(&img, nw, nh)[..]);
        }
    }

    #[test]
    #[should_panic(expected = "every source row must be pushed")]
    fn finishing_before_the_last_row_panics() {
        let mut resizer = BilinearResizer::new(4, 3, 8, 8);
        resizer.push_row(&[0; 12]);
        resizer.push_row(&[0; 12]);
        let _ = resizer.finish();
    }

    #[test]
    #[should_panic(expected = "more rows than the source height")]
    fn a_row_past_the_source_height_panics() {
        let mut resizer = BilinearResizer::new(2, 1, 1, 1);
        resizer.push_row(&[0; 6]);
        resizer.push_row(&[0; 6]);
    }

    #[test]
    fn a_strong_downscale_depends_only_on_the_rows_it_reads() {
        // 1 000 rows into 2: the two output rows read source rows 249/250
        // and 749/750, so every other row may be anything.
        let mut resizer = BilinearResizer::new(1, 1000, 1, 2);
        for y in 0..1000u32 {
            let v = match y {
                249 | 250 => 10,
                749 | 750 => 200,
                _ => 255 - (y % 7) as u8,
            };
            resizer.push_row(&[v; 3]);
        }
        assert_eq!(resizer.finish().as_raw(), &[10, 10, 10, 200, 200, 200]);
    }
}
