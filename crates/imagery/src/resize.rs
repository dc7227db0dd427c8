//! Bilinear resizing, one source row at a time.

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
    /// Per output column: the byte offsets of its two source pixels and
    /// the horizontal weight. Empty for the copy path.
    columns: Vec<(usize, usize, f64)>,
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
                columns: Vec::new(),
                rows: Vec::new(),
                kept: Default::default(),
                next_src: 0,
                next_out: 0,
                data,
            };
        }
        // Scale factors mapping destination pixel centers into source space.
        let sx = f64::from(src_width) / f64::from(new_width);
        let sy = f64::from(src_height) / f64::from(new_height);
        let columns = (0..new_width)
            .map(|dx| {
                let (x0, x1, wx) = taps(dx, sx, src_width);
                (x0 * CHANNELS, x1 * CHANNELS, wx)
            })
            .collect();
        BilinearResizer {
            src_width,
            src_height,
            columns,
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
        if self.columns.is_empty() {
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
        for (out, &(o0, o1, wx)) in samples.chunks_exact_mut(CHANNELS).zip(&self.columns) {
            for c in 0..CHANNELS {
                let (left, right) = (f64::from(row[o0 + c]), f64::from(row[o1 + c]));
                out[c] = left + (right - left) * wx;
            }
        }
        let out_row_len = self.columns.len() * CHANNELS;
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
        let (width, height) = if self.columns.is_empty() {
            (self.src_width, self.src_height)
        } else {
            (self.columns.len() as u32, self.rows.len() as u32)
        };
        RasterImage::from_raw(width, height, self.data).expect("buffer sized from the target")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
