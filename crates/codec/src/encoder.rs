use imagery::RasterImage;

use crate::bits::BitWriter;
use crate::header::Header;
use crate::{
    color, dct, entropy, entropy_huff, quant, EncodeOptions, EntropyMode, Quality, Subsampling,
    BLOCK, BLOCK_AREA,
};

/// Encodes a raster image to SJPG bytes at the given quality with the
/// calibrated default options (4:4:4 chroma, byte-aligned RLE entropy).
///
/// The output size is content-dependent: smooth images quantize to mostly
/// zero coefficients and compress far below their raw size, while noisy
/// images retain many AC coefficients.
///
/// ```
/// use imagery::synth::SynthSpec;
/// use codec::{encode, Quality};
///
/// let smooth = SynthSpec::new(256, 256).complexity(0.0).blobs(2).render(1);
/// let noisy = SynthSpec::new(256, 256).complexity(1.0).render(1);
/// let s = encode(&smooth, Quality::default()).len();
/// let n = encode(&noisy, Quality::default()).len();
/// assert!(n > s * 2, "noisy {n} should dwarf smooth {s}");
/// ```
pub fn encode(img: &RasterImage, quality: Quality) -> Vec<u8> {
    encode_with(img, &EncodeOptions::new(quality))
}

/// Encodes with full control over subsampling and entropy backend.
///
/// ```
/// use imagery::synth::SynthSpec;
/// use codec::{encode_with, decode, EncodeOptions, EntropyMode, Quality, Subsampling};
///
/// let img = SynthSpec::new(320, 240).complexity(0.5).render(1);
/// let opts = EncodeOptions::new(Quality::default())
///     .subsampling(Subsampling::S420)
///     .entropy(EntropyMode::Huffman);
/// let bytes = encode_with(&img, &opts);
/// let back = decode(&bytes)?;
/// assert_eq!((back.width(), back.height()), (320, 240));
/// # Ok::<(), codec::CodecError>(())
/// ```
pub fn encode_with(img: &RasterImage, opts: &EncodeOptions) -> Vec<u8> {
    let (w, h) = (img.width(), img.height());
    let header = Header { width: w, height: h, quality: opts.quality.value(), flags: opts.flags() };
    let mut out = header.to_bytes().to_vec();

    match opts.entropy {
        EntropyMode::RleVarint => {
            // Each block goes straight into its plane's stream; the planes
            // are stored one after the other.
            let mut planes: [Vec<u8>; 3] = Default::default();
            let mut dc_preds = [0i16; 3];
            for_each_quantized_block(img, opts.subsampling, opts.quality, |p, zz| {
                entropy::encode_block(zz, &mut dc_preds[p], &mut planes[p]);
            });
            planes.iter().for_each(|plane| out.extend_from_slice(plane));
        }
        EntropyMode::Huffman => {
            let mut quantized: [Vec<[i16; BLOCK_AREA]>; 3] = Default::default();
            for_each_quantized_block(img, opts.subsampling, opts.quality, |p, zz| {
                quantized[p].push(*zz);
            });
            // Adaptive tables: one pair for luma, one shared by both chroma
            // planes.
            let luma_tables = entropy_huff::count_frequencies(&[&quantized[0]]).build();
            let chroma_tables =
                entropy_huff::count_frequencies(&[&quantized[1], &quantized[2]]).build();
            luma_tables.dc.serialize(&mut out);
            luma_tables.ac.serialize(&mut out);
            chroma_tables.dc.serialize(&mut out);
            chroma_tables.ac.serialize(&mut out);
            let mut writer = BitWriter::new();
            entropy_huff::encode_plane(&quantized[0], &luma_tables, &mut writer);
            entropy_huff::encode_plane(&quantized[1], &chroma_tables, &mut writer);
            entropy_huff::encode_plane(&quantized[2], &chroma_tables, &mut writer);
            let stream = writer.finish();
            out.extend_from_slice(&(stream.len() as u32).to_le_bytes());
            out.extend_from_slice(&stream);
        }
    }
    out
}

/// Chroma plane dimensions for an image size and subsampling mode.
pub(crate) fn chroma_dims(w: u32, h: u32, subsampling: Subsampling) -> (u32, u32) {
    match subsampling {
        Subsampling::S444 => (w, h),
        Subsampling::S420 => (w.div_ceil(2), h.div_ceil(2)),
    }
}

/// [`for_each_block`] through the forward DCT and quantization into zigzag
/// order (luma table for plane 0, chroma table for planes 1 and 2).
pub(crate) fn for_each_quantized_block(
    img: &RasterImage,
    subsampling: Subsampling,
    quality: Quality,
    mut visit: impl FnMut(usize, &[i16; BLOCK_AREA]),
) {
    let luma = quality.luma_table().map(f32::from);
    let chroma = quality.chroma_table().map(f32::from);
    for_each_block(img, subsampling, |p, block| {
        let steps = if p == 0 { &luma } else { &chroma };
        visit(p, &quant::quantize_zigzag(&dct::forward(block), steps));
    });
}

/// Visits every 8×8 block of the image's Y, Cb and Cr planes, level-shifted
/// by -128, as `visit(plane, block)`: in scan order within each plane, the
/// planes interleaved a row of MCUs (8 pixel rows, 16 with 4:2:0) at a
/// time. Each block is built straight from the RGB raster; no plane is
/// materialized.
///
/// Every sample equals, bit for bit, converting whole planes first and then
/// cutting blocks out of them (the oracle in the tests): it is computed by
/// the same `f32` operations. Past the right and bottom edges a plane's
/// last column and row are replicated. A chroma sample is the mean of its
/// 1×1 (4:4:4) or 2×2 (4:2:0) bin of pixels, clipped at the image border:
/// summed from `0.0` in row-major order, then divided by the pixel count.
fn for_each_block(
    img: &RasterImage,
    subsampling: Subsampling,
    mut visit: impl FnMut(usize, &[f32; BLOCK_AREA]),
) {
    let bin = if subsampling == Subsampling::S420 { 2 } else { 1 };
    let (w, h) = (img.width() as usize, img.height() as usize);
    let (cw, ch) = (w.div_ceil(bin), h.div_ceil(bin));
    let raw = img.as_raw();
    let pixel = |x: usize, y: usize| {
        let o = (y * w + x) * 3;
        color::rgb_to_ycbcr(raw[o], raw[o + 1], raw[o + 2])
    };
    // The numbered `(x, y)` samples of block `(bx, by)` of a `w × h` plane.
    let samples = |by: usize, bx: usize, (w, h): (usize, usize)| {
        let clamped = |b: usize, extent: usize| {
            (b * BLOCK..b * BLOCK + BLOCK).map(move |s| s.min(extent - 1))
        };
        clamped(by, h).flat_map(move |y| clamped(bx, w).map(move |x| (x, y))).enumerate()
    };
    for mcu_row in 0..ch.div_ceil(BLOCK) {
        for by in mcu_row * bin..((mcu_row + 1) * bin).min(h.div_ceil(BLOCK)) {
            for bx in 0..w.div_ceil(BLOCK) {
                // With 4:4:4 a chroma bin is one pixel: its sum `0.0 + cb`
                // divided by a count of one, which is exact and left out.
                let mut ycc = [[0f32; BLOCK_AREA]; 3];
                for (i, (x, y)) in samples(by, bx, (w, h)) {
                    let [l, cb, cr] = pixel(x, y);
                    ycc[0][i] = l - 128.0;
                    ycc[1][i] = 0.0 + cb - 128.0;
                    ycc[2][i] = 0.0 + cr - 128.0;
                }
                visit(0, &ycc[0]);
                if bin == 1 {
                    visit(1, &ycc[1]);
                    visit(2, &ycc[2]);
                }
            }
        }
        // 4:2:0 chroma comes a row of blocks per MCU row, each sample a bin.
        for bx in (0..cw.div_ceil(BLOCK)).filter(|_| bin == 2) {
            let mut chroma = [[0f32; BLOCK_AREA]; 2];
            for (i, (cx, cy)) in samples(mcu_row, bx, (cw, ch)) {
                let (mut sums, mut count) = ([0f32; 2], 0u32);
                for y in cy * bin..(cy * bin + bin).min(h) {
                    for x in cx * bin..(cx * bin + bin).min(w) {
                        let [_, cb, cr] = pixel(x, y);
                        sums[0] += cb;
                        sums[1] += cr;
                        count += 1;
                    }
                }
                for (plane, sum) in chroma.iter_mut().zip(sums) {
                    plane[i] = sum / count as f32 - 128.0;
                }
            }
            visit(1, &chroma[0]);
            visit(2, &chroma[1]);
        }
    }
}

/// Estimated upper bound on encoded size for capacity planning: header plus
/// a worst case of ~3 bytes per coefficient.
pub fn worst_case_len(width: u32, height: u32) -> usize {
    let blocks = (width.div_ceil(8) as usize) * (height.div_ceil(8) as usize);
    crate::header::HEADER_LEN + blocks * 3 * (BLOCK_AREA * 3 + 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Plane;
    use crate::decode;
    use imagery::synth::SynthSpec;
    use imagery::Rgb;

    #[test]
    fn constant_image_compresses_hard() {
        let img = RasterImage::filled(128, 128, Rgb::gray(90));
        let bytes = encode(&img, Quality::default());
        // 16x16 blocks * 3 planes * 2 bytes + header = ~1.5 KB max.
        assert!(bytes.len() < 2048, "constant image encoded to {} bytes", bytes.len());
        assert!(bytes.len() < img.raw_len() / 20);
    }

    #[test]
    fn encode_size_tracks_complexity() {
        let q = Quality::default();
        let sizes: Vec<usize> = [0.0, 0.33, 0.66, 1.0]
            .iter()
            .map(|&c| {
                let img = SynthSpec::new(224, 224).complexity(c).render(7);
                encode(&img, q).len()
            })
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "sizes should be increasing: {sizes:?}");
    }

    #[test]
    fn quality_tracks_size() {
        let img = SynthSpec::new(160, 160).complexity(0.6).render(3);
        let lo = encode(&img, Quality::new(30).unwrap()).len();
        let hi = encode(&img, Quality::new(95).unwrap()).len();
        assert!(hi > lo, "higher quality should be larger: {lo} vs {hi}");
    }

    #[test]
    fn reconstruction_is_visually_close() {
        let img = SynthSpec::new(96, 64).complexity(0.2).render(5);
        let back = decode(&encode(&img, Quality::new(90).unwrap())).unwrap();
        assert_eq!((back.width(), back.height()), (96, 64));
        // PSNR-style check: mean absolute error below 6/255.
        let mut err = 0u64;
        for (a, b) in img.as_raw().iter().zip(back.as_raw().iter()) {
            err += u64::from(a.abs_diff(*b));
        }
        let mae = err as f64 / img.raw_len() as f64;
        assert!(mae < 6.0, "mean absolute error too high: {mae}");
    }

    #[test]
    fn non_multiple_of_eight_dimensions() {
        let img = SynthSpec::new(37, 61).complexity(0.4).render(9);
        let back = decode(&encode(&img, Quality::default())).unwrap();
        assert_eq!((back.width(), back.height()), (37, 61));
    }

    #[test]
    fn encoded_under_worst_case() {
        let img = SynthSpec::new(100, 80).complexity(1.0).render(2);
        let bytes = encode(&img, Quality::new(100).unwrap());
        assert!(bytes.len() <= worst_case_len(100, 80));
    }

    #[test]
    fn huffman_mode_is_smaller_and_roundtrips() {
        let img = SynthSpec::new(320, 240).complexity(0.6).render(4);
        let rle = encode(&img, Quality::default());
        let huff = encode_with(
            &img,
            &EncodeOptions::new(Quality::default()).entropy(EntropyMode::Huffman),
        );
        assert!(huff.len() < rle.len(), "huffman {} should beat rle {}", huff.len(), rle.len());
        let a = decode(&rle).unwrap();
        let b = decode(&huff).unwrap();
        // Identical quantized data, identical reconstruction.
        assert_eq!(a, b);
    }

    #[test]
    fn subsampling_shrinks_output_with_small_extra_error() {
        let img = SynthSpec::new(256, 192).complexity(0.5).render(6);
        let full = encode(&img, Quality::default());
        let sub = encode_with(
            &img,
            &EncodeOptions::new(Quality::default()).subsampling(Subsampling::S420),
        );
        // Chroma is already heavily quantized at quality 85, so 4:2:0's
        // saving on synthetic noise is modest but must be real.
        assert!(
            (sub.len() as f64) < full.len() as f64 * 0.95,
            "4:2:0 {} vs 4:4:4 {}",
            sub.len(),
            full.len()
        );
        let back = decode(&sub).unwrap();
        let mut err = 0u64;
        for (a, b) in img.as_raw().iter().zip(back.as_raw().iter()) {
            err += u64::from(a.abs_diff(*b));
        }
        let mae = err as f64 / img.raw_len() as f64;
        assert!(mae < 12.0, "4:2:0 mean absolute error too high: {mae}");
    }

    #[test]
    fn all_four_modes_roundtrip_dimensions() {
        let img = SynthSpec::new(99, 55).complexity(0.7).render(8);
        for sub in [Subsampling::S444, Subsampling::S420] {
            for ent in [EntropyMode::RleVarint, EntropyMode::Huffman] {
                let opts = EncodeOptions::new(Quality::default()).subsampling(sub).entropy(ent);
                let back = decode(&encode_with(&img, &opts)).unwrap();
                assert_eq!((back.width(), back.height()), (99, 55), "mode {sub:?}/{ent:?}");
            }
        }
    }

    /// The plane-by-plane form [`for_each_block`] is checked against, as
    /// bits: whole Y, Cb and Cr planes (chroma summed into its bins in
    /// raster order, then divided), each block cut out with edge
    /// replication.
    fn textbook_blocks(img: &RasterImage, sub: Subsampling) -> [Vec<[u32; BLOCK_AREA]>; 3] {
        let (w, h) = (img.width(), img.height());
        let (cw, ch) = chroma_dims(w, h, sub);
        let bin = if sub == Subsampling::S420 { 2 } else { 1 };
        let mut planes = [Plane::new(w, h), Plane::new(cw, ch), Plane::new(cw, ch)];
        let mut counts = Plane::new(cw, ch);
        for (y, x) in (0..h).flat_map(|y| (0..w).map(move |x| (y, x))) {
            let Rgb { r, g, b } = img.pixel(x, y);
            let [l, cb, cr] = color::rgb_to_ycbcr(r, g, b);
            planes[0].set(x, y, l);
            let (cx, cy) = (x / bin, y / bin);
            for (plane, v) in [(1, cb), (2, cr)] {
                planes[plane].set(cx, cy, planes[plane].get(cx, cy) + v);
            }
            counts.set(cx, cy, counts.get(cx, cy) + 1.0);
        }
        for (cy, cx) in (0..ch).flat_map(|y| (0..cw).map(move |x| (y, x))) {
            for plane in &mut planes[1..] {
                plane.set(cx, cy, plane.get(cx, cy) / counts.get(cx, cy));
            }
        }
        let [luma, cb, cr] = planes;
        [(luma, w, h), (cb, cw, ch), (cr, cw, ch)].map(|(p, pw, ph)| {
            let sample = |bx: u32, by: u32, i: u32| {
                let (x, y) = ((bx * 8 + i % 8).min(pw - 1), (by * 8 + i / 8).min(ph - 1));
                (p.get(x, y) - 128.0).to_bits()
            };
            (0..ph.div_ceil(8))
                .flat_map(|by| (0..pw.div_ceil(8)).map(move |bx| (bx, by)))
                .map(|(bx, by)| std::array::from_fn(|i| sample(bx, by, i as u32)))
                .collect()
        })
    }

    #[test]
    fn streamed_blocks_are_bit_identical_to_the_plane_by_plane_form() {
        let sizes =
            [(1, 1), (1, 9), (9, 1), (7, 5), (16, 16), (17, 9), (37, 61), (75, 53), (203, 131)];
        for (w, h) in sizes {
            let img = SynthSpec::new(w, h).complexity(0.8).render(u64::from(w + h));
            for sub in [Subsampling::S444, Subsampling::S420] {
                let mut streamed: [Vec<_>; 3] = Default::default();
                for_each_block(&img, sub, |p, block| streamed[p].push(block.map(f32::to_bits)));
                assert!(streamed == textbook_blocks(&img, sub), "{w}x{h} {sub:?}");
            }
        }
    }

    #[test]
    fn chroma_dims_computed() {
        assert_eq!(chroma_dims(100, 50, Subsampling::S444), (100, 50));
        assert_eq!(chroma_dims(100, 50, Subsampling::S420), (50, 25));
        assert_eq!(chroma_dims(101, 51, Subsampling::S420), (51, 26));
    }
}
