use imagery::RasterImage;

use crate::header::Header;
use crate::{color, dct, entropy, quant, Quality, BLOCK, BLOCK_AREA};

/// Encodes a raster image to a classic SJPG stream at the given quality.
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
    let header = Header { width: img.width(), height: img.height(), quality };
    let mut out = header.to_bytes().to_vec();
    // Each block goes straight into its plane's stream; the planes are
    // stored one after the other.
    let mut planes: [Vec<u8>; 3] = Default::default();
    let mut dc_preds = [0i16; 3];
    for_each_quantized_block(img, quality, |p, zz| {
        entropy::encode_block(zz, &mut dc_preds[p], &mut planes[p]);
    });
    planes.iter().for_each(|plane| out.extend_from_slice(plane));
    out
}

/// [`for_each_block`] through the forward DCT and quantization into zigzag
/// order (luma table for plane 0, chroma table for planes 1 and 2).
pub(crate) fn for_each_quantized_block(
    img: &RasterImage,
    quality: Quality,
    mut visit: impl FnMut(usize, &[i16; BLOCK_AREA]),
) {
    let luma = quality.luma_table().map(f32::from);
    let chroma = quality.chroma_table().map(f32::from);
    for_each_block(img, |p, block| {
        let steps = if p == 0 { &luma } else { &chroma };
        visit(p, &quant::quantize_zigzag(&dct::forward(block), steps));
    });
}

/// Visits every 8×8 block of the image's Y, Cb and Cr planes, level-shifted
/// by -128, as `visit(plane, block)`: in scan order, the three planes'
/// blocks at each block position one after the other. Each block is built
/// straight from the RGB raster; no plane is materialized.
///
/// Every sample equals, bit for bit, converting whole planes first and then
/// cutting blocks out of them (the oracle in the tests): it is computed by
/// the same `f32` operations. Past the right and bottom edges a plane's
/// last column and row are replicated.
fn for_each_block(img: &RasterImage, mut visit: impl FnMut(usize, &[f32; BLOCK_AREA])) {
    let (w, h) = (img.width() as usize, img.height() as usize);
    let raw = img.as_raw();
    // The block's sample indices along one axis, clamped to the image.
    let clamped =
        |b: usize, extent: usize| (b * BLOCK..b * BLOCK + BLOCK).map(move |s| s.min(extent - 1));
    for by in 0..h.div_ceil(BLOCK) {
        for bx in 0..w.div_ceil(BLOCK) {
            let mut ycc = [[0f32; BLOCK_AREA]; 3];
            let samples = clamped(by, h).flat_map(|y| clamped(bx, w).map(move |x| (x, y)));
            for (i, (x, y)) in samples.enumerate() {
                let o = (y * w + x) * 3;
                let [l, cb, cr] = color::rgb_to_ycbcr(raw[o], raw[o + 1], raw[o + 2]);
                ycc[0][i] = l - 128.0;
                ycc[1][i] = cb - 128.0;
                ycc[2][i] = cr - 128.0;
            }
            for (p, block) in ycc.iter().enumerate() {
                visit(p, block);
            }
        }
    }
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
        // The header plus ~3 bytes for each coefficient of every block.
        let blocks = 100usize.div_ceil(8) * 80usize.div_ceil(8);
        assert!(bytes.len() <= crate::header::HEADER_LEN + blocks * 3 * (BLOCK_AREA * 3 + 2));
    }

    /// The plane-by-plane form [`for_each_block`] is checked against, as
    /// bits: whole Y, Cb and Cr planes, each block cut out with edge
    /// replication.
    fn textbook_blocks(img: &RasterImage) -> [Vec<[u32; BLOCK_AREA]>; 3] {
        let (w, h) = (img.width(), img.height());
        let mut planes: [Plane; 3] = std::array::from_fn(|_| Plane::new(w, h));
        for (y, x) in (0..h).flat_map(|y| (0..w).map(move |x| (y, x))) {
            let Rgb { r, g, b } = img.pixel(x, y);
            for (plane, v) in planes.iter_mut().zip(color::rgb_to_ycbcr(r, g, b)) {
                plane.set(x, y, v);
            }
        }
        planes.map(|p| {
            let sample = |bx: u32, by: u32, i: u32| {
                let (x, y) = ((bx * 8 + i % 8).min(w - 1), (by * 8 + i / 8).min(h - 1));
                (p.get(x, y) - 128.0).to_bits()
            };
            (0..h.div_ceil(8))
                .flat_map(|by| (0..w.div_ceil(8)).map(move |bx| (bx, by)))
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
            let mut streamed: [Vec<_>; 3] = Default::default();
            for_each_block(&img, |p, block| streamed[p].push(block.map(f32::to_bits)));
            assert!(streamed == textbook_blocks(&img), "{w}x{h}");
        }
    }
}
