//! Progressive, tier-truncatable SJPG streams ("brownout" encodings).
//!
//! A classic SJPG stream is all-or-nothing: every byte is needed before a
//! single pixel decodes. This module adds a **version-3** stream layout in
//! which one stored encoding is truncatable at well-defined *tier
//! boundaries*: the zigzag spectrum is split into frequency bands
//! (spectral selection, as in progressive JPEG), each band is
//! entropy-coded as its own scan over all three planes, and a fixed-width
//! directory right after the header records where every tier ends and the
//! PSNR a decoder will see if the stream is cut there.
//!
//! The point is *graceful degradation on the wire*: a storage server under
//! link pressure can serve `&bytes[..index.end_offset(t)]` for any tier
//! `t` — no re-encode, no second copy — and the client still decodes a
//! coherent (merely softer) image. [`decode_tiered`] accepts any prefix
//! that ends exactly on a tier boundary and reports which tier it got;
//! prefixes cut anywhere else are rejected with a typed
//! [`DecodeError::OffTierBoundary`], never a panic.
//!
//! Layout after the 15-byte header (version byte
//! [`FORMAT_VERSION_TIERED`]):
//!
//! ```text
//! tier_count: u8
//! tier_count × { band_end: u8, end_offset: u32 LE, psnr_centi_db: u32 LE }
//! scan 0: plane Y, Cb, Cr — coefficients [0, band_end[0])  (DC predicted)
//! scan 1: plane Y, Cb, Cr — coefficients [band_end[0], band_end[1])
//! ...
//! ```
//!
//! `end_offset` is absolute from the start of the stream, so
//! `data[..end_offset]` is exactly the valid tier-`t` prefix. PSNR is
//! measured at encode time by reconstructing each prefix, stored in
//! centi-dB (`u32::MAX` = lossless/infinite).

use std::fmt;

use imagery::{metrics, RasterImage, Rect};

use crate::decoder::{Region, RegionBlocks};
use crate::encoder::for_each_quantized_block;
use crate::header::{Header, FORMAT_VERSION_TIERED, HEADER_LEN};
use crate::{entropy, CodecError, Quality, BLOCK_AREA};

/// Maximum number of tiers a stream may declare.
pub const MAX_TIERS: usize = 8;

/// Serialized size of one tier directory entry.
const TIER_ENTRY_LEN: usize = 1 + 4 + 4;

/// Errors produced while decoding a tiered SJPG stream.
///
/// Wraps [`CodecError`] (reachable through
/// [`std::error::Error::source`]) for defects shared with the classic
/// format, and adds tier-specific variants.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The underlying SJPG structure (magic, header, varints, runs) is
    /// defective; the inner error carries the detail.
    Codec(CodecError),
    /// The stream carries a valid SJPG version byte that is not the tiered
    /// one — e.g. a classic version-2 stream fed to the tiered decoder.
    NotTiered {
        /// The version byte found.
        version: u8,
    },
    /// The declared tier count is zero or exceeds [`MAX_TIERS`].
    BadTierCount {
        /// The declared count.
        count: u8,
    },
    /// Tier band ends must be strictly increasing and finish at
    /// [`BLOCK_AREA`].
    BadTierBands {
        /// The offending tier.
        tier: u8,
        /// Its declared band end.
        band_end: u8,
    },
    /// Tier end offsets must be strictly increasing and start past the
    /// directory.
    BadTierOffsets {
        /// The offending tier.
        tier: u8,
        /// Its declared end offset.
        offset: u32,
    },
    /// The prefix does not end exactly on a tier boundary.
    OffTierBoundary {
        /// Length of the prefix that was offered.
        len: usize,
        /// The largest tier boundary at or below `len`, if any.
        boundary: Option<u32>,
    },
    /// A tier's scan data did not end at its directory-declared offset.
    TierMisaligned {
        /// The misaligned tier.
        tier: u8,
        /// The offset the directory declared.
        expected: u32,
        /// Where the scan actually ended.
        actual: usize,
    },
    /// A tier index was requested that the stream does not contain.
    UnknownTier {
        /// The requested tier.
        tier: u8,
        /// How many tiers the stream declares.
        tiers: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Codec(_) => write!(f, "tiered stream has a defective SJPG structure"),
            DecodeError::NotTiered { version } => {
                write!(f, "SJPG version {version} is not a tiered stream")
            }
            DecodeError::BadTierCount { count } => {
                write!(f, "tier count {count} outside 1..={MAX_TIERS}")
            }
            DecodeError::BadTierBands { tier, band_end } => {
                write!(f, "tier {tier} band end {band_end} breaks the strictly increasing ladder")
            }
            DecodeError::BadTierOffsets { tier, offset } => {
                write!(f, "tier {tier} end offset {offset} breaks the strictly increasing ladder")
            }
            DecodeError::OffTierBoundary { len, boundary } => match boundary {
                Some(b) => write!(
                    f,
                    "prefix of {len} bytes does not end on a tier boundary (previous is {b})"
                ),
                None => write!(f, "prefix of {len} bytes ends before the first tier boundary"),
            },
            DecodeError::TierMisaligned { tier, expected, actual } => {
                write!(f, "tier {tier} scan ended at byte {actual}, directory says {expected}")
            }
            DecodeError::UnknownTier { tier, tiers } => {
                write!(f, "tier {tier} requested from a {tiers}-tier stream")
            }
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Codec(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<CodecError> for DecodeError {
    fn from(e: CodecError) -> DecodeError {
        DecodeError::Codec(e)
    }
}

/// How an encoder should slice the zigzag spectrum into tiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierSpec {
    band_ends: Vec<u8>,
}

impl TierSpec {
    /// A spec with explicit band ends (exclusive zigzag bounds), strictly
    /// increasing and finishing at [`BLOCK_AREA`].
    ///
    /// # Panics
    ///
    /// Panics when the ladder is empty, longer than [`MAX_TIERS`], not
    /// strictly increasing, or does not end at [`BLOCK_AREA`]
    /// (construction-time invariants).
    pub fn new(band_ends: Vec<u8>) -> TierSpec {
        assert!(
            !band_ends.is_empty() && band_ends.len() <= MAX_TIERS,
            "tier ladder must hold 1..={MAX_TIERS} bands"
        );
        assert!(
            band_ends.windows(2).all(|w| w[0] < w[1]),
            "tier band ends must be strictly increasing: {band_ends:?}"
        );
        assert_eq!(
            *band_ends.last().expect("non-empty") as usize,
            BLOCK_AREA,
            "last tier must cover the full spectrum"
        );
        TierSpec { band_ends }
    }

    /// The exclusive zigzag bound of each tier.
    pub(crate) fn band_ends(&self) -> &[u8] {
        &self.band_ends
    }

    /// Number of tiers.
    pub fn tiers(&self) -> usize {
        self.band_ends.len()
    }
}

impl Default for TierSpec {
    /// Three tiers: DC + the lowest AC band (sharp thumbnail), a mid band,
    /// and the full spectrum.
    fn default() -> TierSpec {
        TierSpec::new(vec![6, 20, BLOCK_AREA as u8])
    }
}

/// One tier's boundary in a stream: where it ends and what it is worth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierBound {
    /// Tier index (0 = coarsest).
    pub(crate) tier: u8,
    /// Exclusive zigzag coefficient bound this tier completes.
    pub(crate) band_end: u8,
    /// Absolute byte offset at which this tier's data ends:
    /// `data[..end_offset]` is the valid tier prefix.
    pub end_offset: u32,
    /// Expected reconstruction PSNR (dB) when the stream is cut here, as
    /// measured against the source image at encode time
    /// (`f64::INFINITY` for a lossless cut).
    pub psnr_db: f64,
}

/// The tier directory of a tiered stream: byte offsets and expected PSNR
/// per tier, plus the header facts a server needs to truncate without
/// decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct TierIndex {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Quality the stream was encoded with.
    pub(crate) quality: Quality,
    /// Per-tier boundaries, coarsest first.
    pub tiers: Vec<TierBound>,
}

impl TierIndex {
    /// Parses the header and tier directory from the front of a tiered
    /// stream. Needs only `HEADER_LEN + 1 + tiers × 9` bytes, so a server
    /// can index an object without reading scan data.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::NotTiered`] for classic streams,
    /// [`DecodeError::Codec`] for header defects (a nonzero flags byte
    /// included), and the tier-directory variants for a defective
    /// directory.
    pub fn parse(data: &[u8]) -> Result<TierIndex, DecodeError> {
        let header = match Header::parse_with_version(data, FORMAT_VERSION_TIERED) {
            Ok(h) => h,
            Err(CodecError::UnsupportedVersion(v)) => {
                return Err(DecodeError::NotTiered { version: v })
            }
            Err(e) => return Err(DecodeError::Codec(e)),
        };
        let count =
            *data.get(HEADER_LEN).ok_or(CodecError::Truncated { offset: data.len() })? as usize;
        if count == 0 || count > MAX_TIERS {
            return Err(DecodeError::BadTierCount { count: count as u8 });
        }
        let dir_end = HEADER_LEN + 1 + count * TIER_ENTRY_LEN;
        if data.len() < dir_end {
            return Err(DecodeError::Codec(CodecError::Truncated { offset: data.len() }));
        }
        let mut tiers = Vec::with_capacity(count);
        let mut prev_band = 0u8;
        let mut prev_off = dir_end as u32;
        for t in 0..count {
            let at = HEADER_LEN + 1 + t * TIER_ENTRY_LEN;
            let band_end = data[at];
            let end_offset =
                u32::from_le_bytes(data[at + 1..at + 5].try_into().expect("sliced 4 bytes"));
            let psnr_cdb =
                u32::from_le_bytes(data[at + 5..at + 9].try_into().expect("sliced 4 bytes"));
            if band_end <= prev_band || band_end as usize > BLOCK_AREA {
                return Err(DecodeError::BadTierBands { tier: t as u8, band_end });
            }
            if end_offset <= prev_off {
                return Err(DecodeError::BadTierOffsets { tier: t as u8, offset: end_offset });
            }
            prev_band = band_end;
            prev_off = end_offset;
            let psnr_db =
                if psnr_cdb == u32::MAX { f64::INFINITY } else { f64::from(psnr_cdb) / 100.0 };
            tiers.push(TierBound { tier: t as u8, band_end, end_offset, psnr_db });
        }
        if tiers.last().expect("count >= 1").band_end as usize != BLOCK_AREA {
            return Err(DecodeError::BadTierBands { tier: (count - 1) as u8, band_end: prev_band });
        }
        Ok(TierIndex { width: header.width, height: header.height, quality: header.quality, tiers })
    }

    /// Number of tiers in the stream.
    pub fn tier_count(&self) -> u8 {
        self.tiers.len() as u8
    }

    /// Index of the full-fidelity tier.
    pub fn full_tier(&self) -> u8 {
        (self.tiers.len() - 1) as u8
    }

    /// Byte offset at which tier `tier`'s prefix ends.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnknownTier`] when `tier` is out of range.
    pub fn end_offset(&self, tier: u8) -> Result<u32, DecodeError> {
        self.tiers
            .get(tier as usize)
            .map(|b| b.end_offset)
            .ok_or(DecodeError::UnknownTier { tier, tiers: self.tier_count() })
    }
}

/// A tiered decode result: the image plus how much of the ladder it used.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredImage {
    /// The reconstructed image.
    pub image: RasterImage,
    /// The highest tier the prefix completed (0 = coarsest).
    pub tier: u8,
    /// The stream's tier directory.
    pub index: TierIndex,
}

/// Encodes a raster image as a tiered (version-3) stream.
///
/// PSNR per tier is measured on the spot: each prefix's reconstruction is
/// compared against `img` and the result stored in the directory, so
/// downstream planners can trade bytes against fidelity without decoding.
pub fn encode_tiered(img: &RasterImage, quality: Quality, spec: &TierSpec) -> Vec<u8> {
    let (w, h) = (img.width(), img.height());
    let mut quantized: [Vec<[i16; BLOCK_AREA]>; 3] = Default::default();
    for_each_quantized_block(img, quality, |p, zz| quantized[p].push(*zz));

    let header = Header { width: w, height: h, quality };
    let mut out = header.to_bytes(FORMAT_VERSION_TIERED).to_vec();

    let count = spec.tiers();
    out.push(count as u8);
    let dir_start = out.len();
    out.resize(out.len() + count * TIER_ENTRY_LEN, 0);

    // One scan per band, then the tier's directory entry: where the scan
    // ends and the PSNR of the prefix it completes.
    let whole = Region::new(w, h, None).expect("the full rectangle always fits");
    let mut partial = RegionBlocks {
        quality,
        region: whole,
        planes: quantized.each_ref().map(|plane| vec![[0i16; BLOCK_AREA]; plane.len()]),
    };
    let mut lo = 0usize;
    for (t, &band_end) in spec.band_ends().iter().enumerate() {
        let hi = band_end as usize;
        for (dst_plane, src_plane) in partial.planes.iter_mut().zip(&quantized) {
            let mut dc_pred = 0i16;
            for (dst, src) in dst_plane.iter_mut().zip(src_plane) {
                entropy::encode_band(src, lo, hi, &mut dc_pred, &mut out);
                dst[lo..hi].copy_from_slice(&src[lo..hi]);
            }
        }
        let psnr = metrics::psnr(img, &partial.to_image());
        let psnr_cdb = if psnr.is_finite() {
            (psnr * 100.0).round().clamp(0.0, f64::from(u32::MAX - 1)) as u32
        } else {
            u32::MAX
        };
        let (at, end) = (dir_start + t * TIER_ENTRY_LEN, out.len() as u32);
        out[at] = band_end;
        out[at + 1..at + 5].copy_from_slice(&end.to_le_bytes());
        out[at + 5..at + 9].copy_from_slice(&psnr_cdb.to_le_bytes());
        lo = hi;
    }
    out
}

/// Truncates a tiered stream to its tier-`tier` prefix.
///
/// # Errors
///
/// Returns index-parse errors for defective streams and
/// [`DecodeError::UnknownTier`] / [`DecodeError::Codec`] (truncated) when
/// the request cannot be satisfied.
pub fn truncate_to_tier(data: &[u8], tier: u8) -> Result<&[u8], DecodeError> {
    let index = TierIndex::parse(data)?;
    let end = index.end_offset(tier)? as usize;
    data.get(..end).ok_or(DecodeError::Codec(CodecError::Truncated { offset: data.len() }))
}

/// Cheap sniff: does `data` open with the SJPG magic and the tiered
/// version byte? A `true` answer routes the stream to [`decode_tiered`];
/// it does *not* promise the rest of the stream is well-formed.
pub fn is_tiered(data: &[u8]) -> bool {
    data.len() > 4 && data[..4] == crate::header::FORMAT_MAGIC && data[4] == FORMAT_VERSION_TIERED
}

/// Decodes any prefix of a tiered stream that ends exactly on a tier
/// boundary, returning the image together with the tier it reached.
///
/// # Errors
///
/// Returns [`DecodeError::OffTierBoundary`] for prefixes cut anywhere
/// else, [`DecodeError::NotTiered`] for classic streams, and the shared
/// [`DecodeError::Codec`] variants for structural defects. Never panics
/// and never allocates from header dimensions the stream's length does not
/// bear out, whatever the input.
pub fn decode_tiered(data: &[u8]) -> Result<TieredImage, DecodeError> {
    decode_tiered_in(data, None)
}

/// [`decode_tiered`] for the pixels of `rect` only: `image` equals
/// `decode_tiered(data)?.image.crop(rect)` at the cost of the blocks
/// `rect` overlaps. Every scan is still parsed in full, so every defect
/// [`decode_tiered`] reports is reported here too, at the same offset; the
/// blocks outside `rect`'s block window are stepped over, not decoded.
///
/// # Errors
///
/// As [`decode_tiered`], plus [`CodecError::RegionOutOfBounds`] (wrapped in
/// [`DecodeError::Codec`]) when `rect` is empty or does not fit the
/// header's dimensions.
pub fn decode_tiered_region(data: &[u8], rect: Rect) -> Result<TieredImage, DecodeError> {
    decode_tiered_in(data, Some(rect))
}

/// [`decode_tiered_region`] without the image, as
/// [`crate::decode_region_rows`] is [`crate::decode_region`] without it:
/// the rows of `rect` go to `sink` top to bottom, once every scan up to the
/// prefix's last tier has parsed.
///
/// # Errors
///
/// As [`decode_tiered_region`].
pub fn decode_tiered_region_rows(
    data: &[u8],
    rect: Rect,
    sink: impl FnMut(&[u8]),
) -> Result<(), DecodeError> {
    read_tiered(data, Some(rect))?.0.for_each_row(sink);
    Ok(())
}

fn decode_tiered_in(data: &[u8], rect: Option<Rect>) -> Result<TieredImage, DecodeError> {
    let (blocks, tier, index) = read_tiered(data, rect)?;
    Ok(TieredImage { image: blocks.to_image(), tier, index })
}

/// Parses the tier directory and every scan of the prefix, keeping the
/// blocks of `rect`'s window (the whole image for `None`) and stepping over
/// the rest; returns them with the tier the prefix reached and the
/// directory.
fn read_tiered(
    data: &[u8],
    rect: Option<Rect>,
) -> Result<(RegionBlocks, u8, TierIndex), DecodeError> {
    let index = TierIndex::parse(data)?;
    let Some(reached) = index.tiers.iter().rfind(|b| b.end_offset as usize == data.len()) else {
        let boundary =
            index.tiers.iter().map(|b| b.end_offset).rfind(|&off| (off as usize) <= data.len());
        return Err(DecodeError::OffTierBoundary { len: data.len(), boundary });
    };
    let reached_tier = reached.tier;
    let region = Region::new(index.width, index.height, rect)?;

    let mut pos = HEADER_LEN + 1 + index.tiers.len() * TIER_ENTRY_LEN;
    // In the first scan a block is at least a DC varint and an
    // end-of-block byte.
    let first_end = index.tiers[0].end_offset as usize;
    let mut blocks = region.block_storage(index.quality, (first_end - pos) / 2, first_end)?;
    let mut lo = 0usize;
    for bound in index.tiers.iter().take(reached_tier as usize + 1) {
        let band = (lo, bound.band_end as usize);
        blocks.read_scan(data, &mut pos, band)?;
        if pos != bound.end_offset as usize {
            return Err(DecodeError::TierMisaligned {
                tier: bound.tier,
                expected: bound.end_offset,
                actual: pos,
            });
        }
        lo = band.1;
    }
    Ok((blocks, reached_tier, index))
}

/// The tiered decode of every version before rows streamed, kept as the
/// oracle of the skipping walker and the band reconstructor: every block of
/// every scan is decoded, the window's into its storage and the others
/// into one scratch block.
#[cfg(test)]
pub(crate) fn decode_tiered_reference(
    data: &[u8],
    rect: Option<Rect>,
) -> Result<TieredImage, DecodeError> {
    let index = TierIndex::parse(data)?;
    let Some(reached) = index.tiers.iter().rfind(|b| b.end_offset as usize == data.len()) else {
        let boundary =
            index.tiers.iter().map(|b| b.end_offset).rfind(|&off| (off as usize) <= data.len());
        return Err(DecodeError::OffTierBoundary { len: data.len(), boundary });
    };
    let reached_tier = reached.tier;
    let region = Region::new(index.width, index.height, rect)?;

    let mut pos = HEADER_LEN + 1 + index.tiers.len() * TIER_ENTRY_LEN;
    let first_end = index.tiers[0].end_offset as usize;
    let mut quantized =
        region.block_storage(index.quality, (first_end - pos) / 2, first_end)?.planes;
    let mut outside = [0i16; BLOCK_AREA];
    let mut lo = 0usize;
    for bound in index.tiers.iter().take(reached_tier as usize + 1) {
        let hi = bound.band_end as usize;
        for plane in &mut quantized {
            let mut dc_pred = 0i16;
            region.window.for_each_block(|slot| {
                let zz = slot.map_or(&mut outside, |slot| &mut plane[slot]);
                decode_band_reference(data, &mut pos, lo, hi, &mut dc_pred, zz)
            })?;
        }
        if pos != bound.end_offset as usize {
            return Err(DecodeError::TierMisaligned {
                tier: bound.tier,
                expected: bound.end_offset,
                actual: pos,
            });
        }
        lo = hi;
    }
    Ok(TieredImage {
        image: crate::decoder::reference::reconstruct_region(index.quality, &region, &quantized),
        tier: reached_tier,
        index,
    })
}

/// Decodes one block's band scan for coefficients `[lo, hi)` into `zz`:
/// the storing band walker of [`decode_tiered_reference`], reading every
/// varint with the byte loop.
#[cfg(test)]
fn decode_band_reference(
    data: &[u8],
    pos: &mut usize,
    lo: usize,
    hi: usize,
    dc_pred: &mut i16,
    zz: &mut [i16; BLOCK_AREA],
) -> Result<(), CodecError> {
    let mut idx = lo;
    if lo == 0 {
        let dc = i64::from(*dc_pred).wrapping_add(entropy::read_varint_long(data, pos)?);
        zz[0] = dc as i16;
        *dc_pred = zz[0];
        idx = 1;
    }
    loop {
        let marker_off = *pos;
        let byte = *data.get(*pos).ok_or(CodecError::Truncated { offset: *pos })?;
        *pos += 1;
        if byte == entropy::EOB {
            return Ok(());
        }
        idx += usize::from(byte);
        if idx >= hi {
            return Err(CodecError::RunOverflow { offset: marker_off });
        }
        zz[idx] = entropy::read_varint_long(data, pos)? as i16;
        idx += 1;
        if idx > hi {
            return Err(CodecError::RunOverflow { offset: marker_off });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode, encode, FORMAT_VERSION};
    use imagery::synth::SynthSpec;

    fn img() -> RasterImage {
        SynthSpec::new(96, 72).complexity(0.5).render(7)
    }

    #[test]
    fn full_prefix_matches_the_classic_decode_exactly() {
        // Same quantized data, same reconstruction path: the full-fidelity
        // tier must be pixel-identical to a classic v2 stream.
        let img = img();
        let q = Quality::default();
        let tiered = encode_tiered(&img, q, &TierSpec::default());
        let classic = encode(&img, q);
        let a = decode_tiered(&tiered).unwrap();
        let b = decode(&classic).unwrap();
        assert_eq!(a.tier, 2);
        assert_eq!(a.image, b);
    }

    #[test]
    fn every_tier_prefix_decodes_with_the_right_tier() {
        let img = img();
        let bytes = encode_tiered(&img, Quality::default(), &TierSpec::default());
        let index = TierIndex::parse(&bytes).unwrap();
        assert_eq!(index.tier_count(), 3);
        for t in 0..index.tier_count() {
            let prefix = truncate_to_tier(&bytes, t).unwrap();
            let out = decode_tiered(prefix).unwrap();
            assert_eq!(out.tier, t);
            assert_eq!((out.image.width(), out.image.height()), (96, 72));
        }
    }

    #[test]
    fn stored_psnr_is_monotone_and_honest() {
        let img = img();
        let bytes = encode_tiered(&img, Quality::new(90).unwrap(), &TierSpec::default());
        let index = TierIndex::parse(&bytes).unwrap();
        for pair in index.tiers.windows(2) {
            assert!(
                pair[1].psnr_db >= pair[0].psnr_db - 0.05,
                "stored PSNR not monotone: {:?}",
                index.tiers
            );
        }
        // Stored PSNR matches a fresh measurement of the decoded prefix.
        for bound in &index.tiers {
            let out = decode_tiered(&bytes[..bound.end_offset as usize]).unwrap();
            let measured = metrics::psnr(&img, &out.image);
            assert!(
                (measured - bound.psnr_db).abs() < 0.01,
                "tier {} stored {} vs measured {measured}",
                bound.tier,
                bound.psnr_db
            );
        }
    }

    #[test]
    fn off_boundary_prefixes_are_typed_errors() {
        let bytes = encode_tiered(&img(), Quality::default(), &TierSpec::default());
        let index = TierIndex::parse(&bytes).unwrap();
        let first = index.tiers[0].end_offset as usize;
        let err = decode_tiered(&bytes[..first + 1]).unwrap_err();
        assert!(
            matches!(err, DecodeError::OffTierBoundary { len, boundary: Some(b) }
                if len == first + 1 && b as usize == first),
            "{err:?}"
        );
        // A cut before the first boundary has no boundary to report.
        let dir_end = HEADER_LEN + 1 + 3 * TIER_ENTRY_LEN;
        let err = decode_tiered(&bytes[..dir_end + 1]).unwrap_err();
        assert!(matches!(err, DecodeError::OffTierBoundary { boundary: None, .. }), "{err:?}");
    }

    #[test]
    fn byte_fractions_shrink_with_tier() {
        let bytes = encode_tiered(&img(), Quality::default(), &TierSpec::default());
        let index = TierIndex::parse(&bytes).unwrap();
        let (f0, f2) = (index.end_offset(0).unwrap(), index.end_offset(2).unwrap());
        assert!(0 < f0 && f0 < f2, "{f0} vs {f2}");
        assert!(index.end_offset(3).is_err());
    }

    #[test]
    fn classic_stream_is_not_tiered() {
        let classic = encode(&img(), Quality::default());
        assert_eq!(
            TierIndex::parse(&classic).unwrap_err(),
            DecodeError::NotTiered { version: FORMAT_VERSION }
        );
    }

    #[test]
    fn tiered_stream_is_rejected_by_the_classic_decoder() {
        let bytes = encode_tiered(&img(), Quality::default(), &TierSpec::default());
        assert_eq!(
            decode(&bytes).unwrap_err(),
            CodecError::UnsupportedVersion(FORMAT_VERSION_TIERED)
        );
    }

    #[test]
    fn source_chains_to_the_codec_error() {
        use std::error::Error;
        let err = DecodeError::from(CodecError::BadMagic);
        let source = err.source().expect("codec variant must chain");
        assert_eq!(source.to_string(), CodecError::BadMagic.to_string());
        assert!(DecodeError::BadTierCount { count: 0 }.source().is_none());
    }

    #[test]
    fn encode_is_deterministic() {
        let img = img();
        let spec = TierSpec::new(vec![3, 10, 28, 64]);
        let a = encode_tiered(&img, Quality::default(), &spec);
        let b = encode_tiered(&img, Quality::default(), &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn dc_only_first_tier_works() {
        let img = img();
        let bytes = encode_tiered(&img, Quality::default(), &TierSpec::new(vec![1, 64]));
        let index = TierIndex::parse(&bytes).unwrap();
        let out = decode_tiered(truncate_to_tier(&bytes, 0).unwrap()).unwrap();
        assert_eq!(out.tier, 0);
        assert!(index.tiers[0].psnr_db < index.tiers[1].psnr_db);
    }

    #[test]
    fn garbage_directories_are_typed_errors() {
        let bytes = encode_tiered(&img(), Quality::default(), &TierSpec::default());
        // Zero tier count.
        let mut bad = bytes.clone();
        bad[HEADER_LEN] = 0;
        assert!(matches!(TierIndex::parse(&bad), Err(DecodeError::BadTierCount { count: 0 })));
        // Band ladder out of order.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 1] = 64;
        assert!(matches!(TierIndex::parse(&bad), Err(DecodeError::BadTierBands { .. })));
        // Directory truncated.
        assert!(matches!(
            TierIndex::parse(&bytes[..HEADER_LEN + 3]),
            Err(DecodeError::Codec(CodecError::Truncated { .. }))
        ));
    }

    #[test]
    fn hostile_dimensions_are_typed_errors_before_any_allocation() {
        // `vec![[0i16; 64]; blocks]` from a 2^26 x 2^26 header used to abort
        // the process; tiered streams are what a browned-out server sends.
        let mut bytes = encode_tiered(&img(), Quality::default(), &TierSpec::default());
        bytes[5..9].copy_from_slice(&(1u32 << 26).to_le_bytes());
        bytes[9..13].copy_from_slice(&(1u32 << 26).to_le_bytes());
        for tier in 0..3 {
            let prefix = truncate_to_tier(&bytes, tier).unwrap();
            assert!(matches!(
                decode_tiered(prefix),
                Err(DecodeError::Codec(CodecError::Truncated { .. }))
            ));
            let rect = Rect::new(1 << 25, 7, 224, 224);
            assert!(matches!(
                decode_tiered_region(prefix, rect),
                Err(DecodeError::Codec(CodecError::Truncated { .. }))
            ));
        }
    }

    #[test]
    fn region_outside_the_image_is_a_typed_error() {
        let bytes = encode_tiered(&img(), Quality::default(), &TierSpec::default());
        let rect = Rect::new(90, 0, 7, 72);
        assert_eq!(
            decode_tiered_region(&bytes, rect).unwrap_err(),
            DecodeError::Codec(CodecError::RegionOutOfBounds { rect, width: 96, height: 72 })
        );
    }
}
