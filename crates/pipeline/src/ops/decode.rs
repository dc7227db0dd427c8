//! `Decode`: encoded SJPG bytes → raster image.

use imagery::{RasterImage, Rect};

use crate::{PipelineError, StageData};

pub(super) fn apply(data: StageData) -> Result<StageData, PipelineError> {
    let StageData::Encoded(bytes) = data else { unreachable!("kind checked by caller") };
    Ok(StageData::Image(decode_rect(&bytes, Rect::full)?))
}

/// Decodes the rectangle `choose` picks from the stream's dimensions.
///
/// Tiered (version-3) streams, including browned-out prefixes served under
/// link pressure, decode through the progressive path and classic
/// version-2 streams through the classic one; both reconstruct only the
/// blocks the rectangle overlaps, and both report a defective stream with
/// the error a full decode reports.
pub(super) fn decode_rect(
    bytes: &[u8],
    choose: impl FnOnce(u32, u32) -> Rect,
) -> Result<RasterImage, PipelineError> {
    if codec::is_tiered(bytes) {
        let index = codec::TierIndex::parse(bytes)?;
        Ok(codec::decode_tiered_region(bytes, choose(index.width, index.height))?.image)
    } else {
        let header = codec::Header::parse(bytes)?;
        Ok(codec::decode_region(bytes, choose(header.width, header.height))?)
    }
}

#[cfg(test)]
mod tests {
    use crate::{AugmentRng, OpKind, StageData};
    use imagery::synth::SynthSpec;

    #[test]
    fn decode_restores_dimensions() {
        let img = SynthSpec::new(50, 40).complexity(0.4).render(1);
        let enc = codec::encode(&img, codec::Quality::default());
        let out = OpKind::Decode
            .apply(StageData::Encoded(enc.into()), &mut AugmentRng::for_sample(0, 0, 0))
            .unwrap();
        let out_img = out.as_image().unwrap();
        assert_eq!((out_img.width(), out_img.height()), (50, 40));
    }

    #[test]
    fn corrupt_bytes_error_cleanly() {
        let out = OpKind::Decode.apply(
            StageData::Encoded(bytes::Bytes::from_static(b"not an image")),
            &mut AugmentRng::for_sample(0, 0, 0),
        );
        assert!(out.is_err());
    }
}
