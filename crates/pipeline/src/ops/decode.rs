//! `Decode`: encoded SJPG bytes → raster image.

use imagery::Rect;

use crate::{PipelineError, StageData};

pub(super) fn apply(data: StageData) -> Result<StageData, PipelineError> {
    let StageData::Encoded(bytes) = data else { unreachable!("kind checked by caller") };
    let image = if codec::is_tiered(&bytes) {
        codec::decode_tiered(&bytes)?.image
    } else {
        codec::decode(&bytes)?
    };
    Ok(StageData::Image(image))
}

/// The stream's width and height, from its header: what a crop is drawn
/// from before anything is decoded.
///
/// # Errors
///
/// The error `Decode` reports for a defective header.
pub(super) fn dimensions(bytes: &[u8]) -> Result<(u32, u32), PipelineError> {
    if codec::is_tiered(bytes) {
        let index = codec::TierIndex::parse(bytes)?;
        Ok((index.width, index.height))
    } else {
        let header = codec::Header::parse(bytes)?;
        Ok((header.width, header.height))
    }
}

/// Decodes the rows of `rect`, top to bottom, into `sink`.
///
/// Tiered (version-3) streams, including browned-out prefixes served under
/// link pressure, decode through the progressive path and classic
/// version-2 streams through the classic one. Both step over the blocks
/// outside `rect`, parse the whole stream before the first row, and report
/// a defective stream with the error a full decode reports.
pub(super) fn decode_rows(
    bytes: &[u8],
    rect: Rect,
    sink: impl FnMut(&[u8]),
) -> Result<(), PipelineError> {
    if codec::is_tiered(bytes) {
        codec::decode_tiered_region_rows(bytes, rect, sink)?;
    } else {
        codec::decode_region_rows(bytes, rect, sink)?;
    }
    Ok(())
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
