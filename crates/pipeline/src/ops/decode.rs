//! `Decode`: encoded SJPG bytes → raster image.

use crate::{PipelineError, StageData};

pub(super) fn apply(data: StageData) -> Result<StageData, PipelineError> {
    let StageData::Encoded(bytes) = data else { unreachable!("kind checked by caller") };
    Ok(StageData::Image(codec::decode(&bytes)?))
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
