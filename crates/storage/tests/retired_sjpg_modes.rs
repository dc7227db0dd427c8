//! Streams that set the SJPG header's reserved flags byte, as the retired
//! 4:2:0-chroma (bit 0) and Huffman (bit 1) encodings did, are refused
//! with a typed error at every entry point that takes stored bytes. Each
//! error is the header's own, so nothing past the header ran and nothing
//! was sized from the dimensions it claims (2^26 x 2^26 in half the
//! cases).

use bytes::Bytes;
use codec::{CodecError, DecodeError, Quality, TierIndex, TierSpec, FORMAT_VERSION};
use imagery::synth::SynthSpec;
use imagery::Rect;
use pipeline::{AugmentRng, OpKind, PipelineError, PipelineSpec, SplitPoint, StageData};
use storage::{ExecError, FetchRequest, NearStorageExecutor, ObjectStore, SessionConfig};

/// Byte offset of the flags byte in the 15-byte header.
const FLAGS_AT: usize = 14;

/// Every retired-mode variant of a classic and a tiered stream, as
/// `(flags, tiered, bytes)`.
fn retired_streams() -> Vec<(u8, bool, Vec<u8>)> {
    let img = SynthSpec::new(48, 40).complexity(0.6).render(9);
    let classic = codec::encode(&img, Quality::default());
    let tiered = codec::encode_tiered(&img, Quality::default(), &TierSpec::default());
    let mut out = Vec::new();
    for (is_tiered, stream) in [(false, classic), (true, tiered)] {
        for flags in [0b01, 0b10, 0b11] {
            for hostile in [false, true] {
                let mut bytes = stream.clone();
                bytes[FLAGS_AT] = flags;
                if hostile {
                    bytes[5..9].copy_from_slice(&(1u32 << 26).to_le_bytes());
                    bytes[9..13].copy_from_slice(&(1u32 << 26).to_le_bytes());
                }
                out.push((flags, is_tiered, bytes));
            }
        }
    }
    out
}

#[test]
fn retired_flags_are_typed_errors_through_the_codec() {
    let rect = Rect::new(3, 5, 20, 18);
    for (flags, tiered, bytes) in retired_streams() {
        let flagged = CodecError::UnsupportedFlags(flags);
        let case = format!("flags {flags:#04b}, tiered {tiered}");
        if tiered {
            let tiered_err = DecodeError::Codec(flagged.clone());
            let classic_err = CodecError::UnsupportedVersion(codec::FORMAT_VERSION_TIERED);
            assert_eq!(codec::decode(&bytes), Err(classic_err.clone()), "{case}");
            assert_eq!(codec::decode_region(&bytes, rect), Err(classic_err), "{case}");
            assert_eq!(TierIndex::parse(&bytes), Err(tiered_err.clone()), "{case}");
            assert_eq!(codec::decode_tiered(&bytes), Err(tiered_err.clone()), "{case}");
            assert_eq!(codec::decode_tiered_region(&bytes, rect), Err(tiered_err.clone()));
            for tier in 0..3 {
                assert_eq!(codec::truncate_to_tier(&bytes, tier), Err(tiered_err.clone()));
            }
        } else {
            let not_tiered = DecodeError::NotTiered { version: FORMAT_VERSION };
            assert_eq!(codec::decode(&bytes), Err(flagged.clone()), "{case}");
            assert_eq!(codec::decode_region(&bytes, rect), Err(flagged), "{case}");
            assert_eq!(TierIndex::parse(&bytes), Err(not_tiered.clone()), "{case}");
            assert_eq!(codec::decode_tiered(&bytes), Err(not_tiered.clone()), "{case}");
            assert_eq!(codec::truncate_to_tier(&bytes, 0), Err(not_tiered), "{case}");
        }
    }
}

/// The error the pipeline's `Decode` reports for a retired-mode stream.
fn pipeline_error(flags: u8, tiered: bool) -> PipelineError {
    let flagged = CodecError::UnsupportedFlags(flags);
    if tiered {
        PipelineError::DecodeTiered(DecodeError::Codec(flagged))
    } else {
        PipelineError::Decode(flagged)
    }
}

#[test]
fn retired_flags_are_typed_errors_through_the_pipeline_and_the_executor() {
    let streams = retired_streams();
    for (flags, tiered, bytes) in &streams {
        let out = OpKind::Decode.apply(
            StageData::Encoded(Bytes::from(bytes.clone())),
            &mut AugmentRng::for_sample(0, 0, 0),
        );
        assert_eq!(out, Err(pipeline_error(*flags, *tiered)));
    }

    let objects =
        streams.iter().enumerate().map(|(id, (_, _, b))| (id as u64, Bytes::from(b.clone())));
    let ex = NearStorageExecutor::new(
        ObjectStore::from_objects(objects),
        SessionConfig { dataset_seed: 1, pipeline: PipelineSpec::standard_train() },
    );
    for (id, (flags, tiered, bytes)) in (0u64..).zip(&streams) {
        // Decode alone, and decode fused with the crop.
        for split in [1, 2] {
            let err = ex.execute(FetchRequest::new(id, 0, SplitPoint::new(split))).unwrap_err();
            assert_eq!(err, ExecError::Pipeline(pipeline_error(*flags, *tiered)), "{id} {split}");
        }
        // A raw serve ships the stored bytes as they are, fidelity cap or
        // not: there is no tier directory to cut at.
        for req in [
            FetchRequest::new(id, 0, SplitPoint::NONE),
            FetchRequest::new(id, 0, SplitPoint::NONE).with_max_tier(0),
        ] {
            let resp = ex.execute(req).unwrap();
            assert_eq!((resp.tier, resp.data.as_encoded()), (None, Some(&bytes[..])), "{id}");
        }
    }
}
