//! Streams of a retired SJPG mode are refused with a typed error at every
//! entry point that decodes stored bytes: those that set the header's
//! reserved flags byte, as the 4:2:0-chroma (bit 0) and Huffman (bit 1)
//! encodings did, and those of the retired progressive container, version
//! 3. Each error is the header's own, so nothing past the header ran and
//! nothing was sized from the dimensions it claims (2^26 x 2^26 in half the
//! cases). A raw serve decodes nothing and ships such a stream whole.

use bytes::Bytes;
use codec::{CodecError, Quality};
use imagery::synth::SynthSpec;
use imagery::Rect;
use pipeline::{AugmentRng, OpKind, PipelineError, PipelineSpec, SplitPoint, StageData};
use storage::{ExecError, FetchRequest, NearStorageExecutor, ObjectStore, SessionConfig};

/// Byte offsets of the version and the flags byte in the 15-byte header.
const VERSION_AT: usize = 4;
const FLAGS_AT: usize = 14;

/// Every retired-mode variant of one stream, with the error that refuses
/// it.
fn retired_streams() -> Vec<(CodecError, Vec<u8>)> {
    let img = SynthSpec::new(48, 40).complexity(0.6).render(9);
    let classic = codec::encode(&img, Quality::default());
    let modes = [
        (FLAGS_AT, 0b01, CodecError::UnsupportedFlags(0b01)),
        (FLAGS_AT, 0b10, CodecError::UnsupportedFlags(0b10)),
        (FLAGS_AT, 0b11, CodecError::UnsupportedFlags(0b11)),
        (VERSION_AT, 3, CodecError::UnsupportedVersion(3)),
    ];
    let mut out = Vec::new();
    for (at, value, err) in modes {
        for hostile in [false, true] {
            let mut bytes = classic.clone();
            bytes[at] = value;
            if hostile {
                bytes[5..9].copy_from_slice(&(1u32 << 26).to_le_bytes());
                bytes[9..13].copy_from_slice(&(1u32 << 26).to_le_bytes());
            }
            out.push((err.clone(), bytes));
        }
    }
    out
}

#[test]
fn retired_flags_are_typed_errors_through_the_codec() {
    let rect = Rect::new(3, 5, 20, 18);
    for (err, bytes) in retired_streams() {
        assert_eq!(codec::decode(&bytes), Err(err.clone()), "{err:?}");
        assert_eq!(codec::decode_region(&bytes, rect), Err(err.clone()), "{err:?}");
        let rows = codec::decode_region_rows(&bytes, rect, |_| panic!("a row of {err:?}"));
        assert_eq!(rows, Err(err.clone()));
    }
}

#[test]
fn retired_flags_are_typed_errors_through_the_pipeline_and_the_executor() {
    let streams = retired_streams();
    for (err, bytes) in &streams {
        let out = OpKind::Decode.apply(
            StageData::Encoded(Bytes::from(bytes.clone())),
            &mut AugmentRng::for_sample(0, 0, 0),
        );
        assert_eq!(out, Err(PipelineError::Decode(err.clone())));
    }

    let objects =
        streams.iter().enumerate().map(|(id, (_, b))| (id as u64, Bytes::from(b.clone())));
    let ex = NearStorageExecutor::new(
        ObjectStore::from_objects(objects),
        SessionConfig { dataset_seed: 1, pipeline: PipelineSpec::standard_train() },
    );
    for (id, (err, bytes)) in (0u64..).zip(&streams) {
        // Decode alone, and decode fused with the crop.
        for split in [1, 2] {
            let got = ex.execute(FetchRequest::new(id, 0, SplitPoint::new(split))).unwrap_err();
            assert_eq!(
                got,
                ExecError::Pipeline(PipelineError::Decode(err.clone())),
                "{id} {split}"
            );
        }
        let resp = ex.execute(FetchRequest::new(id, 0, SplitPoint::NONE)).unwrap();
        assert_eq!(resp.data.as_encoded(), Some(&bytes[..]), "{id}");
    }
}
