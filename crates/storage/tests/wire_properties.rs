//! Property tests for the wire format: arbitrary protocol values roundtrip,
//! arbitrary bytes never panic the decoder.

use imagery::{RasterImage, Rgb, Tensor};
use pipeline::{OpKind, PipelineSpec, SplitPoint, StageData};
use proptest::prelude::*;
use storage::wire::{
    crc32, decode_request_framed, decode_response_framed, encode_request_into,
    encode_response_into, WireError,
};
use storage::{FetchRequest, FetchResponse, Request, Response, ServeForm, SessionConfig};

// The module encodes into a caller's buffer and decodes to (id, .., message);
// these properties are about the message alone.
fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request_into(0, req, &mut out);
    out
}

fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(0, resp, &mut out);
    out
}

fn decode_request(data: &[u8]) -> Result<Request, WireError> {
    decode_request_framed(data).map(|(_, req)| req)
}

fn decode_response(data: &[u8]) -> Result<Response, WireError> {
    decode_response_framed(data).map(|(_, resp)| resp)
}

/// `frame` with `bytes` written at `at` and its CRC32 trailer sealed again,
/// so only the structural parser sees the change.
fn resealed(mut frame: Vec<u8>, at: usize, bytes: &[u8]) -> Vec<u8> {
    frame[at..at + bytes.len()].copy_from_slice(bytes);
    let body = frame.len() - 4;
    let crc = crc32(&frame[..body]);
    frame[body..].copy_from_slice(&crc.to_le_bytes());
    frame
}

fn arb_pipeline() -> impl Strategy<Value = PipelineSpec> {
    prop_oneof![
        Just(PipelineSpec::standard_train()),
        Just(PipelineSpec::standard_eval()),
        Just(PipelineSpec::augmented_train()),
        Just(PipelineSpec::new(vec![]).expect("empty pipeline is well-typed")),
        Just(
            PipelineSpec::new(vec![
                OpKind::Decode,
                OpKind::Grayscale,
                OpKind::Resize { size: 64 },
                OpKind::ToTensor,
            ])
            .expect("well-typed")
        ),
    ]
}

fn arb_stage_data() -> impl Strategy<Value = StageData> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..400).prop_map(|v| StageData::Encoded(v.into())),
        (1u32..24, 1u32..24, any::<u8>())
            .prop_map(|(w, h, g)| { StageData::Image(RasterImage::filled(w, h, Rgb::gray(g))) }),
        (1u32..24, 1u32..24, any::<u8>()).prop_map(|(w, h, g)| {
            StageData::Tensor(Tensor::from_image(&RasterImage::filled(w, h, Rgb::gray(g))))
        }),
    ]
}

fn arb_form() -> impl Strategy<Value = ServeForm> {
    prop_oneof![
        Just(ServeForm::Raw),
        (1usize..=6, proptest::option::of(1u8..=100)).prop_map(|(split, reencode)| {
            ServeForm::Prefix { split: SplitPoint::new(split), reencode }
        }),
    ]
}

/// Whether a response of `form` must carry encoded bytes: a raw serve is
/// the stored object, and a re-encoded one is the codec's output.
fn is_encoded_form(form: ServeForm) -> bool {
    form == ServeForm::Raw || form.reencode().is_some()
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Configured),
        (any::<u64>(), arb_form(), arb_stage_data()).prop_map(|(sample_id, form, data)| {
            let data = match data {
                StageData::Image(img) if is_encoded_form(form) => {
                    StageData::Encoded(img.as_raw().to_vec().into())
                }
                StageData::Tensor(t) if is_encoded_form(form) => {
                    StageData::Encoded(t.to_le_bytes().into())
                }
                data => data,
            };
            Response::Data(FetchResponse { sample_id, form, data })
        }),
        (proptest::option::of(any::<u64>()), ".{0,200}")
            .prop_map(|(sample_id, message)| Response::Error { sample_id, message }),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u64>(), arb_pipeline()).prop_map(|(dataset_seed, pipeline)| {
            Request::Configure(SessionConfig { dataset_seed, pipeline })
        }),
        (any::<u64>(), any::<u64>(), arb_form()).prop_map(|(sample_id, epoch, form)| {
            Request::Fetch(FetchRequest { sample_id, epoch, form })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every representable request roundtrips bit-exactly.
    #[test]
    fn requests_roundtrip(req in arb_request()) {
        let bytes = encode_request(&req);
        prop_assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    /// A form byte pair no `ServeForm` writes decodes to
    /// `WireError::Invalid` under a valid CRC: a quality above 100, or a
    /// quality on split 0 (a raw serve has none to re-encode at). So does
    /// a data response whose form is raw or re-encoded but whose payload is
    /// not encoded bytes.
    #[test]
    fn a_form_outside_the_serve_forms_is_invalid(
        sample_id in any::<u64>(),
        split in 0u8..=6,
        quality in 1u8..=u8::MAX,
        form in arb_form(),
        data in arb_stage_data(),
    ) {
        let want = if quality > 100 {
            WireError::Invalid("reencode quality")
        } else {
            WireError::Invalid("reencode of a raw serve")
        };
        if split == 0 || quality > 100 {
            // ver id | tag sample epoch | split quality
            let fetch = Request::Fetch(FetchRequest::new(sample_id, 0, SplitPoint::new(1)));
            let request = resealed(encode_request(&fetch), 22, &[split, quality]);
            prop_assert_eq!(decode_request(&request), Err(want.clone()));
            // ver id | tag sample | split quality
            let resp = Response::Data(FetchResponse { sample_id, form, data: data.clone() });
            let response = resealed(encode_response(&resp), 14, &[split, quality]);
            prop_assert_eq!(decode_response(&response), Err(want));
        }
        let resp = Response::Data(FetchResponse { sample_id, form, data: data.clone() });
        let decoded = decode_response(&encode_response(&resp));
        if is_encoded_form(form) && !matches!(data, StageData::Encoded(_)) {
            prop_assert_eq!(decoded, Err(WireError::Invalid("payload does not match its form")));
        } else {
            prop_assert_eq!(decoded, Ok(resp));
        }
    }

    /// Decoders are total over arbitrary bytes.
    #[test]
    fn decoders_never_panic(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_request(&data);
        let _ = decode_response(&data);
    }

    /// Truncating a valid request at any point yields an error, never a
    /// wrong-but-valid message.
    #[test]
    fn truncated_requests_error(req in arb_request()) {
        let bytes = encode_request(&req);
        for len in 0..bytes.len() {
            prop_assert!(decode_request(&bytes[..len]).is_err(), "prefix {}", len);
        }
    }

    /// Every representable response — configured, data carrying any payload
    /// kind (encoded bytes, raster image, float tensor), or error — decodes
    /// back to a value equal to the original.
    #[test]
    fn responses_roundtrip(resp in arb_response()) {
        let bytes = encode_response(&resp);
        prop_assert_eq!(decode_response(&bytes).unwrap(), resp);
    }

    /// Truncating a valid response at any point yields an error, never a
    /// wrong-but-valid message.
    #[test]
    fn truncated_responses_error(resp in arb_response()) {
        let bytes = encode_response(&resp);
        for len in 0..bytes.len() {
            prop_assert!(decode_response(&bytes[..len]).is_err(), "prefix {}", len);
        }
    }

    /// Flipping any bits of any single byte of a valid request frame is
    /// caught — the CRC32 trailer covers the whole body, and CRC32 detects
    /// every burst of 32 bits or fewer, so no single-byte corruption can
    /// decode as a valid (let alone different) message.
    #[test]
    fn corrupting_one_request_byte_fails_decode(
        req in arb_request(),
        pos in any::<u16>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = encode_request(&req);
        let idx = pos as usize % bytes.len();
        bytes[idx] ^= mask;
        prop_assert!(decode_request(&bytes).is_err(), "byte {} ^ {:#04x} slipped past", idx, mask);
    }

    /// The same guarantee on the response path, where corruption would
    /// otherwise silently perturb training tensors.
    #[test]
    fn corrupting_one_response_byte_fails_decode(
        resp in arb_response(),
        pos in any::<u16>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = encode_response(&resp);
        let idx = pos as usize % bytes.len();
        bytes[idx] ^= mask;
        prop_assert!(decode_response(&bytes).is_err(), "byte {} ^ {:#04x} slipped past", idx, mask);
    }

    /// Data responses roundtrip whole for arbitrary encoded blobs.
    #[test]
    fn data_responses_preserve_payloads(
        sample_id in any::<u64>(),
        form in arb_form(),
        payload in proptest::collection::vec(any::<u8>(), 0..2000),
    ) {
        let resp = Response::Data(FetchResponse {
            sample_id,
            form,
            data: pipeline::StageData::Encoded(payload.into()),
        });
        let bytes = encode_response(&resp);
        prop_assert_eq!(decode_response(&bytes).unwrap(), resp);
    }
}

/// Exhaustive companion to the sampled flip properties: every byte position
/// of a representative data frame, including the CRC trailer itself, rejects
/// a single-bit flip.
#[test]
fn every_byte_of_a_data_frame_is_flip_protected() {
    let resp = Response::Data(FetchResponse {
        sample_id: 7,
        form: ServeForm::Prefix { split: SplitPoint::new(2), reencode: Some(85) },
        data: StageData::Encoded((0u8..=255).collect::<Vec<u8>>().into()),
    });
    let bytes = encode_response(&resp);
    for idx in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[idx] ^= 1 << bit;
            assert!(
                decode_response(&corrupt).is_err(),
                "flip of byte {idx} bit {bit} decoded successfully"
            );
        }
    }
}
