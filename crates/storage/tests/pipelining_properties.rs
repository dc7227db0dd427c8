//! Property tests for the multiplexed (request-id) serving path.
//!
//! The contract under test: any number of interleaved exchanges on one
//! stream resolve to the right callers purely by `request_id`, whatever
//! order responses come back in — and no single-bit corruption of a frame
//! can ever mis-route one, because the id sits under the CRC32 trailer.

use bytes::Bytes;
use pipeline::{PipelineSpec, SplitPoint, StageData};
use proptest::prelude::*;
use storage::wire::{
    decode_request_framed, decode_response_framed, encode_request_into, encode_response_into,
    peek_request_id, WireError,
};
use storage::{
    FetchRequest, FetchResponse, ObjectStore, Request, Response, ServeForm, ServerConfig,
    TcpStorageClient, TcpStorageServer,
};

/// Stateless SplitMix64 step (the repo's standard seeded scramble).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic Fisher-Yates driven by a SplitMix64 stream.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn request_frame(request_id: u32, req: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_request_into(request_id, req, &mut frame);
    frame
}

fn data_response(request_id: u32, sample_id: u64) -> (u32, Vec<u8>) {
    let resp = Response::Data(FetchResponse {
        sample_id,
        form: ServeForm::Raw,
        data: StageData::Encoded(Bytes::from(sample_id.to_le_bytes().to_vec())),
    });
    let mut frame = Vec::new();
    encode_response_into(request_id, &resp, &mut frame);
    (request_id, frame)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// N frames with distinct ids, decoded in an arbitrary order, each
    /// land at exactly the caller whose id they carry — even when every
    /// response reports the *same* sample id (worst case for the old
    /// by-sample correlation).
    #[test]
    fn shuffled_response_frames_route_by_id(
        n in 2usize..24,
        shuffle_seed in any::<u64>(),
        same_sample in any::<bool>(),
    ) {
        let expected: std::collections::HashMap<u32, u64> = (0..n)
            .map(|i| {
                let id = (i as u32).wrapping_mul(2_654_435_761).max(1);
                (id, if same_sample { 7 } else { i as u64 })
            })
            .collect();
        let mut frames: Vec<(u32, Vec<u8>)> =
            expected.iter().map(|(&id, &sample)| data_response(id, sample)).collect();
        shuffle(&mut frames, shuffle_seed);
        for (id, frame) in &frames {
            prop_assert_eq!(peek_request_id(frame), Some(*id));
            let (decoded_id, resp) = decode_response_framed(frame).unwrap();
            prop_assert_eq!(decoded_id, *id);
            let Response::Data(d) = resp else { panic!("data frame") };
            // Routing purely by id recovers the caller's own sample.
            prop_assert_eq!(d.sample_id, expected[id]);
            prop_assert_eq!(d.data.as_encoded().unwrap(), &expected[id].to_le_bytes()[..]);
        }
    }

    /// Flipping any single byte of a framed response — version, id, body,
    /// or the CRC itself — fails the checksum. A corrupted id can only
    /// surface as `Corrupted`, never as a valid frame for another caller.
    #[test]
    fn single_byte_flips_anywhere_fail_the_checksum(
        request_id in any::<u32>(),
        sample_id in any::<u64>(),
        flip_at in any::<usize>(),
        flip_mask in any::<u8>(),
    ) {
        let (_, mut bytes) = data_response(request_id, sample_id);
        let idx = flip_at % bytes.len();
        let mask = if flip_mask == 0 { 1 } else { flip_mask };
        bytes[idx] ^= mask;
        prop_assert_eq!(
            decode_response_framed(&bytes),
            Err(WireError::ChecksumMismatch),
            "flip at byte {} slipped past the CRC",
            idx
        );
    }

    /// A pipelined burst of request frames, decoded in an arbitrary order,
    /// hands back exactly the request id and request each frame was sealed
    /// with.
    #[test]
    fn shuffled_request_frames_keep_their_attribution(
        n in 2usize..24,
        shuffle_seed in any::<u64>(),
    ) {
        let mut frames: Vec<(u32, u64, Vec<u8>)> = (0..n)
            .map(|i| {
                let id = (i as u32).wrapping_mul(2_654_435_761).max(1);
                let sample = i as u64;
                let req = Request::Fetch(FetchRequest::new(sample, 0, SplitPoint::NONE));
                (id, sample, request_frame(id, &req))
            })
            .collect();
        shuffle(&mut frames, shuffle_seed);
        for (id, sample, frame) in &frames {
            prop_assert_eq!(peek_request_id(frame), Some(*id));
            let (decoded_id, req) = decode_request_framed(frame).unwrap();
            prop_assert_eq!(decoded_id, *id);
            let Request::Fetch(f) = req else { panic!("fetch frame") };
            prop_assert_eq!(f.sample_id, *sample);
        }
    }

    /// Flipping any single byte of a request frame — version, request
    /// id, body, or the CRC itself — fails the checksum.
    #[test]
    fn single_byte_flips_on_request_frames_fail_the_checksum(
        request_id in any::<u32>(),
        sample_id in any::<u64>(),
        flip_at in any::<usize>(),
        flip_mask in any::<u8>(),
    ) {
        let req = Request::Fetch(FetchRequest::new(sample_id, 0, SplitPoint::NONE));
        let mut bytes = request_frame(request_id, &req);
        let idx = flip_at % bytes.len();
        let mask = if flip_mask == 0 { 1 } else { flip_mask };
        bytes[idx] ^= mask;
        prop_assert_eq!(
            decode_request_framed(&bytes),
            Err(WireError::ChecksumMismatch),
            "flip at byte {} slipped past the CRC",
            idx
        );
    }
}

/// Live mux check over a real server: submit a full batch,
/// then claim completions in a shuffled order — every await gets its own
/// sample back, including when the batch repeats a sample id.
#[test]
fn interleaved_awaits_resolve_by_request_id_end_to_end() {
    let ds = datasets::DatasetSpec::mini(4, 91);
    let store = ObjectStore::materialize_dataset(&ds, 0..4);
    let config = ServerConfig { cores: 3, ..Default::default() };
    let server = TcpStorageServer::bind(store, config, "127.0.0.1:0").unwrap();
    let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
    client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();

    for shuffle_seed in [3u64, 17, 83] {
        // Duplicate sample ids on purpose: 8 requests over 4 samples.
        let samples: Vec<u64> = (0..8u64).map(|i| i % 4).collect();
        let mut pending: Vec<(u32, u64)> = samples
            .iter()
            .map(|&s| {
                let id = client.submit(FetchRequest::new(s, 0, SplitPoint::NONE)).unwrap();
                (id, s)
            })
            .collect();
        shuffle(&mut pending, shuffle_seed);
        for (id, sample) in pending {
            let resp = client.await_response(id).unwrap();
            assert_eq!(resp.sample_id, sample, "await({id}) claimed the wrong exchange");
        }
    }
    server.shutdown();
}
