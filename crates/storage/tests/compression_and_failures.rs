//! Integration tests for the transfer-compression directive and for
//! failure injection: corrupt objects, missing objects, and bad requests
//! must degrade per-sample, never take the server down.

use datasets::DatasetSpec;
use netsim::Bandwidth;
use pipeline::{PipelineSpec, SampleKey, SplitPoint, StageData};
use storage::{
    FetchRequest, NearStorageExecutor, ObjectStore, ServeForm, ServerConfig, SessionConfig,
    TcpStorageClient, TcpStorageServer,
};

/// A fetch of `split` ops re-encoded at `quality`.
fn reencoded(sample_id: u64, epoch: u64, split: usize, quality: u8) -> FetchRequest {
    let form = ServeForm::Prefix { split: SplitPoint::new(split), reencode: Some(quality) };
    FetchRequest { sample_id, epoch, form }
}

fn setup(n: u64) -> (DatasetSpec, ObjectStore) {
    let ds = DatasetSpec::mini(n, 71);
    let store = ObjectStore::materialize_dataset(&ds, 0..n);
    (ds, store)
}

#[test]
fn reencoded_transfer_shrinks_and_reconstructs() {
    let (ds, store) = setup(2);
    let ex = NearStorageExecutor::new(
        store,
        SessionConfig { dataset_seed: ds.seed, pipeline: PipelineSpec::standard_train() },
    );
    let plain = ex.execute(FetchRequest::new(0, 1, SplitPoint::new(2))).unwrap();
    let compressed = ex.execute(reencoded(0, 1, 2, 85)).unwrap();
    assert_eq!(plain.data.byte_len(), 150_528);
    assert!(
        compressed.data.byte_len() < plain.data.byte_len() / 2,
        "re-encoded crop is {} bytes",
        compressed.data.byte_len()
    );
    // Unpack restores a raster close to the uncompressed crop.
    let plain_img = plain.data.as_image().unwrap().clone();
    let unpacked = compressed.unpack().unwrap();
    let unpacked_img = unpacked.as_image().unwrap();
    assert_eq!((unpacked_img.width(), unpacked_img.height()), (224, 224));
    let mut err = 0u64;
    for (a, b) in plain_img.as_raw().iter().zip(unpacked_img.as_raw().iter()) {
        err += u64::from(a.abs_diff(*b));
    }
    let mae = err as f64 / plain_img.raw_len() as f64;
    assert!(mae < 10.0, "re-encode round trip too lossy: {mae}");
}

#[test]
fn reencoded_suffix_still_produces_training_tensor() {
    let (ds, store) = setup(2);
    let pipeline = PipelineSpec::standard_train();
    let ex = NearStorageExecutor::new(
        store,
        SessionConfig { dataset_seed: ds.seed, pipeline: pipeline.clone() },
    );
    let resp = ex.execute(reencoded(1, 0, 2, 90)).unwrap();
    let split = resp.form.split();
    let data = resp.unpack().unwrap();
    let key = SampleKey::new(ds.seed, 1, 0);
    let tensor = pipeline.run_suffix(data, split, key).unwrap();
    assert_eq!(tensor.byte_len(), 602_112);
}

#[test]
fn reencode_on_a_tensor_split_is_rejected() {
    let (ds, store) = setup(1);
    let ex = NearStorageExecutor::new(
        store,
        SessionConfig { dataset_seed: ds.seed, pipeline: PipelineSpec::standard_train() },
    );
    // Splits past ToTensor are not an image; a raw serve has no quality to
    // ask for (the wire rejects one, `wire_properties`).
    let err = ex.execute(reencoded(0, 0, 4, 85)).unwrap_err();
    assert_eq!(err.to_string(), "re-encode requested but offloaded output is not an image");
    assert!(matches!(err, storage::ExecError::ReencodeNotImage));
}

#[test]
fn corrupt_object_degrades_to_per_sample_error() {
    let (ds, mut store) = setup(3);
    // Sample 1's bytes are garbage; 0 and 2 stay valid.
    store.insert(1, bytes::Bytes::from_static(b"definitely not SJPG"));
    let server = TcpStorageServer::bind(
        store,
        ServerConfig { cores: 2, bandwidth: Bandwidth::from_gbps(10.0), ..ServerConfig::default() },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
    client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
    // Healthy samples still work after the failure.
    assert!(client.fetch(0, 0, SplitPoint::new(2)).is_ok());
    let err = client.fetch(1, 0, SplitPoint::new(2)).unwrap_err();
    assert!(err.to_string().contains("sample 1"), "{err}");
    assert!(client.fetch(2, 0, SplitPoint::new(2)).is_ok());
    server.shutdown();
}

#[test]
fn corrupt_object_with_split_zero_passes_bytes_through() {
    // With no offloading the server never decodes, so corruption surfaces
    // on the compute node instead — exactly as in a raw object store.
    let (ds, mut store) = setup(2);
    store.insert(0, bytes::Bytes::from_static(b"junk"));
    let server = TcpStorageServer::bind(
        store,
        ServerConfig { cores: 1, bandwidth: Bandwidth::from_gbps(10.0), ..ServerConfig::default() },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
    client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
    let data = client.fetch(0, 0, SplitPoint::NONE).unwrap();
    let key = SampleKey::new(ds.seed, 0, 0);
    assert!(PipelineSpec::standard_train().run(data, key).is_err());
    server.shutdown();
}

#[test]
fn missing_objects_and_bad_splits_dont_poison_the_session() {
    let (ds, store) = setup(2);
    let server = TcpStorageServer::bind(
        store,
        ServerConfig { cores: 2, bandwidth: Bandwidth::from_gbps(10.0), ..ServerConfig::default() },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
    client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
    assert!(client.fetch(99, 0, SplitPoint::NONE).is_err());
    assert!(client.fetch(0, 0, SplitPoint::new(9)).is_err());
    // The session is still serviceable.
    let data = client.fetch(0, 0, SplitPoint::new(2)).unwrap();
    assert_eq!(data.byte_len(), 150_528);
    server.shutdown();
}

#[test]
fn reencode_over_live_server_reduces_wire_bytes() {
    let (ds, store) = setup(4);
    let run = |reencode: bool| -> u64 {
        let server = TcpStorageServer::bind(
            store.clone(),
            ServerConfig {
                cores: 2,
                bandwidth: Bandwidth::from_gbps(10.0),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
        client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
        for id in 0..4u64 {
            let req = if reencode {
                reencoded(id, 0, 2, 85)
            } else {
                FetchRequest::new(id, 0, SplitPoint::new(2))
            };
            let resp = client.fetch_request(req).unwrap();
            let unpacked = resp.unpack().unwrap();
            assert_eq!(unpacked.byte_len(), 150_528, "reconstructed crop size");
        }
        let meter = server.meter();
        server.shutdown();
        meter.bytes()
    };
    let plain = run(false);
    let compressed = run(true);
    assert!(
        compressed * 2 < plain,
        "compression should at least halve wire bytes: {compressed} vs {plain}"
    );
}

#[test]
fn stage_data_passthrough_for_tensor_splits() {
    // unpack() must not touch payloads that are legitimately encoded (split
    // 0) or already tensors (full offload).
    let (ds, store) = setup(1);
    let ex = NearStorageExecutor::new(
        store,
        SessionConfig { dataset_seed: ds.seed, pipeline: PipelineSpec::standard_train() },
    );
    let raw = ex.execute(FetchRequest::new(0, 0, SplitPoint::NONE)).unwrap();
    assert!(matches!(raw.unpack().unwrap(), StageData::Encoded(_)));
    let full = ex.execute(FetchRequest::new(0, 0, SplitPoint::new(5))).unwrap();
    assert!(matches!(full.unpack().unwrap(), StageData::Tensor(_)));
}
