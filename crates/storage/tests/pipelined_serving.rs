//! End-to-end: many concurrent client connections against a replicated
//! TCP fleet, every batch pipelined, every result bit-identical.
//!
//! 129 clients (43 per node) each hold one multiplexed connection to one
//! of three servers, submit their whole batch before awaiting anything,
//! and hash every response. Whatever node served a sample — primary or
//! replica — and however the completions interleaved, the bytes for a
//! given `(sample, epoch, split)` must be identical everywhere.

use std::collections::HashMap;

use netsim::Bandwidth;
use pipeline::{PipelineSpec, SplitPoint, StageData};
use storage::wire::crc32;
use storage::{FetchRequest, MultiServerHarness, ObjectStore, ServeForm, ServerConfig};

const NODES: usize = 3;
const CLIENTS: usize = 129;
const SAMPLES: u64 = 12;

/// `(sample, form)` — what a response's bytes must be keyed by.
type ResponseKey = (u64, ServeForm);
/// `(crc32, len)` — canonical digest of a response payload.
type Digest = (u32, u64);

/// Canonical bytes of a response payload, whatever stage it stopped at.
fn digest(data: &StageData) -> Digest {
    let bytes: Vec<u8> = match data {
        StageData::Encoded(b) => b.to_vec(),
        StageData::Image(img) => img.as_raw().to_vec(),
        StageData::Tensor(t) => t.to_le_bytes(),
    };
    (crc32(&bytes), bytes.len() as u64)
}

#[test]
fn concurrent_pipelined_clients_get_bit_identical_batches() {
    let ds = datasets::DatasetSpec::mini(SAMPLES, 77);
    let store = ObjectStore::materialize_dataset(&ds, 0..SAMPLES);
    // Primary = id % 3, replica = (id + 1) % 3: every sample is on two
    // nodes, so the same bytes must come out of distinct servers.
    let harness = MultiServerHarness::spawn(
        &store,
        NODES,
        ServerConfig { cores: 2, bandwidth: Bandwidth::from_gbps(10.0), ..ServerConfig::default() },
        |id| vec![(id % 3) as usize, ((id + 1) % 3) as usize],
    )
    .unwrap();

    let seed = ds.seed;
    let addrs: Vec<_> = (0..NODES).map(|n| harness.addr(n)).collect();
    let results: Vec<Vec<(ResponseKey, Digest)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let node = t % NODES;
                let addr = addrs[node];
                s.spawn(move || {
                    let mut client = storage::TcpStorageClient::connect(addr).unwrap();
                    client.configure(seed, PipelineSpec::standard_train()).unwrap();
                    // Everything this node stores (primary or replica),
                    // raw, plus one offloaded split-2 fetch — all
                    // submitted before the first await.
                    let mut reqs: Vec<FetchRequest> = (0..SAMPLES)
                        .filter(|id| (id % 3) as usize == node || ((id + 1) % 3) as usize == node)
                        .map(|id| FetchRequest::new(id, 0, SplitPoint::NONE))
                        .collect();
                    let offloaded = reqs[0].sample_id;
                    reqs.push(FetchRequest::new(offloaded, 0, SplitPoint::new(2)));
                    let responses = client.fetch_many_requests(&reqs).unwrap();
                    assert_eq!(responses.len(), reqs.len());
                    reqs.iter()
                        .zip(&responses)
                        .map(|(req, resp)| {
                            assert_eq!(req.sample_id, resp.sample_id);
                            ((req.sample_id, resp.form), digest(&resp.data))
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Group by (sample, form): one digest per key, fleet-wide.
    let mut canonical: HashMap<ResponseKey, Digest> = HashMap::new();
    let mut observations = 0usize;
    for per_client in &results {
        for (key, d) in per_client {
            observations += 1;
            let prior = canonical.insert(*key, *d);
            assert!(
                prior.is_none() || prior == Some(*d),
                "sample {key:?} differed across clients/nodes: {prior:?} vs {d:?}"
            );
        }
    }
    // 129 clients x (8 raw + 1 offloaded) responses, all accounted for.
    assert_eq!(observations, CLIENTS * 9);
    // Both shapes showed up: raw passthrough and the 2-op offloaded crop.
    assert!(canonical.keys().any(|&(_, form)| form == ServeForm::Raw));
    assert!(canonical.keys().any(|&(_, form)| form == SplitPoint::new(2).into()));
    harness.shutdown();
}
