//! Pipelined, multiplexed serving on one TCP connection.
//!
//! One storage server, one client socket. The same batch of fetches runs
//! twice: serially (await each response before submitting the next — the
//! pre-multiplexing protocol) and pipelined (the whole batch submitted in
//! one batched write, responses claimed out of order by request id).
//!
//! ```sh
//! cargo run --release --example pipelined_serving
//! ```

use std::time::Instant;

use datasets::DatasetSpec;
use netsim::Bandwidth;
use pipeline::{PipelineSpec, SplitPoint};
use storage::{FetchRequest, ObjectStore, ServerConfig, TcpStorageClient, TcpStorageServer};

const SAMPLES: u64 = 16;
const FETCHES: usize = 96;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = DatasetSpec::mini(SAMPLES, 512);
    println!("materializing {SAMPLES} samples...");
    let store = ObjectStore::materialize_dataset(&ds, 0..SAMPLES);
    let server = TcpStorageServer::bind(
        store,
        ServerConfig { cores: 4, bandwidth: Bandwidth::from_gbps(10.0), ..ServerConfig::default() },
        "127.0.0.1:0",
    )?;
    let mut client = TcpStorageClient::connect(server.local_addr())?;
    client.configure(ds.seed, PipelineSpec::standard_train())?;
    let requests: Vec<FetchRequest> =
        (0..FETCHES).map(|i| FetchRequest::new(i as u64 % SAMPLES, 0, SplitPoint::NONE)).collect();

    // Serial: one exchange in flight, a full round trip per sample.
    let start = Instant::now();
    for req in &requests {
        client.fetch_request(*req)?;
    }
    let serial = start.elapsed();

    // Pipelined: every request on the wire before the first await; the
    // odd ids are claimed first to show muxing is by id, not arrival.
    let start = Instant::now();
    let ids = client.submit_all(&requests)?;
    println!("submitted {} fetches in one write, {} in flight", ids.len(), client.in_flight());
    for id in ids.iter().skip(1).step_by(2).chain(ids.iter().step_by(2)) {
        client.await_response(*id)?;
    }
    let pipelined = start.elapsed();

    let rps = |d: std::time::Duration| FETCHES as f64 / d.as_secs_f64();
    println!("serial    {serial:>8.2?}   {:>7.0} req/s", rps(serial));
    println!("pipelined {pipelined:>8.2?}   {:>7.0} req/s", rps(pipelined));
    println!("speedup   {:>8.2}x", serial.as_secs_f64() / pipelined.as_secs_f64());
    server.shutdown();
    Ok(())
}
