use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel;
use netsim::{Bandwidth, PipeReceiver, PipeSender, ThrottledPipe, TrafficMeter};
use parking_lot::RwLock;

use crate::protocol::{Request, Response};
use crate::wire;
use crate::{NearStorageExecutor, ObjectStore, StorageClient};

/// Configuration of a live storage server.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads for near-storage preprocessing (the storage node's
    /// preprocessing core count in the paper's Figure 4 sweep).
    pub cores: usize,
    /// Bandwidth cap on the response path (the 500 Mbps link).
    pub bandwidth: Bandwidth,
    /// Response queue depth in messages.
    pub queue_depth: usize,
    /// Backpressure bound for the pipelined TCP server: how many decoded
    /// requests one connection may have in flight before the event loop
    /// stops reading its socket (TCP backpressure then propagates to the
    /// client). Connections beyond this depth are never starved — reading
    /// resumes as soon as responses drain.
    pub max_in_flight: usize,
}

impl Default for ServerConfig {
    /// Two cores behind a 1 Gbps link, depth-16 queue, 64 in-flight
    /// requests per connection.
    fn default() -> Self {
        ServerConfig {
            cores: 2,
            bandwidth: Bandwidth::from_gbps(1.0),
            queue_depth: 16,
            max_in_flight: 64,
        }
    }
}

/// A live, multi-threaded storage server.
///
/// `cores` worker threads pull wire-encoded requests from a shared queue,
/// execute them against the object store (running any offloaded pipeline
/// prefix), and push wire-encoded responses through a bandwidth-throttled
/// pipe — the in-process equivalent of the paper's gRPC storage service
/// behind a 500 Mbps link.
#[derive(Debug)]
pub struct StorageServer {
    req_tx: Option<channel::Sender<bytes::Bytes>>,
    resp_rx: Option<PipeReceiver>,
    resp_meter: TrafficMeter,
    req_meter: TrafficMeter,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl StorageServer {
    /// Spawns the server's worker threads.
    ///
    /// # Panics
    ///
    /// Panics when `config.cores` is zero.
    pub fn spawn(store: ObjectStore, config: ServerConfig) -> StorageServer {
        assert!(config.cores > 0, "server needs at least one core");
        let (req_tx, req_rx) = channel::unbounded::<bytes::Bytes>();
        let (resp_tx, resp_rx) = ThrottledPipe::new(config.bandwidth, config.queue_depth);
        let resp_meter = resp_tx.meter().clone();
        let req_meter = TrafficMeter::new();
        let stop = Arc::new(AtomicBool::new(false));
        let session: Arc<RwLock<Option<NearStorageExecutor>>> = Arc::new(RwLock::new(None));
        let store = Arc::new(store);

        let workers = (0..config.cores)
            .map(|_| {
                let req_rx = req_rx.clone();
                let resp_tx = resp_tx.clone();
                let stop = Arc::clone(&stop);
                let session = Arc::clone(&session);
                let store = Arc::clone(&store);
                let req_meter = req_meter.clone();
                std::thread::spawn(move || {
                    worker_loop(&req_rx, &resp_tx, &stop, &session, &store, &req_meter);
                })
            })
            .collect();

        StorageServer {
            req_tx: Some(req_tx),
            resp_rx: Some(resp_rx),
            resp_meter,
            req_meter,
            stop,
            workers,
        }
    }

    /// Creates the client endpoint.
    ///
    /// # Panics
    ///
    /// Panics when called more than once — the pipe has a single consumer.
    pub fn client(&mut self) -> StorageClient {
        let resp_rx = self.resp_rx.take().expect("client() may only be called once");
        let req_tx = self.req_tx.clone().expect("server is running");
        StorageClient::new(req_tx, resp_rx)
    }

    /// Bytes sent over the response path so far (the experiment's "data
    /// traffic" reading).
    pub fn response_bytes(&self) -> u64 {
        self.resp_meter.bytes()
    }

    /// Bytes received on the request path so far.
    pub fn request_bytes(&self) -> u64 {
        self.req_meter.bytes()
    }

    /// Stops the workers and waits for them to exit.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.req_tx = None; // disconnect the queue
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for StorageServer {
    fn drop(&mut self) {
        // Non-blocking teardown: signal and disconnect; threads exit on
        // their next poll. `shutdown()` is the graceful, joining variant.
        self.stop.store(true, Ordering::SeqCst);
        self.req_tx = None;
    }
}

fn worker_loop(
    req_rx: &channel::Receiver<bytes::Bytes>,
    resp_tx: &PipeSender,
    stop: &AtomicBool,
    session: &RwLock<Option<NearStorageExecutor>>,
    store: &Arc<ObjectStore>,
    req_meter: &TrafficMeter,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let msg = match req_rx.recv_timeout(Duration::from_millis(20)) {
            Ok(m) => m,
            Err(channel::RecvTimeoutError::Timeout) => continue,
            Err(channel::RecvTimeoutError::Disconnected) => return,
        };
        req_meter.record(msg.len() as u64);
        // Echo the request's multiplexing id on the reply; a frame whose
        // body failed to parse still gets its id echoed best-effort so the
        // error routes back to the caller that triggered it.
        let (request_id, response) = match wire::decode_request_framed(&msg) {
            Ok((id, Request::Configure(cfg))) => {
                *session.write() = Some(NearStorageExecutor::new(ObjectStore::clone(store), cfg));
                (id, Response::Configured)
            }
            Ok((id, Request::Fetch(req))) => {
                let executor = session.read().clone();
                let response = match executor {
                    Some(ex) => match ex.execute(req) {
                        Ok(resp) => Response::Data(resp),
                        Err(e) => Response::Error {
                            sample_id: Some(req.sample_id),
                            message: e.to_string(),
                        },
                    },
                    None => Response::Error {
                        sample_id: Some(req.sample_id),
                        message: "session not configured".to_string(),
                    },
                };
                (id, response)
            }
            Ok((_, Request::Shutdown)) => {
                stop.store(true, Ordering::SeqCst);
                return;
            }
            Err(e) => (
                wire::peek_request_id(&msg).unwrap_or(0),
                Response::Error { sample_id: None, message: format!("bad request: {e}") },
            ),
        };
        if resp_tx.send(wire::encode_response_framed(request_id, &response)).is_err() {
            return; // client hung up
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::{PipelineSpec, SplitPoint};

    fn server_with(n: u64, cores: usize) -> (StorageServer, datasets::DatasetSpec) {
        let ds = datasets::DatasetSpec::mini(n, 31);
        let store = ObjectStore::materialize_dataset(&ds, 0..n);
        let server = StorageServer::spawn(
            store,
            ServerConfig {
                cores,
                bandwidth: Bandwidth::from_gbps(10.0),
                queue_depth: 32,
                ..ServerConfig::default()
            },
        );
        (server, ds)
    }

    #[test]
    fn configure_then_fetch() {
        let (mut server, ds) = server_with(2, 1);
        let mut client = server.client();
        client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
        let data = client.fetch(0, 0, SplitPoint::NONE).unwrap();
        assert!(data.as_encoded().is_some());
        assert!(server.response_bytes() > 0);
        assert!(server.request_bytes() > 0);
        server.shutdown();
    }

    #[test]
    fn fetch_before_configure_errors() {
        let (mut server, _ds) = server_with(1, 1);
        let mut client = server.client();
        let err = client.fetch(0, 0, SplitPoint::NONE).unwrap_err();
        assert!(err.to_string().contains("not configured"), "{err}");
        server.shutdown();
    }

    #[test]
    fn parallel_workers_serve_many_requests() {
        let (mut server, ds) = server_with(4, 3);
        let mut client = server.client();
        client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
        let reqs: Vec<_> = (0..4u64)
            .flat_map(|id| (0..3u64).map(move |epoch| (id, epoch, SplitPoint::new(2))))
            .collect();
        let responses = client.fetch_many(&reqs).unwrap();
        assert_eq!(responses.len(), 12);
        for r in &responses {
            assert_eq!(r.data.byte_len(), 150_528);
        }
        server.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_server_rejected() {
        let (server, _) = server_with(1, 1);
        server.shutdown();
        let _ = StorageServer::spawn(
            ObjectStore::new(),
            ServerConfig {
                cores: 0,
                bandwidth: Bandwidth::from_gbps(1.0),
                queue_depth: 1,
                ..ServerConfig::default()
            },
        );
    }
}
