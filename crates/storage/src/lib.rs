//! The remote storage node: object store, fetch protocol, near-storage
//! execution, and the live server.
//!
//! This crate is the paper's storage server (Figure 2, steps d–e): the
//! compute node sends **fetch requests carrying offload directives** — which
//! prefix of the preprocessing pipeline to run near the data — and the
//! server answers with raw or partially preprocessed bytes.
//!
//! * [`ObjectStore`] — the in-memory dataset cache (the paper pins its
//!   subsets in RAM).
//! * [`wire`] — a hand-rolled, length-prefixed binary wire format for
//!   requests, responses, and [`pipeline::StageData`] payloads. Decoding is
//!   total: corrupt bytes produce errors, never panics.
//! * [`NearStorageExecutor`] — applies an offloaded pipeline prefix to a
//!   stored object, reproducing exactly what the compute node would have
//!   computed (deterministic per-(sample, epoch, op) augmentation streams).
//! * [`TcpStorageServer`] / [`TcpStorageClient`] — the storage node as a
//!   network service and its pipelined client. Responses are paced by a
//!   token bucket at [`ServerConfig::bandwidth`], so end-to-end examples
//!   move real bytes through a real 500 Mbps bottleneck.
//! * [`FetchTransport`] — the two calls every client and every decorator
//!   around one expose, with [`ClientError`] as their error.
//!
//! The failure-handling layer (this crate's chaos era):
//!
//! * [`wire`] frames carry a CRC32 trailer; bit corruption surfaces as
//!   [`wire::WireError::ChecksumMismatch`] → [`ClientError::Corrupted`].
//! * [`Deadline`] — per-exchange time budgets on [`TcpStorageClient`],
//!   replacing the old hardcoded read timeout.
//! * [`FaultPlan`] — seeded, deterministic server-side fault injection
//!   over `(sample, epoch, attempt)` keys.
//! * [`RetryingTransport`] — re-sends a failed batch at once, a bounded
//!   number of times; fetches are idempotent.
//!
//! # Example
//!
//! ```
//! use storage::{ObjectStore, ServerConfig, TcpStorageClient, TcpStorageServer};
//! use pipeline::{PipelineSpec, SplitPoint};
//! use netsim::Bandwidth;
//!
//! // Three tiny samples.
//! let ds = datasets::DatasetSpec::mini(3, 9);
//! let store = ObjectStore::materialize_dataset(&ds, 0..3);
//!
//! let config = ServerConfig {
//!     cores: 2,
//!     bandwidth: Bandwidth::from_gbps(10.0),
//!     ..ServerConfig::default()
//! };
//! let server = TcpStorageServer::bind(store, config, "127.0.0.1:0").unwrap();
//! let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
//! client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
//! // Offload Decode + RandomResizedCrop for sample 1, epoch 0.
//! let data = client.fetch(1, 0, SplitPoint::new(2)).unwrap();
//! assert_eq!(data.byte_len(), 150_528);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod chaos;
mod deadline;
mod executor;
mod multi;
mod object_store;
mod protocol;
mod retry;
mod tcp;
mod transport;
pub mod wire;

pub use chaos::{FaultKind, FaultPlan, FaultRecord};
pub use deadline::Deadline;
pub use executor::{ExecError, NearStorageExecutor};
pub use multi::{HarnessError, MultiServerHarness};
pub use object_store::ObjectStore;
pub use protocol::{FetchRequest, FetchResponse, Request, Response, ServeForm, SessionConfig};
pub use retry::RetryingTransport;
pub use tcp::{ServerConfig, TcpStorageClient, TcpStorageServer};
pub use transport::{ClientError, FetchTransport};
