//! The transport abstraction and its error type.
//!
//! [`TcpStorageClient`] speaks the protocol over a socket; the decorators
//! around it (retry, cache, fleet) expose the same two
//! calls. `FetchTransport` lets higher layers — notably the `sophon` data
//! loader — run over any stack of them without caring which.

use pipeline::PipelineSpec;

use crate::wire::WireError;
use crate::{FetchRequest, FetchResponse, TcpStorageClient};

/// Errors surfaced to users of a [`FetchTransport`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClientError {
    /// The server hung up.
    Disconnected,
    /// A response failed to decode.
    Wire(WireError),
    /// The server reported a failure.
    Server {
        /// The failing sample, when per-sample.
        sample_id: Option<u64>,
        /// Server-provided description.
        message: String,
    },
    /// The server sent a response that does not fit the protocol state.
    UnexpectedResponse,
    /// A frame arrived bit-corrupted (CRC32 mismatch). Retryable: the
    /// payload on the server is intact, only the transfer was damaged.
    Corrupted,
    /// The per-request [`Deadline`](crate::Deadline) expired before the
    /// response arrived. Retryable with a fresh budget.
    DeadlineExceeded,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Disconnected => write!(f, "storage server disconnected"),
            ClientError::Wire(e) => write!(f, "wire decode failed: {e}"),
            ClientError::Server { sample_id, message } => match sample_id {
                Some(id) => write!(f, "server error for sample {id}: {message}"),
                None => write!(f, "server error: {message}"),
            },
            ClientError::UnexpectedResponse => write!(f, "unexpected response kind"),
            ClientError::Corrupted => write!(f, "frame corrupted in transit (checksum mismatch)"),
            ClientError::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::ChecksumMismatch => ClientError::Corrupted,
            other => ClientError::Wire(other),
        }
    }
}

/// A connection capable of configuring a session and fetching samples.
pub trait FetchTransport {
    /// Configures the session pipeline; must precede fetches.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport or server failures.
    fn configure(&mut self, dataset_seed: u64, pipeline: PipelineSpec) -> Result<(), ClientError>;

    /// Issues all requests up front and collects every response (any
    /// order).
    ///
    /// # Errors
    ///
    /// Returns the first failure.
    fn fetch_many_requests(
        &mut self,
        requests: &[FetchRequest],
    ) -> Result<Vec<FetchResponse>, ClientError>;
}

impl FetchTransport for TcpStorageClient {
    fn configure(&mut self, dataset_seed: u64, pipeline: PipelineSpec) -> Result<(), ClientError> {
        TcpStorageClient::configure(self, dataset_seed, pipeline)
    }

    fn fetch_many_requests(
        &mut self,
        requests: &[FetchRequest],
    ) -> Result<Vec<FetchResponse>, ClientError> {
        TcpStorageClient::fetch_many_requests(self, requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Bandwidth;
    use pipeline::SplitPoint;

    fn fetch_over<T: FetchTransport>(t: &mut T, seed: u64) -> usize {
        t.configure(seed, PipelineSpec::standard_train()).unwrap();
        let reqs: Vec<_> =
            (0..3u64).map(|id| FetchRequest::new(id, 0, SplitPoint::new(2))).collect();
        t.fetch_many_requests(&reqs).unwrap().len()
    }

    #[test]
    fn tcp_client_satisfies_the_trait() {
        let ds = datasets::DatasetSpec::mini(3, 81);
        let store = crate::ObjectStore::materialize_dataset(&ds, 0..3);
        let tcp_server = crate::TcpStorageServer::bind(
            store,
            crate::ServerConfig {
                cores: 2,
                bandwidth: Bandwidth::from_gbps(10.0),
                ..crate::ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut tcp_client = TcpStorageClient::connect(tcp_server.local_addr()).unwrap();
        assert_eq!(fetch_over(&mut tcp_client, ds.seed), 3);
        tcp_server.shutdown();
    }
}
