//! Retry decorator for fetch transports.
//!
//! Storage services hiccup: a worker restarts, a connection drops a
//! response, a transient overload sheds a request. [`RetryingTransport`]
//! wraps any [`FetchTransport`] and retries failed batch fetches a bounded
//! number of times, at once. Because fetches are read-only and
//! near-storage execution is deterministic per `(sample, epoch, split)`,
//! retries are idempotent by construction.

use pipeline::PipelineSpec;

use crate::{ClientError, FetchRequest, FetchResponse, FetchTransport};

/// A [`FetchTransport`] that retries failed fetch batches.
#[derive(Debug)]
pub struct RetryingTransport<T> {
    inner: T,
    max_retries: u32,
}

impl<T: FetchTransport> RetryingTransport<T> {
    /// Wraps `inner`, allowing up to `max_retries` re-attempts per batch.
    pub fn new(inner: T, max_retries: u32) -> RetryingTransport<T> {
        RetryingTransport { inner, max_retries }
    }
}

impl<T: FetchTransport> FetchTransport for RetryingTransport<T> {
    fn configure(&mut self, dataset_seed: u64, pipeline: PipelineSpec) -> Result<(), ClientError> {
        self.inner.configure(dataset_seed, pipeline)
    }

    fn fetch_many_requests(
        &mut self,
        requests: &[FetchRequest],
    ) -> Result<Vec<FetchResponse>, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.inner.fetch_many_requests(requests) {
                Ok(r) => return Ok(r),
                // A hung-up transport cannot recover by resending.
                Err(ClientError::Disconnected) => return Err(ClientError::Disconnected),
                Err(e) if attempt >= self.max_retries => return Err(e),
                Err(_) => attempt += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::SplitPoint;
    use pipeline::StageData;

    /// A scripted transport: each `fetch_many_requests` call pops the next
    /// outcome.
    struct Scripted {
        outcomes: std::collections::VecDeque<Result<(), ClientError>>,
        calls: usize,
    }

    impl Scripted {
        fn new(outcomes: Vec<Result<(), ClientError>>) -> Scripted {
            Scripted { outcomes: outcomes.into(), calls: 0 }
        }
    }

    impl FetchTransport for Scripted {
        fn configure(&mut self, _: u64, _: PipelineSpec) -> Result<(), ClientError> {
            Ok(())
        }

        fn fetch_many_requests(
            &mut self,
            requests: &[FetchRequest],
        ) -> Result<Vec<FetchResponse>, ClientError> {
            self.calls += 1;
            match self.outcomes.pop_front().expect("script exhausted") {
                Ok(()) => Ok(requests
                    .iter()
                    .map(|r| FetchResponse {
                        sample_id: r.sample_id,
                        form: r.form,
                        data: StageData::Encoded(bytes::Bytes::from_static(b"payload")),
                    })
                    .collect()),
                Err(e) => Err(e),
            }
        }
    }

    fn server_err() -> ClientError {
        ClientError::Server { sample_id: Some(1), message: "transient".into() }
    }

    fn reqs() -> Vec<FetchRequest> {
        vec![FetchRequest::new(1, 0, SplitPoint::NONE)]
    }

    #[test]
    fn transient_failures_are_retried() {
        let scripted = Scripted::new(vec![Err(server_err()), Err(server_err()), Ok(())]);
        let mut t = RetryingTransport::new(scripted, 3);
        let out = t.fetch_many_requests(&reqs()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(t.inner.calls, 3, "two retries");
    }

    #[test]
    fn retry_budget_is_respected() {
        let scripted = Scripted::new(vec![Err(server_err()), Err(server_err())]);
        let mut t = RetryingTransport::new(scripted, 1);
        assert!(t.fetch_many_requests(&reqs()).is_err());
        assert_eq!(t.inner.calls, 2, "one retry");
    }

    #[test]
    fn corruption_and_deadline_and_breaker_errors_are_retried() {
        // The chaos-era transient errors: a corrupted frame and an expired
        // deadline both deserve another attempt.
        for transient in [ClientError::Corrupted, ClientError::DeadlineExceeded] {
            let scripted = Scripted::new(vec![Err(transient.clone()), Ok(())]);
            let mut t = RetryingTransport::new(scripted, 2);
            let out = t.fetch_many_requests(&reqs()).unwrap();
            assert_eq!(out.len(), 1, "{transient:?} must be retryable");
            assert_eq!(t.inner.calls, 2, "one retry");
        }
    }

    #[test]
    fn disconnection_is_not_retried() {
        let scripted = Scripted::new(vec![Err(ClientError::Disconnected)]);
        let mut t = RetryingTransport::new(scripted, 5);
        assert!(matches!(t.fetch_many_requests(&reqs()), Err(ClientError::Disconnected)));
        assert_eq!(t.inner.calls, 1, "no retry");
    }

    #[test]
    fn zero_budget_means_single_attempt() {
        let scripted = Scripted::new(vec![Err(server_err())]);
        let mut t = RetryingTransport::new(scripted, 0);
        assert!(t.fetch_many_requests(&reqs()).is_err());
        assert_eq!(t.inner.calls, 1);
    }

    #[test]
    fn works_under_the_loader_trait_bound() {
        // Compile-time check: RetryingTransport<T> is itself a transport.
        fn assert_transport<X: FetchTransport>() {}
        assert_transport::<RetryingTransport<crate::TcpStorageClient>>();
    }
}
