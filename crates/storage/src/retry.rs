//! Retry decorator for fetch transports.
//!
//! Storage services hiccup: a worker restarts, a connection drops a
//! response, a transient overload sheds a request. [`RetryingTransport`]
//! wraps any [`FetchTransport`] and retries failed batch fetches a bounded
//! number of times. Because fetches are read-only and near-storage
//! execution is deterministic per `(sample, epoch, split)`, retries are
//! idempotent by construction.
//!
//! Re-attempts back off exponentially with deterministic, seedable jitter
//! ([`BackoffConfig`]) rather than hammering a struggling server in a hot
//! loop: attempt `k` sleeps `base × 2^k`, jittered by up to half of
//! itself, capped per attempt. The jitter stream is a plain
//! [SplitMix64](https://prng.di.unimi.it/splitmix64.c) step keyed by the
//! configured seed, so two identically-seeded transports sleep identical
//! schedules — failure reproductions stay deterministic end to end.

use std::time::Duration;

use pipeline::PipelineSpec;

use crate::{ClientError, FetchRequest, FetchResponse, FetchTransport};

/// Backoff schedule for [`RetryingTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Delay before the first re-attempt; doubles each retry.
    pub base: Duration,
    /// Hard ceiling for any single attempt's delay (after jitter).
    pub cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl BackoffConfig {
    /// Production defaults: 50 ms base, 2 s per-attempt cap.
    pub fn new(seed: u64) -> BackoffConfig {
        BackoffConfig { base: Duration::from_millis(50), cap: Duration::from_secs(2), seed }
    }

    /// No sleeping at all — the pre-backoff behaviour; also what tests
    /// use to stay fast.
    pub fn none() -> BackoffConfig {
        BackoffConfig { base: Duration::ZERO, cap: Duration::ZERO, seed: 0 }
    }

    /// Delay for re-attempt `attempt` (0-based), advancing `jitter_state`.
    fn delay(&self, attempt: u32, jitter_state: &mut u64) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let exp = self.base.saturating_mul(1u32 << attempt.min(16));
        // Jitter in [0, exp/2): spreads identically-failing clients apart
        // while keeping the schedule a pure function of the seed.
        let half = exp / 2;
        let jitter = if half.is_zero() {
            Duration::ZERO
        } else {
            // SplitMix64 step.
            *jitter_state = jitter_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *jitter_state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            Duration::from_nanos(z % half.as_nanos().max(1) as u64)
        };
        (exp + jitter).min(self.cap)
    }
}

/// A [`FetchTransport`] that retries failed fetch batches with
/// exponential backoff.
#[derive(Debug)]
pub struct RetryingTransport<T> {
    inner: T,
    max_retries: u32,
    backoff: BackoffConfig,
    jitter_state: u64,
    retries_used: u64,
    backoff_waited: Duration,
}

impl<T: FetchTransport> RetryingTransport<T> {
    /// Wraps `inner`, allowing up to `max_retries` re-attempts per batch
    /// with the default backoff schedule (seeded from `max_retries` for
    /// determinism; use [`RetryingTransport::with_backoff`] to choose).
    pub fn new(inner: T, max_retries: u32) -> RetryingTransport<T> {
        Self::with_backoff(inner, max_retries, BackoffConfig::new(u64::from(max_retries)))
    }

    /// Wraps `inner` with an explicit backoff schedule.
    pub fn with_backoff(
        inner: T,
        max_retries: u32,
        backoff: BackoffConfig,
    ) -> RetryingTransport<T> {
        RetryingTransport {
            inner,
            max_retries,
            backoff,
            jitter_state: backoff.seed,
            retries_used: 0,
            backoff_waited: Duration::ZERO,
        }
    }

    /// Total retries performed so far (observability).
    pub fn retries_used(&self) -> u64 {
        self.retries_used
    }

    /// Total time spent sleeping between attempts (observability).
    pub fn backoff_waited(&self) -> Duration {
        self.backoff_waited
    }

    /// Unwraps the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
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
                Err(e) => {
                    if attempt >= self.max_retries {
                        return Err(e);
                    }
                    let delay = self.backoff.delay(attempt, &mut self.jitter_state);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                        self.backoff_waited += delay;
                    }
                    attempt += 1;
                    self.retries_used += 1;
                }
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
                        ops_applied: 0,
                        data: StageData::Encoded(bytes::Bytes::from_static(b"payload")),
                        tier: None,
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
        assert_eq!(t.retries_used(), 2);
        assert_eq!(t.into_inner().calls, 3);
    }

    #[test]
    fn retry_budget_is_respected() {
        let scripted = Scripted::new(vec![Err(server_err()), Err(server_err())]);
        let mut t = RetryingTransport::new(scripted, 1);
        assert!(t.fetch_many_requests(&reqs()).is_err());
        assert_eq!(t.retries_used(), 1);
    }

    #[test]
    fn corruption_and_deadline_and_breaker_errors_are_retried() {
        // The chaos-era transient errors: a corrupted frame, an expired
        // deadline, and an open breaker all deserve another attempt.
        for transient in
            [ClientError::Corrupted, ClientError::DeadlineExceeded, ClientError::CircuitOpen]
        {
            let scripted = Scripted::new(vec![Err(transient.clone()), Ok(())]);
            let mut t = RetryingTransport::new(scripted, 2);
            let out = t.fetch_many_requests(&reqs()).unwrap();
            assert_eq!(out.len(), 1, "{transient:?} must be retryable");
            assert_eq!(t.retries_used(), 1);
        }
    }

    #[test]
    fn disconnection_is_not_retried() {
        let scripted = Scripted::new(vec![Err(ClientError::Disconnected)]);
        let mut t = RetryingTransport::new(scripted, 5);
        assert!(matches!(t.fetch_many_requests(&reqs()), Err(ClientError::Disconnected)));
        assert_eq!(t.retries_used(), 0);
    }

    #[test]
    fn zero_budget_means_single_attempt() {
        let scripted = Scripted::new(vec![Err(server_err())]);
        let mut t = RetryingTransport::new(scripted, 0);
        assert!(t.fetch_many_requests(&reqs()).is_err());
        assert_eq!(t.into_inner().calls, 1);
    }

    #[test]
    fn backoff_sleeps_between_attempts_and_counts_the_wait() {
        let scripted = Scripted::new(vec![Err(server_err()), Err(server_err()), Ok(())]);
        let backoff = BackoffConfig {
            base: Duration::from_micros(200),
            cap: Duration::from_millis(5),
            seed: 7,
        };
        let mut t = RetryingTransport::with_backoff(scripted, 3, backoff);
        let started = std::time::Instant::now();
        t.fetch_many_requests(&reqs()).unwrap();
        let waited = t.backoff_waited();
        // Two retries: 200µs + 400µs exponential floor, each plus up to
        // half itself in jitter, both under the cap.
        assert!(waited >= Duration::from_micros(600), "waited {waited:?}");
        assert!(waited <= Duration::from_micros(900), "waited {waited:?}");
        assert!(started.elapsed() >= waited, "sleeps must actually happen");
        assert_eq!(t.retries_used(), 2);
    }

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let run = |seed| {
            let scripted = Scripted::new(vec![
                Err(server_err()),
                Err(server_err()),
                Err(server_err()),
                Ok(()),
            ]);
            let backoff = BackoffConfig {
                base: Duration::from_micros(100),
                cap: Duration::from_millis(5),
                seed,
            };
            let mut t = RetryingTransport::with_backoff(scripted, 4, backoff);
            t.fetch_many_requests(&reqs()).unwrap();
            t.backoff_waited()
        };
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(run(42), run(43), "different seeds must jitter apart");
    }

    #[test]
    fn per_attempt_delay_is_capped() {
        let scripted = Scripted::new(vec![
            Err(server_err()),
            Err(server_err()),
            Err(server_err()),
            Err(server_err()),
            Ok(()),
        ]);
        // Base 1ms doubling would reach 8ms by attempt 3; the 1ms cap
        // flattens every attempt.
        let backoff = BackoffConfig {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(1),
            seed: 0,
        };
        let mut t = RetryingTransport::with_backoff(scripted, 4, backoff);
        t.fetch_many_requests(&reqs()).unwrap();
        assert_eq!(t.retries_used(), 4);
        assert!(
            t.backoff_waited() <= Duration::from_millis(4),
            "waited {:?} despite a 1ms/attempt cap",
            t.backoff_waited()
        );
    }

    #[test]
    fn none_backoff_never_sleeps() {
        let scripted = Scripted::new(vec![Err(server_err()), Ok(())]);
        let mut t = RetryingTransport::with_backoff(scripted, 1, BackoffConfig::none());
        t.fetch_many_requests(&reqs()).unwrap();
        assert_eq!(t.backoff_waited(), Duration::ZERO);
        assert_eq!(t.retries_used(), 1);
    }

    #[test]
    fn works_under_the_loader_trait_bound() {
        // Compile-time check: RetryingTransport<T> is itself a transport.
        fn assert_transport<X: FetchTransport>() {}
        assert_transport::<RetryingTransport<crate::TcpStorageClient>>();
    }
}
