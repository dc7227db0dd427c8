//! Per-node health tracking with a circuit breaker.
//!
//! Retrying forever treats a dead node like a slow one; a storage fleet
//! needs the opposite: notice a node is failing, stop hammering it, and
//! let the planner route around it. [`HealthTrackingTransport`] wraps any
//! [`FetchTransport`] and counts consecutive batch failures. Past a
//! threshold the breaker *opens*: requests fail fast with
//! [`ClientError::CircuitOpen`] without touching the wire. After a
//! cooldown the breaker goes *half-open* and admits exactly one probe — a
//! success closes it, a failure re-opens it with a doubled cooldown
//! (capped). The cooldown schedule is a pure function of the trip count,
//! so breaker behaviour under a scripted failure sequence is fully
//! deterministic.
//!
//! The breaker core operates on *virtual* elapsed time ([`Duration`]
//! values), which keeps the state machine unit-testable without sleeping;
//! the transport layer feeds it wall-clock durations from a monotonic
//! start point. A cloneable [`NodeHealthHandle`] shares the breaker state,
//! so callers can watch a node's health even after the transport itself
//! has moved into a worker thread (the fleet scatter-gather pattern).

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use pipeline::PipelineSpec;

use crate::{ClientError, FetchRequest, FetchResponse, FetchTransport};

/// Breaker thresholds and cooldown schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Cooldown before the first half-open probe; doubles per consecutive
    /// trip.
    pub cooldown: Duration,
    /// Ceiling for the doubled cooldown.
    pub cooldown_cap: Duration,
}

impl BreakerConfig {
    /// Production defaults: trip after 3 consecutive failures, 100 ms
    /// first cooldown, 2 s cap.
    pub fn new() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(100),
            cooldown_cap: Duration::from_secs(2),
        }
    }
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig::new()
    }
}

/// The breaker's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests fail fast until the cooldown elapses.
    Open,
    /// Cooled down: exactly one probe request is admitted.
    HalfOpen,
}

/// A point-in-time reading of one node's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Current breaker position.
    pub state: BreakerState,
    /// Consecutive failures since the last success.
    pub consecutive_failures: u32,
    /// Total failed batches observed.
    pub total_failures: u64,
    /// Total successful batches observed.
    pub total_successes: u64,
    /// How many times the breaker has tripped open.
    pub times_opened: u64,
}

/// The breaker state machine, clocked by virtual elapsed time.
#[derive(Debug)]
pub struct BreakerCore {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    /// Consecutive trips without an intervening close (drives doubling).
    trips: u32,
    opened_at: Option<Duration>,
    total_failures: u64,
    total_successes: u64,
    times_opened: u64,
}

impl BreakerCore {
    /// A closed breaker with `config`.
    pub fn new(config: BreakerConfig) -> BreakerCore {
        BreakerCore {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
            opened_at: None,
            total_failures: 0,
            total_successes: 0,
            times_opened: 0,
        }
    }

    /// Current breaker position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The cooldown for the current open period: `cooldown × 2^(trips-1)`,
    /// capped. Deterministic per trip count.
    pub fn current_cooldown(&self) -> Duration {
        let doublings = self.trips.saturating_sub(1).min(16);
        self.config.cooldown.saturating_mul(1u32 << doublings).min(self.config.cooldown_cap)
    }

    /// Whether a request may proceed at virtual time `now`. An open
    /// breaker whose cooldown has elapsed transitions to half-open and
    /// admits this call as the probe.
    pub fn allow(&mut self, now: Duration) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                let opened = self.opened_at.unwrap_or(Duration::ZERO);
                if now.saturating_sub(opened) >= self.current_cooldown() {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
            // A probe is already in flight; everyone else waits.
            BreakerState::HalfOpen => false,
        }
    }

    /// Records a successful batch: closes the breaker and resets the trip
    /// history.
    pub fn on_success(&mut self, _now: Duration) {
        self.total_successes += 1;
        self.consecutive_failures = 0;
        self.trips = 0;
        self.opened_at = None;
        self.state = BreakerState::Closed;
    }

    /// Records a failed batch at virtual time `now`, tripping the breaker
    /// when warranted.
    pub fn on_failure(&mut self, now: Duration) {
        self.total_failures += 1;
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trip(now);
                }
            }
            BreakerState::HalfOpen => {
                self.consecutive_failures += 1;
                self.trip(now);
            }
            BreakerState::Open => {
                // Failures reported while open (e.g. racing threads) keep
                // the breaker open; the clock is not restarted.
                self.consecutive_failures += 1;
            }
        }
    }

    fn trip(&mut self, now: Duration) {
        self.state = BreakerState::Open;
        self.trips += 1;
        self.times_opened += 1;
        self.opened_at = Some(now);
    }

    /// A point-in-time health reading.
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            state: self.state,
            consecutive_failures: self.consecutive_failures,
            total_failures: self.total_failures,
            total_successes: self.total_successes,
            times_opened: self.times_opened,
        }
    }
}

/// A cloneable, thread-safe view of one node's breaker state.
#[derive(Debug, Clone)]
pub struct NodeHealthHandle {
    /// The transport's breaker; see `HealthTrackingTransport::core`.
    core: Arc<Mutex<BreakerCore>>,
}

impl NodeHealthHandle {
    /// A point-in-time health reading.
    pub fn snapshot(&self) -> HealthSnapshot {
        self.core.lock().unwrap_or_else(PoisonError::into_inner).snapshot()
    }

    /// Whether the node is currently degraded (breaker not closed).
    pub fn is_degraded(&self) -> bool {
        self.core.lock().unwrap_or_else(PoisonError::into_inner).state() != BreakerState::Closed
    }
}

/// A [`FetchTransport`] decorator that runs every batch through a circuit
/// breaker.
#[derive(Debug)]
pub struct HealthTrackingTransport<T> {
    inner: T,
    /// The breaker, shared with every [`NodeHealthHandle`]. Its methods
    /// only count and move between states, and any mix of its fields is a
    /// breaker that still closes on a success, so a panicked holder leaves
    /// it usable, and a poisoned lock is used as is.
    core: Arc<Mutex<BreakerCore>>,
    started: Instant,
}

impl<T: FetchTransport> HealthTrackingTransport<T> {
    /// Wraps `inner` with a fresh breaker.
    pub fn new(inner: T, config: BreakerConfig) -> HealthTrackingTransport<T> {
        HealthTrackingTransport {
            inner,
            core: Arc::new(Mutex::new(BreakerCore::new(config))),
            started: Instant::now(),
        }
    }

    /// A cloneable handle observing this node's health — take one before
    /// moving the transport into a worker thread.
    pub fn handle(&self) -> NodeHealthHandle {
        NodeHealthHandle { core: Arc::clone(&self.core) }
    }

    /// A reference to the wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwraps the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: FetchTransport> FetchTransport for HealthTrackingTransport<T> {
    fn configure(&mut self, dataset_seed: u64, pipeline: PipelineSpec) -> Result<(), ClientError> {
        self.inner.configure(dataset_seed, pipeline)
    }

    fn fetch_many_requests(
        &mut self,
        requests: &[FetchRequest],
    ) -> Result<Vec<FetchResponse>, ClientError> {
        if !self.core.lock().unwrap_or_else(PoisonError::into_inner).allow(self.started.elapsed()) {
            return Err(ClientError::CircuitOpen);
        }
        match self.inner.fetch_many_requests(requests) {
            Ok(out) => {
                self.core
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .on_success(self.started.elapsed());
                Ok(out)
            }
            Err(e) => {
                self.core
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .on_failure(self.started.elapsed());
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use pipeline::{SplitPoint, StageData};

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn config() -> BreakerConfig {
        BreakerConfig { failure_threshold: 2, cooldown: ms(100), cooldown_cap: ms(400) }
    }

    #[test]
    fn full_cycle_closed_open_halfopen_closed() {
        let mut b = BreakerCore::new(config());
        assert_eq!(b.state(), BreakerState::Closed);

        // Two consecutive failures trip it.
        assert!(b.allow(ms(0)));
        b.on_failure(ms(0));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(ms(1)));
        b.on_failure(ms(1));
        assert_eq!(b.state(), BreakerState::Open);

        // While open, requests are refused.
        assert!(!b.allow(ms(50)));
        assert!(!b.allow(ms(100)));

        // Cooldown elapsed: exactly one probe is admitted.
        assert!(b.allow(ms(101)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(ms(102)), "second caller must wait for the probe");

        // Probe succeeds: closed, counters reset.
        b.on_success(ms(103));
        assert_eq!(b.state(), BreakerState::Closed);
        let snap = b.snapshot();
        assert_eq!(snap.consecutive_failures, 0);
        assert_eq!(snap.times_opened, 1);
        assert_eq!(snap.total_failures, 2);
        assert_eq!(snap.total_successes, 1);
    }

    #[test]
    fn cooldown_doubles_per_consecutive_trip_and_caps() {
        let mut b = BreakerCore::new(config());
        b.on_failure(ms(0));
        b.on_failure(ms(0)); // trip 1
        assert_eq!(b.current_cooldown(), ms(100));

        // Probe at 100ms fails: trip 2, cooldown doubles to 200ms.
        assert!(b.allow(ms(100)));
        b.on_failure(ms(100));
        assert_eq!(b.current_cooldown(), ms(200));
        assert!(!b.allow(ms(250)), "only 150ms into a 200ms cooldown");

        // Probe at 300ms fails: trip 3, cooldown 400ms (at the cap).
        assert!(b.allow(ms(300)));
        b.on_failure(ms(300));
        assert_eq!(b.current_cooldown(), ms(400));

        // Trip 4 would double to 800ms but the cap holds it at 400ms.
        assert!(b.allow(ms(700)));
        b.on_failure(ms(700));
        assert_eq!(b.current_cooldown(), ms(400));
        assert_eq!(b.snapshot().times_opened, 4);

        // A successful probe resets the schedule to the base cooldown.
        assert!(b.allow(ms(1100)));
        b.on_success(ms(1100));
        b.on_failure(ms(1101));
        b.on_failure(ms(1101));
        assert_eq!(b.current_cooldown(), ms(100));
    }

    #[test]
    fn scripted_sequence_is_deterministic() {
        // The same scripted failure/clock sequence yields the same
        // decisions, twice.
        let run = || {
            let mut b = BreakerCore::new(config());
            let script: [(u64, bool); 7] = [
                (0, false),
                (1, false),
                (120, true), // probe fails
                (200, false),
                (330, true), // 2nd probe (cooldown 200ms) fails
                (900, true),
                (901, false),
            ];
            let mut decisions = Vec::new();
            for (t, _expect_probe) in script {
                let allowed = b.allow(ms(t));
                decisions.push((t, allowed, b.state()));
                if allowed {
                    b.on_failure(ms(t));
                }
            }
            decisions
        };
        assert_eq!(run(), run());
    }

    /// Scripted inner transport for breaker-through-the-trait tests.
    struct Scripted {
        outcomes: std::collections::VecDeque<bool>,
        calls: usize,
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
            if self.outcomes.pop_front().unwrap_or(true) {
                Ok(requests
                    .iter()
                    .map(|r| FetchResponse {
                        sample_id: r.sample_id,
                        ops_applied: 0,
                        data: StageData::Encoded(Bytes::from_static(b"ok")),
                        tier: None,
                    })
                    .collect())
            } else {
                Err(ClientError::Server { sample_id: None, message: "boom".into() })
            }
        }
    }

    #[test]
    fn transport_fails_fast_while_open_without_calling_inner() {
        let inner = Scripted { outcomes: vec![false, false].into(), calls: 0 };
        let cfg = BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(60),
            cooldown_cap: Duration::from_secs(60),
        };
        let mut t = HealthTrackingTransport::new(inner, cfg);
        let handle = t.handle();
        let reqs = vec![FetchRequest::new(1, 0, SplitPoint::NONE)];
        assert!(t.fetch_many_requests(&reqs).is_err());
        assert!(!handle.is_degraded());
        assert!(t.fetch_many_requests(&reqs).is_err());
        assert!(handle.is_degraded());
        assert_eq!(handle.snapshot().state, BreakerState::Open);
        // Open: fail-fast, inner untouched.
        assert!(matches!(t.fetch_many_requests(&reqs), Err(ClientError::CircuitOpen)));
        assert_eq!(t.inner().calls, 2);
    }

    #[test]
    fn transport_recovers_after_cooldown_via_probe() {
        let inner = Scripted { outcomes: vec![false, false, true].into(), calls: 0 };
        let cfg = BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(5),
            cooldown_cap: Duration::from_millis(5),
        };
        let mut t = HealthTrackingTransport::new(inner, cfg);
        let handle = t.handle();
        let reqs = vec![FetchRequest::new(1, 0, SplitPoint::NONE)];
        assert!(t.fetch_many_requests(&reqs).is_err());
        assert!(t.fetch_many_requests(&reqs).is_err());
        assert!(handle.is_degraded());
        std::thread::sleep(Duration::from_millis(10));
        // Cooldown elapsed: the probe goes through and closes the breaker.
        assert!(t.fetch_many_requests(&reqs).is_ok());
        assert!(!handle.is_degraded());
        assert_eq!(handle.snapshot().state, BreakerState::Closed);
    }

    #[test]
    fn works_under_the_loader_trait_bound() {
        fn assert_transport<X: FetchTransport>() {}
        assert_transport::<HealthTrackingTransport<crate::TcpStorageClient>>();
        assert_transport::<
            crate::RetryingTransport<HealthTrackingTransport<crate::TcpStorageClient>>,
        >();
    }
}
