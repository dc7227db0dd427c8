//! Deterministic fault injection for the storage data path.
//!
//! A [`FaultPlan`] is a seeded schedule deciding, for every
//! `(sample, epoch, attempt)` fetch, whether to inject a fault and which
//! kind: drop the response, delay it, truncate its frame, flip a bit, or
//! replace it with a server error. Decisions are a pure SplitMix64 hash of
//! the key — the same discipline [`BackoffConfig`](crate::BackoffConfig)
//! uses for jitter — so two runs with the same seed inject the *identical*
//! fault sequence, and a chaos failure found in CI reproduces locally from
//! nothing but the seed.
//!
//! The plan drives two injectors:
//!
//! * [`FaultInjectingTransport`] — a client-side [`FetchTransport`]
//!   decorator that perturbs batches before/after they reach the inner
//!   transport. Corruption faults round-trip the real response through the
//!   [`wire`] encoder, mutate the encoded bytes, and feed them back through
//!   the real decoder, so the production CRC path is what detects them.
//! * [`ServerFaultInjector`] — shared state a
//!   [`TcpStorageServer`](crate::TcpStorageServer) consults per fetch; the
//!   connection writer then drops, delays, truncates, or bit-flips the
//!   already-encoded response frame on the wire itself.
//!
//! Every plan stops injecting once a key's attempt count reaches
//! [`FaultPlan::fault_attempts`], so a bounded retry budget always
//! converges: chaos perturbs the path, it never makes progress impossible.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use parking_lot::Mutex;
use pipeline::PipelineSpec;

use crate::protocol::Response;
use crate::wire;
use crate::{ClientError, FetchRequest, FetchResponse, FetchTransport};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The response is never delivered; the client's deadline fires.
    Drop,
    /// The response is delivered late by the embedded duration.
    Delay(Duration),
    /// The encoded response frame loses its tail bytes.
    Truncate,
    /// One bit of the encoded response frame is flipped.
    BitFlip,
    /// The response is replaced by a server-side error.
    Error,
}

impl FaultKind {
    /// Short label for logs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay(_) => "delay",
            FaultKind::Truncate => "truncate",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::Error => "error",
        }
    }
}

/// A fault decision plus the deterministic salt that parameterizes it
/// (which byte to cut, which bit to flip).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDirective {
    /// What to do to the response.
    pub kind: FaultKind,
    /// Seeded randomness for the fault's parameters.
    pub salt: u64,
}

/// One injected fault, as recorded by an injector's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultRecord {
    /// Node the injector belongs to (0 for a lone transport).
    pub node: usize,
    /// The faulted sample.
    pub sample_id: u64,
    /// The faulted epoch.
    pub epoch: u64,
    /// 0-based attempt index for this `(sample, epoch)` key.
    pub attempt: u32,
    /// Short label of the injected fault kind.
    pub kind: &'static str,
}

/// A stateless SplitMix64 scramble (same constants as
/// [`BackoffConfig`](crate::BackoffConfig)'s jitter stream).
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash of a full fault key.
fn mix_key(seed: u64, sample: u64, epoch: u64, attempt: u32) -> u64 {
    mix(mix(mix(mix(seed) ^ sample) ^ epoch) ^ u64::from(attempt))
}

/// Maps a hash onto the unit interval.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded, deterministic fault schedule over `(sample, epoch, attempt)`
/// keys.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    drop_rate: f64,
    delay_rate: f64,
    delay: Duration,
    truncate_rate: f64,
    bit_flip_rate: f64,
    error_rate: f64,
    fault_attempts: u32,
    scripted: BTreeMap<(u64, u64, u32), FaultKind>,
}

impl FaultPlan {
    /// A plan that injects nothing (rates all zero); add faults with the
    /// builder methods or [`FaultPlan::script`].
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::from_millis(2),
            truncate_rate: 0.0,
            bit_flip_rate: 0.0,
            error_rate: 0.0,
            fault_attempts: 1,
            scripted: BTreeMap::new(),
        }
    }

    /// The aggressive chaos preset: every fault kind at a rate that makes
    /// multi-fault batches routine, injecting on the first two attempts of
    /// each key.
    pub fn aggressive(seed: u64) -> FaultPlan {
        FaultPlan::quiet(seed)
            .with_drops(0.04)
            .with_delays(0.10, Duration::from_millis(2))
            .with_truncations(0.05)
            .with_bit_flips(0.05)
            .with_errors(0.05)
            .with_fault_attempts(2)
    }

    /// Sets the response-drop rate.
    pub fn with_drops(mut self, rate: f64) -> FaultPlan {
        self.drop_rate = rate;
        self
    }

    /// Sets the delay rate and per-fault delay.
    pub fn with_delays(mut self, rate: f64, delay: Duration) -> FaultPlan {
        self.delay_rate = rate;
        self.delay = delay;
        self
    }

    /// Sets the frame-truncation rate.
    pub fn with_truncations(mut self, rate: f64) -> FaultPlan {
        self.truncate_rate = rate;
        self
    }

    /// Sets the bit-flip rate.
    pub fn with_bit_flips(mut self, rate: f64) -> FaultPlan {
        self.bit_flip_rate = rate;
        self
    }

    /// Sets the injected-server-error rate.
    pub fn with_errors(mut self, rate: f64) -> FaultPlan {
        self.error_rate = rate;
        self
    }

    /// Random faults only strike while a key's attempt index is below
    /// `n` — the convergence guarantee for bounded retry budgets.
    /// Scripted faults are exempt.
    pub fn with_fault_attempts(mut self, n: u32) -> FaultPlan {
        self.fault_attempts = n;
        self
    }

    /// Forces a specific fault for one exact `(sample, epoch, attempt)`
    /// key, overriding the random schedule.
    pub fn script(mut self, sample: u64, epoch: u64, attempt: u32, kind: FaultKind) -> FaultPlan {
        self.scripted.insert((sample, epoch, attempt), kind);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The same schedule parameters under a different seed (used to derive
    /// per-node plans from one fleet seed).
    pub fn reseeded(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Attempt index at/after which random faults stop firing.
    pub fn fault_attempts(&self) -> u32 {
        self.fault_attempts
    }

    /// The fault (if any) for one `(sample, epoch, attempt)` fetch — a pure
    /// function of the plan.
    pub fn fault_for(&self, sample: u64, epoch: u64, attempt: u32) -> Option<FaultDirective> {
        let h = mix_key(self.seed, sample, epoch, attempt);
        let salt = mix(h);
        if let Some(&kind) = self.scripted.get(&(sample, epoch, attempt)) {
            return Some(FaultDirective { kind, salt });
        }
        if attempt >= self.fault_attempts {
            return None;
        }
        let u = unit(h);
        let mut edge = self.drop_rate;
        if u < edge {
            return Some(FaultDirective { kind: FaultKind::Drop, salt });
        }
        edge += self.delay_rate;
        if u < edge {
            return Some(FaultDirective { kind: FaultKind::Delay(self.delay), salt });
        }
        edge += self.truncate_rate;
        if u < edge {
            return Some(FaultDirective { kind: FaultKind::Truncate, salt });
        }
        edge += self.bit_flip_rate;
        if u < edge {
            return Some(FaultDirective { kind: FaultKind::BitFlip, salt });
        }
        edge += self.error_rate;
        if u < edge {
            return Some(FaultDirective { kind: FaultKind::Error, salt });
        }
        None
    }
}

/// Removes 1–16 tail bytes from an encoded frame (salt-directed).
pub fn truncate_payload(payload: &mut Vec<u8>, salt: u64) {
    if payload.is_empty() {
        return;
    }
    let cut = 1 + (salt as usize) % payload.len().min(16);
    payload.truncate(payload.len().saturating_sub(cut));
}

/// Flips one bit of an encoded frame (salt-directed).
pub fn flip_bit(payload: &mut [u8], salt: u64) {
    if payload.is_empty() {
        return;
    }
    let idx = (salt as usize) % payload.len();
    let bit = ((salt >> 32) % 8) as u8;
    payload[idx] ^= 1 << bit;
}

/// Shared per-node injector a TCP server consults for every fetch.
///
/// Tracks attempt counts per `(sample, epoch)` key (each generated
/// response bumps the key) and records every injected fault, so a chaos
/// run can assert the exact fault sequence afterwards.
#[derive(Debug)]
pub struct ServerFaultInjector {
    node: usize,
    plan: FaultPlan,
    attempts: Mutex<HashMap<(u64, u64), u32>>,
    log: Mutex<Vec<FaultRecord>>,
}

impl ServerFaultInjector {
    /// An injector for `node` driven by `plan`.
    pub fn new(node: usize, plan: FaultPlan) -> ServerFaultInjector {
        ServerFaultInjector {
            node,
            plan,
            attempts: Mutex::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Decides the fault for the next response to `(sample, epoch)`,
    /// bumping the key's attempt counter and logging any hit.
    pub fn decide(&self, sample: u64, epoch: u64) -> Option<FaultDirective> {
        let attempt = {
            let mut attempts = self.attempts.lock();
            let slot = attempts.entry((sample, epoch)).or_insert(0);
            let current = *slot;
            *slot += 1;
            current
        };
        let directive = self.plan.fault_for(sample, epoch, attempt);
        if let Some(d) = directive {
            self.log.lock().push(FaultRecord {
                node: self.node,
                sample_id: sample,
                epoch,
                attempt,
                kind: d.kind.name(),
            });
        }
        directive
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> usize {
        self.log.lock().len()
    }

    /// The fault log, sorted by `(sample, epoch, attempt)` so logs from
    /// different runs compare independent of worker-thread interleaving.
    pub fn log(&self) -> Vec<FaultRecord> {
        let mut log = self.log.lock().clone();
        log.sort_unstable();
        log
    }
}

/// A client-side [`FetchTransport`] decorator injecting faults from a
/// [`FaultPlan`].
///
/// Per batch call, every request's `(sample, epoch)` attempt counter is
/// bumped and the first faulted request (in batch order) decides the
/// batch's fate — one injected fault per call keeps attempt accounting
/// deterministic. Corruption faults are applied to the *encoded* response
/// and pushed through the real wire decoder, so what the caller observes
/// is exactly what the CRC layer produces.
#[derive(Debug)]
pub struct FaultInjectingTransport<T> {
    inner: T,
    node: usize,
    plan: FaultPlan,
    attempts: HashMap<(u64, u64), u32>,
    log: Vec<FaultRecord>,
}

impl<T: FetchTransport> FaultInjectingTransport<T> {
    /// Wraps `inner` with faults drawn from `plan` (node label 0).
    pub fn new(inner: T, plan: FaultPlan) -> FaultInjectingTransport<T> {
        Self::for_node(inner, 0, plan)
    }

    /// Wraps `inner`, labelling log records with `node`.
    pub fn for_node(inner: T, node: usize, plan: FaultPlan) -> FaultInjectingTransport<T> {
        FaultInjectingTransport { inner, node, plan, attempts: HashMap::new(), log: Vec::new() }
    }

    /// Faults injected so far, in injection order.
    pub fn log(&self) -> &[FaultRecord] {
        &self.log
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> usize {
        self.log.len()
    }

    /// A reference to the wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwraps the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Corrupts the target response via a wire round-trip and returns the
    /// decoder's verdict as the batch error.
    fn corrupt_and_decode(
        resp: &FetchResponse,
        kind: FaultKind,
        salt: u64,
    ) -> Result<Vec<FetchResponse>, ClientError> {
        let mut bytes = Vec::new();
        wire::encode_response_into(0, &Response::Data(resp.clone()), &mut bytes);
        match kind {
            FaultKind::Truncate => truncate_payload(&mut bytes, salt),
            _ => flip_bit(&mut bytes, salt),
        }
        match wire::decode_response_framed(&bytes) {
            Err(e) => Err(ClientError::from(e)),
            // CRC32 catches every ≤32-bit burst, so this arm is
            // unreachable for single flips; stay total anyway.
            Ok(_) => Err(ClientError::Corrupted),
        }
    }
}

impl<T: FetchTransport> FetchTransport for FaultInjectingTransport<T> {
    fn configure(&mut self, dataset_seed: u64, pipeline: PipelineSpec) -> Result<(), ClientError> {
        self.inner.configure(dataset_seed, pipeline)
    }

    fn fetch_many_requests(
        &mut self,
        requests: &[FetchRequest],
    ) -> Result<Vec<FetchResponse>, ClientError> {
        let mut fault: Option<(u64, FaultDirective)> = None;
        for req in requests {
            let slot = self.attempts.entry((req.sample_id, req.epoch)).or_insert(0);
            let attempt = *slot;
            *slot += 1;
            if fault.is_none() {
                if let Some(d) = self.plan.fault_for(req.sample_id, req.epoch, attempt) {
                    self.log.push(FaultRecord {
                        node: self.node,
                        sample_id: req.sample_id,
                        epoch: req.epoch,
                        attempt,
                        kind: d.kind.name(),
                    });
                    fault = Some((req.sample_id, d));
                }
            }
        }
        match fault {
            None => self.inner.fetch_many_requests(requests),
            Some((_, FaultDirective { kind: FaultKind::Drop, .. })) => {
                Err(ClientError::DeadlineExceeded)
            }
            Some((_, FaultDirective { kind: FaultKind::Delay(d), .. })) => {
                std::thread::sleep(d);
                self.inner.fetch_many_requests(requests)
            }
            Some((sample_id, FaultDirective { kind: FaultKind::Error, .. })) => {
                Err(ClientError::Server {
                    sample_id: Some(sample_id),
                    message: "injected storage fault".into(),
                })
            }
            Some((sample_id, FaultDirective { kind, salt })) => {
                let out = self.inner.fetch_many_requests(requests)?;
                match out.iter().find(|r| r.sample_id == sample_id) {
                    Some(resp) => Self::corrupt_and_decode(resp, kind, salt),
                    None => Ok(out),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use pipeline::{SplitPoint, StageData};

    /// Always succeeds, returning a fixed payload per request.
    struct Perfect {
        calls: usize,
    }

    impl FetchTransport for Perfect {
        fn configure(&mut self, _: u64, _: PipelineSpec) -> Result<(), ClientError> {
            Ok(())
        }

        fn fetch_many_requests(
            &mut self,
            requests: &[FetchRequest],
        ) -> Result<Vec<FetchResponse>, ClientError> {
            self.calls += 1;
            Ok(requests
                .iter()
                .map(|r| FetchResponse {
                    sample_id: r.sample_id,
                    ops_applied: 0,
                    data: StageData::Encoded(Bytes::from_static(b"sample payload bytes")),
                    tier: None,
                })
                .collect())
        }
    }

    fn reqs(ids: &[u64]) -> Vec<FetchRequest> {
        ids.iter().map(|&id| FetchRequest::new(id, 0, SplitPoint::NONE)).collect()
    }

    #[test]
    fn fault_schedule_is_a_pure_function_of_the_seed() {
        let a = FaultPlan::aggressive(7);
        let b = FaultPlan::aggressive(7);
        let c = FaultPlan::aggressive(8);
        let key_faults = |p: &FaultPlan| -> Vec<Option<&'static str>> {
            (0..200u64).map(|s| p.fault_for(s, 1, 0).map(|d| d.kind.name())).collect()
        };
        assert_eq!(key_faults(&a), key_faults(&b), "same seed, same schedule");
        assert_ne!(key_faults(&a), key_faults(&c), "different seed, different schedule");
        // The aggressive preset actually fires at these rates over 200 keys.
        assert!(key_faults(&a).iter().flatten().count() > 20);
    }

    #[test]
    fn faults_stop_after_the_attempt_bound() {
        let plan = FaultPlan::aggressive(11);
        for sample in 0..100u64 {
            for attempt in plan.fault_attempts()..plan.fault_attempts() + 4 {
                assert_eq!(plan.fault_for(sample, 0, attempt), None, "attempt {attempt} faulted");
            }
        }
    }

    #[test]
    fn scripted_faults_override_the_schedule() {
        let plan = FaultPlan::quiet(3).script(9, 2, 1, FaultKind::BitFlip);
        assert_eq!(plan.fault_for(9, 2, 1).map(|d| d.kind), Some(FaultKind::BitFlip));
        assert_eq!(plan.fault_for(9, 2, 0), None);
        assert_eq!(plan.fault_for(8, 2, 1), None);
    }

    #[test]
    fn drop_fault_surfaces_as_deadline_exceeded_then_clears() {
        let plan = FaultPlan::quiet(5).script(1, 0, 0, FaultKind::Drop);
        let mut t = FaultInjectingTransport::new(Perfect { calls: 0 }, plan);
        assert!(matches!(t.fetch_many_requests(&reqs(&[1])), Err(ClientError::DeadlineExceeded)));
        // Attempt 1 is clean: the retry converges.
        assert_eq!(t.fetch_many_requests(&reqs(&[1])).unwrap().len(), 1);
        assert_eq!(t.injected(), 1);
        assert_eq!(t.log()[0].kind, "drop");
    }

    #[test]
    fn corruption_faults_are_detected_by_the_real_decoder() {
        for kind in [FaultKind::Truncate, FaultKind::BitFlip] {
            let plan = FaultPlan::quiet(5).script(2, 0, 0, kind);
            let mut t = FaultInjectingTransport::new(Perfect { calls: 0 }, plan);
            let err = t.fetch_many_requests(&reqs(&[2])).unwrap_err();
            assert!(
                matches!(err, ClientError::Corrupted | ClientError::Wire(_)),
                "{kind:?} surfaced as {err:?}"
            );
            assert_eq!(t.fetch_many_requests(&reqs(&[2])).unwrap().len(), 1);
        }
    }

    #[test]
    fn error_fault_names_the_sample() {
        let plan = FaultPlan::quiet(5).script(3, 0, 0, FaultKind::Error);
        let mut t = FaultInjectingTransport::new(Perfect { calls: 0 }, plan);
        match t.fetch_many_requests(&reqs(&[3])).unwrap_err() {
            ClientError::Server { sample_id, .. } => assert_eq!(sample_id, Some(3)),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn one_fault_per_batch_and_attempts_advance_together() {
        // Both samples scripted to fault on attempt 0; only the first in
        // batch order fires, but both attempt counters advance.
        let plan =
            FaultPlan::quiet(5).script(1, 0, 0, FaultKind::Error).script(2, 0, 0, FaultKind::Error);
        let mut t = FaultInjectingTransport::new(Perfect { calls: 0 }, plan);
        assert!(t.fetch_many_requests(&reqs(&[1, 2])).is_err());
        assert_eq!(t.injected(), 1);
        // Attempt 1 for both keys: clean.
        assert_eq!(t.fetch_many_requests(&reqs(&[1, 2])).unwrap().len(), 2);
    }

    #[test]
    fn server_injector_counts_attempts_and_logs_sorted() {
        let plan =
            FaultPlan::quiet(5).script(4, 0, 0, FaultKind::Drop).script(1, 0, 1, FaultKind::Error);
        let inj = ServerFaultInjector::new(2, plan);
        assert_eq!(inj.decide(4, 0).map(|d| d.kind), Some(FaultKind::Drop));
        assert_eq!(inj.decide(1, 0), None); // attempt 0: clean
        assert_eq!(inj.decide(1, 0).map(|d| d.kind), Some(FaultKind::Error));
        assert_eq!(inj.decide(4, 0), None); // attempt 1: clean
        let log = inj.log();
        assert_eq!(log.len(), 2);
        assert_eq!((log[0].sample_id, log[0].attempt, log[0].node), (1, 1, 2));
        assert_eq!((log[1].sample_id, log[1].attempt), (4, 0));
    }

    #[test]
    fn corruption_helpers_always_mutate() {
        let mut frame = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let original = frame.clone();
        flip_bit(&mut frame, 0xdead_beef_cafe_f00d);
        assert_ne!(frame, original);
        let mut frame = original.clone();
        truncate_payload(&mut frame, 0x1234_5678);
        assert!(frame.len() < original.len());
    }
}
