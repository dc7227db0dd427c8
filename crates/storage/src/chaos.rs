//! Deterministic fault injection for the storage data path.
//!
//! A [`FaultPlan`] is a seeded schedule deciding, for every
//! `(sample, epoch, attempt)` fetch, whether to inject a fault and which
//! kind: drop the response, delay it, truncate its frame, flip a bit, or
//! replace it with a server error. Decisions are a pure SplitMix64 hash of
//! the key, so two runs with the same seed inject the *identical*
//! fault sequence, and a chaos failure found in CI reproduces locally from
//! nothing but the seed.
//!
//! The plan drives a [`ServerFaultInjector`]: shared state a
//! [`TcpStorageServer`](crate::TcpStorageServer) consults per fetch. The
//! connection writer then drops, delays, truncates, or bit-flips the
//! already-encoded response frame on the wire itself, so the client's
//! production CRC path is what detects corruption.
//!
//! Random faults stop once a key's attempt count reaches the plan's fault
//! attempt bound, so a bounded retry budget always converges: chaos
//! perturbs the path, it never makes progress impossible.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use imagery::rng::splitmix64;

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
    pub(crate) fn name(&self) -> &'static str {
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
pub(crate) struct FaultDirective {
    /// What to do to the response.
    pub(crate) kind: FaultKind,
    /// Seeded randomness for the fault's parameters.
    pub(crate) salt: u64,
}

/// One injected fault, as recorded by an injector's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultRecord {
    /// Node the injector belongs to.
    pub(crate) node: usize,
    /// The faulted sample.
    pub sample_id: u64,
    /// The faulted epoch.
    pub(crate) epoch: u64,
    /// 0-based attempt index for this `(sample, epoch)` key.
    pub attempt: u32,
    /// Short label of the injected fault kind.
    pub kind: &'static str,
}

/// Hash of a full fault key.
fn mix_key(seed: u64, sample: u64, epoch: u64, attempt: u32) -> u64 {
    splitmix64(splitmix64(splitmix64(splitmix64(seed) ^ sample) ^ epoch) ^ u64::from(attempt))
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
    /// Random faults only strike while a key's attempt index is below
    /// this; scripted faults are exempt.
    fault_attempts: u32,
    scripted: BTreeMap<(u64, u64, u32), FaultKind>,
}

impl FaultPlan {
    /// A plan that injects nothing (rates all zero); add faults with
    /// [`FaultPlan::script`].
    pub(crate) fn quiet(seed: u64) -> FaultPlan {
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
        FaultPlan {
            drop_rate: 0.04,
            delay_rate: 0.10,
            truncate_rate: 0.05,
            bit_flip_rate: 0.05,
            error_rate: 0.05,
            fault_attempts: 2,
            ..FaultPlan::quiet(seed)
        }
    }

    /// Sets the injected-server-error rate.
    #[cfg(test)]
    pub(crate) fn with_errors(mut self, rate: f64) -> FaultPlan {
        self.error_rate = rate;
        self
    }

    /// Forces a specific fault for one exact `(sample, epoch, attempt)`
    /// key, overriding the random schedule.
    pub fn script(mut self, sample: u64, epoch: u64, attempt: u32, kind: FaultKind) -> FaultPlan {
        self.scripted.insert((sample, epoch, attempt), kind);
        self
    }

    /// The plan's seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The same schedule parameters under a different seed (used to derive
    /// per-node plans from one fleet seed).
    pub(crate) fn reseeded(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// The fault (if any) for one `(sample, epoch, attempt)` fetch — a pure
    /// function of the plan.
    pub(crate) fn fault_for(
        &self,
        sample: u64,
        epoch: u64,
        attempt: u32,
    ) -> Option<FaultDirective> {
        let h = mix_key(self.seed, sample, epoch, attempt);
        let salt = splitmix64(h);
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
pub(crate) fn truncate_payload(payload: &mut Vec<u8>, salt: u64) {
    if payload.is_empty() {
        return;
    }
    let cut = 1 + (salt as usize) % payload.len().min(16);
    payload.truncate(payload.len().saturating_sub(cut));
}

/// Flips one bit of an encoded frame (salt-directed).
pub(crate) fn flip_bit(payload: &mut [u8], salt: u64) {
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
pub(crate) struct ServerFaultInjector {
    node: usize,
    plan: FaultPlan,
    /// Responses generated per `(sample, epoch)` key. Each update is one
    /// counter bump, so a panicked holder leaves every count valid, and a
    /// poisoned lock is used as is.
    attempts: Mutex<HashMap<(u64, u64), u32>>,
    /// Every injected fault. Each update is one push, so a panicked holder
    /// leaves a valid log, and a poisoned lock is used as is.
    log: Mutex<Vec<FaultRecord>>,
}

impl ServerFaultInjector {
    /// An injector for `node` driven by `plan`.
    pub(crate) fn new(node: usize, plan: FaultPlan) -> ServerFaultInjector {
        ServerFaultInjector {
            node,
            plan,
            attempts: Mutex::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Decides the fault for the next response to `(sample, epoch)`,
    /// bumping the key's attempt counter and logging any hit.
    pub(crate) fn decide(&self, sample: u64, epoch: u64) -> Option<FaultDirective> {
        let attempt = {
            let mut attempts = self.attempts.lock().unwrap_or_else(PoisonError::into_inner);
            let slot = attempts.entry((sample, epoch)).or_insert(0);
            let current = *slot;
            *slot += 1;
            current
        };
        let directive = self.plan.fault_for(sample, epoch, attempt);
        if let Some(d) = directive {
            self.log.lock().unwrap_or_else(PoisonError::into_inner).push(FaultRecord {
                node: self.node,
                sample_id: sample,
                epoch,
                attempt,
                kind: d.kind.name(),
            });
        }
        directive
    }

    /// The fault log, sorted by `(sample, epoch, attempt)` so logs from
    /// different runs compare independent of worker-thread interleaving.
    pub(crate) fn log(&self) -> Vec<FaultRecord> {
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner).clone();
        log.sort_unstable();
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            for attempt in plan.fault_attempts..plan.fault_attempts + 4 {
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
