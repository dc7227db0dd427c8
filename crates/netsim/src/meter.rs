use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-safe byte and message counters, shared by cloning.
///
/// Readers always observe a *coherent* pair: a snapshot taken while other
/// threads record never shows a byte total from one message count and a
/// message total from another. Writers serialize through a sequence lock
/// (even = unlocked, odd = write in progress); readers retry until they
/// observe the same even sequence number on both sides of the pair read.
///
/// ```
/// use netsim::TrafficMeter;
/// let meter = TrafficMeter::new();
/// let m2 = meter.clone();
/// m2.record(1500);
/// assert_eq!(meter.bytes(), 1500);
/// assert_eq!(meter.messages(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrafficMeter {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    /// Sequence word: even when unlocked, odd while a writer updates the
    /// pair. Doubles as the writer lock, so `record` and `reset` cannot
    /// interleave with each other or tear a reader's view.
    seq: AtomicU64,
    bytes: AtomicU64,
    messages: AtomicU64,
}

impl Counters {
    /// Acquires the writer side of the sequence lock, returning the (even)
    /// sequence value that was replaced.
    fn lock_write(&self) -> u64 {
        loop {
            let seq = self.seq.load(Ordering::Relaxed);
            if seq.is_multiple_of(2)
                && self
                    .seq
                    .compare_exchange_weak(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return seq;
            }
            std::hint::spin_loop();
        }
    }

    /// Releases the writer lock taken at sequence `seq`.
    fn unlock_write(&self, seq: u64) {
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// Reads the `(bytes, messages)` pair coherently.
    fn read_pair(&self) -> (u64, u64) {
        loop {
            let before = self.seq.load(Ordering::Acquire);
            if before.is_multiple_of(2) {
                let bytes = self.bytes.load(Ordering::Acquire);
                let messages = self.messages.load(Ordering::Acquire);
                if self.seq.load(Ordering::Acquire) == before {
                    return (bytes, messages);
                }
            }
            std::hint::spin_loop();
        }
    }
}

impl TrafficMeter {
    /// Creates a zeroed meter.
    pub fn new() -> TrafficMeter {
        TrafficMeter::default()
    }

    /// Records one message of `bytes` bytes. The pair update is atomic
    /// with respect to [`TrafficMeter::snapshot`] and
    /// `TrafficMeter::reset`.
    pub fn record(&self, bytes: u64) {
        let seq = self.inner.lock_write();
        self.inner.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.inner.messages.fetch_add(1, Ordering::Relaxed);
        self.inner.unlock_write(seq);
    }

    /// Takes back one message of `bytes` bytes that
    /// [`TrafficMeter::record`] counted ahead of a write that then stopped
    /// short, as one atomic pair update.
    pub fn take_back(&self, bytes: u64) {
        let seq = self.inner.lock_write();
        self.inner.bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.inner.messages.fetch_sub(1, Ordering::Relaxed);
        self.inner.unlock_write(seq);
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.inner.read_pair().0
    }

    /// Total messages recorded.
    pub fn messages(&self) -> u64 {
        self.inner.read_pair().1
    }

    /// Captures the current counters under `label` (e.g. a storage-node
    /// name). The snapshot is a plain value — it does not keep counting —
    /// and its `bytes`/`messages` come from one coherent pair read.
    pub fn snapshot(&self, label: impl Into<String>) -> MeterSnapshot {
        let (bytes, messages) = self.inner.read_pair();
        MeterSnapshot { label: label.into(), bytes, messages }
    }
}

/// A point-in-time, labeled reading of one [`TrafficMeter`].
///
/// Fleet deployments run one meter per storage node; snapshots let the
/// per-node readings be reported side by side and summed into a fleet-wide
/// bytes-on-the-wire total with [`MeterSnapshot::merge`].
///
/// ```
/// use netsim::{MeterSnapshot, TrafficMeter};
/// let a = TrafficMeter::new();
/// let b = TrafficMeter::new();
/// a.record(100);
/// b.record(250);
/// b.record(50);
/// let total = MeterSnapshot::merge("fleet", [a.snapshot("node0"), b.snapshot("node1")]);
/// assert_eq!(total.bytes, 400);
/// assert_eq!(total.messages, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeterSnapshot {
    /// Which link or node this reading came from.
    pub label: String,
    /// Bytes recorded at snapshot time.
    pub bytes: u64,
    /// Messages recorded at snapshot time.
    pub messages: u64,
}

impl MeterSnapshot {
    /// Sums a set of snapshots into one aggregate reading under `label`.
    pub fn merge(
        label: impl Into<String>,
        parts: impl IntoIterator<Item = MeterSnapshot>,
    ) -> MeterSnapshot {
        let mut total = MeterSnapshot { label: label.into(), bytes: 0, messages: 0 };
        for p in parts {
            total.bytes += p.bytes;
            total.messages += p.messages;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn concurrent_recording_is_exact() {
        let meter = TrafficMeter::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = meter.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record(3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(meter.bytes(), 24_000);
        assert_eq!(meter.messages(), 8_000);
    }

    #[test]
    fn snapshots_are_pair_coherent_under_contention() {
        // Every message carries exactly 3 bytes, so any coherent snapshot
        // must satisfy bytes == 3 * messages. The old implementation read
        // the two counters independently and could observe a message whose
        // bytes had landed but whose count had not (or vice versa).
        let meter = TrafficMeter::new();
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let m = meter.clone();
                thread::spawn(move || {
                    for _ in 0..20_000 {
                        m.record(3);
                    }
                })
            })
            .collect();
        let reader = {
            let m = meter.clone();
            thread::spawn(move || {
                for _ in 0..20_000 {
                    let snap = m.snapshot("x");
                    assert_eq!(
                        snap.bytes,
                        3 * snap.messages,
                        "torn snapshot: {} bytes vs {} messages",
                        snap.bytes,
                        snap.messages
                    );
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(meter.snapshot("x").bytes, 240_000);
    }

    #[test]
    fn snapshots_freeze_and_merge() {
        let meter = TrafficMeter::new();
        meter.record(64);
        let snap = meter.snapshot("node0");
        meter.record(64); // later traffic does not change the snapshot
        assert_eq!(snap, MeterSnapshot { label: "node0".into(), bytes: 64, messages: 1 });

        let other = MeterSnapshot { label: "node1".into(), bytes: 36, messages: 4 };
        let fleet = MeterSnapshot::merge("fleet", [snap, other]);
        assert_eq!(fleet.label, "fleet");
        assert_eq!(fleet.bytes, 100);
        assert_eq!(fleet.messages, 5);
        // Merging nothing is the zero reading.
        assert_eq!(MeterSnapshot::merge("empty", []).bytes, 0);
    }
}
