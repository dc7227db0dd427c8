use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pool of identical CPU cores serving tasks FIFO.
///
/// Tasks are submitted in order with a ready time; each starts at
/// `max(ready, earliest core free)` and occupies one core for its duration.
/// This is the standard `G/G/k` forward schedule under FIFO dispatch.
#[derive(Debug, Clone)]
pub(crate) struct CpuPool {
    // Min-heap of the times at which each core becomes free, as `f64`
    // bits. The times are non-negative and never NaN (asserted on entry),
    // and a `-0.0` is stored as `0.0`, so the bits sort like the values.
    free_at: BinaryHeap<Reverse<u64>>,
    busy_seconds: f64,
}

impl CpuPool {
    /// Creates a pool of `cores` idle cores.
    ///
    /// A zero-core pool is legal; submitting work to it panics, so callers
    /// must route around empty pools (the simulator returns an error
    /// instead).
    pub(crate) fn new(cores: usize) -> CpuPool {
        CpuPool { free_at: vec![Reverse(0.0f64.to_bits()); cores].into(), busy_seconds: 0.0 }
    }

    /// Schedules a task that becomes ready at `ready` and needs `seconds` of
    /// one core; returns its completion time.
    ///
    /// # Panics
    ///
    /// Panics when the pool has zero cores or the inputs are not finite.
    pub(crate) fn run(&mut self, ready: f64, seconds: f64) -> f64 {
        assert!(ready.is_finite() && ready >= 0.0, "invalid ready time {ready}");
        assert!(seconds.is_finite() && seconds >= 0.0, "invalid task length {seconds}");
        // The earliest free core takes the task: its free time is replaced
        // in place, one sift-down when `earliest` drops.
        let mut earliest = self.free_at.peek_mut().expect("CpuPool has no cores");
        let start = ready.max(f64::from_bits(earliest.0));
        let end = start + seconds;
        // `-0.0 + 0.0` is `0.0`; every other time keeps its bits.
        earliest.0 = (end + 0.0).to_bits();
        self.busy_seconds += seconds;
        end
    }

    /// Total core-seconds of work executed.
    pub(crate) fn busy_seconds(&self) -> f64 {
        self.busy_seconds
    }
}

/// The pool as it was before it kept its free times as bits: a pop and a
/// push per task through a total order on `f64`. The oracle of
/// [`CpuPool`].
#[cfg(test)]
mod pop_push {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Debug, Clone)]
    pub(super) struct CpuPool {
        free_at: BinaryHeap<Reverse<Time>>,
        busy_seconds: f64,
    }

    /// `f64` wrapper with a total order; times are validated finite.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Time(f64);

    impl Eq for Time {}

    impl PartialOrd for Time {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Time {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.partial_cmp(&other.0).expect("times are finite")
        }
    }

    impl CpuPool {
        pub(super) fn new(cores: usize) -> CpuPool {
            let mut free_at = BinaryHeap::with_capacity(cores);
            for _ in 0..cores {
                free_at.push(Reverse(Time(0.0)));
            }
            CpuPool { free_at, busy_seconds: 0.0 }
        }

        pub(super) fn run(&mut self, ready: f64, seconds: f64) -> f64 {
            assert!(ready.is_finite() && ready >= 0.0, "invalid ready time {ready}");
            assert!(seconds.is_finite() && seconds >= 0.0, "invalid task length {seconds}");
            let Reverse(Time(free)) = self.free_at.pop().expect("CpuPool has no cores");
            let start = ready.max(free);
            let end = start + seconds;
            self.free_at.push(Reverse(Time(end)));
            self.busy_seconds += seconds;
            end
        }

        pub(super) fn busy_seconds(&self) -> f64 {
            self.busy_seconds
        }
    }
}

/// A single FIFO server (the GPU): tasks run one at a time in submission
/// order.
#[derive(Debug, Clone)]
pub(crate) struct FifoServer {
    free_at: f64,
}

impl FifoServer {
    /// Creates an idle server.
    pub(crate) fn new() -> FifoServer {
        FifoServer { free_at: 0.0 }
    }

    /// Schedules a task ready at `ready` lasting `seconds`; returns its
    /// completion time.
    ///
    /// # Panics
    ///
    /// Panics when the inputs are not finite or negative.
    pub(crate) fn run(&mut self, ready: f64, seconds: f64) -> f64 {
        assert!(ready.is_finite() && ready >= 0.0, "invalid ready time {ready}");
        assert!(seconds.is_finite() && seconds >= 0.0, "invalid task length {seconds}");
        let start = ready.max(self.free_at);
        self.free_at = start + seconds;
        self.free_at
    }
}

impl Default for FifoServer {
    fn default() -> Self {
        FifoServer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_core_serializes() {
        let mut pool = CpuPool::new(1);
        assert_eq!(pool.run(0.0, 1.0), 1.0);
        assert_eq!(pool.run(0.0, 1.0), 2.0);
        assert_eq!(pool.run(5.0, 1.0), 6.0);
    }

    #[test]
    fn multi_core_parallelizes() {
        let mut pool = CpuPool::new(4);
        for _ in 0..4 {
            assert_eq!(pool.run(0.0, 2.0), 2.0);
        }
        // Fifth task queues behind the earliest core.
        assert_eq!(pool.run(0.0, 2.0), 4.0);
        assert_eq!(pool.busy_seconds(), 10.0);
    }

    #[test]
    fn ready_time_delays_start() {
        let mut pool = CpuPool::new(2);
        assert_eq!(pool.run(10.0, 1.0), 11.0);
    }

    #[test]
    #[should_panic(expected = "no cores")]
    fn zero_core_pool_rejects_work() {
        CpuPool::new(0).run(0.0, 1.0);
    }

    #[test]
    fn makespan_matches_greedy_bound() {
        // 100 unit tasks on 8 cores, all ready at 0: makespan = ceil(100/8).
        let mut pool = CpuPool::new(8);
        let makespan = (0..100).map(|_| pool.run(0.0, 1.0)).fold(0.0, f64::max);
        assert_eq!(makespan, 13.0);
    }

    /// A time drawn from a few exact values (ties, both zeros) or a
    /// random one.
    fn time() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0usize..5).prop_map(|i| [0.0, -0.0, 0.5, 1.0, 2.0][i]),
            0.0f64..8.0,
            (0u32..64).prop_map(|q| f64::from(q) * 0.125),
        ]
    }

    proptest! {
        #[test]
        fn replacing_the_top_matches_pop_and_push(
            cores in 1usize..6,
            tasks in proptest::collection::vec((time(), time(), any::<bool>()), 0..200),
        ) {
            let (mut pool, mut oracle) = (CpuPool::new(cores), pop_push::CpuPool::new(cores));
            let mut clock = 0.0f64;
            for (ready, seconds, advance) in tasks {
                // Ready times mostly advance, as the stage graph's do, with
                // repeats and zero-length tasks for ties.
                let ready = if advance { clock + ready } else { ready };
                clock = clock.max(ready);
                let (got, want) = (pool.run(ready, seconds), oracle.run(ready, seconds));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "run({}, {})", ready, seconds);
            }
            prop_assert_eq!(pool.busy_seconds().to_bits(), oracle.busy_seconds().to_bits());
        }
    }

    #[test]
    fn a_negative_zero_time_is_stored_as_zero() {
        let mut pool = CpuPool::new(2);
        assert_eq!(pool.run(-0.0, -0.0).to_bits(), (-0.0f64).to_bits());
        // Had the `-0.0` gone in as bits, it would sort after every other
        // time and the core freeing at 1.0 would be taken first.
        assert_eq!(pool.run(0.0, 1.0), 1.0);
        assert_eq!(pool.run(0.0, 1.0), 1.0);
        assert_eq!(pool.run(0.0, 1.0), 2.0);
    }

    #[test]
    fn fifo_server_behaves_like_one_core_pool() {
        let mut srv = FifoServer::new();
        let mut pool = CpuPool::new(1);
        let jobs = [(0.0, 0.5), (0.1, 0.2), (3.0, 1.0), (3.0, 0.0)];
        for &(r, s) in &jobs {
            assert_eq!(srv.run(r, s), pool.run(r, s));
        }
    }
}
