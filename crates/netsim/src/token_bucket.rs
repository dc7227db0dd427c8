use std::time::{Duration, Instant};

use crate::Bandwidth;

/// A wall-clock token bucket for throttling real byte streams.
///
/// Tokens are bytes; they refill continuously at the configured bandwidth up
/// to a burst capacity. [`TokenBucket::delay_for`] reports how long the
/// caller must sleep before `bytes` may pass — callers sleep outside the
/// bucket so it stays lock-free to test.
#[derive(Debug)]
pub struct TokenBucket {
    bytes_per_second: f64,
    burst_bytes: f64,
    available: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// Creates a bucket full at `burst_bytes` capacity.
    ///
    /// # Panics
    ///
    /// Panics when `burst_bytes` is zero.
    pub fn new(bandwidth: Bandwidth, burst_bytes: usize) -> TokenBucket {
        assert!(burst_bytes > 0, "burst must be positive");
        TokenBucket {
            bytes_per_second: bandwidth.bytes_per_second(),
            burst_bytes: burst_bytes as f64,
            available: burst_bytes as f64,
            last_refill: Instant::now(),
        }
    }

    fn refill(&mut self, now: Instant) {
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.available = (self.available + elapsed * self.bytes_per_second).min(self.burst_bytes);
        self.last_refill = now;
    }

    /// Consumes `bytes` tokens, returning how long the caller should wait
    /// before the bytes are considered sent. Returns [`Duration::ZERO`] when
    /// enough tokens were available.
    ///
    /// Oversized requests (larger than the burst) are allowed; they simply
    /// drive the balance negative and the wait covers the deficit, which
    /// preserves the long-run rate.
    pub fn delay_for(&mut self, bytes: usize) -> Duration {
        self.delay_for_at(bytes, Instant::now())
    }

    /// Testable variant of [`TokenBucket::delay_for`] with an explicit
    /// clock reading.
    pub(crate) fn delay_for_at(&mut self, bytes: usize, now: Instant) -> Duration {
        self.refill(now);
        self.available -= bytes as f64;
        if self.available >= 0.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(-self.available / self.bytes_per_second)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket(mbps: f64, burst: usize) -> TokenBucket {
        TokenBucket::new(Bandwidth::from_mbps(mbps), burst)
    }

    #[test]
    fn burst_passes_without_delay() {
        let mut b = bucket(8.0, 1000); // 1 MB/s
        assert_eq!(b.delay_for(1000), Duration::ZERO);
    }

    #[test]
    fn deficit_produces_proportional_delay() {
        let now = Instant::now();
        let mut b = bucket(8.0, 1000); // 1 MB/s
        assert_eq!(b.delay_for_at(1000, now), Duration::ZERO);
        // Next 1 MB with empty bucket: ~1 second at 1 MB/s.
        let d = b.delay_for_at(1_000_000, now);
        assert!((d.as_secs_f64() - 1.0).abs() < 0.01, "delay {d:?}");
    }

    #[test]
    fn refill_restores_tokens() {
        let start = Instant::now();
        let mut b = bucket(8.0, 1_000_000); // 1 MB/s, 1 MB burst
        assert_eq!(b.delay_for_at(1_000_000, start), Duration::ZERO);
        // Half a second later, half the burst is back.
        let later = start + Duration::from_millis(500);
        let d = b.delay_for_at(500_000, later);
        assert!(d < Duration::from_millis(10), "delay {d:?}");
    }

    #[test]
    fn long_run_rate_is_respected() {
        // Simulate a sender that sleeps for each returned delay: the virtual
        // clock should advance at the configured rate.
        let mut now = Instant::now();
        let start = now;
        let mut b = bucket(80.0, 10_000); // 10 MB/s
        for _ in 0..100 {
            now += b.delay_for_at(100_000, now); // 10 MB total
        }
        // 10 MB at 10 MB/s ≈ 1 s of wall time (minus the 10 KB burst).
        let s = now.duration_since(start).as_secs_f64();
        assert!((0.9..1.1).contains(&s), "virtual elapsed {s}");
    }

    #[test]
    #[should_panic(expected = "burst must be positive")]
    fn zero_burst_rejected() {
        let _ = bucket(1.0, 0);
    }
}
