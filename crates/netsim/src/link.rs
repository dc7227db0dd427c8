use crate::Bandwidth;

/// A virtual-time, FIFO, store-and-forward link.
///
/// Transfers submitted to the link serialize: a transfer arriving while the
/// link is busy starts when the previous one finishes. This models the
/// single bottleneck pipe between the storage cluster and the compute node.
///
/// Time is dimensionless `f64` seconds, supplied by the caller (the
/// discrete-event simulator's clock).
#[derive(Debug, Clone)]
pub struct VirtualLink {
    bandwidth: Bandwidth,
    latency: f64,
    busy_until: f64,
    total_bytes: u64,
    busy_seconds: f64,
}

impl VirtualLink {
    /// Creates an idle link with zero latency.
    pub fn new(bandwidth: Bandwidth) -> VirtualLink {
        Self::with_latency(bandwidth, 0.0)
    }

    /// Creates an idle link with a fixed per-transfer latency in seconds.
    ///
    /// # Panics
    ///
    /// Panics when `latency` is negative or not finite.
    pub fn with_latency(bandwidth: Bandwidth, latency: f64) -> VirtualLink {
        assert!(latency.is_finite() && latency >= 0.0, "invalid latency {latency}");
        VirtualLink { bandwidth, latency, busy_until: 0.0, total_bytes: 0, busy_seconds: 0.0 }
    }

    /// The link's bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Changes the link's bandwidth mid-run (a live squeeze or recovery).
    /// In-flight transfers keep their already-computed completion times;
    /// only transfers submitted afterwards see the new rate.
    pub fn set_bandwidth(&mut self, bandwidth: Bandwidth) {
        self.bandwidth = bandwidth;
    }

    /// Submits a transfer of `bytes` at time `now`; returns its completion
    /// time. Zero-byte transfers still pay latency.
    ///
    /// # Panics
    ///
    /// Panics when `now` is negative or not finite.
    pub fn transfer(&mut self, now: f64, bytes: u64) -> f64 {
        assert!(now.is_finite() && now >= 0.0, "invalid time {now}");
        let start = now.max(self.busy_until);
        let duration = self.bandwidth.transfer_seconds(bytes) + self.latency;
        self.busy_until = start + duration;
        self.total_bytes += bytes;
        self.busy_seconds += duration;
        self.busy_until
    }

    /// Total bytes moved over the link so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total seconds the link has spent transferring (utilization numerator).
    pub fn busy_seconds(&self) -> f64 {
        self.busy_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps500() -> VirtualLink {
        VirtualLink::new(Bandwidth::from_mbps(500.0))
    }

    #[test]
    fn single_transfer_timing() {
        let mut link = mbps500();
        // 62.5 MB at 500 Mbps = 1 second.
        let done = link.transfer(0.0, 62_500_000);
        assert!((done - 1.0).abs() < 1e-9);
        assert_eq!(link.total_bytes(), 62_500_000);
    }

    #[test]
    fn transfers_serialize() {
        let mut link = mbps500();
        let a = link.transfer(0.0, 62_500_000);
        let b = link.transfer(0.0, 62_500_000); // submitted while busy
        assert!((a - 1.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
    }

    #[test]
    fn idle_gap_is_respected() {
        let mut link = mbps500();
        link.transfer(0.0, 62_500_000); // busy until 1.0
        let done = link.transfer(5.0, 62_500_000); // arrives after idle gap
        assert!((done - 6.0).abs() < 1e-9);
    }

    #[test]
    fn latency_added_per_transfer() {
        let mut link = VirtualLink::with_latency(Bandwidth::from_mbps(500.0), 0.01);
        let done = link.transfer(0.0, 62_500_000);
        assert!((done - 1.01).abs() < 1e-9);
        let done = link.transfer(0.0, 0);
        assert!((done - 1.02).abs() < 1e-9, "zero-byte transfer pays latency");
    }

    #[test]
    fn accounting_accumulates() {
        let mut link = mbps500();
        link.transfer(0.0, 1000);
        link.transfer(0.0, 2000);
        assert_eq!(link.total_bytes(), 3000);
        assert!(link.busy_seconds() > 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn negative_time_rejected() {
        mbps500().transfer(-1.0, 10);
    }
}
