/// Results of simulating one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Wall-clock (virtual) seconds from epoch start to the last batch's GPU
    /// completion.
    pub epoch_seconds: f64,
    /// Bytes moved over the storage→compute link.
    pub traffic_bytes: u64,
    /// Seconds the GPU spent computing.
    pub gpu_busy_seconds: f64,
    /// Core-seconds of offloaded preprocessing executed on the storage node.
    pub storage_cpu_busy_seconds: f64,
    /// Core-seconds of preprocessing executed on the compute node.
    pub compute_cpu_busy_seconds: f64,
    /// Seconds the link spent transferring.
    pub link_busy_seconds: f64,
    /// Number of samples processed.
    pub samples: u64,
    /// Number of GPU batches executed.
    pub batches: u64,
    /// GPUs on the compute node (normalizes utilization).
    pub gpus: u64,
}

impl EpochStats {
    /// GPU utilization in `[0, 1]` — the paper's Figure 1d metric
    /// (busy GPU-seconds over available GPU-seconds).
    pub fn gpu_utilization(&self) -> f64 {
        if self.epoch_seconds <= 0.0 {
            0.0
        } else {
            self.gpu_busy_seconds / (self.epoch_seconds * self.gpus.max(1) as f64)
        }
    }

    /// Link utilization in `[0, 1]`.
    pub fn link_utilization(&self) -> f64 {
        if self.epoch_seconds <= 0.0 {
            0.0
        } else {
            self.link_busy_seconds / self.epoch_seconds
        }
    }

    /// Epoch images per second.
    pub fn throughput(&self) -> f64 {
        if self.epoch_seconds <= 0.0 {
            0.0
        } else {
            self.samples as f64 / self.epoch_seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> EpochStats {
        EpochStats {
            epoch_seconds: 100.0,
            traffic_bytes: 1_000_000,
            gpu_busy_seconds: 40.0,
            storage_cpu_busy_seconds: 10.0,
            compute_cpu_busy_seconds: 20.0,
            link_busy_seconds: 90.0,
            samples: 1000,
            batches: 4,
            gpus: 1,
        }
    }

    #[test]
    fn derived_metrics() {
        let s = stats();
        assert_eq!(s.gpu_utilization(), 0.4);
        assert_eq!(s.link_utilization(), 0.9);
        assert_eq!(s.throughput(), 10.0);
    }

    #[test]
    fn zero_epoch_is_safe() {
        let mut s = stats();
        s.epoch_seconds = 0.0;
        s.samples = 0;
        assert_eq!(s.gpu_utilization(), 0.0);
        assert_eq!(s.throughput(), 0.0);
    }
}
