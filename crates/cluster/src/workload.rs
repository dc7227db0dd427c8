use crate::GpuModel;

/// The resource demands of one sample under a chosen offload split.
///
/// Policies translate a sample's profile plus a split point into this
/// resource vector; the simulator does not care which operations produced
/// the numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleWork {
    /// Single-core seconds of offloaded preprocessing on the storage node.
    pub storage_cpu_seconds: f64,
    /// Bytes shipped over the link for this sample.
    pub transfer_bytes: u64,
    /// Single-core seconds of remaining preprocessing on the compute node.
    pub compute_cpu_seconds: f64,
}

impl SampleWork {
    /// Creates a work vector.
    ///
    /// # Panics
    ///
    /// Panics when either CPU time is negative or not finite.
    pub fn new(storage_cpu_seconds: f64, transfer_bytes: u64, compute_cpu_seconds: f64) -> Self {
        assert!(
            storage_cpu_seconds.is_finite() && storage_cpu_seconds >= 0.0,
            "invalid storage CPU seconds {storage_cpu_seconds}"
        );
        assert!(
            compute_cpu_seconds.is_finite() && compute_cpu_seconds >= 0.0,
            "invalid compute CPU seconds {compute_cpu_seconds}"
        );
        SampleWork { storage_cpu_seconds, transfer_bytes, compute_cpu_seconds }
    }
}

/// One epoch's workload: per-sample demands plus batching and the model.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSpec {
    /// Per-sample resource demands, in loading order.
    pub samples: Vec<SampleWork>,
    /// Training batch size (the PyTorch example's default is 256).
    pub batch_size: usize,
    /// GPU cost model.
    pub gpu: GpuModel,
}

impl EpochSpec {
    /// Creates an epoch spec.
    ///
    /// # Panics
    ///
    /// Panics when `batch_size` is zero.
    pub fn new(samples: Vec<SampleWork>, batch_size: usize, gpu: GpuModel) -> EpochSpec {
        assert!(batch_size > 0, "batch size must be positive");
        EpochSpec { samples, batch_size, gpu }
    }

    /// Number of batches (the final partial batch counts).
    pub(crate) fn batch_count(&self) -> usize {
        self.samples.len().div_ceil(self.batch_size)
    }

    /// Total bytes this epoch moves over the link.
    pub fn total_transfer_bytes(&self) -> u64 {
        self.samples.iter().map(|s| s.transfer_bytes).sum()
    }

    /// Total offloaded single-core CPU seconds.
    pub fn total_storage_cpu(&self) -> f64 {
        self.samples.iter().map(|s| s.storage_cpu_seconds).sum()
    }

    /// Total local single-core CPU seconds.
    pub fn total_compute_cpu(&self) -> f64 {
        self.samples.iter().map(|s| s.compute_cpu_seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate() {
        let spec = EpochSpec::new(
            vec![SampleWork::new(0.1, 100, 0.2), SampleWork::new(0.3, 200, 0.4)],
            256,
            GpuModel::AlexNet,
        );
        assert_eq!(spec.total_transfer_bytes(), 300);
        assert!((spec.total_storage_cpu() - 0.4).abs() < 1e-12);
        assert!((spec.total_compute_cpu() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn batch_count_rounds_up() {
        let spec = EpochSpec::new(vec![SampleWork::new(0.0, 0, 0.0); 513], 256, GpuModel::AlexNet);
        assert_eq!(spec.batch_count(), 3);
    }

    #[test]
    #[should_panic(expected = "invalid storage CPU")]
    fn negative_cpu_rejected() {
        SampleWork::new(-1.0, 0, 0.0);
    }
}
