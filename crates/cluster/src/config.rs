use netsim::Bandwidth;

/// Static description of the two-node testbed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// CPU cores available for preprocessing on the compute node.
    pub compute_cores: usize,
    /// GPUs on the compute node (data-parallel batches).
    pub gpus: usize,
    /// CPU cores available for offloaded preprocessing on the storage node.
    pub storage_cores: usize,
    /// Storage→compute link bandwidth in bits per second.
    pub link_bps: f64,
    /// Fixed per-transfer latency in seconds (request/response overhead).
    pub link_latency: f64,
    /// How many batches the loader may run ahead of the GPU.
    pub(crate) prefetch_batches: usize,
    /// Storage-node in-memory read throughput in bytes/second (the paper
    /// caches datasets in RAM, so this is high and rarely binding).
    pub storage_read_bytes_per_sec: f64,
}

impl ClusterConfig {
    /// The paper's evaluation testbed: 48 compute cores, 500 Mbps link,
    /// in-memory dataset, with `storage_cores` varied per experiment.
    pub fn paper_testbed(storage_cores: usize) -> ClusterConfig {
        ClusterConfig {
            compute_cores: 48,
            gpus: 1,
            storage_cores,
            link_bps: 500e6,
            link_latency: 200e-6,
            prefetch_batches: 8,
            storage_read_bytes_per_sec: 10e9, // ~10 GB/s RAM-cached reads
        }
    }

    /// Returns a copy with a different link bandwidth.
    #[must_use]
    pub fn with_bandwidth(mut self, bw: Bandwidth) -> ClusterConfig {
        self.link_bps = bw.bits_per_second();
        self
    }

    /// Returns a copy with a different storage-core count.
    #[must_use]
    pub fn with_storage_cores(mut self, cores: usize) -> ClusterConfig {
        self.storage_cores = cores;
        self
    }

    /// Returns a copy with a different compute-core count.
    #[must_use]
    pub fn with_compute_cores(mut self, cores: usize) -> ClusterConfig {
        self.compute_cores = cores;
        self
    }

    /// Returns a copy with a different GPU count.
    #[must_use]
    pub fn with_gpus(mut self, gpus: usize) -> ClusterConfig {
        self.gpus = gpus;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_matches_section_4() {
        let c = ClusterConfig::paper_testbed(48);
        assert_eq!(c.compute_cores, 48);
        assert_eq!(c.storage_cores, 48);
        assert_eq!(c.link_bps, 500e6);
    }

    #[test]
    fn builders_modify_single_field() {
        let c = ClusterConfig::paper_testbed(48)
            .with_storage_cores(2)
            .with_bandwidth(Bandwidth::from_gbps(10.0));
        assert_eq!(c.storage_cores, 2);
        assert_eq!(c.link_bps, 10e9);
        assert_eq!(c.compute_cores, 48);
    }
}
