use cluster::{simulate_epoch, EpochSpec, GpuModel, SampleWork};

use crate::engine::PlanningContext;
use crate::SophonError;

/// Number of batches each stage-1 probe runs (the paper uses 50 — tiny next
/// to a 50-epoch job with thousands of batches per epoch).
const PROBE_BATCHES: usize = 50;

/// Stage-1 verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// GPU throughput is the limiter; offloading cannot help.
    GpuBound,
    /// Local preprocessing CPU is the limiter; CPU-offload systems
    /// (tf.data service, FastFlow) are the right tool, not SOPHON.
    CpuBound,
    /// The storage link is the limiter; SOPHON proceeds to stage 2.
    IoBound,
}

/// The three isolated throughput measurements of stage 1.
///
/// Each probe replays the first 50 batches through the
/// cluster with the other two resources idled, mirroring the paper's three
/// settings: (1) GPU on synthetic data, (2) fetch-only I/O, (3) CPU
/// preprocessing over cached data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage1Probe {
    /// Images/second sustained by the GPU alone.
    pub(crate) gpu_throughput: f64,
    /// Images/second sustained by the link alone.
    pub(crate) io_throughput: f64,
    /// Images/second sustained by local preprocessing alone.
    pub(crate) cpu_throughput: f64,
}

#[cfg(test)]
thread_local! {
    /// Stage-1 probes run on this thread, for tests that count them.
    static PROBE_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many stage-1 probes this thread has run.
#[cfg(test)]
pub(crate) fn probe_runs() -> usize {
    PROBE_RUNS.with(std::cell::Cell::get)
}

impl Stage1Probe {
    /// Runs the three probes for a context.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures (empty profile sets produce a probe of
    /// zero batches and are rejected by the simulator's callers upstream).
    pub fn run(ctx: &PlanningContext<'_>) -> Result<Stage1Probe, SophonError> {
        #[cfg(test)]
        PROBE_RUNS.with(|runs| runs.set(runs.get() + 1));
        let take = (PROBE_BATCHES * ctx.batch_size).min(ctx.profiles.len());
        let probe_profiles = &ctx.profiles[..take];

        // (1) GPU-only: synthetic data, no fetch, no preprocessing.
        let gpu_samples = vec![SampleWork::new(0.0, 0, 0.0); take];
        // (2) I/O-only: raw fetches, nothing else.
        let io_samples: Vec<SampleWork> =
            probe_profiles.iter().map(|p| SampleWork::new(0.0, p.raw_bytes, 0.0)).collect();
        // (3) CPU-only: full local preprocessing over cached data.
        let cpu_samples: Vec<SampleWork> =
            probe_profiles.iter().map(|p| SampleWork::new(0.0, 0, p.total_seconds())).collect();

        let run = |samples: Vec<SampleWork>, gpu: GpuModel| -> Result<f64, SophonError> {
            let spec = EpochSpec::new(samples, ctx.batch_size, gpu);
            let stats = simulate_epoch(ctx.config, &spec)?;
            Ok(stats.throughput())
        };

        Ok(Stage1Probe {
            gpu_throughput: run(gpu_samples, ctx.gpu)?,
            io_throughput: run(io_samples, GpuModel::Custom { seconds_per_image: 0.0 })?,
            cpu_throughput: run(cpu_samples, GpuModel::Custom { seconds_per_image: 0.0 })?,
        })
    }

    /// Classifies the workload by its scarcest throughput.
    pub fn classify(&self) -> WorkloadClass {
        if self.io_throughput <= self.gpu_throughput && self.io_throughput <= self.cpu_throughput {
            WorkloadClass::IoBound
        } else if self.gpu_throughput <= self.cpu_throughput {
            WorkloadClass::GpuBound
        } else {
            WorkloadClass::CpuBound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterConfig;
    use datasets::DatasetSpec;
    use pipeline::{CostModel, PipelineSpec, SampleProfile};

    fn profiles(n: u64) -> Vec<SampleProfile> {
        let ds = DatasetSpec::openimages_like(n, 6);
        let spec = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        ds.records().map(|r| r.analytic_profile(&spec, &model)).collect()
    }

    #[test]
    fn paper_workload_is_io_bound() {
        let ps = profiles(4_000);
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(48);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let probe = Stage1Probe::run(&ctx).unwrap();
        assert_eq!(probe.classify(), WorkloadClass::IoBound);
        assert!(probe.io_throughput < probe.gpu_throughput);
        assert!(probe.io_throughput < probe.cpu_throughput);
    }

    #[test]
    fn resnet50_on_fast_link_is_gpu_bound() {
        let ps = profiles(4_000);
        let pipeline = PipelineSpec::standard_train();
        let config =
            ClusterConfig::paper_testbed(48).with_bandwidth(netsim::Bandwidth::from_gbps(100.0));
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::ResNet50, 256);
        assert_eq!(Stage1Probe::run(&ctx).unwrap().classify(), WorkloadClass::GpuBound);
    }

    #[test]
    fn starved_compute_cpu_is_cpu_bound() {
        let ps = profiles(4_000);
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(48)
            .with_bandwidth(netsim::Bandwidth::from_gbps(100.0))
            .with_compute_cores(1);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        assert_eq!(Stage1Probe::run(&ctx).unwrap().classify(), WorkloadClass::CpuBound);
    }

    #[test]
    fn probe_uses_a_bounded_slice() {
        // 100k samples: the probe must only consume 50 batches' worth.
        let ps = profiles(2_000);
        let pipeline = PipelineSpec::standard_train();
        let config = ClusterConfig::paper_testbed(48);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 16);
        let probe = Stage1Probe::run(&ctx).unwrap();
        assert!(probe.io_throughput > 0.0);
    }
}
