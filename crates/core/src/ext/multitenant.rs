//! Multi-tenant storage-CPU scheduling (future work §6).
//!
//! GPU clusters run many training jobs against one storage service. Each
//! job benefits from storage-side cores with diminishing returns (paper
//! Figure 4), so dividing a fixed core budget is a concave allocation
//! problem. This scheduler solves it greedily: repeatedly grant the next
//! core to the job whose predicted epoch time drops the most — classic
//! water-filling on marginal gains, optimal for the (discretized) concave
//! objective of minimizing the sum of predicted epoch times.

use cluster::GpuModel;
use pipeline::{PipelineSpec, SampleProfile};

use crate::engine::{DecisionEngine, PlanningContext};
use crate::{OffloadPlan, SophonError};

/// One tenant job competing for storage-side cores.
#[derive(Debug, Clone)]
pub struct TenantJob {
    /// Job name for reports.
    pub name: String,
    /// The job's stage-2 profiles.
    pub profiles: Vec<SampleProfile>,
    /// The job's pipeline.
    pub pipeline: PipelineSpec,
    /// The job's model.
    pub gpu: GpuModel,
    /// The job's batch size.
    pub batch_size: usize,
    /// The job's private cluster view (compute cores, bandwidth); its
    /// `storage_cores` field is overwritten by the scheduler's grant.
    pub config: cluster::ClusterConfig,
}

/// A scheduler decision for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantAllocation {
    /// Job name.
    pub name: String,
    /// Storage cores granted.
    pub cores: usize,
    /// Predicted epoch seconds with the grant.
    pub predicted_epoch_seconds: f64,
    /// Predicted epoch seconds with zero storage cores (no offloading).
    pub baseline_epoch_seconds: f64,
}

/// Splits `total_cores` across jobs by marginal epoch-time gain.
///
/// Returns one allocation per job (same order as `jobs`) together with each
/// job's offload plan under its grant.
///
/// # Errors
///
/// Propagates planning failures.
pub fn allocate_storage_cores(
    jobs: &[TenantJob],
    total_cores: usize,
) -> Result<Vec<(TenantAllocation, OffloadPlan)>, SophonError> {
    // Predicted epoch time for a job given a core grant: the plan's
    // makespan under the engine's cost model.
    let predict = |job: &TenantJob, cores: usize| -> Result<(f64, OffloadPlan), SophonError> {
        let config = job.config.with_storage_cores(cores);
        let ctx =
            PlanningContext::new(&job.profiles, &job.pipeline, &config, job.gpu, job.batch_size);
        let plan = DecisionEngine::new().plan(&ctx);
        let costs = ctx.costs_for_plan(&plan)?;
        Ok((costs.makespan(), plan))
    };

    let mut grants = vec![0usize; jobs.len()];
    let mut current: Vec<(f64, OffloadPlan)> =
        jobs.iter().map(|j| predict(j, 0)).collect::<Result<_, _>>()?;
    let baselines: Vec<f64> = current.iter().map(|(t, _)| *t).collect();

    for _ in 0..total_cores {
        // Find the job with the best marginal gain for one more core.
        let mut best: Option<(usize, f64, (f64, OffloadPlan))> = None;
        for (j, job) in jobs.iter().enumerate() {
            let candidate = predict(job, grants[j] + 1)?;
            let gain = current[j].0 - candidate.0;
            if gain > 1e-12 && best.as_ref().is_none_or(|(_, g, _)| gain > *g) {
                best = Some((j, gain, candidate));
            }
        }
        match best {
            Some((j, _, candidate)) => {
                grants[j] += 1;
                current[j] = candidate;
            }
            None => break, // no job benefits from another core
        }
    }

    Ok(jobs
        .iter()
        .zip(grants)
        .zip(current)
        .zip(baselines)
        .map(|(((job, cores), (predicted, plan)), baseline)| {
            (
                TenantAllocation {
                    name: job.name.clone(),
                    cores,
                    predicted_epoch_seconds: predicted,
                    baseline_epoch_seconds: baseline,
                },
                plan,
            )
        })
        .collect())
}

/// A joint grant of storage cores and link bandwidth for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceAllocation {
    /// Job name.
    pub name: String,
    /// Storage cores granted.
    pub cores: usize,
    /// Link bandwidth granted, in bits per second.
    pub bandwidth_bps: f64,
    /// Predicted epoch seconds under the grant.
    pub predicted_epoch_seconds: f64,
}

/// Splits both a storage-core budget *and* an aggregate egress-bandwidth
/// budget across jobs by marginal epoch-time gain.
///
/// Every job first receives one `bandwidth_unit_bps` slice (a job with no
/// bandwidth cannot train at all); remaining slices and all cores are then
/// granted greedily to whichever job's predicted epoch time drops the most.
/// This models the cluster-level reality the paper's discussion raises:
/// hundreds of jobs share an egress pipe (e.g. Azure's 120 Gbps cap), so
/// traffic reduction and CPU placement must be co-planned.
///
/// # Errors
///
/// Propagates planning failures.
///
/// # Panics
///
/// Panics when the bandwidth budget cannot give every job one unit, or the
/// unit is not positive.
pub fn allocate_cores_and_bandwidth(
    jobs: &[TenantJob],
    total_cores: usize,
    total_bandwidth_bps: f64,
    bandwidth_unit_bps: f64,
) -> Result<Vec<ResourceAllocation>, SophonError> {
    assert!(bandwidth_unit_bps > 0.0, "bandwidth unit must be positive");
    let total_units = (total_bandwidth_bps / bandwidth_unit_bps).floor() as usize;
    assert!(
        total_units >= jobs.len(),
        "bandwidth budget too small: {total_units} units for {} jobs",
        jobs.len()
    );

    let predict = |job: &TenantJob, cores: usize, units: usize| -> Result<f64, SophonError> {
        let config = job
            .config
            .with_storage_cores(cores)
            .with_bandwidth(netsim::Bandwidth::from_bps(units as f64 * bandwidth_unit_bps));
        let ctx =
            PlanningContext::new(&job.profiles, &job.pipeline, &config, job.gpu, job.batch_size);
        let plan = DecisionEngine::new().plan(&ctx);
        Ok(ctx.costs_for_plan(&plan)?.makespan())
    };

    let mut cores = vec![0usize; jobs.len()];
    let mut units = vec![1usize; jobs.len()];
    let mut current: Vec<f64> =
        jobs.iter().zip(&units).map(|(j, &u)| predict(j, 0, u)).collect::<Result<_, _>>()?;

    let mut cores_left = total_cores;
    let mut units_left = total_units - jobs.len();
    loop {
        // Best single grant across (job, resource) pairs.
        let mut best: Option<(usize, bool, f64, f64)> = None; // (job, is_core, gain, new_time)
        for (j, job) in jobs.iter().enumerate() {
            if cores_left > 0 {
                let t = predict(job, cores[j] + 1, units[j])?;
                let gain = current[j] - t;
                if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.2) {
                    best = Some((j, true, gain, t));
                }
            }
            if units_left > 0 {
                let t = predict(job, cores[j], units[j] + 1)?;
                let gain = current[j] - t;
                if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.2) {
                    best = Some((j, false, gain, t));
                }
            }
        }
        match best {
            Some((j, true, _, t)) => {
                cores[j] += 1;
                cores_left -= 1;
                current[j] = t;
            }
            Some((j, false, _, t)) => {
                units[j] += 1;
                units_left -= 1;
                current[j] = t;
            }
            None => break,
        }
    }

    Ok(jobs
        .iter()
        .enumerate()
        .map(|(j, job)| ResourceAllocation {
            name: job.name.clone(),
            cores: cores[j],
            bandwidth_bps: units[j] as f64 * bandwidth_unit_bps,
            predicted_epoch_seconds: current[j],
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterConfig;
    use datasets::DatasetSpec;
    use pipeline::CostModel;

    fn job(name: &str, ds: DatasetSpec, gpu: GpuModel) -> TenantJob {
        let pipeline = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        let profiles = ds.records().map(|r| r.analytic_profile(&pipeline, &model)).collect();
        TenantJob {
            name: name.to_string(),
            profiles,
            pipeline,
            gpu,
            batch_size: 256,
            config: ClusterConfig::paper_testbed(0),
        }
    }

    #[test]
    fn io_bound_job_wins_cores_over_gpu_bound_job() {
        let jobs = vec![
            job("io-bound", DatasetSpec::openimages_like(1200, 1), GpuModel::AlexNet),
            job("gpu-bound", DatasetSpec::imagenet_like(1200, 2), GpuModel::ResNet50),
        ];
        let allocs = allocate_storage_cores(&jobs, 8).unwrap();
        let io = &allocs[0].0;
        let gpu = &allocs[1].0;
        assert!(io.cores > gpu.cores, "io {} vs gpu {}", io.cores, gpu.cores);
        assert!(io.predicted_epoch_seconds < io.baseline_epoch_seconds);
    }

    #[test]
    fn allocation_never_exceeds_budget() {
        let jobs = vec![
            job("a", DatasetSpec::openimages_like(800, 3), GpuModel::AlexNet),
            job("b", DatasetSpec::openimages_like(800, 4), GpuModel::AlexNet),
            job("c", DatasetSpec::imagenet_like(800, 5), GpuModel::AlexNet),
        ];
        for budget in [0usize, 1, 3, 16] {
            let allocs = allocate_storage_cores(&jobs, budget).unwrap();
            let used: usize = allocs.iter().map(|(a, _)| a.cores).sum();
            assert!(used <= budget, "budget {budget} used {used}");
        }
    }

    #[test]
    fn grants_stop_at_diminishing_returns() {
        // A single job with a huge budget: the scheduler stops granting
        // once extra cores no longer reduce the predicted epoch.
        let jobs = vec![job("solo", DatasetSpec::openimages_like(800, 7), GpuModel::AlexNet)];
        let allocs = allocate_storage_cores(&jobs, 1_000).unwrap();
        assert!(allocs[0].0.cores < 100, "granted {} cores", allocs[0].0.cores);
    }

    #[test]
    fn joint_allocation_respects_both_budgets() {
        let jobs = vec![
            job("alex", DatasetSpec::openimages_like(800, 1), GpuModel::AlexNet),
            job("r50", DatasetSpec::imagenet_like(800, 2), GpuModel::ResNet50),
        ];
        let allocs = allocate_cores_and_bandwidth(&jobs, 8, 1_000e6, 100e6).unwrap();
        let cores: usize = allocs.iter().map(|a| a.cores).sum();
        let bw: f64 = allocs.iter().map(|a| a.bandwidth_bps).sum();
        assert!(cores <= 8);
        assert!(bw <= 1_000e6 + 1.0);
        // Every job has at least the seed bandwidth unit.
        assert!(allocs.iter().all(|a| a.bandwidth_bps >= 100e6));
    }

    #[test]
    fn io_hungry_job_gets_more_bandwidth() {
        // AlexNet on OpenImages moves far more useful bytes per second than
        // GPU-bound ResNet50; the scheduler should feed it.
        let jobs = vec![
            job("hungry", DatasetSpec::openimages_like(1000, 4), GpuModel::AlexNet),
            job("gpu-bound", DatasetSpec::imagenet_like(1000, 5), GpuModel::ResNet50),
        ];
        let allocs = allocate_cores_and_bandwidth(&jobs, 4, 2_000e6, 100e6).unwrap();
        assert!(
            allocs[0].bandwidth_bps > allocs[1].bandwidth_bps,
            "hungry {} vs gpu-bound {}",
            allocs[0].bandwidth_bps,
            allocs[1].bandwidth_bps
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth budget too small")]
    fn insufficient_bandwidth_panics() {
        let jobs = vec![
            job("a", DatasetSpec::mini(10, 1), GpuModel::AlexNet),
            job("b", DatasetSpec::mini(10, 2), GpuModel::AlexNet),
        ];
        let _ = allocate_cores_and_bandwidth(&jobs, 1, 100e6, 100e6);
    }

    #[test]
    fn two_identical_jobs_split_roughly_evenly() {
        let jobs = vec![
            job("x", DatasetSpec::openimages_like(900, 11), GpuModel::AlexNet),
            job("y", DatasetSpec::openimages_like(900, 11), GpuModel::AlexNet),
        ];
        let allocs = allocate_storage_cores(&jobs, 6).unwrap();
        let (a, b) = (allocs[0].0.cores, allocs[1].0.cores);
        assert!(a.abs_diff(b) <= 1, "uneven split {a}/{b}");
    }
}
