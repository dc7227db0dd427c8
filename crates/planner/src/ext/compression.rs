//! Selective compression of offloaded intermediates (future work §6).
//!
//! A sample offloaded through `RandomResizedCrop` ships a 150 528-byte raw
//! raster. Re-encoding that crop with the codec before transfer shrinks it
//! several-fold at the cost of an encode on the storage node and a decode on
//! the compute node. Like offloading itself, compression pays off only
//! while the network is the bottleneck — so the extension reuses SOPHON's
//! efficiency-ordered greedy structure: candidates are ranked by bytes
//! saved per extra storage-CPU second, and applied while `T_Net` remains
//! predominant.

use cluster::SampleWork;
use datasets::{model, SampleRecord};
use pipeline::SplitPoint;

use crate::engine::PlanningContext;
use crate::{CostVector, OffloadPlan, SophonError};

/// Planner for transfer-time re-compression.
///
/// Size estimates come from the calibrated quality-85 codec model
/// (`datasets::model`); a live run re-encodes at quality 85 to match the
/// plan's predictions. The live path itself (the re-encode quality of a
/// fetch's `ServeForm::Prefix`, set from the loader's `reencode_quality`)
/// honors whatever quality is sent.
#[derive(Debug, Clone)]
pub struct CompressionExt {
    /// CPU cost model for the extra encode/decode work.
    pub(crate) cost_model: pipeline::CostModel,
}

impl Default for CompressionExt {
    fn default() -> Self {
        CompressionExt { cost_model: pipeline::CostModel::realistic() }
    }
}

/// The outcome of compression planning.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionReport {
    /// Samples whose transfer payload is re-encoded.
    pub compressed_samples: u64,
    /// Total transfer bytes before compression.
    pub bytes_before: u64,
    /// Total transfer bytes after compression.
    pub bytes_after: u64,
    /// Extra storage-node CPU seconds spent encoding.
    pub extra_storage_cpu_seconds: f64,
    /// Extra compute-node CPU seconds spent decoding.
    pub extra_compute_cpu_seconds: f64,
    /// Predicted cost vector after compression.
    pub(crate) costs: CostVector,
}

impl CompressionReport {
    /// Traffic reduction factor contributed by compression alone.
    pub fn compression_gain(&self) -> f64 {
        self.bytes_before as f64 / self.bytes_after.max(1) as f64
    }
}

impl CompressionExt {
    /// Refines `plan`'s sample works with selective re-compression.
    ///
    /// `records` supplies per-sample content complexity (which determines
    /// the re-encoded size); it must be index-aligned with `ctx.profiles`.
    ///
    /// # Errors
    ///
    /// Returns [`SophonError::PlanMismatch`] when `records` and profiles
    /// disagree in length, and propagates plan translation failures.
    pub fn apply(
        &self,
        ctx: &PlanningContext<'_>,
        records: &[SampleRecord],
        plan: &OffloadPlan,
    ) -> Result<(Vec<SampleWork>, CompressionReport), SophonError> {
        if records.len() != ctx.profiles.len() {
            return Err(SophonError::PlanMismatch {
                profiles: ctx.profiles.len(),
                plan: records.len(),
            });
        }
        let mut works = plan.to_sample_works(ctx.profiles)?;
        let bytes_before: u64 = works.iter().map(|w| w.transfer_bytes).sum();
        let mut costs = ctx.costs_for_plan(plan)?;

        let storage_cores = (ctx.config.storage_cores as f64).max(f64::MIN_POSITIVE);
        let compute_cores = ctx.config.compute_cores.max(1) as f64;
        let bw = ctx.config.link_bps;

        // Candidates: samples whose on-the-wire representation is a raster
        // image (an offloaded intermediate that the codec can shrink).
        struct Candidate {
            index: usize,
            saved: u64,
            encode_s: f64,
            decode_s: f64,
            efficiency: f64,
        }
        let mut candidates = Vec::new();
        for (i, (_profile, rec)) in ctx.profiles.iter().zip(records.iter()).enumerate() {
            let split: SplitPoint = plan.split(i);
            let k = split.offloaded_ops();
            if !ctx.modality.stage_supports_reencode(k) {
                continue;
            }
            // Dimensions of the shipped intermediate.
            let pixels = works[i].transfer_bytes / 3;
            let side = (pixels as f64).sqrt();
            let compressed = model::encoded_size(rec.complexity, side as u32, side.ceil() as u32);
            if compressed >= works[i].transfer_bytes {
                continue;
            }
            let saved = works[i].transfer_bytes - compressed;
            let encode_s = self.cost_model.encode_seconds(pixels);
            let decode_s = self.cost_model.op_seconds_for_dims(
                pipeline::OpKind::Decode,
                pixels,
                compressed,
                pixels,
                pixels * 3,
            );
            // A NaN cost (from a NaN model coefficient) is skipped too, so
            // every efficiency below is a positive number.
            if encode_s.is_nan() || encode_s <= 0.0 {
                continue;
            }
            candidates.push(Candidate {
                index: i,
                saved,
                encode_s,
                decode_s,
                efficiency: saved as f64 / encode_s,
            });
        }
        // Every efficiency is positive, so `total_cmp` orders them as `<` does.
        candidates.sort_by(|a, b| b.efficiency.total_cmp(&a.efficiency));

        let mut compressed_samples = 0u64;
        let mut extra_storage = 0.0;
        let mut extra_compute = 0.0;
        for c in candidates {
            if !costs.network_predominant() {
                break;
            }
            let next = CostVector::new(
                costs.t_g,
                costs.t_cc + c.decode_s / compute_cores,
                costs.t_cs + c.encode_s / storage_cores,
                (costs.t_net - c.saved as f64 * 8.0 / bw).max(0.0),
            );
            if next.makespan() > costs.makespan() {
                continue;
            }
            let w = &mut works[c.index];
            *w = SampleWork::new(
                w.storage_cpu_seconds + c.encode_s,
                w.transfer_bytes - c.saved,
                w.compute_cpu_seconds + c.decode_s,
            );
            compressed_samples += 1;
            extra_storage += c.encode_s;
            extra_compute += c.decode_s;
            costs = next;
        }

        let bytes_after: u64 = works.iter().map(|w| w.transfer_bytes).sum();
        Ok((
            works,
            CompressionReport {
                compressed_samples,
                bytes_before,
                bytes_after,
                extra_storage_cpu_seconds: extra_storage,
                extra_compute_cpu_seconds: extra_compute,
                costs,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DecisionEngine;
    use cluster::{ClusterConfig, GpuModel};
    use datasets::DatasetSpec;
    use pipeline::{CostModel, PipelineSpec};

    #[test]
    fn compression_reduces_traffic_beyond_sophon() {
        let ds = DatasetSpec::openimages_like(1500, 5);
        let records: Vec<_> = ds.records().collect();
        let pipeline = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        let ps: Vec<_> = records.iter().map(|r| r.analytic_profile(&pipeline, &model)).collect();
        let config = ClusterConfig::paper_testbed(48);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let plan = DecisionEngine::new().plan(&ctx);
        let (works, report) = CompressionExt::default().apply(&ctx, &records, &plan).unwrap();
        assert!(report.compressed_samples > 0);
        assert!(report.bytes_after < report.bytes_before);
        assert!(report.compression_gain() > 1.3, "gain {}", report.compression_gain());
        let total: u64 = works.iter().map(|w| w.transfer_bytes).sum();
        assert_eq!(total, report.bytes_after);
        // CPU accounting is attached to the works.
        let extra: f64 = works.iter().map(|w| w.storage_cpu_seconds).sum::<f64>()
            - plan.summarize(&ps).unwrap().storage_cpu_seconds;
        assert!((extra - report.extra_storage_cpu_seconds).abs() < 1e-6);
    }

    #[test]
    fn no_compression_without_offloaded_images() {
        let ds = DatasetSpec::imagenet_like(300, 5);
        let records: Vec<_> = ds.records().collect();
        let pipeline = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        let ps: Vec<_> = records.iter().map(|r| r.analytic_profile(&pipeline, &model)).collect();
        let config = ClusterConfig::paper_testbed(48);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let plan = OffloadPlan::none(ps.len());
        let (_, report) = CompressionExt::default().apply(&ctx, &records, &plan).unwrap();
        assert_eq!(report.compressed_samples, 0);
        assert_eq!(report.bytes_before, report.bytes_after);
    }

    #[test]
    fn a_nan_encode_cost_compresses_nothing() {
        let ds = DatasetSpec::openimages_like(300, 5);
        let records: Vec<_> = ds.records().collect();
        let pipeline = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        let ps: Vec<_> = records.iter().map(|r| r.analytic_profile(&pipeline, &model)).collect();
        let config = ClusterConfig::paper_testbed(48);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 256);
        let plan = DecisionEngine::new().plan(&ctx);
        assert!(plan.offloaded_samples() > 0, "the plan must offer candidates");
        let nan = CompressionExt {
            cost_model: CostModel { encode_ns_per_pixel: f64::NAN, ..CostModel::realistic() },
        };
        let (_, report) = nan.apply(&ctx, &records, &plan).unwrap();
        assert_eq!(report.compressed_samples, 0);
        assert_eq!(report.bytes_before, report.bytes_after);
    }

    #[test]
    fn record_mismatch_rejected() {
        let ds = DatasetSpec::mini(5, 1);
        let records: Vec<_> = ds.records().collect();
        let pipeline = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        let ps: Vec<_> =
            records.iter().take(4).map(|r| r.analytic_profile(&pipeline, &model)).collect();
        let config = ClusterConfig::paper_testbed(48);
        let ctx = PlanningContext::new(&ps, &pipeline, &config, GpuModel::AlexNet, 4);
        let plan = OffloadPlan::none(4);
        assert!(matches!(
            CompressionExt::default().apply(&ctx, &records, &plan),
            Err(SophonError::PlanMismatch { .. })
        ));
    }
}
