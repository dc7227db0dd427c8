use pipeline::{CostModel, DataKind, OpKind, PipelineSpec, SampleProfile, StageMeasurement};

/// Deterministic metadata of one synthetic sample.
///
/// A record is all the large-scale experiments need: from the dimensions,
/// complexity, and modeled encoded size, [`SampleRecord::analytic_profile`]
/// derives the exact per-stage sizes and modeled CPU costs that measuring
/// the materialized sample would produce — without touching pixels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRecord {
    /// Sample index within its dataset.
    pub id: u64,
    /// Source image width in pixels.
    pub width: u32,
    /// Source image height in pixels.
    pub height: u32,
    /// Content complexity in `[0, 1]` (drives compressibility).
    pub complexity: f64,
    /// Modeled encoded size in bytes.
    pub encoded_bytes: u64,
}

impl SampleRecord {
    /// Total source pixels.
    pub fn pixels(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    /// Raw (decoded) raster size in bytes.
    pub fn raster_bytes(&self) -> u64 {
        self.pixels() * 3
    }

    /// Builds the sample's [`SampleProfile`] analytically by walking the
    /// pipeline's size semantics, using `model` for per-operation costs.
    ///
    /// This mirrors [`SampleProfile::measure`] over materialized data for
    /// the standard pipelines (the property is asserted in this crate's
    /// integration tests).
    ///
    /// # Panics
    ///
    /// Panics if the spec is ill-typed for encoded input (impossible for
    /// specs built via [`PipelineSpec::new`]).
    pub fn analytic_profile(&self, spec: &PipelineSpec, model: &CostModel) -> SampleProfile {
        let mut stages = Vec::with_capacity(spec.len());
        // Track (pixels, bytes, kind) symbolically through the ops.
        let mut px = self.pixels();
        let mut w = self.width;
        let mut h = self.height;
        let mut bytes = self.encoded_bytes;
        let mut kind = DataKind::Encoded;
        for &op in spec.ops() {
            assert_eq!(op.input_kind(), kind, "ill-typed spec in analytic_profile");
            let (in_px, in_bytes) = (px, bytes);
            match op {
                OpKind::Decode => {
                    bytes = px * 3;
                }
                OpKind::RandomResizedCrop { size } | OpKind::CenterCrop { size } => {
                    w = size;
                    h = size;
                    px = u64::from(size) * u64::from(size);
                    bytes = px * 3;
                }
                OpKind::Resize { size } => {
                    let (nw, nh) = if w <= h {
                        let nh = ((u64::from(h) * u64::from(size) + u64::from(w) / 2)
                            / u64::from(w)) as u32;
                        (size, nh.max(1))
                    } else {
                        let nw = ((u64::from(w) * u64::from(size) + u64::from(h) / 2)
                            / u64::from(h)) as u32;
                        (nw.max(1), size)
                    };
                    w = nw;
                    h = nh;
                    px = u64::from(nw) * u64::from(nh);
                    bytes = px * 3;
                }
                OpKind::RandomHorizontalFlip | OpKind::ColorJitter { .. } | OpKind::Grayscale => {}
                OpKind::ToTensor => {
                    bytes = px * 12;
                }
                OpKind::Normalize => {}
            }
            kind = op.output_kind();
            let seconds = model.op_seconds_for_dims(op, in_px, in_bytes, px, bytes);
            stages.push(StageMeasurement { out_bytes: bytes, seconds });
        }
        SampleProfile { sample_id: self.id, raw_bytes: self.encoded_bytes, stages }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(w: u32, h: u32, enc: u64) -> SampleRecord {
        SampleRecord { id: 0, width: w, height: h, complexity: 0.5, encoded_bytes: enc }
    }

    #[test]
    fn analytic_profile_stage_sizes() {
        let p = record(1280, 960, 400_000)
            .analytic_profile(&PipelineSpec::standard_train(), &CostModel::realistic());
        assert_eq!(p.raw_bytes, 400_000);
        assert_eq!(p.size_at(1), 1280 * 960 * 3);
        assert_eq!(p.size_at(2), 150_528);
        assert_eq!(p.size_at(3), 150_528);
        assert_eq!(p.size_at(4), 602_112);
        assert_eq!(p.size_at(5), 602_112);
        assert_eq!(p.min_stage(), (2, 150_528));
    }

    #[test]
    fn analytic_profile_small_sample() {
        let p = record(320, 240, 60_000)
            .analytic_profile(&PipelineSpec::standard_train(), &CostModel::realistic());
        assert_eq!(p.min_stage().0, 0, "small sample smallest raw");
        assert_eq!(p.efficiency(), 0.0);
    }

    #[test]
    fn analytic_profile_eval_pipeline() {
        let p = record(800, 600, 300_000)
            .analytic_profile(&PipelineSpec::standard_eval(), &CostModel::realistic());
        // Resize(256) -> 341x256, CenterCrop(224) -> 224x224.
        assert_eq!(p.size_at(2), 341 * 256 * 3);
        assert_eq!(p.size_at(3), 150_528);
    }

    #[test]
    fn costs_positive_and_decode_dominates() {
        let p = record(1600, 1200, 600_000)
            .analytic_profile(&PipelineSpec::standard_train(), &CostModel::realistic());
        for (i, s) in p.stages.iter().enumerate() {
            assert!(s.seconds > 0.0, "zero cost for stage {}", i + 1);
        }
        let decode = p.stages[0].seconds;
        let flip = p.stages[2].seconds;
        assert!(decode > flip * 10.0);
    }
}
