use crate::OpKind;

/// Analytic CPU-cost model for preprocessing operations, in virtual seconds.
///
/// The cluster simulator and the decision engine need *deterministic*
/// per-operation CPU times (wall-clock measurements would make every
/// experiment non-reproducible and hardware-dependent). `CostModel` maps an
/// operation plus the sizes of its input/output to seconds on one core. The
/// default constants are calibrated so that preprocessing a ~1-megapixel
/// photograph costs ~35 ms of single-core time, in line with the
/// PIL/torchvision pipeline the paper measures; decode dominates, exactly as
/// in their Figure 1c discussion.
///
/// ```
/// use pipeline::{CostModel, OpKind};
/// let m = CostModel::realistic();
/// // Decoding a 1 Mpx image costs tens of milliseconds...
/// let d = m.op_seconds_for_dims(OpKind::Decode, 1_000_000, 150_000, 1_000_000, 0);
/// assert!(d > 0.01 && d < 0.1, "decode cost {d}");
/// // ...while flipping a 224x224 crop costs well under a millisecond.
/// let f = m.op_seconds_for_dims(OpKind::RandomHorizontalFlip, 50_176, 150_528, 50_176, 150_528);
/// assert!(f < 0.001, "flip cost {f}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Decode: nanoseconds per decoded pixel.
    pub decode_ns_per_pixel: f64,
    /// Decode: additional nanoseconds per encoded input byte (entropy
    /// decoding cost).
    pub decode_ns_per_byte: f64,
    /// RandomResizedCrop: nanoseconds per source pixel (crop copy and cache
    /// traffic over the source window).
    pub crop_ns_per_src_pixel: f64,
    /// RandomResizedCrop / Resize: nanoseconds per destination pixel
    /// (bilinear filtering).
    pub resize_ns_per_dst_pixel: f64,
    /// RandomHorizontalFlip: nanoseconds per pixel.
    pub flip_ns_per_pixel: f64,
    /// ToTensor: nanoseconds per pixel (u8 → f32 conversion and layout
    /// change).
    pub to_tensor_ns_per_pixel: f64,
    /// Normalize: nanoseconds per pixel.
    pub normalize_ns_per_pixel: f64,
    /// Encode (used by the selective-compression extension): nanoseconds per
    /// source pixel.
    pub encode_ns_per_pixel: f64,
    /// ColorJitter: nanoseconds per pixel per enabled adjustment pass.
    pub jitter_ns_per_pixel: f64,
    /// Grayscale: nanoseconds per pixel.
    pub grayscale_ns_per_pixel: f64,
}

impl CostModel {
    /// Calibrated defaults (see type-level docs).
    pub fn realistic() -> CostModel {
        CostModel {
            decode_ns_per_pixel: 25.0,
            decode_ns_per_byte: 4.0,
            crop_ns_per_src_pixel: 6.0,
            resize_ns_per_dst_pixel: 60.0,
            flip_ns_per_pixel: 4.0,
            to_tensor_ns_per_pixel: 20.0,
            normalize_ns_per_pixel: 10.0,
            encode_ns_per_pixel: 40.0,
            jitter_ns_per_pixel: 12.0,
            grayscale_ns_per_pixel: 5.0,
        }
    }

    /// Cost of `op` in seconds given only sizes (used when replaying
    /// profiles without materialized data).
    pub fn op_seconds_for_dims(
        &self,
        op: OpKind,
        in_pixels: u64,
        in_bytes: u64,
        out_pixels: u64,
        _out_bytes: u64,
    ) -> f64 {
        let ns = match op {
            OpKind::Decode => {
                // `in_pixels` for encoded data is the decoded dimensions from
                // the header; the per-byte term covers entropy decoding.
                out_pixels as f64 * self.decode_ns_per_pixel
                    + in_bytes as f64 * self.decode_ns_per_byte
            }
            OpKind::RandomResizedCrop { .. } => {
                in_pixels as f64 * self.crop_ns_per_src_pixel
                    + out_pixels as f64 * self.resize_ns_per_dst_pixel
            }
            OpKind::Resize { .. } => {
                in_pixels as f64 * self.crop_ns_per_src_pixel
                    + out_pixels as f64 * self.resize_ns_per_dst_pixel
            }
            OpKind::CenterCrop { .. } => out_pixels as f64 * self.flip_ns_per_pixel,
            OpKind::RandomHorizontalFlip => in_pixels as f64 * self.flip_ns_per_pixel,
            OpKind::ToTensor => in_pixels as f64 * self.to_tensor_ns_per_pixel,
            OpKind::Normalize => in_pixels as f64 * self.normalize_ns_per_pixel,
            OpKind::ColorJitter { .. } => in_pixels as f64 * self.jitter_ns_per_pixel * 3.0,
            OpKind::Grayscale => in_pixels as f64 * self.grayscale_ns_per_pixel,
        };
        ns * 1e-9
    }

    /// Cost of re-encoding an image to SJPG (the selective-compression
    /// extension), in seconds.
    pub fn encode_seconds(&self, pixels: u64) -> f64 {
        pixels as f64 * self.encode_ns_per_pixel * 1e-9
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::realistic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_dominates_small_ops() {
        let m = CostModel::realistic();
        let mpx = 1_000_000u64;
        let decode = m.op_seconds_for_dims(OpKind::Decode, mpx, 200_000, mpx, 3_000_000);
        let flip = m.op_seconds_for_dims(OpKind::RandomHorizontalFlip, 50_176, 0, 50_176, 0);
        assert!(decode > flip * 20.0);
    }

    #[test]
    fn full_pipeline_cost_in_realistic_band() {
        // ~1 Mpx source, 250 KB encoded, 224x224 output: total should land
        // in the 10-100 ms band typical for PIL-based preprocessing.
        let m = CostModel::realistic();
        let src_px = 1_000_000u64;
        let crop_px = 224 * 224u64;
        let total = m.op_seconds_for_dims(OpKind::Decode, src_px, 250_000, src_px, 3_000_000)
            + m.op_seconds_for_dims(OpKind::RandomResizedCrop { size: 224 }, src_px, 0, crop_px, 0)
            + m.op_seconds_for_dims(OpKind::RandomHorizontalFlip, crop_px, 0, crop_px, 0)
            + m.op_seconds_for_dims(OpKind::ToTensor, crop_px, 0, crop_px, 0)
            + m.op_seconds_for_dims(OpKind::Normalize, crop_px, 0, crop_px, 0);
        assert!(total > 0.01 && total < 0.1, "pipeline cost {total}");
    }

    #[test]
    fn costs_scale_with_pixels() {
        let m = CostModel::realistic();
        let small = m.op_seconds_for_dims(OpKind::ToTensor, 10_000, 0, 10_000, 0);
        let large = m.op_seconds_for_dims(OpKind::ToTensor, 1_000_000, 0, 1_000_000, 0);
        assert!((large / small - 100.0).abs() < 1.0);
    }

    #[test]
    fn costs_are_deterministic() {
        let m = CostModel::realistic();
        let a = m.op_seconds_for_dims(OpKind::Decode, 123_456, 7_890, 123_456, 0);
        let b = m.op_seconds_for_dims(OpKind::Decode, 123_456, 7_890, 123_456, 0);
        assert_eq!(a, b);
    }
}
