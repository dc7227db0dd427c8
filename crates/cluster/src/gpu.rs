/// Per-model GPU compute cost.
///
/// The paper's Figure 1d contrasts three models on the same GPU: ResNet50
/// (compute-heavy, nearly saturates the GPU even behind a slow link),
/// ResNet18 (moderate; ~65 % of its time data-stalled at 500 Mbps), and the
/// evaluation's AlexNet (compute-light, easily I/O-bound). Throughputs are
/// calibrated to published V100-class numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GpuModel {
    /// AlexNet — ~4000 images/s.
    AlexNet,
    /// ResNet-18 — ~1000 images/s.
    ResNet18,
    /// ResNet-50 — ~400 images/s.
    ResNet50,
    /// A custom per-image GPU cost in seconds.
    Custom {
        /// Seconds of GPU time per image.
        seconds_per_image: f64,
    },
}

impl GpuModel {
    /// GPU seconds consumed per image (forward + backward).
    ///
    /// The simulator charges this per *sample*, whatever the modality: an
    /// audio workload uses `Custom` with its measured per-clip step time.
    pub fn seconds_per_image(self) -> f64 {
        match self {
            GpuModel::AlexNet => 1.0 / 4000.0,
            GpuModel::ResNet18 => 1.0 / 1000.0,
            GpuModel::ResNet50 => 1.0 / 400.0,
            GpuModel::Custom { seconds_per_image } => seconds_per_image,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            GpuModel::AlexNet => "alexnet",
            GpuModel::ResNet18 => "resnet18",
            GpuModel::ResNet50 => "resnet50",
            GpuModel::Custom { .. } => "custom",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_compute_intensity() {
        assert!(GpuModel::ResNet50.seconds_per_image() > GpuModel::ResNet18.seconds_per_image());
        assert!(GpuModel::ResNet18.seconds_per_image() > GpuModel::AlexNet.seconds_per_image());
    }

    #[test]
    fn custom_model() {
        let m = GpuModel::Custom { seconds_per_image: 0.01 };
        assert_eq!(m.seconds_per_image(), 0.01);
        assert_eq!(m.name(), "custom");
    }
}
