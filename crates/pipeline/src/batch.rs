//! Batch assembly (the data loader's collate step).
//!
//! The GPU consumes fixed-shape NCHW buffers, not individual tensors. A
//! [`TensorBatch`] stacks the pipeline's per-sample outputs into one
//! contiguous `f32` buffer, validating shape uniformity — the final hop of
//! Figure 2's step (f). A [`BatchAssembly`] builds one sample by sample and
//! can run a trailing `ToTensor` → `Normalize` as it writes.

use imagery::{CHANNELS, IMAGENET_MEAN, IMAGENET_STD};

use crate::{PipelineSpec, StageData};

/// A stacked NCHW batch of training tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorBatch {
    count: usize,
    width: u32,
    height: u32,
    data: Vec<f32>,
}

/// Error from batch assembly.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CollateError {
    /// The input set was empty.
    Empty,
    /// A sample was not a tensor (pipeline incomplete).
    NotATensor {
        /// Index of the offending sample within the batch.
        index: usize,
    },
    /// A tensor's spatial shape differs from the first sample's.
    ShapeMismatch {
        /// Index of the offending sample within the batch.
        index: usize,
        /// Expected (width, height).
        expected: (u32, u32),
        /// Actual (width, height).
        got: (u32, u32),
    },
}

impl std::fmt::Display for CollateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollateError::Empty => write!(f, "cannot collate an empty batch"),
            CollateError::NotATensor { index } => {
                write!(f, "sample {index} is not a tensor")
            }
            CollateError::ShapeMismatch { index, expected, got } => {
                write!(f, "sample {index} has shape {got:?}, batch expects {expected:?}")
            }
        }
    }
}

impl std::error::Error for CollateError {}

impl TensorBatch {
    /// Stacks fully preprocessed samples into a batch.
    ///
    /// # Errors
    ///
    /// Returns [`CollateError`] for empty input, non-tensor samples, or
    /// shape mismatches.
    pub fn collate(samples: &[StageData]) -> Result<TensorBatch, CollateError> {
        let mut batch = BatchAssembly::with_fused_tail(samples.len(), false);
        for s in samples {
            batch.push(s)?;
        }
        batch.finish()
    }

    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the batch is empty (never true for a collated batch).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Spatial shape `(width, height)`.
    pub fn shape(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// Total `f32` elements (`N × 3 × H × W`).
    pub fn element_count(&self) -> usize {
        self.data.len()
    }

    /// Byte size of the batch buffer.
    pub fn byte_len(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Borrows the contiguous NCHW buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Borrows the `i`-th sample's CHW slab.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn sample(&self, i: usize) -> &[f32] {
        assert!(i < self.count, "sample {i} out of range");
        let per = self.data.len() / self.count;
        &self.data[i * per..(i + 1) * per]
    }
}

/// Builds a [`TensorBatch`] sample by sample, writing each straight into
/// its slab of one buffer, which the first [`BatchAssembly::push`]
/// allocates at the whole batch's size.
///
/// For a spec that ends in `ToTensor` → `Normalize`, a pushed image is what
/// [`PipelineSpec::run_suffix_for_batch`] returns, and the assembly runs
/// those two ops as it writes the slab. Element by element that is
/// `(f32::from(px) / 255.0 - mean) / std`, the f32 operations
/// `Tensor::from_image` and `Tensor::normalize` perform, in the same order;
/// a `u8` takes 256 values, so the assembly computes them once per channel
/// and each element is a table lookup. The slab is bit-identical to those
/// two ops', without a per-sample tensor or a collate copy. A pushed tensor
/// (a sample that arrived past that point, such as an all-offloaded one)
/// is copied into its slab.
#[derive(Debug)]
pub struct BatchAssembly {
    count: usize,
    /// `ToTensor` → `Normalize` of every byte value, per channel, when the
    /// spec ends in those two ops.
    tail: Option<Box<[[f32; 256]; CHANNELS]>>,
    shape: Option<(u32, u32)>,
    pushed: usize,
    data: Vec<f32>,
}

impl BatchAssembly {
    /// An empty assembly for `count` samples finished by `spec`.
    pub fn new(spec: &PipelineSpec, count: usize) -> BatchAssembly {
        BatchAssembly::with_fused_tail(count, spec.fused_tail_start().is_some())
    }

    fn with_fused_tail(count: usize, fused_tail: bool) -> BatchAssembly {
        let tail = fused_tail.then(|| {
            let mut table = Box::new([[0f32; 256]; CHANNELS]);
            for (c, values) in table.iter_mut().enumerate() {
                let (mean, std) = (IMAGENET_MEAN[c], IMAGENET_STD[c]);
                for (v, out) in (0..=255u8).zip(values.iter_mut()) {
                    *out = (f32::from(v) / 255.0 - mean) / std;
                }
            }
            table
        });
        BatchAssembly { count, tail, shape: None, pushed: 0, data: Vec::new() }
    }

    /// Writes the next sample into its slab.
    ///
    /// # Errors
    ///
    /// [`CollateError::NotATensor`] for a sample that is neither a tensor
    /// nor, under a fused tail, an image; [`CollateError::ShapeMismatch`]
    /// when its shape differs from the first sample's.
    ///
    /// # Panics
    ///
    /// Panics when the batch already holds `count` samples.
    pub fn push(&mut self, sample: &StageData) -> Result<(), CollateError> {
        let index = self.pushed;
        assert!(index < self.count, "batch of {} is already full", self.count);
        let got = match sample {
            StageData::Tensor(t) => (t.width(), t.height()),
            StageData::Image(img) if self.tail.is_some() => (img.width(), img.height()),
            _ => return Err(CollateError::NotATensor { index }),
        };
        match self.shape {
            None => {
                let per_sample = CHANNELS * got.0 as usize * got.1 as usize;
                self.data.reserve_exact(per_sample * self.count);
                self.shape = Some(got);
            }
            Some(expected) if expected != got => {
                return Err(CollateError::ShapeMismatch { index, expected, got });
            }
            Some(_) => {}
        }
        match (sample, &self.tail) {
            (StageData::Tensor(t), _) => self.data.extend_from_slice(t.as_slice()),
            (StageData::Image(img), Some(table)) => {
                let raw = img.as_raw();
                for (c, values) in table.iter().enumerate() {
                    let plane = raw.chunks_exact(CHANNELS).map(|px| values[usize::from(px[c])]);
                    self.data.extend(plane);
                }
            }
            _ => unreachable!("rejected above"),
        }
        self.pushed += 1;
        Ok(())
    }

    /// The assembled batch.
    ///
    /// # Errors
    ///
    /// [`CollateError::Empty`] for a batch of zero samples.
    ///
    /// # Panics
    ///
    /// Panics when fewer than `count` samples were pushed.
    pub fn finish(self) -> Result<TensorBatch, CollateError> {
        assert_eq!(self.pushed, self.count, "batch finished before every sample was pushed");
        let (width, height) = self.shape.ok_or(CollateError::Empty)?;
        Ok(TensorBatch { count: self.count, width, height, data: self.data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SampleKey, SplitPoint};
    use codec::Quality;
    use imagery::synth::SynthSpec;
    use imagery::RasterImage;

    fn tensor_of(seed: u64) -> StageData {
        let img = SynthSpec::new(300, 200).complexity(0.4).render(seed);
        let enc = codec::encode(&img, Quality::default());
        PipelineSpec::standard_train()
            .run(StageData::Encoded(enc.into()), SampleKey::new(1, seed, 0))
            .unwrap()
    }

    #[test]
    fn collate_stacks_in_order() {
        let samples = vec![tensor_of(1), tensor_of(2), tensor_of(3)];
        let batch = TensorBatch::collate(&samples).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.shape(), (224, 224));
        assert_eq!(batch.element_count(), 3 * 3 * 224 * 224);
        assert_eq!(batch.byte_len(), 3 * 602_112);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(batch.sample(i), s.as_tensor().unwrap().as_slice());
        }
    }

    #[test]
    fn empty_batch_rejected() {
        assert_eq!(TensorBatch::collate(&[]), Err(CollateError::Empty));
    }

    #[test]
    fn non_tensor_rejected_with_index() {
        let img = RasterImage::filled(224, 224, imagery::Rgb::BLACK);
        let samples = vec![tensor_of(1), StageData::Image(img)];
        assert_eq!(TensorBatch::collate(&samples), Err(CollateError::NotATensor { index: 1 }));
        // An assembly takes images only for a spec ending in the fused tail.
        let decode_only = PipelineSpec::new(vec![crate::OpKind::Decode]).unwrap();
        let mut batch = BatchAssembly::new(&decode_only, 2);
        batch.push(&samples[0]).unwrap();
        assert_eq!(batch.push(&samples[1]), Err(CollateError::NotATensor { index: 1 }));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let small = StageData::Tensor(imagery::Tensor::zeros(10, 10));
        let samples = vec![tensor_of(1), small];
        assert!(matches!(
            TensorBatch::collate(&samples),
            Err(CollateError::ShapeMismatch { index: 1, expected: (224, 224), got: (10, 10) })
        ));
    }

    #[test]
    fn fused_tail_equals_to_tensor_then_normalize_bit_for_bit() {
        // Every byte value in every channel: R counts up, G down, and B
        // steps by 7 (odd, so it also visits all 256 values).
        let raw: Vec<u8> = (0..=255u8).flat_map(|i| [i, 255 - i, i.wrapping_mul(7)]).collect();
        let img = RasterImage::from_raw(256, 1, raw).unwrap();
        let mut reference = imagery::Tensor::from_image(&img);
        reference.normalize(IMAGENET_MEAN, IMAGENET_STD);
        let mut batch = BatchAssembly::new(&PipelineSpec::standard_train(), 1);
        batch.push(&StageData::Image(img)).unwrap();
        let fused: Vec<u32> =
            batch.finish().unwrap().sample(0).iter().map(|v| v.to_bits()).collect();
        let unfused: Vec<u32> = reference.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(fused, unfused);
    }

    #[test]
    fn assembly_equals_run_then_collate_at_every_split() {
        // Samples split at every point, mixed in one batch: split 3 arrives
        // as an image the assembly finishes, splits 4 and 5 as tensors.
        for spec in [PipelineSpec::standard_train(), PipelineSpec::standard_eval()] {
            let splits: Vec<SplitPoint> = spec.split_points().collect();
            let mut reference = Vec::new();
            let mut batch = BatchAssembly::new(&spec, splits.len());
            for (id, &split) in splits.iter().enumerate() {
                let img = SynthSpec::new(280, 210).complexity(0.5).render(id as u64);
                let raw = StageData::Encoded(codec::encode(&img, Quality::default()).into());
                let key = SampleKey::new(9, id as u64, 2);
                reference.push(spec.run(raw.clone(), key).unwrap());
                let mid = spec.run_prefix(raw, split, key).unwrap();
                batch.push(&spec.run_suffix_for_batch(mid, split, key).unwrap()).unwrap();
            }
            assert_eq!(batch.finish().unwrap(), TensorBatch::collate(&reference).unwrap());
        }
    }
}
