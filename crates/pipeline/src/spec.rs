use crate::rng::SampleKey;
use crate::{ops, AugmentRng, DataKind, OpKind, PipelineError, StageData, CROP_SIZE, MAX_OP_SIZE};

/// How many leading operations of a pipeline run on the storage node.
///
/// `SplitPoint::new(0)` means no offloading; `SplitPoint::new(len)` offloads
/// the whole pipeline (the paper's `All-Off`). The value a split produces on
/// the wire is the output of the last offloaded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SplitPoint(usize);

impl SplitPoint {
    /// No operations offloaded.
    pub const NONE: SplitPoint = SplitPoint(0);

    /// Creates a split after the first `offloaded_ops` operations.
    pub const fn new(offloaded_ops: usize) -> SplitPoint {
        SplitPoint(offloaded_ops)
    }

    /// Number of operations that run on the storage node.
    pub const fn offloaded_ops(self) -> usize {
        self.0
    }

    /// Whether anything is offloaded at all.
    pub const fn is_offloaded(self) -> bool {
        self.0 > 0
    }
}

impl Default for SplitPoint {
    fn default() -> Self {
        SplitPoint::NONE
    }
}

/// An ordered, type-checked sequence of preprocessing operations.
///
/// The first operation must consume [`DataKind::Encoded`] (the stored form),
/// and each operation's output kind must match the next one's input kind.
///
/// ```
/// use pipeline::{PipelineSpec, OpKind};
/// // Ill-typed: Normalize cannot consume an image.
/// let err = PipelineSpec::new(vec![OpKind::Decode, OpKind::Normalize]);
/// assert!(err.is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineSpec {
    ops: Vec<OpKind>,
}

impl PipelineSpec {
    /// Creates a spec, validating the type flow starting from encoded bytes
    /// and the size every sized operation carries.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidSpec`] naming the first ill-typed
    /// operation, and [`PipelineError::InvalidOpSize`] for the first sized
    /// operation whose size is 0 or above [`MAX_OP_SIZE`].
    pub fn new(ops: Vec<OpKind>) -> Result<PipelineSpec, PipelineError> {
        let mut kind = DataKind::Encoded;
        for (index, &op) in ops.iter().enumerate() {
            if op.input_kind() != kind {
                return Err(PipelineError::InvalidSpec { index, op, incoming: kind });
            }
            if op.size().is_some_and(|size| size == 0 || size > MAX_OP_SIZE) {
                return Err(PipelineError::InvalidOpSize { index, op });
            }
            kind = op.output_kind();
        }
        Ok(PipelineSpec { ops })
    }

    /// The paper's five-operation training pipeline:
    /// Decode → RandomResizedCrop(224) → RandomHorizontalFlip → ToTensor →
    /// Normalize.
    pub fn standard_train() -> PipelineSpec {
        PipelineSpec {
            ops: vec![
                OpKind::Decode,
                OpKind::RandomResizedCrop { size: CROP_SIZE },
                OpKind::RandomHorizontalFlip,
                OpKind::ToTensor,
                OpKind::Normalize,
            ],
        }
    }

    /// A heavier augmentation pipeline adding `ColorJitter` between the flip
    /// and `ToTensor` (the common torchvision recipe for contrastive or
    /// robustness training):
    /// Decode → RandomResizedCrop(224) → RandomHorizontalFlip →
    /// ColorJitter(40 %, 40 %, 40 %) → ToTensor → Normalize.
    pub fn augmented_train() -> PipelineSpec {
        PipelineSpec {
            ops: vec![
                OpKind::Decode,
                OpKind::RandomResizedCrop { size: CROP_SIZE },
                OpKind::RandomHorizontalFlip,
                OpKind::ColorJitter { brightness_pct: 40, contrast_pct: 40, saturation_pct: 40 },
                OpKind::ToTensor,
                OpKind::Normalize,
            ],
        }
    }

    /// The deterministic evaluation pipeline:
    /// Decode → Resize(256) → CenterCrop(224) → ToTensor → Normalize.
    pub fn standard_eval() -> PipelineSpec {
        PipelineSpec {
            ops: vec![
                OpKind::Decode,
                OpKind::Resize { size: 256 },
                OpKind::CenterCrop { size: CROP_SIZE },
                OpKind::ToTensor,
                OpKind::Normalize,
            ],
        }
    }

    /// The operations, in order.
    pub fn ops(&self) -> &[OpKind] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the pipeline has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The data kind flowing *out of* stage `stage` (stage 0 = raw encoded
    /// input, stage `i` = after op `i-1`).
    ///
    /// # Panics
    ///
    /// Panics when `stage > len()`.
    pub(crate) fn kind_at(&self, stage: usize) -> DataKind {
        assert!(stage <= self.ops.len(), "stage {stage} beyond pipeline");
        if stage == 0 {
            DataKind::Encoded
        } else {
            self.ops[stage - 1].output_kind()
        }
    }

    fn check_split(&self, split: SplitPoint) -> Result<(), PipelineError> {
        if split.offloaded_ops() > self.ops.len() {
            return Err(PipelineError::SplitOutOfRange {
                split: split.offloaded_ops(),
                len: self.ops.len(),
            });
        }
        Ok(())
    }

    /// Runs ops `range`, op `idx` on its own substream
    /// `AugmentRng::for_op(key, idx)`.
    ///
    /// An adjacent `Decode` → `RandomResizedCrop` pair inside the range runs
    /// as one step: the crop rectangle is drawn first (it depends only on
    /// the stream's header dimensions and the crop's substream, and `Decode`
    /// draws nothing), the decoder reconstructs only that rectangle, and its
    /// rows stream into the resize. The result equals the op-by-op
    /// [`OpKind::apply`] chain bit for bit, and a corrupt stream fails with
    /// the error `Decode` alone reports, because the whole stream is still
    /// parsed. A range that holds only one of the two ops runs it on its
    /// own.
    fn run_range(
        &self,
        mut data: StageData,
        range: std::ops::Range<usize>,
        key: SampleKey,
    ) -> Result<StageData, PipelineError> {
        let mut idx = range.start;
        while idx < range.end {
            (data, idx) = match (&self.ops[idx..range.end], data) {
                (
                    [OpKind::Decode, OpKind::RandomResizedCrop { size }, ..],
                    StageData::Encoded(bytes),
                ) => {
                    let mut rng = AugmentRng::for_op(key, idx + 1);
                    let image = ops::decode_crop_and_resize(&bytes, *size, &mut rng)?;
                    (StageData::Image(image), idx + 2)
                }
                (_, data) => {
                    (self.ops[idx].apply(data, &mut AugmentRng::for_op(key, idx))?, idx + 1)
                }
            };
        }
        Ok(data)
    }

    /// Runs the full pipeline for the sample identified by `key`.
    ///
    /// # Errors
    ///
    /// Propagates the first operation failure.
    pub fn run(&self, data: StageData, key: SampleKey) -> Result<StageData, PipelineError> {
        self.run_range(data, 0..self.ops.len(), key)
    }

    /// Runs only the offloaded prefix (what the storage node executes).
    ///
    /// When the prefix holds both `Decode` and the `RandomResizedCrop` right
    /// after it, the two run fused. The node steps over the entropy data of
    /// the blocks the crop discards (about six in ten with torchvision's
    /// scale range) without decoding them, reconstructs the crop one block
    /// row at a time, and streams its rows into the resize, so neither the
    /// decoded image nor the crop is ever built. The output is
    /// bit-identical to running the ops one by one. A split between the two
    /// (`SplitPoint::new(1)`) decodes the full image, which is what goes on
    /// the wire there.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::SplitOutOfRange`] for an invalid split and
    /// propagates operation failures.
    pub fn run_prefix(
        &self,
        data: StageData,
        split: SplitPoint,
        key: SampleKey,
    ) -> Result<StageData, PipelineError> {
        self.check_split(split)?;
        self.run_range(data, 0..split.offloaded_ops(), key)
    }

    /// Runs the remaining suffix (what the compute node executes after
    /// receiving partially preprocessed data).
    ///
    /// A suffix that starts at the raw bytes (`SplitPoint::NONE`) fuses
    /// `Decode` → `RandomResizedCrop` exactly as [`PipelineSpec::run_prefix`]
    /// does; one that starts at the decoded image crops it as before.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::SplitOutOfRange`] for an invalid split and
    /// propagates operation failures.
    pub fn run_suffix(
        &self,
        data: StageData,
        split: SplitPoint,
        key: SampleKey,
    ) -> Result<StageData, PipelineError> {
        self.check_split(split)?;
        self.run_range(data, split.offloaded_ops()..self.ops.len(), key)
    }

    /// Where a trailing `ToTensor` → `Normalize` pair starts, when the spec
    /// ends in one: the two ops a [`BatchAssembly`](crate::BatchAssembly)
    /// writes straight into the batch.
    pub(crate) fn fused_tail_start(&self) -> Option<usize> {
        self.ops.ends_with(&[OpKind::ToTensor, OpKind::Normalize]).then(|| self.ops.len() - 2)
    }

    /// [`PipelineSpec::run_suffix`] as far as a
    /// [`BatchAssembly`](crate::BatchAssembly) needs it: a spec that ends in
    /// `ToTensor` → `Normalize` stops at the last image, and the assembly
    /// writes the two ops straight into the sample's slab of the batch. A
    /// split past that image runs the whole suffix.
    ///
    /// # Errors
    ///
    /// As [`PipelineSpec::run_suffix`].
    pub fn run_suffix_for_batch(
        &self,
        data: StageData,
        split: SplitPoint,
        key: SampleKey,
    ) -> Result<StageData, PipelineError> {
        self.check_split(split)?;
        let end = match self.fused_tail_start() {
            Some(start) if split.offloaded_ops() <= start => start,
            _ => self.ops.len(),
        };
        self.run_range(data, split.offloaded_ops()..end, key)
    }

    /// All valid split points, from none to the full pipeline.
    pub fn split_points(&self) -> impl Iterator<Item = SplitPoint> + '_ {
        (0..=self.ops.len()).map(SplitPoint::new)
    }

    /// Number of leading ops before the first randomized one — the longest
    /// prefix whose output is identical in every epoch. Augmentation streams
    /// are keyed by `(dataset seed, sample, epoch)`, so anything at or past
    /// the first [`OpKind::is_random`] op varies across epochs and must
    /// never be reused between them.
    pub(crate) fn deterministic_prefix_ops(&self) -> usize {
        self.ops.iter().position(|op| op.is_random()).unwrap_or(self.ops.len())
    }

    /// Whether the intermediate produced by running `split.offloaded_ops()`
    /// leading ops is bit-identical across epochs, and therefore safe to
    /// cache near compute and replay in later epochs. Splits past the
    /// deterministic prefix embed per-epoch augmentation randomness and are
    /// rejected. Out-of-range splits are also rejected.
    pub fn split_is_epoch_stable(&self, split: SplitPoint) -> bool {
        split.offloaded_ops() <= self.deterministic_prefix_ops()
            && split.offloaded_ops() <= self.ops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codec::Quality;
    use imagery::synth::SynthSpec;

    fn encoded_sample(seed: u64) -> StageData {
        let img = SynthSpec::new(400, 300).complexity(0.5).render(seed);
        StageData::Encoded(codec::encode(&img, Quality::default()).into())
    }

    fn tensors_equal(a: &StageData, b: &StageData) -> bool {
        match (a, b) {
            (StageData::Tensor(x), StageData::Tensor(y)) => x == y,
            _ => false,
        }
    }

    #[test]
    fn standard_train_is_well_typed() {
        let spec = PipelineSpec::standard_train();
        assert_eq!(spec.len(), 5);
        assert_eq!(spec.kind_at(0), DataKind::Encoded);
        assert_eq!(spec.kind_at(2), DataKind::Image);
        assert_eq!(spec.kind_at(5), DataKind::Tensor);
    }

    #[test]
    fn ill_typed_spec_rejected() {
        let err = PipelineSpec::new(vec![OpKind::ToTensor]).unwrap_err();
        assert!(matches!(err, PipelineError::InvalidSpec { index: 0, .. }));
        let err = PipelineSpec::new(vec![OpKind::Decode, OpKind::Decode]).unwrap_err();
        assert!(matches!(err, PipelineError::InvalidSpec { index: 1, .. }));
    }

    #[test]
    fn op_sizes_outside_the_frame_bound_are_rejected() {
        for op in [
            |size| OpKind::RandomResizedCrop { size },
            |size| OpKind::Resize { size },
            |size| OpKind::CenterCrop { size },
        ] {
            for size in [0, MAX_OP_SIZE + 1, 1 << 16] {
                let err = PipelineSpec::new(vec![OpKind::Decode, op(size)]).unwrap_err();
                assert_eq!(err, PipelineError::InvalidOpSize { index: 1, op: op(size) });
            }
            for size in [1, CROP_SIZE, MAX_OP_SIZE] {
                assert!(PipelineSpec::new(vec![OpKind::Decode, op(size)]).is_ok());
            }
        }
    }

    #[test]
    fn run_produces_tensor() {
        let spec = PipelineSpec::standard_train();
        let out = spec.run(encoded_sample(1), SampleKey::new(9, 1, 0)).unwrap();
        let t = out.as_tensor().unwrap();
        assert_eq!((t.width(), t.height()), (224, 224));
    }

    /// The unfused reference: every op applied on its own substream.
    fn apply_op_by_op(
        spec: &PipelineSpec,
        mut data: StageData,
        key: SampleKey,
    ) -> Result<StageData, PipelineError> {
        for (idx, op) in spec.ops().iter().enumerate() {
            data = op.apply(data, &mut AugmentRng::for_op(key, idx))?;
        }
        Ok(data)
    }

    #[test]
    fn every_split_point_reproduces_unsplit_output() {
        // `run`, and `run_prefix` + `run_suffix` at every split (split 1 cuts
        // the fused pair in two), against the op-by-op chain, for inputs of
        // two shapes across epochs.
        let inputs = [(200, 150), (75, 53)].map(|(w, h)| {
            let img = SynthSpec::new(w, h).complexity(0.5).render(2);
            StageData::Encoded(codec::encode(&img, Quality::default()).into())
        });
        for spec in [PipelineSpec::standard_train(), PipelineSpec::augmented_train()] {
            for input in &inputs {
                for epoch in [0, 3] {
                    let key = SampleKey::new(42, 17, epoch);
                    let reference = apply_op_by_op(&spec, input.clone(), key).unwrap();
                    let full = spec.run(input.clone(), key).unwrap();
                    assert!(tensors_equal(&full, &reference), "run diverged at epoch {epoch}");
                    for split in spec.split_points() {
                        let mid = spec.run_prefix(input.clone(), split, key).unwrap();
                        let out = spec.run_suffix(mid, split, key).unwrap();
                        assert!(
                            tensors_equal(&out, &reference),
                            "split {split:?} diverged from op-by-op execution at epoch {epoch}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_prefix_ships_what_the_unfused_ops_produce() {
        // The intermediate on the wire at split 2, not only the final tensor.
        let spec = PipelineSpec::standard_train();
        for epoch in 0..6 {
            let key = SampleKey::new(5, 9, epoch);
            let mut by_hand = encoded_sample(6);
            for idx in 0..2 {
                by_hand =
                    spec.ops()[idx].apply(by_hand, &mut AugmentRng::for_op(key, idx)).unwrap();
            }
            let fused = spec.run_prefix(encoded_sample(6), SplitPoint::new(2), key).unwrap();
            assert_eq!(fused, by_hand, "epoch {epoch}");
        }
    }

    #[test]
    fn fused_step_fails_like_the_unfused_chain() {
        let spec = PipelineSpec::standard_train();
        let key = SampleKey::new(1, 2, 3);
        let good =
            codec::encode(&SynthSpec::new(64, 48).complexity(0.5).render(1), Quality::default());
        let mut hostile = good.clone();
        hostile[5..13].copy_from_slice(&[0, 0, 0, 4, 0, 0, 0, 4]); // 2^26 x 2^26
        let mut flipped = good.clone();
        flipped[40] ^= 0xFF;
        let mut version_3 = good.clone();
        version_3[4] = 3; // the retired progressive container's version
        let defective: Vec<Vec<u8>> = vec![
            b"not an image".to_vec(),
            good[..good.len() - 9].to_vec(),
            hostile,
            flipped,
            version_3,
        ];
        for bytes in defective {
            let input = StageData::Encoded(bytes.into());
            let unfused = apply_op_by_op(&spec, input.clone(), key);
            assert_eq!(spec.run(input.clone(), key), unfused);
            assert_eq!(spec.run_prefix(input, SplitPoint::new(2), key).err(), unfused.err());
        }
        // Data of the wrong kind is reported by `Decode`, fused or not.
        let image = StageData::Image(SynthSpec::new(8, 8).render(1));
        assert!(matches!(
            spec.run(image, key),
            Err(PipelineError::KindMismatch { op: OpKind::Decode, .. })
        ));
    }

    #[test]
    fn split_out_of_range_rejected() {
        let spec = PipelineSpec::standard_train();
        let err = spec
            .run_prefix(encoded_sample(1), SplitPoint::new(6), SampleKey::new(0, 0, 0))
            .unwrap_err();
        assert!(matches!(err, PipelineError::SplitOutOfRange { split: 6, len: 5 }));
    }

    #[test]
    fn eval_pipeline_is_deterministic_across_epochs() {
        let spec = PipelineSpec::standard_eval();
        let a = spec.run(encoded_sample(3), SampleKey::new(1, 5, 0)).unwrap();
        let b = spec.run(encoded_sample(3), SampleKey::new(1, 5, 9)).unwrap();
        assert!(tensors_equal(&a, &b), "eval pipeline must not vary per epoch");
    }

    #[test]
    fn train_pipeline_varies_across_epochs() {
        let spec = PipelineSpec::standard_train();
        let a = spec.run(encoded_sample(3), SampleKey::new(1, 5, 0)).unwrap();
        let b = spec.run(encoded_sample(3), SampleKey::new(1, 5, 1)).unwrap();
        assert!(!tensors_equal(&a, &b), "train augmentations must vary per epoch");
    }

    #[test]
    fn deterministic_prefix_stops_at_first_random_op() {
        // standard_train: Decode, RandomResizedCrop, Flip, ToTensor,
        // Normalize — only the decode output is epoch-stable.
        let train = PipelineSpec::standard_train();
        assert_eq!(train.deterministic_prefix_ops(), 1);
        assert!(train.split_is_epoch_stable(SplitPoint::NONE));
        assert!(train.split_is_epoch_stable(SplitPoint::new(1)));
        for split in 2..=train.len() {
            assert!(
                !train.split_is_epoch_stable(SplitPoint::new(split)),
                "split {split} is past an augmentation and must not be stable"
            );
        }
        assert!(!train.split_is_epoch_stable(SplitPoint::new(train.len() + 1)));
    }

    #[test]
    fn eval_pipeline_is_stable_at_every_split() {
        let eval = PipelineSpec::standard_eval();
        assert_eq!(eval.deterministic_prefix_ops(), eval.len());
        for split in eval.split_points() {
            assert!(eval.split_is_epoch_stable(split));
        }
    }

    #[test]
    fn stable_splits_reproduce_across_epochs() {
        // The semantic claim behind `split_is_epoch_stable`: a stable
        // prefix's output computed in epoch 0 can replace the fetch in any
        // later epoch without changing the final tensor.
        let spec = PipelineSpec::standard_train();
        let key_e0 = SampleKey::new(7, 4, 0);
        let key_e5 = SampleKey::new(7, 4, 5);
        let direct = spec.run(encoded_sample(4), key_e5).unwrap();
        for split in spec.split_points().filter(|&s| spec.split_is_epoch_stable(s)) {
            let cached = spec.run_prefix(encoded_sample(4), split, key_e0).unwrap();
            let replayed = spec.run_suffix(cached, split, key_e5).unwrap();
            assert!(
                tensors_equal(&replayed, &direct),
                "stable split {split:?} diverged when replayed in a later epoch"
            );
        }
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let spec = PipelineSpec::new(vec![]).unwrap();
        assert!(spec.is_empty());
        let out = spec.run(encoded_sample(1), SampleKey::new(0, 0, 0)).unwrap();
        assert_eq!(out.kind(), DataKind::Encoded);
    }
}
