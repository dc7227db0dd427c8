//! The offloading data loader — the downstream-facing API.
//!
//! [`OffloadingLoader`] is what a training loop actually consumes: it wraps
//! a storage connection (in-process or TCP, via
//! [`storage::FetchTransport`]), an [`OffloadPlan`], and the preprocessing
//! pipeline, and yields collated NCHW [`TensorBatch`]es per epoch:
//!
//! 1. shuffles the sample order deterministically per epoch;
//! 2. issues each batch's fetches in one pipelined burst, attaching every
//!    sample's offload split (and optional re-compression directive) from
//!    the plan;
//! 3. unpacks re-compressed payloads, finishes the pipeline suffix locally,
//!    and collates.
//!
//! Augmentations remain keyed by `(dataset seed, sample, epoch)`, so the
//! batches are bit-identical to what an un-offloaded loader would produce —
//! the property `tests/end_to_end.rs` checks across the live stack.

use pipeline::batch::TensorBatch;
use pipeline::{PipelineSpec, SampleKey, SplitPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use storage::{ClientError, FetchRequest, FetchTransport};

use crate::OffloadPlan;

/// Loader configuration.
#[derive(Debug, Clone)]
pub struct LoaderConfig {
    /// Dataset seed (keys augmentation streams; must match the server's
    /// session).
    pub dataset_seed: u64,
    /// Training batch size.
    pub batch_size: usize,
    /// Shuffle seed; the per-epoch order is derived from `(shuffle_seed,
    /// epoch)`.
    pub shuffle_seed: u64,
    /// When set, every offloaded image-stage transfer is re-encoded at this
    /// quality (the selective-compression extension).
    pub reencode_quality: Option<u8>,
    /// When set, raw (un-offloaded) fetches carry this fidelity cap: a
    /// server holding tiered encodings serves the tier prefix instead of
    /// the full stream (the brownout extension). Advisory for classic
    /// stores, which serve whole objects. `None` — the default — keeps
    /// every request byte-identical to a fidelity-unaware loader.
    pub max_tier: Option<u8>,
    /// Worker threads for the local pipeline suffix (1 = run inline).
    pub workers: usize,
}

impl LoaderConfig {
    /// A loader with the given dataset seed and batch size, no shuffling
    /// salt beyond the default, no re-compression, and two suffix workers.
    pub fn new(dataset_seed: u64, batch_size: usize) -> LoaderConfig {
        LoaderConfig {
            dataset_seed,
            batch_size,
            shuffle_seed: 0,
            reencode_quality: None,
            max_tier: None,
            workers: 2,
        }
    }
}

/// Errors from the loader.
#[derive(Debug)]
#[non_exhaustive]
pub enum LoaderError {
    /// The storage connection failed.
    Client(ClientError),
    /// A re-compressed payload failed to decode.
    Codec(codec::CodecError),
    /// The pipeline suffix failed.
    Pipeline(pipeline::PipelineError),
    /// Batch collation failed.
    Collate(pipeline::CollateError),
    /// The transport reported success but a requested sample is missing
    /// from its responses (a protocol violation, not a transient fault).
    MissingSample(u64),
    /// A replacement plan swapped in mid-epoch covers a different corpus
    /// size than the one it replaces.
    ReplanMismatch {
        /// Samples the active plan covers.
        expected: usize,
        /// Samples the replacement covers.
        got: usize,
    },
}

impl std::fmt::Display for LoaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoaderError::Client(e) => write!(f, "storage fetch failed: {e}"),
            LoaderError::Codec(e) => write!(f, "transfer decompress failed: {e}"),
            LoaderError::Pipeline(e) => write!(f, "pipeline suffix failed: {e}"),
            LoaderError::Collate(e) => write!(f, "collate failed: {e}"),
            LoaderError::MissingSample(id) => {
                write!(f, "transport omitted sample {id} from a successful batch")
            }
            LoaderError::ReplanMismatch { expected, got } => {
                write!(f, "replacement plan covers {got} samples, epoch has {expected}")
            }
        }
    }
}

impl std::error::Error for LoaderError {}

/// A data loader that fetches through a storage transport with per-sample
/// offloading.
#[derive(Debug)]
pub struct OffloadingLoader<T> {
    transport: T,
    pipeline: PipelineSpec,
    plan: OffloadPlan,
    config: LoaderConfig,
}

impl<T: FetchTransport> OffloadingLoader<T> {
    /// Configures the session on `transport` and builds the loader.
    ///
    /// # Errors
    ///
    /// Propagates session-configuration failures.
    ///
    /// # Panics
    ///
    /// Panics when `config.batch_size` is zero.
    pub fn new(
        mut transport: T,
        pipeline: PipelineSpec,
        plan: OffloadPlan,
        config: LoaderConfig,
    ) -> Result<Self, LoaderError> {
        assert!(config.batch_size > 0, "batch size must be positive");
        transport.configure(config.dataset_seed, pipeline.clone()).map_err(LoaderError::Client)?;
        Ok(OffloadingLoader { transport, pipeline, plan, config })
    }

    /// The plan driving the offload directives.
    pub fn plan(&self) -> &OffloadPlan {
        &self.plan
    }

    /// The underlying transport (e.g. to read cache or retry counters off
    /// a decorated transport after an epoch).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable access to the underlying transport (e.g. to attach cache
    /// admission hints between epochs).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// The deterministic sample order for `epoch` (Fisher–Yates over all
    /// plan-covered samples).
    pub fn epoch_order(&self, epoch: u64) -> Vec<u64> {
        let mut ids: Vec<u64> = (0..self.plan.len() as u64).collect();
        let mut rng = StdRng::seed_from_u64(
            self.config.shuffle_seed ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        for i in (1..ids.len()).rev() {
            let j = rng.gen_range(0..=i);
            ids.swap(i, j);
        }
        ids
    }

    /// Runs one epoch, invoking `consume` with every collated batch in
    /// order. Returns the number of batches delivered.
    ///
    /// # Errors
    ///
    /// Stops at the first failing batch.
    pub fn run_epoch<F>(&mut self, epoch: u64, consume: F) -> Result<usize, LoaderError>
    where
        F: FnMut(TensorBatch),
    {
        self.run_epoch_with_replan(epoch, consume, |_| None)
    }

    /// [`OffloadingLoader::run_epoch`] with mid-epoch replanning: before
    /// each batch, `replan(batch_index)` may hand back a replacement
    /// [`OffloadPlan`] that takes effect from that batch on (and stays the
    /// loader's plan afterwards). This is the degraded-mode hook — when a
    /// node's breaker opens partway through an epoch, the runtime swaps in
    /// a [`crate::ext::sharding::plan_fleet`] plan computed with that node
    /// flagged `degraded`, and the remaining batches route their offloads
    /// around the sick node.
    ///
    /// Splits only choose *where* preprocessing runs, never *what* it
    /// computes, so a mid-epoch swap keeps batches bit-identical to an
    /// unswapped run.
    ///
    /// # Errors
    ///
    /// Stops at the first failing batch; a replacement plan of the wrong
    /// length is [`LoaderError::ReplanMismatch`].
    pub fn run_epoch_with_replan<F, R>(
        &mut self,
        epoch: u64,
        mut consume: F,
        mut replan: R,
    ) -> Result<usize, LoaderError>
    where
        F: FnMut(TensorBatch),
        R: FnMut(usize) -> Option<OffloadPlan>,
    {
        let order = self.epoch_order(epoch);
        let mut batches = 0usize;
        for chunk in order.chunks(self.config.batch_size) {
            if let Some(next_plan) = replan(batches) {
                if next_plan.len() != self.plan.len() {
                    return Err(LoaderError::ReplanMismatch {
                        expected: self.plan.len(),
                        got: next_plan.len(),
                    });
                }
                self.plan = next_plan;
            }
            let requests: Vec<FetchRequest> = chunk
                .iter()
                .map(|&id| {
                    let split = self.plan.split(id as usize);
                    let mut req = FetchRequest::new(id, epoch, split);
                    // Only raw serves have tier boundaries to truncate at;
                    // leaving offloaded requests untouched keeps their
                    // wire frames bit-identical to a fidelity-unaware
                    // loader.
                    if let Some(cap) = self.config.max_tier {
                        if split == SplitPoint::NONE {
                            req = req.with_max_tier(cap);
                        }
                    }
                    // Re-compression only applies to stages the modality's
                    // codec can shrink (raster-image transfers).
                    if let Some(q) = self.config.reencode_quality {
                        if split.is_offloaded()
                            && pipeline::Modality::stage_supports_reencode(
                                &self.pipeline,
                                split.offloaded_ops(),
                            )
                        {
                            req = req.with_reencode(q);
                        }
                    }
                    req
                })
                .collect();
            let responses =
                self.transport.fetch_many_requests(&requests).map_err(LoaderError::Client)?;
            // Server workers answer out of order; restore request order so
            // batches are deterministic regardless of server parallelism.
            let mut by_id: std::collections::HashMap<u64, storage::FetchResponse> =
                responses.into_iter().map(|r| (r.sample_id, r)).collect();
            let responses: Vec<storage::FetchResponse> = chunk
                .iter()
                .map(|id| by_id.remove(id).ok_or(LoaderError::MissingSample(*id)))
                .collect::<Result<_, _>>()?;

            let tensors = self.finish_suffixes(responses, epoch)?;
            consume(TensorBatch::collate(&tensors).map_err(LoaderError::Collate)?);
            batches += 1;
        }
        Ok(batches)
    }

    /// Runs the pipeline suffix for a batch's responses, order-preserving,
    /// using up to `config.workers` threads (suffix execution is pure, so
    /// parallelism never affects results).
    fn finish_suffixes(
        &self,
        responses: Vec<storage::FetchResponse>,
        epoch: u64,
    ) -> Result<Vec<pipeline::StageData>, LoaderError> {
        // Capture only `Sync` state (not the transport) so workers can share
        // the closure.
        let pipeline = &self.pipeline;
        let dataset_seed = self.config.dataset_seed;
        let finish_one =
            move |resp: storage::FetchResponse| -> Result<pipeline::StageData, LoaderError> {
                let split = SplitPoint::new(resp.ops_applied as usize);
                let sample_id = resp.sample_id;
                let data = resp.unpack().map_err(LoaderError::Codec)?;
                let key = SampleKey::new(dataset_seed, sample_id, epoch);
                pipeline.run_suffix(data, split, key).map_err(LoaderError::Pipeline)
            };

        let workers = self.config.workers.max(1).min(responses.len().max(1));
        if workers <= 1 {
            return responses.into_iter().map(finish_one).collect();
        }

        let mut slots: Vec<Option<Result<pipeline::StageData, LoaderError>>> =
            (0..responses.len()).map(|_| None).collect();
        let jobs: Vec<(usize, storage::FetchResponse)> =
            responses.into_iter().enumerate().collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results = run_suffixes_parallel(&jobs, &next, workers, &finish_one, &mut slots);
        results?;
        slots.into_iter().map(|s| s.expect("every slot filled by a worker")).collect()
    }
}

/// Scoped work-stealing over `jobs`: workers claim indices from `next`,
/// results are collected with their slot index and scattered afterwards so
/// order is preserved regardless of completion order.
fn run_suffixes_parallel<F>(
    jobs: &[(usize, storage::FetchResponse)],
    next: &std::sync::atomic::AtomicUsize,
    workers: usize,
    finish_one: &F,
    slots: &mut [Option<Result<pipeline::StageData, LoaderError>>],
) -> Result<(), LoaderError>
where
    F: Fn(storage::FetchResponse) -> Result<pipeline::StageData, LoaderError> + Sync,
{
    use std::sync::Mutex;
    // Collect (index, result) pairs from workers, then scatter into slots.
    let collected: Mutex<Vec<(usize, Result<pipeline::StageData, LoaderError>)>> =
        Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some((slot, resp)) = jobs.get(i) else {
                    return;
                };
                let result = finish_one(resp.clone());
                collected.lock().expect("no panics hold the lock").push((*slot, result));
            });
        }
    });
    for (slot, result) in collected.into_inner().expect("scope joined") {
        slots[slot] = Some(result);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Bandwidth;
    use pipeline::StageData;
    use storage::{ObjectStore, ServerConfig, TcpStorageClient, TcpStorageServer};

    const N: u64 = 10;

    fn live_parts() -> (datasets::DatasetSpec, ObjectStore, TcpStorageServer) {
        let ds = datasets::DatasetSpec::mini(N, 55);
        let store = ObjectStore::materialize_dataset(&ds, 0..N);
        let server = TcpStorageServer::bind(
            store.clone(),
            ServerConfig {
                cores: 3,
                bandwidth: Bandwidth::from_gbps(10.0),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        (ds, store, server)
    }

    fn connect(server: &TcpStorageServer) -> TcpStorageClient {
        TcpStorageClient::connect(server.local_addr()).unwrap()
    }

    fn make_plan(ds: &datasets::DatasetSpec) -> OffloadPlan {
        let pipeline = PipelineSpec::standard_train();
        let model = pipeline::CostModel::realistic();
        OffloadPlan::from_splits(
            ds.records().map(|r| r.analytic_profile(&pipeline, &model).best_split()).collect(),
        )
    }

    #[test]
    fn epoch_yields_all_batches_shuffled() {
        let (ds, _store, server) = live_parts();
        let plan = make_plan(&ds);
        let mut loader = OffloadingLoader::new(
            connect(&server),
            PipelineSpec::standard_train(),
            plan,
            LoaderConfig::new(ds.seed, 4),
        )
        .unwrap();
        let mut shapes = Vec::new();
        let batches = loader.run_epoch(0, |b| shapes.push((b.len(), b.shape()))).unwrap();
        assert_eq!(batches, 3); // 10 samples in batches of 4: 4+4+2
        assert_eq!(shapes, vec![(4, (224, 224)), (4, (224, 224)), (2, (224, 224))]);
        // Order differs between epochs but covers the same ids.
        let e0 = loader.epoch_order(0);
        let e1 = loader.epoch_order(1);
        assert_ne!(e0, e1);
        let mut s0 = e0.clone();
        s0.sort_unstable();
        assert_eq!(s0, (0..N).collect::<Vec<_>>());
        server.shutdown();
    }

    #[test]
    fn loader_batches_match_local_preprocessing() {
        // The decisive property: the loader's tensors are identical to pure
        // local preprocessing of the same samples in the same epoch.
        let (ds, store, server) = live_parts();
        let plan = make_plan(&ds);
        let pipeline = PipelineSpec::standard_train();
        let epoch = 3u64;
        let mut loader = OffloadingLoader::new(
            connect(&server),
            pipeline.clone(),
            plan,
            LoaderConfig::new(ds.seed, 5),
        )
        .unwrap();
        let order = loader.epoch_order(epoch);
        let mut collected: Vec<TensorBatch> = Vec::new();
        loader.run_epoch(epoch, |b| collected.push(b)).unwrap();

        let mut idx = 0usize;
        for batch in &collected {
            for i in 0..batch.len() {
                let id = order[idx];
                idx += 1;
                let local = pipeline
                    .run(
                        StageData::Encoded(store.get(id).unwrap()),
                        SampleKey::new(ds.seed, id, epoch),
                    )
                    .unwrap();
                assert_eq!(
                    batch.sample(i),
                    local.as_tensor().unwrap().as_slice(),
                    "sample {id} diverged"
                );
            }
        }
        server.shutdown();
    }

    #[test]
    fn mid_epoch_replan_keeps_batches_bit_identical() {
        // Swapping the plan between batches changes only *where* prefixes
        // run; the tensors must not move by a single bit.
        let (ds, _store, server) = live_parts();
        let plan = make_plan(&ds);
        let run = |client: TcpStorageClient,
                   replan: &mut dyn FnMut(usize) -> Option<OffloadPlan>| {
            let mut loader = OffloadingLoader::new(
                client,
                PipelineSpec::standard_train(),
                plan.clone(),
                LoaderConfig::new(ds.seed, 4),
            )
            .unwrap();
            let mut out: Vec<Vec<f32>> = Vec::new();
            loader.run_epoch_with_replan(2, |b| out.push(b.as_slice().to_vec()), replan).unwrap();
            out
        };
        let steady = run(connect(&server), &mut |_| None);
        // Degraded-mode analogue: from batch 1 on, stop offloading.
        let raw_from_batch_1 =
            run(connect(&server), &mut |batch| (batch == 1).then(|| OffloadPlan::none(N as usize)));
        assert_eq!(steady, raw_from_batch_1, "replan changed batch contents");
        server.shutdown();
    }

    #[test]
    fn replan_of_the_wrong_length_is_rejected() {
        let (ds, _store, server) = live_parts();
        let plan = make_plan(&ds);
        let mut loader = OffloadingLoader::new(
            connect(&server),
            PipelineSpec::standard_train(),
            plan,
            LoaderConfig::new(ds.seed, 4),
        )
        .unwrap();
        let err =
            loader.run_epoch_with_replan(0, |_| {}, |_| Some(OffloadPlan::none(3))).unwrap_err();
        assert!(matches!(err, LoaderError::ReplanMismatch { expected, got: 3 }
            if expected == N as usize));
        server.shutdown();
    }

    #[test]
    fn worker_count_does_not_change_batches() {
        let (ds, _store, server) = live_parts();
        let plan = make_plan(&ds);
        let run_with = |workers: usize, client: TcpStorageClient| {
            let mut config = LoaderConfig::new(ds.seed, 5);
            config.workers = workers;
            let mut loader =
                OffloadingLoader::new(client, PipelineSpec::standard_train(), plan.clone(), config)
                    .unwrap();
            let mut out: Vec<Vec<f32>> = Vec::new();
            loader.run_epoch(1, |b| out.push(b.as_slice().to_vec())).unwrap();
            out
        };
        let serial = run_with(1, connect(&server));
        let parallel = run_with(4, connect(&server));
        assert_eq!(serial, parallel, "worker count changed batch contents");
        server.shutdown();
    }

    #[test]
    fn fidelity_cap_browns_out_raw_fetches_deterministically() {
        // A tiered store served under a fidelity cap: batches keep their
        // shapes, differ from the full-fidelity run (fewer coefficients
        // reached the decoder), and reproduce exactly across reruns.
        let ds = datasets::DatasetSpec::mini(N, 55);
        let spawn = || {
            TcpStorageServer::bind(
                ObjectStore::materialize_dataset_tiered(&ds, 0..N, &codec::TierSpec::default()),
                ServerConfig {
                    cores: 3,
                    bandwidth: Bandwidth::from_gbps(10.0),
                    ..ServerConfig::default()
                },
                "127.0.0.1:0",
            )
            .unwrap()
        };
        let run = |cap: Option<u8>| {
            let server = spawn();
            let mut config = LoaderConfig::new(ds.seed, 4);
            config.max_tier = cap;
            let mut loader = OffloadingLoader::new(
                connect(&server),
                PipelineSpec::standard_train(),
                OffloadPlan::none(N as usize),
                config,
            )
            .unwrap();
            let mut out: Vec<Vec<f32>> = Vec::new();
            loader
                .run_epoch(0, |b| {
                    assert_eq!(b.shape(), (224, 224));
                    out.push(b.as_slice().to_vec());
                })
                .unwrap();
            server.shutdown();
            out
        };
        let full = run(None);
        let browned = run(Some(0));
        let browned_again = run(Some(0));
        assert_eq!(browned, browned_again, "browned batches must be reproducible");
        assert_ne!(full, browned, "a tier-0 cap must actually shed fidelity");
        assert_eq!(full.len(), browned.len(), "brownout never drops batches");
    }

    #[test]
    fn compression_directive_preserves_shapes() {
        let (ds, _store, server) = live_parts();
        let plan = make_plan(&ds);
        let mut config = LoaderConfig::new(ds.seed, 4);
        config.reencode_quality = Some(85);
        let mut loader =
            OffloadingLoader::new(connect(&server), PipelineSpec::standard_train(), plan, config)
                .unwrap();
        let mut total = 0usize;
        loader
            .run_epoch(0, |b| {
                assert_eq!(b.shape(), (224, 224));
                total += b.len();
            })
            .unwrap();
        assert_eq!(total, N as usize);
        server.shutdown();
    }
}
