//! The offloading data loader — the downstream-facing API.
//!
//! [`OffloadingLoader`] is what a training loop actually consumes: it wraps
//! a storage connection (in-process or TCP, via
//! [`storage::FetchTransport`]), an [`OffloadPlan`], and the preprocessing
//! pipeline, and yields collated NCHW [`TensorBatch`]es per epoch:
//!
//! 1. shuffles the sample order deterministically per epoch;
//! 2. on the calling thread, issues each batch's fetches in one pipelined
//!    burst, attaching every sample's offload split (and optional
//!    re-compression directive) from the plan, while the suffix workers
//!    finish the batch before it — one batch of lookahead;
//! 3. on `LoaderConfig::workers` threads that live for the whole epoch,
//!    unpacks re-compressed payloads and runs each sample's pipeline suffix
//!    up to its last image; the calling thread then writes each sample
//!    straight into its slab of the batch buffer, running a trailing
//!    `ToTensor` → `Normalize` as it writes (see
//!    [`pipeline::BatchAssembly`]), and hands the batch to the consumer.
//!
//! Augmentations remain keyed by `(dataset seed, sample, epoch)`, so the
//! batches are bit-identical to what an un-offloaded loader would produce —
//! the property `tests/end_to_end.rs` checks across the live stack.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};

use imagery::rng::Rng;
use pipeline::{BatchAssembly, PipelineSpec, SampleKey, SplitPoint, StageData, TensorBatch};
use storage::{ClientError, FetchRequest, FetchResponse, FetchTransport};

use crate::OffloadPlan;

/// Loader configuration.
#[derive(Debug, Clone)]
pub struct LoaderConfig {
    /// Dataset seed (keys augmentation streams; must match the server's
    /// session).
    pub(crate) dataset_seed: u64,
    /// Training batch size.
    pub(crate) batch_size: usize,
    /// Shuffle seed; the per-epoch order is derived from `(shuffle_seed,
    /// epoch)`.
    pub shuffle_seed: u64,
    /// When set, every offloaded image-stage transfer is re-encoded at this
    /// quality (the selective-compression extension).
    pub reencode_quality: Option<u8>,
    /// Threads that finish the local pipeline suffix, alive for a whole
    /// epoch (at least one; the calling thread fetches and assembles).
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
        let mut rng = Rng::seed_from_u64(
            self.config.shuffle_seed ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        for i in (1..ids.len()).rev() {
            let j = rng.range_usize_inclusive(0..=i);
            ids.swap(i, j);
        }
        ids
    }

    /// Runs one epoch, invoking `consume` with every collated batch in
    /// order. Returns the number of batches delivered. Batch `b` is fetched
    /// while the suffix workers finish batch `b - 1`, before it reaches
    /// `consume`.
    ///
    /// # Errors
    ///
    /// Stops at the first failing batch, after delivering every batch
    /// before it.
    pub fn run_epoch<F>(&mut self, epoch: u64, mut consume: F) -> Result<usize, LoaderError>
    where
        F: FnMut(TensorBatch),
    {
        let order = self.epoch_order(epoch);
        let OffloadingLoader { transport, pipeline, plan, config } = self;
        let batch_size = config.batch_size;
        // Each sample's position within its batch: the slot its response
        // goes to, whatever order the transport returns it in.
        let mut slot_of = vec![0usize; order.len()];
        for (i, &id) in order.iter().enumerate() {
            slot_of[id as usize] = i % batch_size;
        }
        let (jobs, queue) = mpsc::channel::<Job>();
        let queue = Arc::new(Mutex::new(queue));
        let pipeline: &PipelineSpec = pipeline;
        std::thread::scope(|scope| {
            for _ in 0..config.workers.max(1) {
                let queue = Arc::clone(&queue);
                let dataset_seed = config.dataset_seed;
                scope.spawn(move || finish_jobs(&queue, pipeline, dataset_seed, epoch));
            }
            // The workers alone hold the queue now: if every one of them
            // dies, queued jobs drop and the caller's receive fails instead
            // of waiting forever.
            drop(queue);
            // Owned here, so the queue closes when this closure returns,
            // fails or unwinds; the workers finish what is queued (at most
            // one batch) and exit, and the scope joins them.
            let jobs = jobs;
            let mut finishing: Option<InFlight> = None;
            let mut delivered = 0usize;
            for chunk in order.chunks(batch_size) {
                // Fetch this batch while the workers finish the one before
                // it.
                let requests = batch_requests(config, pipeline, plan, chunk, epoch);
                let fetched = transport
                    .fetch_many_requests(&requests)
                    .map_err(LoaderError::Client)
                    .and_then(|responses| in_slots(responses, chunk, &slot_of));
                let dispatched = fetched.map(|responses| dispatch(&jobs, responses));
                // Deliver the batch before it, even when this one failed.
                if let Some(done) = finishing.take() {
                    consume(done.assemble(pipeline)?);
                    delivered += 1;
                }
                finishing = Some(dispatched?);
            }
            if let Some(done) = finishing {
                consume(done.assemble(pipeline)?);
                delivered += 1;
            }
            Ok(delivered)
        })
    }
}

/// The requests for one batch: each sample's split from `plan`, with the
/// re-compression directive `config` asks for.
fn batch_requests(
    config: &LoaderConfig,
    pipeline: &PipelineSpec,
    plan: &OffloadPlan,
    chunk: &[u64],
    epoch: u64,
) -> Vec<FetchRequest> {
    chunk
        .iter()
        .map(|&id| {
            let split = plan.split(id as usize);
            let mut req = FetchRequest::new(id, epoch, split);
            // Re-compression only applies to stages the modality's codec can
            // shrink (raster-image transfers).
            if let Some(q) = config.reencode_quality {
                if split.is_offloaded()
                    && pipeline::Modality::stage_supports_reencode(pipeline, split.offloaded_ops())
                {
                    req = req.with_reencode(q);
                }
            }
            req
        })
        .collect()
}

/// Puts a batch's responses, which servers answer in any order, back in
/// request order, so batches are deterministic whatever the server
/// parallelism. A response for a sample outside `chunk` is dropped; of two
/// for one sample the later wins.
fn in_slots(
    responses: Vec<FetchResponse>,
    chunk: &[u64],
    slot_of: &[usize],
) -> Result<Vec<FetchResponse>, LoaderError> {
    let mut slots: Vec<Option<FetchResponse>> = chunk.iter().map(|_| None).collect();
    for response in responses {
        let slot = usize::try_from(response.sample_id).ok().and_then(|id| slot_of.get(id));
        if let Some(&slot) = slot {
            if chunk.get(slot) == Some(&response.sample_id) {
                slots[slot] = Some(response);
            }
        }
    }
    slots.into_iter().zip(chunk).map(|(s, &id)| s.ok_or(LoaderError::MissingSample(id))).collect()
}

/// One sample for a suffix worker, and where its result goes.
struct Job {
    slot: usize,
    response: FetchResponse,
    done: Sender<Finished>,
}

/// A finished sample: its slot in the batch and its suffix's output.
type Finished = (usize, Result<StageData, LoaderError>);

/// Queues every sample of a batch whose responses are in slot order.
fn dispatch(jobs: &Sender<Job>, responses: Vec<FetchResponse>) -> InFlight {
    let (done, finished) = mpsc::channel();
    let len = responses.len();
    for (slot, response) in responses.into_iter().enumerate() {
        // Fails only when every worker has died, and then the batch's
        // receive reports it.
        let _ = jobs.send(Job { slot, response, done: done.clone() });
    }
    InFlight { len, finished }
}

/// A batch whose samples are queued or being finished.
struct InFlight {
    len: usize,
    finished: Receiver<Finished>,
}

impl InFlight {
    /// Writes the batch's samples into one batch buffer, in slot order, as
    /// the workers finish them. The first failing slot's error is the one
    /// reported.
    fn assemble(self, pipeline: &PipelineSpec) -> Result<TensorBatch, LoaderError> {
        let mut batch = BatchAssembly::new(pipeline, self.len);
        let mut arrived: Vec<Option<Result<StageData, LoaderError>>> =
            (0..self.len).map(|_| None).collect();
        let mut next = 0;
        while next < self.len {
            let (slot, result) = self.finished.recv().expect("a suffix worker panicked");
            arrived[slot] = Some(result);
            while let Some(result) = arrived.get_mut(next).and_then(Option::take) {
                batch.push(&result?).map_err(LoaderError::Collate)?;
                next += 1;
            }
        }
        batch.finish().map_err(LoaderError::Collate)
    }
}

/// A suffix worker: finishes queued samples until the queue closes. Each
/// sample unpacks a re-compressed payload and runs its suffix up to what
/// the batch assembly takes (suffix execution is pure, so which worker
/// finishes a sample never affects the result).
fn finish_jobs(
    queue: &Mutex<Receiver<Job>>,
    pipeline: &PipelineSpec,
    dataset_seed: u64,
    epoch: u64,
) {
    loop {
        // Nothing panics while holding the lock, and a receiver has no
        // state a panicking holder could leave half-updated.
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(Job { slot, response, done }) = next else {
            return;
        };
        let split = SplitPoint::new(response.ops_applied as usize);
        let key = SampleKey::new(dataset_seed, response.sample_id, epoch);
        let result = response.unpack().map_err(LoaderError::Codec).and_then(|data| {
            pipeline.run_suffix_for_batch(data, split, key).map_err(LoaderError::Pipeline)
        });
        // The batch's receiver is gone only when the epoch already failed.
        let _ = done.send((slot, result));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Bandwidth;
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

    /// An in-process transport over a [`storage::NearStorageExecutor`]: it
    /// answers each batch in reverse order, fails batch `fail_at` (counting
    /// from its first fetch), and serves `corrupt` as a re-compressed
    /// payload that does not decode.
    struct LocalTransport {
        store: ObjectStore,
        executor: Option<storage::NearStorageExecutor>,
        fetches: usize,
        fail_at: Option<usize>,
        corrupt: Option<u64>,
    }

    impl LocalTransport {
        fn new(store: ObjectStore) -> LocalTransport {
            LocalTransport { store, executor: None, fetches: 0, fail_at: None, corrupt: None }
        }
    }

    impl FetchTransport for LocalTransport {
        fn configure(
            &mut self,
            dataset_seed: u64,
            pipeline: PipelineSpec,
        ) -> Result<(), ClientError> {
            let config = storage::SessionConfig { dataset_seed, pipeline };
            self.executor = Some(storage::NearStorageExecutor::new(self.store.clone(), config));
            Ok(())
        }

        fn fetch_many_requests(
            &mut self,
            requests: &[FetchRequest],
        ) -> Result<Vec<FetchResponse>, ClientError> {
            self.fetches += 1;
            if self.fetches - 1 == self.fail_at.unwrap_or(usize::MAX) {
                return Err(ClientError::Disconnected);
            }
            let executor = self.executor.as_ref().ok_or(ClientError::UnexpectedResponse)?;
            let mut out = Vec::with_capacity(requests.len());
            for &req in requests.iter().rev() {
                let mut resp = executor.execute(req).map_err(|e| ClientError::Server {
                    sample_id: Some(req.sample_id),
                    message: e.to_string(),
                })?;
                if self.corrupt == Some(req.sample_id) {
                    resp.ops_applied = resp.ops_applied.max(1);
                    resp.data = StageData::Encoded(b"not an image".to_vec().into());
                }
                out.push(resp);
            }
            Ok(out)
        }
    }

    /// The shuffle every epoch's batches follow, pinned sample for sample.
    #[test]
    fn epoch_orders_are_pinned() {
        let (_, store) = local_parts();
        for (shuffle_seed, epoch, want) in [
            (0, 0, [1, 4, 5, 8, 6, 7, 0, 2, 9, 3]),
            (0, 1, [4, 0, 6, 7, 2, 5, 1, 8, 9, 3]),
            (9, 3, [2, 7, 3, 4, 9, 6, 8, 1, 5, 0]),
        ] {
            let mut config = LoaderConfig::new(55, LOCAL_BATCH);
            config.shuffle_seed = shuffle_seed;
            let plan = OffloadPlan::from_splits(vec![SplitPoint::NONE; 10]);
            let loader = OffloadingLoader::new(
                LocalTransport::new(store.clone()),
                PipelineSpec::standard_train(),
                plan,
                config,
            )
            .unwrap();
            assert_eq!(loader.epoch_order(epoch), want, "({shuffle_seed}, {epoch})");
        }
    }

    const LOCAL_N: u64 = 12;
    const LOCAL_BATCH: usize = 5;

    fn local_parts() -> (datasets::DatasetSpec, ObjectStore) {
        let ds = datasets::DatasetSpec::mini(LOCAL_N, 55);
        let store = ObjectStore::materialize_dataset(&ds, 0..LOCAL_N);
        (ds, store)
    }

    fn local_loader(
        ds: &datasets::DatasetSpec,
        store: &ObjectStore,
        plan: OffloadPlan,
        workers: usize,
    ) -> OffloadingLoader<LocalTransport> {
        let mut config = LoaderConfig::new(ds.seed, LOCAL_BATCH);
        config.workers = workers;
        OffloadingLoader::new(
            LocalTransport::new(store.clone()),
            PipelineSpec::standard_train(),
            plan,
            config,
        )
        .unwrap()
    }

    /// Epoch `epoch` preprocessed locally with `pipeline.run` and stacked
    /// with `TensorBatch::collate`, in the loader's order.
    fn local_reference(
        loader: &OffloadingLoader<LocalTransport>,
        ds: &datasets::DatasetSpec,
        store: &ObjectStore,
        epoch: u64,
    ) -> Vec<TensorBatch> {
        let pipeline = PipelineSpec::standard_train();
        loader
            .epoch_order(epoch)
            .chunks(LOCAL_BATCH)
            .map(|chunk| {
                let tensors: Vec<StageData> = chunk
                    .iter()
                    .map(|&id| {
                        let raw = StageData::Encoded(store.get(id).unwrap());
                        pipeline.run(raw, SampleKey::new(ds.seed, id, epoch)).unwrap()
                    })
                    .collect();
                TensorBatch::collate(&tensors).unwrap()
            })
            .collect()
    }

    fn collect_epoch<T: FetchTransport>(
        loader: &mut OffloadingLoader<T>,
        epoch: u64,
    ) -> (Vec<TensorBatch>, Result<usize, LoaderError>) {
        let mut out = Vec::new();
        let result = loader.run_epoch(epoch, |b| out.push(b));
        (out, result)
    }

    #[test]
    fn every_split_and_worker_count_match_local_run_then_collate() {
        let (ds, store) = local_parts();
        let pipeline = PipelineSpec::standard_train();
        let mixed = make_plan(&ds);
        let distinct: std::collections::BTreeSet<_> = mixed.iter().collect();
        assert!(distinct.len() > 1, "the planned splits must mix: {distinct:?}");
        let plans = pipeline
            .split_points()
            .map(|split| OffloadPlan::uniform(LOCAL_N as usize, split))
            .chain([mixed]);
        let epoch = 4;
        let reference = local_reference(
            &local_loader(&ds, &store, OffloadPlan::none(LOCAL_N as usize), 1),
            &ds,
            &store,
            epoch,
        );
        for plan in plans {
            for workers in [1, 2, 4] {
                let mut loader = local_loader(&ds, &store, plan.clone(), workers);
                let (batches, result) = collect_epoch(&mut loader, epoch);
                assert_eq!(result.unwrap(), reference.len());
                assert!(batches == reference, "plan {plan:?} with {workers} workers diverged");
            }
        }
    }

    #[test]
    fn failed_fetch_delivers_the_batches_before_it_and_the_next_epoch_is_intact() {
        let (ds, store) = local_parts();
        for fail_at in 0..3 {
            let mut loader = local_loader(&ds, &store, make_plan(&ds), 2);
            let reference = local_reference(&loader, &ds, &store, 1);
            loader.transport_mut().fail_at = Some(fail_at);
            let (batches, result) = collect_epoch(&mut loader, 1);
            assert!(matches!(result, Err(LoaderError::Client(ClientError::Disconnected))));
            assert!(batches[..] == reference[..fail_at], "fetch failing at batch {fail_at}");
            loader.transport_mut().fail_at = None;
            let (batches, result) = collect_epoch(&mut loader, 1);
            assert_eq!(result.unwrap(), reference.len());
            assert!(batches == reference, "the epoch after a failure diverged");
        }
    }

    #[test]
    fn undecodable_payload_fails_its_batch_after_the_ones_before_it() {
        let (ds, store) = local_parts();
        let plan = OffloadPlan::uniform(LOCAL_N as usize, SplitPoint::new(2));
        for fail_at in 0..3 {
            for workers in [1, 2] {
                let mut loader = local_loader(&ds, &store, plan.clone(), workers);
                let reference = local_reference(&loader, &ds, &store, 1);
                // The last sample of batch `fail_at`.
                let order = loader.epoch_order(1);
                let last = ((fail_at + 1) * LOCAL_BATCH).min(order.len()) - 1;
                loader.transport_mut().corrupt = Some(order[last]);
                let (batches, result) = collect_epoch(&mut loader, 1);
                assert!(matches!(result, Err(LoaderError::Codec(_))), "{result:?}");
                assert!(batches[..] == reference[..fail_at], "payload failing in batch {fail_at}");
                loader.transport_mut().corrupt = None;
                let (batches, result) = collect_epoch(&mut loader, 1);
                assert_eq!(result.unwrap(), reference.len());
                assert!(batches == reference, "the epoch after a failure diverged");
            }
        }
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
}
