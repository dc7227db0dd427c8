//! The live lifecycle behind one builder.
//!
//! SOPHON runs a job as one sequence (paper §3): profile the corpus in an
//! un-offloaded first epoch, plan, then run offloaded epochs against the
//! storage nodes. This module holds that sequence once:
//!
//! * [`Corpus`] materialises a dataset once, into one [`ObjectStore`] that
//!   every session shares through `Bytes` clones, and profiles the stored
//!   bytes rather than encoding the samples again.
//! * [`Session`] binds the storage nodes through a [`MultiServerHarness`],
//!   connects, builds the client stack and the [`OffloadingLoader`], runs
//!   epochs, and shuts every node down when dropped.
//!
//! There is one client stack. Each node's [`storage::TcpStorageClient`]
//! runs under a [`Deadline`] inside a [`RetryingTransport`] (no deadline
//! and no retries unless [`SessionBuilder::resilient`]); a
//! [`FleetTransport`] routes over the nodes by the [`ShardMap`]; and a
//! [`CachingTransport`] sits on top when the session has a cache. One
//! storage node is the one-shard fleet, `ShardMap::new(1, 1, 0)`, the map
//! the planner plans a single node with.

use std::io;
use std::time::Duration;

use cache::{AdmissionHint, CachingTransport, SampleCache};
use cluster::{KillEvent, ShardMap};
use datasets::DatasetSpec;
use fleet::FleetTransport;
use pipeline::{CostModel, PipelineSpec, SampleKey, SampleProfile, StageData, TensorBatch};
use storage::{
    ClientError, Deadline, FaultPlan, FetchRequest, FetchResponse, FetchTransport,
    MultiServerHarness, ObjectStore, RetryingTransport, ServerConfig,
};

use crate::loader::{LoaderConfig, LoaderError, OffloadingLoader};
use crate::{OffloadPlan, SophonError};

/// The resilient preset's budget for one node exchange: it covers a
/// node's preprocessing of a whole batch, in debug builds too.
const RESILIENT_DEADLINE: Duration = Duration::from_secs(2);

/// The resilient preset's re-attempts of a failed exchange, each made at
/// once.
const RESILIENT_RETRIES: u32 = 10;

/// A dataset materialised once: every sample of `0..spec.len`, encoded.
#[derive(Debug)]
pub struct Corpus {
    spec: DatasetSpec,
    store: ObjectStore,
}

impl Corpus {
    /// Renders and encodes every sample of `ds`.
    pub fn materialize(ds: &DatasetSpec) -> Corpus {
        Corpus { spec: ds.clone(), store: ObjectStore::materialize_dataset(ds, 0..ds.len) }
    }

    /// The dataset the corpus was materialised from.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// The stored samples; clones share their bytes.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Measures every sample's stored bytes through `pipeline` in an
    /// un-offloaded epoch 0 (the stage-2 profiler), in corpus order.
    ///
    /// # Errors
    ///
    /// Propagates the first pipeline failure.
    pub fn profiles(
        &self,
        pipeline: &PipelineSpec,
        model: &CostModel,
    ) -> Result<Vec<SampleProfile>, SophonError> {
        let samples = (0..self.spec.len).map(|id| {
            let bytes = self.store.get(id).expect("a corpus stores every sample");
            (SampleKey::new(self.spec.seed, id, 0), StageData::Encoded(bytes))
        });
        Ok(pipeline::measure_corpus(pipeline, samples, model)?)
    }
}

/// Storage nodes serving a [`Corpus`], and the loader fetching from them.
/// Dropping the session shuts every node down.
#[derive(Debug)]
pub struct Session {
    loader: OffloadingLoader<Stack>,
    harness: MultiServerHarness,
    batch_size: usize,
}

impl Session {
    /// A session that serves `corpus` and loads it with
    /// [`OffloadingLoader::new`]'s `pipeline`, `plan` and `config`.
    pub fn builder(
        corpus: &Corpus,
        pipeline: PipelineSpec,
        plan: OffloadPlan,
        config: LoaderConfig,
    ) -> SessionBuilder<'_> {
        SessionBuilder {
            corpus,
            pipeline,
            plan,
            config,
            map: ShardMap::new(1, 1, 0),
            server: ServerConfig::default(),
            faults: None,
            cache: None,
            node_stack: (Deadline::NONE, 0),
        }
    }

    /// Runs `epoch`, handing each collated batch to `consume` in order,
    /// and returns the number of batches delivered. Each of `kills` stops
    /// its node once ⌈`after_fraction` × batches⌉ batches are delivered,
    /// before the epoch's first fetch when that is 0.
    ///
    /// # Errors
    ///
    /// Stops at the first failing batch (see
    /// [`OffloadingLoader::run_epoch`]).
    ///
    /// # Panics
    ///
    /// Panics when a kill names a node outside the session.
    pub fn run_epoch(
        &mut self,
        epoch: u64,
        kills: &[KillEvent],
        mut consume: impl FnMut(TensorBatch),
    ) -> Result<usize, LoaderError> {
        let batches = self.loader.plan().len().div_ceil(self.batch_size) as f64;
        let due = |delivered: usize| {
            kills.iter().filter(move |k| (k.after_fraction * batches).ceil() as usize == delivered)
        };
        let Session { loader, harness, .. } = self;
        for kill in due(0) {
            harness.kill(kill.node);
        }
        let mut delivered = 0;
        loader.run_epoch(epoch, |batch| {
            consume(batch);
            delivered += 1;
            for kill in due(delivered) {
                harness.kill(kill.node);
            }
        })
    }

    /// The storage nodes: their traffic, fault logs, liveness and
    /// addresses.
    pub fn harness(&self) -> &MultiServerHarness {
        &self.harness
    }

    /// The near-compute cache, when the session has one.
    pub fn cache(&self) -> Option<&SampleCache> {
        match self.loader.transport() {
            Stack::Fleet(_) => None,
            Stack::Cached(cached) => Some(cached.cache()),
        }
    }
}

impl Drop for Session {
    /// Stops every node and joins its threads, so none of the session's
    /// addresses accepts a connection once the drop returns.
    fn drop(&mut self) {
        for node in 0..self.harness.len() {
            self.harness.kill(node);
        }
    }
}

/// The options of a [`Session`]; [`SessionBuilder::start`] starts it.
#[derive(Debug)]
pub struct SessionBuilder<'c> {
    corpus: &'c Corpus,
    pipeline: PipelineSpec,
    plan: OffloadPlan,
    config: LoaderConfig,
    map: ShardMap,
    server: ServerConfig,
    faults: Option<FaultPlan>,
    cache: Option<(SampleCache, Vec<(u64, AdmissionHint)>)>,
    /// Each node client's deadline and retries.
    node_stack: (Deadline, u32),
}

impl SessionBuilder<'_> {
    /// Places every sample on its owners under `map`, one node per shard
    /// (default: the one-shard `ShardMap::new(1, 1, 0)`).
    #[must_use]
    pub fn shards(mut self, map: ShardMap) -> Self {
        self.map = map;
        self
    }

    /// Runs every node under `config` (default: `ServerConfig::default()`).
    #[must_use]
    pub fn server(mut self, config: ServerConfig) -> Self {
        self.server = config;
        self
    }

    /// Has every node inject faults from `plan`, under a per-node seed
    /// (see [`MultiServerHarness::spawn_with_chaos`]).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Serves epoch-stable fetches from `cache`, valuing each admitted
    /// sample by its hint.
    #[must_use]
    pub fn cache(
        mut self,
        cache: SampleCache,
        hints: impl IntoIterator<Item = (u64, AdmissionHint)>,
    ) -> Self {
        self.cache = Some((cache, hints.into_iter().collect()));
        self
    }

    /// Gives each node exchange a 2 s deadline and 10 immediate
    /// re-attempts, so dropped and corrupted frames are fetched again.
    #[must_use]
    pub fn resilient(mut self) -> Self {
        self.node_stack = (Deadline::after(RESILIENT_DEADLINE), RESILIENT_RETRIES);
        self
    }

    /// Binds the nodes, connects to each, builds the client stack and
    /// configures the loader's session on every node.
    ///
    /// # Errors
    ///
    /// Fails when a node cannot bind or be connected to, or when a node
    /// refuses the session.
    pub fn start(self) -> io::Result<Session> {
        let (store, nodes, owners) =
            (self.corpus.store(), self.map.nodes(), |id| self.map.owners(id));
        let harness = match &self.faults {
            Some(plan) => {
                MultiServerHarness::spawn_with_chaos(store, nodes, self.server, owners, plan)
            }
            None => MultiServerHarness::spawn(store, nodes, self.server, owners),
        }?;
        let (deadline, retries) = self.node_stack;
        let clients = harness
            .clients()?
            .into_iter()
            .map(|client| RetryingTransport::new(client.with_deadline(deadline), retries));
        let fleet = FleetTransport::new(clients.collect(), self.map, None);
        let stack = match self.cache {
            Some((cache, hints)) => {
                let mut cached = CachingTransport::new(fleet, cache);
                cached.set_hints(hints);
                Stack::Cached(cached)
            }
            None => Stack::Fleet(fleet),
        };
        let batch_size = self.config.batch_size;
        let loader = OffloadingLoader::new(stack, self.pipeline, self.plan, self.config)
            .map_err(io::Error::other)?;
        Ok(Session { loader, harness, batch_size })
    }
}

/// The session's client stack: the fleet, under the cache when there is
/// one. A session builds one and moves it once, into its loader, so the
/// variants' sizes do not matter.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Stack {
    Fleet(FleetTransport),
    Cached(CachingTransport<FleetTransport>),
}

impl FetchTransport for Stack {
    fn configure(&mut self, dataset_seed: u64, pipeline: PipelineSpec) -> Result<(), ClientError> {
        match self {
            Stack::Fleet(fleet) => fleet.configure(dataset_seed, pipeline),
            Stack::Cached(cached) => cached.configure(dataset_seed, pipeline),
        }
    }

    fn fetch_many_requests(
        &mut self,
        requests: &[FetchRequest],
    ) -> Result<Vec<FetchResponse>, ClientError> {
        match self {
            Stack::Fleet(fleet) => fleet.fetch_many_requests(requests),
            Stack::Cached(cached) => cached.fetch_many_requests(requests),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Bandwidth;
    use storage::{TcpStorageClient, TcpStorageServer};

    fn server_config() -> ServerConfig {
        ServerConfig { cores: 2, bandwidth: Bandwidth::from_gbps(10.0), ..ServerConfig::default() }
    }

    /// Each sample offloaded at its analytic best split: a mix of raw and
    /// offloaded fetches.
    fn mixed_plan(ds: &DatasetSpec) -> OffloadPlan {
        let (pipeline, model) = (PipelineSpec::standard_train(), CostModel::realistic());
        OffloadPlan::from_splits(
            ds.records().map(|r| r.analytic_profile(&pipeline, &model).best_split()).collect(),
        )
    }

    #[test]
    fn live_profiles_match_analytic_structure() {
        let ds = DatasetSpec::mini(6, 13);
        let pipeline = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        let live = Corpus::materialize(&ds).profiles(&pipeline, &model).unwrap();
        let analytic = crate::profiler::stage2::profile_corpus_analytic(&ds, &pipeline, &model);
        assert_eq!(live.len(), analytic.len());
        for (l, a) in live.iter().zip(analytic.iter()) {
            assert_eq!(l.sample_id, a.sample_id);
            // Post-decode stage sizes are byte-exact between the two paths.
            for stage in 1..=5 {
                assert_eq!(l.size_at(stage), a.size_at(stage), "sample {}", l.sample_id);
            }
        }
    }

    #[test]
    fn a_one_node_session_loads_what_a_direct_loader_loads() {
        let ds = DatasetSpec::mini(10, 71);
        let corpus = Corpus::materialize(&ds);
        let (pipeline, plan) = (PipelineSpec::standard_train(), mixed_plan(&ds));
        let config = LoaderConfig::new(ds.seed, 4);
        let mut session = Session::builder(&corpus, pipeline.clone(), plan.clone(), config.clone())
            .server(server_config())
            .start()
            .unwrap();
        // The reference: the loader over one directly connected client.
        let server =
            TcpStorageServer::bind(corpus.store().clone(), server_config(), "127.0.0.1:0").unwrap();
        let client = TcpStorageClient::connect(server.local_addr()).unwrap();
        let mut direct = OffloadingLoader::new(client, pipeline, plan, config).unwrap();
        for epoch in 0..2 {
            let (mut via_session, mut via_direct) = (Vec::new(), Vec::new());
            session.run_epoch(epoch, &[], |b| via_session.push(b)).unwrap();
            direct.run_epoch(epoch, |b| via_direct.push(b)).unwrap();
            assert!(via_session == via_direct, "epoch {epoch} diverged");
            assert_eq!(session.harness().traffic_total().bytes, server.response_bytes());
        }
        server.shutdown();
    }

    #[test]
    fn a_dropped_session_closes_every_node() {
        let ds = DatasetSpec::mini(4, 72);
        let corpus = Corpus::materialize(&ds);
        let session = Session::builder(
            &corpus,
            PipelineSpec::standard_train(),
            OffloadPlan::none(4),
            LoaderConfig::new(ds.seed, 2),
        )
        .shards(ShardMap::new(2, 1, 3))
        .start()
        .unwrap();
        let addrs: Vec<_> = (0..2).map(|n| session.harness().addr(n)).collect();
        drop(session);
        for addr in addrs {
            assert!(std::net::TcpStream::connect(addr).is_err(), "{addr} still accepts");
        }
    }

    #[test]
    fn a_kill_at_a_quarter_of_eight_batches_lands_after_the_second() {
        const N: u64 = 16;
        let ds = DatasetSpec::mini(N, 73);
        let corpus = Corpus::materialize(&ds);
        // Three replicas: every sample outlives two dead nodes.
        let map = ShardMap::new(3, 3, 5);
        let (victim, dead) = (map.primary(0), (map.primary(0) + 1) % 3);
        let mut session = Session::builder(
            &corpus,
            PipelineSpec::standard_train(),
            mixed_plan(&ds),
            LoaderConfig::new(ds.seed, 2),
        )
        .shards(map)
        .server(server_config())
        .start()
        .unwrap();
        let [victim_addr, dead_addr] = [victim, dead].map(|n| session.harness().addr(n));
        let serving = |addr| std::net::TcpStream::connect(addr).is_ok();
        let kills = [KillEvent::new(victim, 0.25), KillEvent::new(dead, 0.0)];
        let (mut alive, mut delivered) = (Vec::new(), 0);
        let batches = session
            .run_epoch(0, &kills, |b| {
                alive.push((serving(victim_addr), serving(dead_addr)));
                delivered += b.len();
            })
            .unwrap();
        assert_eq!(batches, 8);
        let victim_alive: Vec<bool> = alive.iter().map(|a| a.0).collect();
        assert_eq!(victim_alive, [true, true, false, false, false, false, false, false]);
        assert!(alive.iter().all(|a| !a.1), "a kill at 0 lands before the first fetch");
        assert_eq!(delivered as u64, N, "the replicas serve the dead nodes' samples");
    }
}
