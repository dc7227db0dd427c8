//! Every call into the program under test.
//!
//! The rest of the benchmark names no crate of the workspace: workloads and
//! micro-cells go through the functions here, so a later change that
//! renames or merges an entry point re-points this one file (README.md lists
//! the pinned surface). Nothing here measures; it builds rigs and performs
//! single operations that `workloads.rs` and `layers.rs` time from outside.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use cache::{AdmissionHint, CacheKey, CacheStats, CachingTransport, SampleCache};
use cluster::{simulate_epoch, ClusterConfig, EpochSpec, FleetNodeConfig, GpuModel};
use datasets::DatasetSpec;
use fleet::{FleetStats, FleetTransport, ShardMap};
use netsim::{Bandwidth, TokenBucket, TrafficMeter};
use pipeline::{
    AugmentRng, CostModel, OpKind, PipelineSpec, SampleKey, SampleProfile, SplitPoint, StageData,
    TensorBatch,
};
use sophon::engine::PlanningContext;
use sophon::ext::caching::CacheSelection;
use sophon::ext::feedback::{
    chaos_straggler_and_squeeze, run_fleet_epoch_adaptive, ChaosEvent, FeedbackConfig,
};
use sophon::ext::sharding::fleet_nodes_sharing_link;
use sophon::loader::{LoaderConfig, OffloadingLoader};
use sophon::policy::{standard_policies, Policy};
use sophon::runner::Scenario;
use sophon::OffloadPlan;
use storage::wire;
use storage::{
    ClientError, FetchRequest, FetchResponse, FetchTransport, MultiServerHarness,
    NearStorageExecutor, ObjectStore, Request, Response, ServerConfig, SessionConfig,
    TcpStorageClient, TcpStorageServer,
};
use tenant::{DwrrScheduler, TenantId};

use crate::measure::{allowed_cpus, spawn_pinned, thread_ids, Fnv};
use crate::trace::{span, Trace};

/// Seed of everything that is *stored*: corpus content and shard placement.
/// `--seed` is the training job's seed instead (shuffle order, augmentation
/// streams, request order). The driver compares runs across seeds, and a
/// different corpus or placement per seed moved bytes per sample, node
/// balance and replan counts by several percent (README.md), which is input
/// variation, not the program's.
pub const CORPUS_SEED: u64 = 2024;
/// Samples in the live corpus.
pub const LIVE_SAMPLES: u64 = 192;
/// Loader batch size on the live workloads.
pub const LIVE_BATCH: usize = 32;
/// Storage nodes in the live fleet: one server worker core and one client
/// connection each, which with the loader's two suffix workers fills the
/// reference host's two cores.
pub const LIVE_NODES: usize = 2;
/// Per-node link cap of `live_capped_cached`, in Mbps.
pub const CAPPED_MBPS: f64 = 50.0;
/// Stored samples behind the serving workload.
pub const SERVE_SAMPLES: u64 = 64;
/// Corpus size of the planner workload (the paper's OpenImages subset).
pub const PLAN_SAMPLES: u64 = 40_960;
const PLAN_BATCH: usize = 256;
const PLAN_SHARDS: usize = 4;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Reads a byte meter once it has stopped moving. A server records a
/// response after the write that hands it to the client, so a client that
/// already holds the response can read the meter one response early.
fn settled(read: impl Fn() -> u64) -> u64 {
    let mut last = read();
    loop {
        std::thread::sleep(Duration::from_millis(2));
        let now = read();
        if now == last {
            return now;
        }
        last = now;
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Live corpus, plan and fleet
// ---------------------------------------------------------------------------

/// The stored live corpus with its SOPHON plan, and the job seed that runs
/// over it.
pub struct LiveCorpus {
    /// Seeds the session (augmentation streams) and the loader's shuffle.
    job_seed: u64,
    ds: DatasetSpec,
    store: ObjectStore,
    pipeline: PipelineSpec,
    profiles: Vec<SampleProfile>,
    plan: OffloadPlan,
    /// Payload bytes one cold epoch of `plan` moves (`summarize`).
    pub planned_bytes: u64,
    pub offloaded: usize,
}

impl LiveCorpus {
    /// Materialises `samples` mini images and plans them with SOPHON
    /// against a 100 Mbps link, so part of the corpus is offloaded and part
    /// travels raw.
    pub fn build(samples: u64, job_seed: u64) -> Result<LiveCorpus, String> {
        let ds = DatasetSpec::mini(samples, CORPUS_SEED);
        let store = ObjectStore::materialize_dataset(&ds, 0..samples);
        let pipeline = PipelineSpec::standard_train();
        let model = CostModel::realistic();
        // Analytic profiles are byte-exact after decode; the raw size is
        // taken from the stored object so the plan's byte count is the wire's.
        let profiles: Vec<SampleProfile> = ds
            .records()
            .map(|r| {
                let mut p = r.analytic_profile(&pipeline, &model);
                p.raw_bytes = store.get(r.id).map_or(p.raw_bytes, |b| b.len() as u64);
                p
            })
            .collect();
        let config =
            ClusterConfig::paper_testbed(LIVE_NODES).with_bandwidth(Bandwidth::from_mbps(100.0));
        let ctx =
            PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, LIVE_BATCH);
        let plan = sophon_policy()?.plan(&ctx).map_err(err("sophon plan"))?;
        let summary = plan.summarize(&profiles).map_err(err("summarize"))?;
        Ok(LiveCorpus {
            job_seed,
            ds,
            store,
            pipeline,
            profiles,
            offloaded: plan.offloaded_samples(),
            planned_bytes: summary.transfer_bytes,
            plan,
        })
    }

    /// The first `LIVE_BATCH` samples' requests as the plan splits them.
    fn plan_batch(&self) -> Vec<FetchRequest> {
        (0..LIVE_BATCH as u64)
            .map(|id| FetchRequest::new(id, 0, self.plan.split(id as usize)))
            .collect()
    }

    /// Simulated seconds of one cold epoch of the plan on a cluster shaped
    /// like the capped live fleet (the sim-vs-live cell).
    pub fn simulated_cold_epoch_seconds(&self) -> Result<f64, String> {
        let config = ClusterConfig::paper_testbed(LIVE_NODES)
            .with_bandwidth(Bandwidth::from_mbps(CAPPED_MBPS * LIVE_NODES as f64))
            .with_compute_cores(2);
        let works = self.plan.to_sample_works(&self.profiles).map_err(err("works"))?;
        let stats = simulate_epoch(&config, &EpochSpec::new(works, LIVE_BATCH, GpuModel::AlexNet))
            .map_err(err("simulate_epoch"))?;
        Ok(stats.epoch_seconds)
    }
}

fn sophon_policy() -> Result<Box<dyn Policy>, String> {
    standard_policies()
        .into_iter()
        .find(|p| p.name() == "sophon")
        .ok_or_else(|| "standard_policies() has no sophon policy".to_string())
}

/// Counters a [`TimedTransport`] keeps whether or not spans are recorded.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportCounters {
    pub calls: u64,
    pub seconds: f64,
}

/// A [`FetchTransport`] decorator owned by the benchmark: it times every
/// batch that crosses the boundary it sits on and, on a traced run, records
/// a span for it.
pub struct TimedTransport<T> {
    inner: T,
    name: &'static str,
    trace: Trace,
    counters: TransportCounters,
}

impl<T> TimedTransport<T> {
    pub fn new(inner: T, name: &'static str, trace: Trace) -> TimedTransport<T> {
        TimedTransport { inner, name, trace, counters: TransportCounters::default() }
    }
}

impl<T: FetchTransport> FetchTransport for TimedTransport<T> {
    fn configure(&mut self, dataset_seed: u64, pipeline: PipelineSpec) -> Result<(), ClientError> {
        self.inner.configure(dataset_seed, pipeline)
    }

    fn fetch_many_requests(
        &mut self,
        requests: &[FetchRequest],
    ) -> Result<Vec<FetchResponse>, ClientError> {
        let _span = span(&self.trace, self.name);
        let started = Instant::now();
        let out = self.inner.fetch_many_requests(requests);
        self.counters.seconds += started.elapsed().as_secs_f64();
        self.counters.calls += 1;
        out
    }
}

/// What the benchmark reads off a live transport stack after a window.
pub trait LiveStack: FetchTransport {
    /// The boundary directly under the loader.
    fn loader_side(&self) -> TransportCounters;
    /// The boundary directly above the fleet.
    fn fleet_side(&self) -> TransportCounters;
    fn fleet_stats(&self) -> FleetStats;
    fn cache_stats(&self) -> Option<CacheStats>;
}

pub type WideStack = TimedTransport<FleetTransport>;
pub type CachedStack = TimedTransport<CachingTransport<TimedTransport<FleetTransport>>>;

impl LiveStack for WideStack {
    fn loader_side(&self) -> TransportCounters {
        self.counters
    }
    fn fleet_side(&self) -> TransportCounters {
        self.counters
    }
    fn fleet_stats(&self) -> FleetStats {
        self.inner.stats().clone()
    }
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

impl LiveStack for CachedStack {
    fn loader_side(&self) -> TransportCounters {
        self.counters
    }
    fn fleet_side(&self) -> TransportCounters {
        self.inner.inner().counters
    }
    fn fleet_stats(&self) -> FleetStats {
        self.inner.inner().inner.stats().clone()
    }
    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.inner.cache_stats())
    }
}

/// A live fleet with a loader on top of it.
pub struct Live<T> {
    harness: MultiServerHarness,
    loader: OffloadingLoader<T>,
}

/// One server worker core behind `bandwidth`: every server in the benchmark.
fn one_core_server(bandwidth: Bandwidth) -> ServerConfig {
    ServerConfig { cores: 1, bandwidth, queue_depth: 64, ..ServerConfig::default() }
}

/// Unreplicated placement of the live corpus over the live fleet.
fn live_placement() -> ShardMap {
    ShardMap::new(LIVE_NODES, 1, CORPUS_SEED)
}

fn spawn_fleet(
    corpus: &LiveCorpus,
    per_node: Bandwidth,
) -> Result<(MultiServerHarness, FleetTransport), String> {
    let map = live_placement();
    let harness =
        MultiServerHarness::spawn(&corpus.store, LIVE_NODES, one_core_server(per_node), |id| {
            map.owners(id)
        })
        .map_err(err("spawn fleet"))?;
    let clients = harness.clients().map_err(err("connect fleet"))?;
    Ok((harness, FleetTransport::new(clients, map, None)))
}

fn loader_over<T: FetchTransport>(
    corpus: &LiveCorpus,
    transport: T,
) -> Result<OffloadingLoader<T>, String> {
    let mut config = LoaderConfig::new(corpus.job_seed, LIVE_BATCH);
    config.shuffle_seed = corpus.job_seed;
    config.workers = 2;
    OffloadingLoader::new(transport, corpus.pipeline.clone(), corpus.plan.clone(), config)
        .map_err(err("configure loader"))
}

/// `live_wide`: 10 Gbps per node, loader straight on the fleet.
pub fn live_wide(corpus: &LiveCorpus, trace: &Trace) -> Result<Live<WideStack>, String> {
    let (harness, fleet) = spawn_fleet(corpus, Bandwidth::from_gbps(10.0))?;
    let stack = TimedTransport::new(fleet, "fleet.fetch_many_requests", trace.clone());
    Ok(Live { harness, loader: loader_over(corpus, stack)? })
}

/// `live_capped_cached`: 50 Mbps per node behind an efficiency-aware cache
/// budgeted at a tenth of the corpus, timed on both sides of the cache.
pub fn live_capped_cached(corpus: &LiveCorpus, trace: &Trace) -> Result<Live<CachedStack>, String> {
    let (harness, fleet) = spawn_fleet(corpus, Bandwidth::from_mbps(CAPPED_MBPS))?;
    let below = TimedTransport::new(fleet, "fleet.fetch_many_requests", trace.clone());
    let cache = SampleCache::efficiency_aware(corpus.store.total_bytes() / 10);
    let above = TimedTransport::new(
        CachingTransport::new(below, cache),
        "cache.fetch_many_requests",
        trace.clone(),
    );
    Ok(Live { harness, loader: loader_over(corpus, above)? })
}

/// One delivered batch, reduced to what the timed window checks.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub samples: usize,
    pub shape_ok: bool,
}

impl<T: LiveStack> Live<T> {
    /// Runs one epoch, calling `on_step` after each delivered batch. With a
    /// `digest`, every delivered tensor is folded into it (untimed use only).
    pub fn run_epoch(
        &mut self,
        epoch: u64,
        mut digest: Option<&mut Fnv>,
        mut on_step: impl FnMut(Step),
    ) -> Result<(), String> {
        self.loader
            .run_epoch(epoch, |batch: TensorBatch| {
                if let Some(d) = digest.as_deref_mut() {
                    d.fold_f32s(batch.as_slice());
                }
                on_step(Step { samples: batch.len(), shape_ok: batch.shape() == (224, 224) });
            })
            .map(|_| ())
            .map_err(err("run_epoch"))
    }

    /// FNV digest of epoch `epoch` of `corpus` preprocessed locally with no
    /// offloading, in the order the loader delivers it.
    pub fn reference_digest(&self, corpus: &LiveCorpus, epoch: u64) -> Result<u64, String> {
        let mut digest = Fnv::new();
        for id in self.loader.epoch_order(epoch) {
            let bytes = corpus.store.get(id).ok_or_else(|| format!("sample {id} not stored"))?;
            let out = corpus
                .pipeline
                .run(StageData::Encoded(bytes), SampleKey::new(corpus.job_seed, id, epoch))
                .map_err(err("reference pipeline"))?;
            let tensor = out.as_tensor().ok_or("reference output is not a tensor")?;
            digest.fold_f32s(tensor.as_slice());
        }
        Ok(digest.0)
    }

    /// The first `LIVE_BATCH` samples' planned requests through the whole
    /// transport stack; returns responses received.
    pub fn fetch_plan_batch(&mut self, corpus: &LiveCorpus) -> Result<usize, String> {
        let reqs = corpus.plan_batch();
        Ok(self.loader.transport_mut().fetch_many_requests(&reqs).map_err(err("fetch"))?.len())
    }

    pub fn stack(&self) -> &T {
        self.loader.transport()
    }

    /// Samples one epoch delivers.
    pub fn samples(&self) -> u64 {
        self.loader.plan().len() as u64
    }

    /// Response bytes every node has written so far (read between
    /// windows, never inside one).
    pub fn wire_bytes(&self) -> u64 {
        settled(|| self.harness.traffic_total().bytes)
    }

    /// Largest single node's share of the bytes written so far.
    pub fn node_bytes_share_max(&self) -> f64 {
        let per_node: Vec<u64> = self.harness.traffic().iter().map(|s| s.bytes).collect();
        let total: u64 = per_node.iter().sum();
        per_node.iter().copied().max().unwrap_or(0) as f64 / total.max(1) as f64
    }

    pub fn shutdown(self) {
        // The loader owns the fleet's connections: drop it first so every
        // server sees its peers close before it is told to stop.
        drop(self.loader);
        self.harness.shutdown();
    }
}

/// The same batch as [`Live::fetch_plan_batch`] straight to the nodes over
/// plain [`TcpStorageClient`]s, one thread per node and no fleet in between:
/// the baseline of `fleet.scatter_overhead_us_per_sample`.
pub struct DirectClients {
    clients: Vec<TcpStorageClient>,
    per_node: Vec<Vec<FetchRequest>>,
}

impl DirectClients {
    pub fn connect<T>(live: &Live<T>, corpus: &LiveCorpus) -> Result<DirectClients, String> {
        let map = live_placement();
        let mut clients = live.harness.clients().map_err(err("connect direct"))?;
        for c in &mut clients {
            c.configure(corpus.job_seed, corpus.pipeline.clone())
                .map_err(err("configure direct"))?;
        }
        let mut per_node = vec![Vec::new(); LIVE_NODES];
        for req in corpus.plan_batch() {
            per_node[map.primary(req.sample_id)].push(req);
        }
        Ok(DirectClients { clients, per_node })
    }

    /// Fetches every node's share at once; returns responses received.
    pub fn fetch_batch(&mut self) -> Result<usize, String> {
        std::thread::scope(|s| {
            let fetches: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.per_node)
                .map(|(client, reqs)| s.spawn(move || client.fetch_many_requests(reqs)))
                .collect();
            let mut got = 0;
            for fetch in fetches {
                let responses = fetch.join().map_err(|_| "direct fetch thread panicked")?;
                got += responses.map_err(err("direct fetch"))?.len();
            }
            Ok(got)
        })
    }
}

// ---------------------------------------------------------------------------
// Serving rig: one server, many connections, one request in flight
// ---------------------------------------------------------------------------

/// One server and `1 + n` configured connections to it. Requests are
/// depth-1 and rotate over the connections, so at any moment one connection
/// is active and every other one is idle.
///
/// Rotation is deliberate. The serving loop scans its connections in hash
/// order, so one fixed connection's latency depends on where the process's
/// random hasher put it in that order (measured: 720 to 1 030 requests/s
/// for the same build). Visiting every connection in turn averages over all
/// scan positions.
pub struct ServeRig {
    server: TcpStorageServer,
    conns: Vec<TcpStorageClient>,
    store: ObjectStore,
    seed: u64,
    /// The CPU the server's threads were confined to at `bind`, and the
    /// threads that existed before it.
    server_cpu: usize,
    threads_before: BTreeSet<u32>,
    /// Seeded visiting order of the stored samples: every cycle of
    /// `SERVE_SAMPLES` requests fetches each sample once, so bytes per
    /// request do not depend on the seed.
    order: Vec<u64>,
}

impl ServeRig {
    /// Binds one single-core server over the first `SERVE_SAMPLES` samples
    /// of `corpus` and connects the first client.
    pub fn bind(corpus: &LiveCorpus) -> Result<ServeRig, String> {
        let store = ObjectStore::from_objects(
            (0..SERVE_SAMPLES).filter_map(|id| corpus.store.get(id).map(|b| (id, b))),
        );
        if store.len() as u64 != SERVE_SAMPLES {
            return Err(format!("corpus holds fewer than {SERVE_SAMPLES} samples"));
        }
        let config = one_core_server(Bandwidth::from_gbps(10.0));
        // The event loop hands each request to its worker thread. Woken on
        // the loop's own CPU the worker runs as soon as the loop sleeps;
        // woken on the other, idle, virtual CPU it starts late enough that
        // the reply misses the loop's next pass (1.2 ms against 2.8 ms per
        // request). Which of the two a process got held for its whole run,
        // so the server is bound with its threads confined to one CPU;
        // `confined_server_threads` checks that they still are.
        let threads_before = thread_ids();
        let (server, server_cpu) = spawn_pinned(|| {
            TcpStorageServer::bind(store.clone(), config, "127.0.0.1:0").map_err(err("bind"))
        })?;
        let server = server?;
        let seed = corpus.job_seed;
        let mut order: Vec<u64> = (0..SERVE_SAMPLES).collect();
        order.sort_by_key(|&id| splitmix64(seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        let mut rig =
            ServeRig { server, conns: Vec::new(), store, seed, server_cpu, threads_before, order };
        rig.add_connections(1)?;
        Ok(rig)
    }

    /// How many threads the server has started, after checking that every
    /// one of them may run on the CPU chosen at `bind` and on no other. A
    /// server that started a thread outside the confinement would bring the
    /// two-speed behaviour back without a sign.
    pub fn confined_server_threads(&self) -> Result<usize, String> {
        let only = self.server_cpu.to_string();
        let mut confined = 0;
        for tid in thread_ids().difference(&self.threads_before) {
            match allowed_cpus(*tid) {
                Some(cpus) if cpus == only => confined += 1,
                Some(cpus) => {
                    return Err(format!(
                        "server thread {tid} may run on CPUs {cpus}, not only on CPU {only}"
                    ))
                }
                None => {} // exited between the listing and the read
            }
        }
        if confined == 0 {
            return Err("the server has no thread of its own to confine".to_string());
        }
        Ok(confined)
    }

    /// Connects and configures `n` more clients.
    pub fn add_connections(&mut self, n: usize) -> Result<(), String> {
        for _ in 0..n {
            let mut c =
                TcpStorageClient::connect(self.server.local_addr()).map_err(err("connect"))?;
            c.configure(self.seed, PipelineSpec::standard_train()).map_err(err("configure"))?;
            self.conns.push(c);
        }
        Ok(())
    }

    /// Depth-1 raw fetch number `i`: the `i`-th sample of the seeded cycle
    /// over connection `i % connections`. Returns whether the payload has
    /// the stored object's length.
    pub fn fetch(&mut self, i: u64) -> Result<bool, String> {
        let id = self.order[(i % SERVE_SAMPLES) as usize];
        let conn = (i % self.conns.len() as u64) as usize;
        let resp = self.conns[conn]
            .fetch_request(FetchRequest::new(id, i / SERVE_SAMPLES, SplitPoint::NONE))
            .map_err(err("fetch_request"))?;
        let stored = self.store.get(id).map_or(0, |b| b.len() as u64);
        Ok(resp.sample_id == id && resp.data.byte_len() == stored)
    }

    /// Untimed: every stored sample comes back byte-identical.
    pub fn verify_payloads(&mut self) -> Result<bool, String> {
        for id in 0..SERVE_SAMPLES {
            let resp = self.conns[0]
                .fetch_request(FetchRequest::new(id, 0, SplitPoint::NONE))
                .map_err(err("verify fetch"))?;
            if resp.data.as_encoded() != self.store.get(id).as_deref() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// One pipelined burst of `burst` raw fetches on the first connection.
    pub fn fetch_burst(&mut self, burst: usize) -> Result<usize, String> {
        let reqs: Vec<FetchRequest> = (0..burst as u64)
            .map(|i| FetchRequest::new(i % SERVE_SAMPLES, 0, SplitPoint::NONE))
            .collect();
        Ok(self.conns[0].fetch_many_requests(&reqs).map_err(err("burst"))?.len())
    }

    /// Response bytes the server has written so far (read between windows,
    /// never inside one).
    pub fn response_bytes(&self) -> u64 {
        settled(|| self.server.response_bytes())
    }

    /// Untimed: the largest stored sample once over every connection, so
    /// each client's receive buffer has reached its final size before the
    /// window and peak RSS does not depend on which connection happened to
    /// see which sample.
    pub fn warm_connections(&mut self) -> Result<(), String> {
        let largest = (0..SERVE_SAMPLES)
            .max_by_key(|&id| self.store.get(id).map_or(0, |b| b.len()))
            .unwrap_or(0);
        for conn in &mut self.conns {
            conn.fetch_request(FetchRequest::new(largest, 0, SplitPoint::NONE))
                .map_err(err("warm-up fetch"))?;
        }
        Ok(())
    }

    pub fn shutdown(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Planner and simulator at the paper's scale
// ---------------------------------------------------------------------------

pub struct PlanSim {
    scenario: Scenario,
    profiles: Vec<SampleProfile>,
    policies: Vec<Box<dyn Policy>>,
    map: ShardMap,
    nodes: Vec<FleetNodeConfig>,
    chaos: Vec<ChaosEvent>,
    feedback: FeedbackConfig,
    cache_budget: u64,
}

/// One policy evaluated end to end in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    pub traffic_bytes: u64,
    pub offloaded_samples: u64,
}

/// The adaptive fleet epoch's reproducible outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    pub digest: u64,
    pub replans: usize,
    pub batches: u64,
}

impl PlanSim {
    /// Takes no seed: planner and simulator are deterministic functions of
    /// the corpus, placement and chaos schedule, and varying any of the
    /// three per seed moved the replan count (2-4) and with it the round
    /// time by +-20%.
    pub fn build() -> PlanSim {
        let dataset = DatasetSpec::openimages_like(PLAN_SAMPLES, CORPUS_SEED);
        let config = ClusterConfig::paper_testbed(4);
        let scenario = Scenario::new(dataset, config, GpuModel::AlexNet, PLAN_BATCH);
        let profiles = scenario.profiles();
        let corpus_bytes: u64 = profiles.iter().map(|p| p.raw_bytes).sum();
        PlanSim {
            profiles,
            policies: standard_policies(),
            map: ShardMap::new(PLAN_SHARDS, 2, CORPUS_SEED),
            nodes: fleet_nodes_sharing_link(&config, PLAN_SHARDS),
            chaos: chaos_straggler_and_squeeze(17, PLAN_SHARDS, PLAN_SAMPLES / PLAN_BATCH as u64),
            feedback: FeedbackConfig::default(),
            cache_budget: corpus_bytes / 4,
            scenario,
        }
    }

    /// Analytic profiling of the whole corpus (what `build` does once).
    pub fn profile(&self) -> usize {
        self.scenario.profiles().len()
    }

    pub fn policy_names(&self) -> Vec<&'static str> {
        self.policies.iter().map(|p| p.name()).collect()
    }

    /// Plans policy `i` only.
    pub fn plan_only(&self, i: usize) -> Result<usize, String> {
        let ctx = self.ctx();
        Ok(self.policies[i].plan(&ctx).map_err(err("plan"))?.offloaded_samples())
    }

    /// Plans policy `i` and simulates its epoch.
    pub fn run_policy(&self, i: usize) -> Result<PolicyOutcome, String> {
        let report = self
            .scenario
            .run_with_profiles(self.policies[i].as_ref(), &self.profiles)
            .map_err(err("run_with_profiles"))?;
        Ok(PolicyOutcome {
            traffic_bytes: report.epoch.traffic_bytes,
            offloaded_samples: report.summary.offloaded_samples,
        })
    }

    /// Three epochs over four shards behind a quarter-corpus cache; returns
    /// the warm epochs' traffic.
    pub fn fleet_cached(&self) -> Result<u64, String> {
        let report = self
            .scenario
            .run_training_fleet_cached(
                3,
                PLAN_SHARDS,
                2,
                self.map.seed(),
                self.cache_budget,
                CacheSelection::EfficiencyAware,
                &[],
            )
            .map_err(err("run_training_fleet_cached"))?;
        Ok(report.warm_traffic_bytes())
    }

    /// One fleet epoch under the straggler-and-squeeze schedule, feedback
    /// controlled or (for the digest check) static.
    pub fn adaptive_epoch(&self, feedback: bool) -> Result<AdaptiveOutcome, String> {
        let ctx = self.ctx();
        let report = run_fleet_epoch_adaptive(
            &ctx,
            &self.map,
            &self.nodes,
            &self.chaos,
            feedback.then_some(&self.feedback),
        )
        .map_err(err("run_fleet_epoch_adaptive"))?;
        Ok(AdaptiveOutcome {
            digest: report.digest,
            replans: report.replans.len(),
            batches: report.batches,
        })
    }

    /// `simulate_epoch` alone on the un-offloaded corpus; returns samples.
    pub fn simulate_no_off(&self) -> Result<u64, String> {
        let works = OffloadPlan::none(self.profiles.len())
            .to_sample_works(&self.profiles)
            .map_err(err("works"))?;
        let stats = simulate_epoch(
            &self.scenario.config,
            &EpochSpec::new(works, PLAN_BATCH, GpuModel::AlexNet),
        )
        .map_err(err("simulate_epoch"))?;
        Ok(stats.samples)
    }

    fn ctx(&self) -> PlanningContext<'_> {
        PlanningContext::new(
            &self.profiles,
            &self.scenario.pipeline,
            &self.scenario.config,
            self.scenario.gpu,
            self.scenario.batch_size,
        )
    }
}

// ---------------------------------------------------------------------------
// Micro-cell fixtures: one call each, on the live corpus' own samples
// ---------------------------------------------------------------------------

/// Pre-built inputs for the single-call cells, all cut from the seeded
/// live corpus so cells and workloads see the same bytes.
pub struct Fixtures {
    ds: DatasetSpec,
    store: ObjectStore,
    pipeline: PipelineSpec,
    /// Sample 0 before each op of the standard pipeline: `stages[0]` is the
    /// stored object, `stages[i]` the input of op `i`.
    stages: Vec<StageData>,
    /// Sample 0 decoded.
    image: imagery::RasterImage,
    tensors: Vec<StageData>,
    executor: NearStorageExecutor,
    response: Response,
    response_frame: Vec<u8>,
    request: Request,
    scratch: Vec<u8>,
    cache: SampleCache,
    cache_key: CacheKey,
    bucket: TokenBucket,
    meter: TrafficMeter,
    dwrr: DwrrScheduler<u32>,
}

impl Fixtures {
    pub fn build(corpus: &LiveCorpus) -> Result<Fixtures, String> {
        let ds = corpus.ds.clone();
        let pipeline = corpus.pipeline.clone();
        let encoded = StageData::Encoded(corpus.store.get(0).ok_or("sample 0 not stored")?);
        let image =
            codec::decode(encoded.as_encoded().unwrap_or_default()).map_err(err("decode"))?;
        let key = SampleKey::new(ds.seed, 0, 0);
        let mut stages = vec![encoded.clone()];
        for (i, op) in pipeline.ops().iter().enumerate() {
            let input = stages[i].clone();
            stages.push(op.apply(input, &mut AugmentRng::for_op(key, i)).map_err(err("op"))?);
        }
        let tensors = vec![stages[pipeline.len()].clone(); LIVE_BATCH];
        let session = SessionConfig { dataset_seed: ds.seed, pipeline: pipeline.clone() };
        let executor = NearStorageExecutor::new(corpus.store.clone(), session);
        let response = Response::Data(
            executor
                .execute(FetchRequest::new(0, 0, SplitPoint::new(2)))
                .map_err(err("execute"))?,
        );
        let mut response_frame = Vec::new();
        wire::encode_response_into(7, &response, &mut response_frame);
        let request = Request::Fetch(FetchRequest::new(0, 0, SplitPoint::new(2)));
        let mut cache = SampleCache::efficiency_aware(1 << 30);
        let cache_key = CacheKey::try_new(ds.seed, 0, SplitPoint::NONE, None, &pipeline)
            .map_err(err("cache key"))?;
        cache.insert(
            cache_key,
            0,
            encoded.clone(),
            AdmissionHint::from_payload_bytes(encoded.byte_len()),
        );
        let mut dwrr = DwrrScheduler::new(64 << 10);
        dwrr.set_weight(TenantId(1), 2);
        Ok(Fixtures {
            ds,
            store: corpus.store.clone(),
            pipeline,
            stages,
            image,
            tensors,
            executor,
            response,
            response_frame,
            request,
            scratch: Vec::new(),
            cache,
            cache_key,
            // Wide enough never to impose a delay: the cell times the
            // accounting, not a sleep.
            bucket: TokenBucket::new(Bandwidth::from_gbps(1000.0), 1 << 30),
            meter: TrafficMeter::new(),
            dwrr,
        })
    }

    pub fn encoded_bytes(&self) -> u64 {
        self.stages[0].byte_len()
    }

    pub fn image_pixels(&self) -> u64 {
        self.image.pixel_count()
    }

    pub fn response_frame_bytes(&self) -> usize {
        self.response_frame.len()
    }

    pub fn op_names(&self) -> Vec<&'static str> {
        self.pipeline.ops().iter().map(|op| op.name()).collect()
    }

    pub fn codec_decode(&self) -> u64 {
        codec::decode(self.stages[0].as_encoded().unwrap_or_default())
            .map_or(0, |img| img.pixel_count())
    }

    pub fn codec_encode(&self) -> usize {
        codec::encode(&self.image, self.ds.quality()).len()
    }

    pub fn imagery_render(&self) -> u64 {
        let rec = self.ds.record(0);
        imagery::synth::SynthSpec::new(rec.width, rec.height)
            .complexity(rec.complexity)
            .render(self.ds.seed)
            .pixel_count()
    }

    pub fn datasets_materialize(&self) -> usize {
        ObjectStore::materialize_dataset(&self.ds, 0..1).len()
    }

    /// Op `i` of the standard pipeline on sample 0's stage-`i` data.
    pub fn pipeline_op(&self, i: usize) -> u64 {
        let op: OpKind = self.pipeline.ops()[i];
        let key = SampleKey::new(self.ds.seed, 0, 0);
        op.apply(self.stages[i].clone(), &mut AugmentRng::for_op(key, i))
            .map_or(0, |d| d.byte_len())
    }

    /// The compute-side suffix of an offloaded (post-crop) sample.
    pub fn pipeline_suffix(&self) -> u64 {
        let key = SampleKey::new(self.ds.seed, 0, 0);
        self.pipeline
            .run_suffix(self.stages[2].clone(), SplitPoint::new(2), key)
            .map_or(0, |d| d.byte_len())
    }

    pub fn pipeline_collate(&self) -> usize {
        TensorBatch::collate(&self.tensors).map_or(0, |b| b.len())
    }

    pub fn wire_crc32(&self) -> u32 {
        wire::crc32(&self.response_frame)
    }

    pub fn wire_encode_response(&mut self) -> usize {
        wire::encode_response_into(7, &self.response, &mut self.scratch);
        self.scratch.len()
    }

    pub fn wire_decode_response(&self) -> bool {
        wire::decode_response_framed(&self.response_frame).is_ok()
    }

    pub fn wire_request_roundtrip(&mut self) -> bool {
        wire::encode_request_into(7, &self.request, &mut self.scratch);
        wire::decode_request_framed(&self.scratch).is_ok()
    }

    pub fn executor_raw(&self) -> u64 {
        self.executor
            .execute(FetchRequest::new(0, 0, SplitPoint::NONE))
            .map_or(0, |r| r.data.byte_len())
    }

    pub fn executor_prefix(&self) -> u64 {
        self.executor
            .execute(FetchRequest::new(0, 0, SplitPoint::new(2)))
            .map_or(0, |r| r.data.byte_len())
    }

    pub fn object_store_get(&self, id: u64) -> usize {
        self.store.get(id % self.store.len() as u64).map_or(0, |b| b.len())
    }

    pub fn cache_hit(&mut self) -> bool {
        self.cache.get(&self.cache_key).is_some()
    }

    pub fn cache_insert(&mut self) -> bool {
        self.cache.insert(
            self.cache_key,
            0,
            self.stages[0].clone(),
            AdmissionHint::from_payload_bytes(self.stages[0].byte_len()),
        )
    }

    pub fn token_bucket(&mut self) -> Duration {
        self.bucket.delay_for(150_528)
    }

    pub fn meter_record(&self) {
        self.meter.record(150_528);
    }

    pub fn dwrr_push_pop(&mut self, i: u32) -> bool {
        self.dwrr.push(TenantId((i % 2) as u16), 150_528, i);
        self.dwrr.pop().is_some()
    }
}
