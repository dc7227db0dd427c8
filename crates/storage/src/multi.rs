//! A harness running several live TCP storage servers as one fleet.
//!
//! [`MultiServerHarness`] partitions an [`ObjectStore`] across N nodes by a
//! caller-supplied placement function (each node stores the samples it owns
//! as primary *or* replica), binds one [`TcpStorageServer`] per node on an
//! ephemeral loopback port, and exposes per-node addresses, clients, byte
//! meters, and a `kill` switch for failover experiments. The placement
//! function is deliberately a plain closure — the `fleet` crate's
//! `ShardMap::owners` slots straight in without this crate depending on it.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

use netsim::MeterSnapshot;

use netsim::TrafficMeter;
use tenant::TenantPolicy;

use crate::chaos::{FaultPlan, FaultRecord, ServerFaultInjector};
use crate::tcp::{TcpStorageClient, TcpStorageServer};
use crate::{ObjectStore, ServerConfig};

/// Typed construction failures for a [`MultiServerHarness`], so a caller
/// can tell a bad fleet shape from a bad placement from one specific
/// node's socket refusing to bind.
#[derive(Debug)]
#[non_exhaustive]
pub enum HarnessError {
    /// The fleet was asked to spawn zero nodes.
    EmptyFleet,
    /// The placement function returned a node index past the fleet size.
    OwnerOutOfRange {
        /// The offending owner index.
        owner: usize,
        /// The fleet size it exceeded.
        nodes: usize,
    },
    /// One node's server failed to bind; the others (which may have bound
    /// fine) are shut down before this surfaces.
    Bind {
        /// Which node failed.
        node: usize,
        /// The underlying socket error.
        source: io::Error,
    },
    /// One node's startup thread panicked before reporting an outcome —
    /// surfaced as a typed error instead of cascading the panic into the
    /// caller.
    NodeStartPanicked {
        /// Which node's thread died.
        node: usize,
    },
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::EmptyFleet => write!(f, "fleet needs at least one node"),
            HarnessError::OwnerOutOfRange { owner, nodes } => {
                write!(f, "owner {owner} out of range for {nodes} nodes")
            }
            HarnessError::Bind { node, source } => {
                write!(f, "node {node} failed to bind: {source}")
            }
            HarnessError::NodeStartPanicked { node } => {
                write!(f, "node {node}'s startup thread panicked")
            }
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Bind { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<HarnessError> for io::Error {
    fn from(e: HarnessError) -> io::Error {
        match e {
            HarnessError::Bind { source, .. } => source,
            other => io::Error::new(io::ErrorKind::InvalidInput, other.to_string()),
        }
    }
}

/// One node of a [`MultiServerHarness`].
#[derive(Debug)]
struct Node {
    server: Option<TcpStorageServer>,
    addr: SocketAddr,
    meter: TrafficMeter,
    injector: Option<Arc<ServerFaultInjector>>,
}

/// Several live TCP storage servers, each holding one shard of a corpus.
#[derive(Debug)]
pub struct MultiServerHarness {
    nodes: Vec<Node>,
}

impl MultiServerHarness {
    /// Splits `store` across `nodes` servers and starts them all.
    ///
    /// `owners(sample_id)` returns the ordered node list holding that
    /// sample (primary first); the sample's bytes are replicated onto each
    /// node in the list. Every server runs `config` (cores, bandwidth cap,
    /// in-flight bound).
    ///
    /// # Errors
    ///
    /// Returns a typed [`HarnessError`]: `EmptyFleet` for a zero-node
    /// fleet, `OwnerOutOfRange` for a bad placement, and `Bind` naming the
    /// specific node whose socket failed (converts into `io::Error` for
    /// callers that want one).
    pub fn spawn<F>(
        store: &ObjectStore,
        nodes: usize,
        config: ServerConfig,
        owners: F,
    ) -> Result<MultiServerHarness, HarnessError>
    where
        F: Fn(u64) -> Vec<usize>,
    {
        Self::spawn_inner(store, nodes, config, owners, None)
    }

    /// Like [`MultiServerHarness::spawn`], but every node injects faults
    /// from `plan`. Each node's injector runs the same schedule under a
    /// seed derived deterministically from the plan seed and node index,
    /// so a fleet-wide chaos run reproduces exactly from one seed. Read
    /// the injected-fault history back with
    /// [`MultiServerHarness::fault_logs`].
    ///
    /// # Errors
    ///
    /// Same conditions as `spawn`.
    pub fn spawn_with_chaos<F>(
        store: &ObjectStore,
        nodes: usize,
        config: ServerConfig,
        owners: F,
        plan: &FaultPlan,
    ) -> Result<MultiServerHarness, HarnessError>
    where
        F: Fn(u64) -> Vec<usize>,
    {
        Self::spawn_inner(store, nodes, config, owners, Some(plan))
    }

    fn spawn_inner<F>(
        store: &ObjectStore,
        nodes: usize,
        config: ServerConfig,
        owners: F,
        plan: Option<&FaultPlan>,
    ) -> Result<MultiServerHarness, HarnessError>
    where
        F: Fn(u64) -> Vec<usize>,
    {
        if nodes == 0 {
            return Err(HarnessError::EmptyFleet);
        }
        let mut shards: Vec<ObjectStore> = (0..nodes).map(|_| ObjectStore::new()).collect();
        for (id, bytes) in store.iter() {
            for node in owners(id) {
                if node >= nodes {
                    return Err(HarnessError::OwnerOutOfRange { owner: node, nodes });
                }
                shards[node].insert(id, bytes.clone());
            }
        }
        // Bind every node concurrently — fleet startup costs one bind, not
        // N serial ones. Each thread reports its own typed outcome.
        let results: Vec<Result<Node, HarnessError>> = std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(n, shard)| {
                    let injector = plan.map(|p| {
                        // Domain-separated per-node seed: same fleet seed,
                        // distinct per-node schedules, fully reproducible.
                        let node_seed =
                            p.seed() ^ (0x6e6f_6465 + n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        Arc::new(ServerFaultInjector::new(n, p.clone().reseeded(node_seed)))
                    });
                    s.spawn(move || {
                        let server = TcpStorageServer::bind_with_policy(
                            shard,
                            config,
                            TenantPolicy::default(),
                            "127.0.0.1:0",
                            injector.clone(),
                        )
                        .map_err(|source| HarnessError::Bind { node: n, source })?;
                        Ok(Node {
                            addr: server.local_addr(),
                            meter: server.meter(),
                            server: Some(server),
                            injector,
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(n, h)| {
                    h.join().unwrap_or_else(|_| Err(HarnessError::NodeStartPanicked { node: n }))
                })
                .collect()
        });
        let mut out = Vec::with_capacity(nodes);
        let mut first_error = None;
        for result in results {
            match result {
                Ok(node) => out.push(node),
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        if let Some(e) = first_error {
            // Partial fleets don't leak: nodes that did bind are torn down.
            for mut node in out {
                if let Some(server) = node.server.take() {
                    server.shutdown();
                }
            }
            return Err(e);
        }
        Ok(MultiServerHarness { nodes: out })
    }

    /// Number of nodes (killed ones included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the harness has no nodes (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The bound address of `node`.
    pub fn addr(&self, node: usize) -> SocketAddr {
        self.nodes[node].addr
    }

    /// Connects a fresh client to `node`.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (e.g. the node was killed).
    pub(crate) fn client(&self, node: usize) -> io::Result<TcpStorageClient> {
        TcpStorageClient::connect(self.nodes[node].addr)
    }

    /// Connects one client per node, in node order.
    ///
    /// # Errors
    ///
    /// Propagates the first connection failure.
    pub fn clients(&self) -> io::Result<Vec<TcpStorageClient>> {
        (0..self.len()).map(|n| self.client(n)).collect()
    }

    /// Labeled per-node traffic readings (`node0`, `node1`, …), taken now.
    pub fn traffic(&self) -> Vec<MeterSnapshot> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(n, node)| node.meter.snapshot(format!("node{n}")))
            .collect()
    }

    /// Fleet-wide aggregate of every node's response traffic.
    pub fn traffic_total(&self) -> MeterSnapshot {
        MeterSnapshot::merge("fleet", self.traffic())
    }

    /// Faults injected by `node` so far, sorted by
    /// `(sample, epoch, attempt)` (empty without chaos).
    pub(crate) fn fault_log(&self, node: usize) -> Vec<FaultRecord> {
        self.nodes[node].injector.as_ref().map(|i| i.log()).unwrap_or_default()
    }

    /// Every node's injected faults merged, sorted by
    /// `(node, sample, epoch, attempt)` — the canonical sequence to
    /// compare across same-seed chaos runs.
    pub fn fault_logs(&self) -> Vec<FaultRecord> {
        let mut all: Vec<FaultRecord> = (0..self.len()).flat_map(|n| self.fault_log(n)).collect();
        all.sort_unstable();
        all
    }

    /// Whether `node` is still serving.
    pub fn is_alive(&self, node: usize) -> bool {
        self.nodes[node].server.is_some()
    }

    /// Kills `node`: stops its server and closes its connections. Clients
    /// observe `Disconnected` on their next request. Idempotent.
    pub fn kill(&mut self, node: usize) {
        if let Some(server) = self.nodes[node].server.take() {
            server.shutdown();
        }
    }

    /// Shuts every surviving node down.
    pub fn shutdown(mut self) {
        for node in &mut self.nodes {
            if let Some(server) = node.server.take() {
                server.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Bandwidth;
    use pipeline::{PipelineSpec, SplitPoint};

    fn config() -> ServerConfig {
        ServerConfig { cores: 2, bandwidth: Bandwidth::from_gbps(10.0), ..ServerConfig::default() }
    }

    #[test]
    fn chaos_harness_logs_reproduce_per_seed() {
        use crate::chaos::FaultPlan;
        use crate::Deadline;
        use pipeline::PipelineSpec;

        let ds = datasets::DatasetSpec::mini(8, 33);
        let store = ObjectStore::materialize_dataset(&ds, 0..8);
        let run = |seed: u64| {
            let plan = FaultPlan::quiet(seed).with_errors(0.5);
            let harness = MultiServerHarness::spawn_with_chaos(
                &store,
                2,
                config(),
                |id| vec![(id % 2) as usize],
                &plan,
            )
            .unwrap();
            for node in 0..2 {
                let mut client = harness
                    .client(node)
                    .unwrap()
                    .with_deadline(Deadline::after(std::time::Duration::from_secs(5)));
                client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
                for id in 0..8u64 {
                    if (id % 2) as usize != node {
                        continue;
                    }
                    let reqs = vec![crate::FetchRequest::new(id, 0, pipeline::SplitPoint::NONE)];
                    // Injected errors are transient: one retry converges.
                    for _ in 0..3 {
                        if client.fetch_many_requests(&reqs).is_ok() {
                            break;
                        }
                    }
                }
            }
            let log = harness.fault_logs();
            harness.shutdown();
            log
        };
        let a = run(5);
        let b = run(5);
        let c = run(6);
        assert!(!a.is_empty(), "a 50% error rate over 8 samples must fire");
        assert_eq!(a, b, "same seed, same fault sequence");
        assert_ne!(a, c, "different seed, different fault sequence");
    }

    #[test]
    fn construction_failures_are_typed() {
        let store = ObjectStore::new();
        assert!(matches!(
            MultiServerHarness::spawn(&store, 0, config(), |_| vec![0]),
            Err(HarnessError::EmptyFleet)
        ));
        let ds = datasets::DatasetSpec::mini(2, 30);
        let store = ObjectStore::materialize_dataset(&ds, 0..2);
        let err = MultiServerHarness::spawn(&store, 2, config(), |_| vec![5]).unwrap_err();
        assert!(matches!(err, HarnessError::OwnerOutOfRange { owner: 5, nodes: 2 }), "{err}");
        // Typed errors still flow into io::Error for io::Result callers.
        let as_io: io::Error = err.into();
        assert_eq!(as_io.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn bind_failure_names_the_node_and_tears_down_survivors() {
        let ds = datasets::DatasetSpec::mini(2, 30);
        let store = ObjectStore::materialize_dataset(&ds, 0..2);
        let bad = ServerConfig { cores: 0, ..config() };
        let err =
            MultiServerHarness::spawn(&store, 3, bad, |id| vec![(id % 3) as usize]).unwrap_err();
        match err {
            HarnessError::Bind { node, source } => {
                assert!(node < 3);
                assert_eq!(source.kind(), io::ErrorKind::InvalidInput);
            }
            other => panic!("expected Bind, got {other:?}"),
        }
    }

    #[test]
    fn shards_partition_and_replicate_the_corpus() {
        let ds = datasets::DatasetSpec::mini(12, 31);
        let store = ObjectStore::materialize_dataset(&ds, 0..12);
        // Placement: primary = id % 3, replica = (id + 1) % 3.
        let harness = MultiServerHarness::spawn(&store, 3, config(), |id| {
            vec![(id % 3) as usize, ((id + 1) % 3) as usize]
        })
        .unwrap();
        // Each node holds its primaries plus its predecessors' replicas, 8
        // of the 12 samples, and serves exactly those.
        for node in 0..3 {
            let mut client = harness.client(node).unwrap();
            client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
            let mut served = 0;
            for id in 0..12u64 {
                let stored = id % 3 == node as u64 || (id + 1) % 3 == node as u64;
                let reqs = vec![crate::FetchRequest::new(id, 0, SplitPoint::NONE)];
                let fetched = client.fetch_many_requests(&reqs);
                assert_eq!(fetched.is_ok(), stored, "node {node}, sample {id}");
                served += usize::from(stored);
            }
            assert_eq!(served, 8, "node {node}");
        }
        harness.shutdown();
    }

    #[test]
    fn killed_node_disconnects_its_clients() {
        let ds = datasets::DatasetSpec::mini(4, 32);
        let store = ObjectStore::materialize_dataset(&ds, 0..4);
        let mut harness =
            MultiServerHarness::spawn(&store, 2, config(), |id| vec![(id % 2) as usize]).unwrap();
        let mut client = harness.client(0).unwrap();
        client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
        assert!(harness.is_alive(0));
        harness.kill(0);
        assert!(!harness.is_alive(0));
        let reqs = vec![crate::FetchRequest::new(0, 0, SplitPoint::NONE)];
        let err = client.fetch_many_requests(&reqs).unwrap_err();
        assert!(matches!(err, crate::ClientError::Disconnected));
        // Survivor keeps serving, and the meter of the corpse still reads.
        let mut ok = harness.client(1).unwrap();
        ok.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
        let reqs = vec![crate::FetchRequest::new(1, 0, SplitPoint::NONE)];
        assert_eq!(ok.fetch_many_requests(&reqs).unwrap().len(), 1);
        let per_node = harness.traffic();
        assert!(per_node[0].bytes > 0, "the corpse's configure reply still counts");
        let total = harness.traffic_total();
        assert_eq!(total.bytes, per_node.iter().map(|n| n.bytes).sum::<u64>());
        harness.shutdown();
    }
}
