//! Fleet integration tests over live TCP: a corpus sharded across four
//! real storage servers with replication survives a mid-epoch node kill
//! without losing a sample or perturbing a single tensor bit, and hedged
//! fetches bound the tail latency a straggler node would otherwise impose.

use std::time::{Duration, Instant};

use cluster::{ClusterConfig, GpuModel, KillEvent};
use datasets::DatasetSpec;
use fleet::{FleetTransport, ShardMap};
use netsim::Bandwidth;
use pipeline::{CostModel, PipelineSpec, SplitPoint, TensorBatch};
use sophon::engine::PlanningContext;
use sophon::ext::sharding::{self, FleetPlanRequest};
use sophon::live::{Corpus, Session};
use sophon::loader::LoaderConfig;
use storage::{
    ClientError, FetchRequest, FetchResponse, FetchTransport, MultiServerHarness, ServerConfig,
};

const N: u64 = 32;
const BATCH: usize = 4;

fn server_config() -> ServerConfig {
    ServerConfig { cores: 2, bandwidth: Bandwidth::from_gbps(10.0), ..ServerConfig::default() }
}

#[test]
fn killed_node_mid_epoch_loses_nothing_and_tensors_match_single_node() {
    // The fleet correctness claim: 4 shards, 2-way replication, one node
    // killed while the epoch is in flight — every sample is still
    // delivered, and the collated batches are bit-identical to the same
    // plan served by a single storage node.
    let ds = DatasetSpec::mini(N, 88);
    let corpus = Corpus::materialize(&ds);
    let pipeline = PipelineSpec::standard_train();
    let profiles = corpus.profiles(&pipeline, &CostModel::realistic()).unwrap();
    let config = ClusterConfig::paper_testbed(2).with_bandwidth(Bandwidth::from_mbps(100.0));
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, BATCH);
    let map = ShardMap::new(4, 2, 17);
    let nodes = sharding::fleet_nodes(&config, 4);
    let sharded = sharding::plan_fleet(&ctx, &FleetPlanRequest::new(&map, &nodes)).unwrap();
    assert!(sharded.plan.offloaded_samples() > 0);
    let session = |map: ShardMap| {
        let config = LoaderConfig::new(ds.seed, BATCH);
        Session::builder(&corpus, pipeline.clone(), sharded.plan.clone(), config)
            .shards(map)
            .server(server_config())
            .start()
            .unwrap()
    };

    // Killed after the second of eight batches.
    let victim = map.primary(0);
    let mut fleet = session(map);
    let mut fleet_batches: Vec<TensorBatch> = Vec::new();
    fleet.run_epoch(0, &[KillEvent::new(victim, 0.25)], |b| fleet_batches.push(b)).unwrap();
    assert!(!fleet.harness().is_alive(victim));
    let delivered: usize = fleet_batches.iter().map(TensorBatch::len).sum();
    assert_eq!(delivered as u64, N, "fleet lost samples across the kill");

    // Single-node baseline with the identical plan.
    let mut single_batches: Vec<TensorBatch> = Vec::new();
    session(ShardMap::new(1, 1, 0)).run_epoch(0, &[], |b| single_batches.push(b)).unwrap();

    assert_eq!(
        fleet_batches, single_batches,
        "fleet batches diverged from the single-node baseline"
    );
}

/// A transport that sleeps before serving — a deterministic straggler.
struct SlowTransport<T> {
    inner: T,
    delay: Duration,
}

impl<T: FetchTransport> FetchTransport for SlowTransport<T> {
    fn configure(&mut self, seed: u64, pipeline: PipelineSpec) -> Result<(), ClientError> {
        self.inner.configure(seed, pipeline)
    }

    fn fetch_many_requests(
        &mut self,
        requests: &[FetchRequest],
    ) -> Result<Vec<FetchResponse>, ClientError> {
        std::thread::sleep(self.delay);
        self.inner.fetch_many_requests(requests)
    }
}

fn percentile(mut samples: Vec<Duration>, p: f64) -> Duration {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    let rank = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[rank]
}

#[test]
fn hedging_cuts_the_tail_latency_of_a_straggler_node() {
    // One of two replicated nodes is slowed by 80 ms per request. Without
    // hedging, every fetch whose primary is the straggler eats the full
    // delay; with a 10 ms hedge deadline the replica answers first and the
    // p99 drops well below the straggler's floor.
    let ds = DatasetSpec::mini(N, 21);
    let corpus = Corpus::materialize(&ds);
    let map = ShardMap::new(2, 2, 13);
    let slow_node = map.primary(0);
    let delay = Duration::from_millis(80);

    let run = |hedge: Option<Duration>| -> (Vec<Duration>, u64) {
        let harness =
            MultiServerHarness::spawn(corpus.store(), 2, server_config(), |id| map.owners(id))
                .unwrap();
        let transports: Vec<SlowTransport<_>> = harness
            .clients()
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(n, client)| SlowTransport {
                inner: client,
                delay: if n == slow_node { delay } else { Duration::ZERO },
            })
            .collect();
        let mut fleet = FleetTransport::new(transports, map.clone(), hedge);
        fleet.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
        let mut latencies = Vec::new();
        for id in 0..N {
            let req = [FetchRequest::new(id, 0, SplitPoint::NONE)];
            let start = Instant::now();
            let out = fleet.fetch_many_requests(&req).unwrap();
            latencies.push(start.elapsed());
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].sample_id, id);
        }
        let wins = fleet.stats().hedge_wins;
        drop(fleet);
        harness.shutdown();
        (latencies, wins)
    };

    let (unhedged, no_hedge_wins) = run(None);
    let (hedged, hedge_wins) = run(Some(Duration::from_millis(10)));
    assert_eq!(no_hedge_wins, 0);
    assert!(hedge_wins > 0, "the straggler's fetches should lose the race to the replica");

    let p99_unhedged = percentile(unhedged, 0.99);
    let p99_hedged = percentile(hedged, 0.99);
    assert!(p99_unhedged >= delay, "some fetch must have hit the straggler: p99 {p99_unhedged:?}");
    assert!(
        p99_hedged < p99_unhedged,
        "hedged p99 {p99_hedged:?} not below unhedged p99 {p99_unhedged:?}"
    );
}
