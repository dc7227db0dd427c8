//! Scatter-gather fetch transport over a fleet of storage nodes.
//!
//! [`FleetTransport`] owns one inner [`FetchTransport`] per storage node
//! (each driven by a dedicated worker thread, since the underlying clients
//! are blocking) and presents the whole fleet as a single transport:
//!
//! * **scatter-gather** — `fetch_many_requests` partitions a batch by each
//!   sample's primary owner under the [`ShardMap`](crate::ShardMap) and
//!   fans the per-shard groups out concurrently;
//! * **hedging** — a group still unanswered after `hedge_after` is
//!   re-issued for its unfinished samples to replica nodes; the first
//!   response per sample wins and the loser is discarded (fetches are
//!   read-only and deterministic per `(sample, epoch, split)`, so
//!   duplicates are harmless);
//! * **failover** — a node that reports [`ClientError::Disconnected`] is
//!   marked permanently dead; its in-flight samples re-route to the next
//!   alive owner, and later batches never touch it again. Only when a
//!   sample has no alive owner left does the error surface.
//!
//! The fleet sets no clock of its own on an exchange: each node client's
//! own deadline bounds its group, and any other error a node reports
//! (an expired deadline among them) fails the call, for the retry layer
//! to take.
//!
//! Each node's transport carries one batch group at a time; a
//! `TcpStorageClient` multiplexes every request of that group on its one
//! connection.
//!
//! The decorator composes like the others: wrap each per-node client in
//! `RetryingTransport` before handing it to the fleet (retries stay
//! per-node), and wrap the whole `FleetTransport` in a `CachingTransport`
//! (the cache is node-agnostic).

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pipeline::PipelineSpec;
use storage::{ClientError, FetchRequest, FetchResponse, FetchTransport};

use crate::ShardMap;

enum Job {
    Configure(u64, u64, PipelineSpec),
    Fetch(u64, Vec<FetchRequest>),
}

enum ReplyBody {
    Configured(Result<(), ClientError>),
    Fetched(Result<Vec<FetchResponse>, ClientError>),
}

struct Reply {
    node: usize,
    ticket: u64,
    body: ReplyBody,
}

/// The reply a worker owes for the job it is running, which `Drop` sends
/// if the worker unwinds first: the fleet then takes the node for dead, as
/// it does a closed socket, rather than wait for a reply that never comes.
struct Owed<'a> {
    replies: &'a Sender<Reply>,
    reply: Option<Reply>,
}

impl Drop for Owed<'_> {
    fn drop(&mut self) {
        if let Some(reply) = self.reply.take() {
            let _ = self.replies.send(reply);
        }
    }
}

fn worker_loop<T: FetchTransport>(
    node: usize,
    mut transport: T,
    jobs: &Receiver<Job>,
    replies: &Sender<Reply>,
) {
    let mut owed = Owed { replies, reply: None };
    while let Ok(job) = jobs.recv() {
        let (ticket, lost) = match job {
            Job::Configure(ticket, ..) => {
                (ticket, ReplyBody::Configured(Err(ClientError::Disconnected)))
            }
            Job::Fetch(ticket, _) => (ticket, ReplyBody::Fetched(Err(ClientError::Disconnected))),
        };
        owed.reply = Some(Reply { node, ticket, body: lost });
        let body = match job {
            Job::Configure(_, seed, pipeline) => {
                ReplyBody::Configured(transport.configure(seed, pipeline))
            }
            Job::Fetch(_, reqs) => ReplyBody::Fetched(transport.fetch_many_requests(&reqs)),
        };
        owed.reply = None;
        if replies.send(Reply { node, ticket, body }).is_err() {
            return;
        }
    }
}

/// Observability counters for a [`FleetTransport`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Fetch requests routed to each node (including hedges and reroutes).
    pub(crate) requests_per_node: Vec<u64>,
    /// Samples re-issued to a replica because their group ran past the
    /// hedge deadline.
    pub hedges_issued: u64,
    /// Hedged samples whose replica answered first.
    pub hedge_wins: u64,
    /// Node-death events that forced in-flight samples to re-route.
    pub failovers: u64,
}

/// A group of requests in flight on one node.
struct Group {
    node: usize,
    samples: Vec<u64>,
    hedge: bool,
    hedged: bool,
    sent_at: Instant,
}

/// The samples of one exchange still waiting for a response, each with its
/// request and the nodes already asked for it.
type Pending = HashMap<u64, (FetchRequest, Vec<usize>)>;

/// A [`FetchTransport`] that scatters batches across a fleet of storage
/// nodes, hedges stragglers, and fails over around dead nodes.
pub struct FleetTransport {
    map: ShardMap,
    /// Each node's worker job queue; `None` once the node is dead (its
    /// worker was disconnected and has exited).
    job_txs: Vec<Option<Sender<Job>>>,
    reply_rx: Receiver<Reply>,
    workers: Vec<JoinHandle<()>>,
    dead: Vec<bool>,
    hedge_after: Option<Duration>,
    next_ticket: u64,
    stats: FleetStats,
}

impl std::fmt::Debug for FleetTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetTransport")
            .field("nodes", &self.map.nodes())
            .field("replication", &self.map.replication())
            .field("dead", &self.dead)
            .field("hedge_after", &self.hedge_after)
            .finish()
    }
}

impl FleetTransport {
    /// Builds a fleet transport from one inner transport per node.
    ///
    /// `hedge_after` is the per-group deadline after which unfinished
    /// samples are re-issued to replicas; `None` disables hedging.
    ///
    /// # Panics
    ///
    /// Panics when `transports.len()` differs from `map.nodes()`.
    pub fn new<T>(transports: Vec<T>, map: ShardMap, hedge_after: Option<Duration>) -> Self
    where
        T: FetchTransport + Send + 'static,
    {
        assert_eq!(
            transports.len(),
            map.nodes(),
            "fleet has {} transports for {} nodes",
            transports.len(),
            map.nodes()
        );
        let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
        let mut job_txs = Vec::with_capacity(transports.len());
        let mut workers = Vec::with_capacity(transports.len());
        for (node, transport) in transports.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<Job>();
            let replies = reply_tx.clone();
            workers.push(std::thread::spawn(move || worker_loop(node, transport, &rx, &replies)));
            job_txs.push(Some(tx));
        }
        let nodes = map.nodes();
        FleetTransport {
            map,
            job_txs,
            reply_rx,
            workers,
            dead: vec![false; nodes],
            hedge_after,
            next_ticket: 0,
            stats: FleetStats { requests_per_node: vec![0; nodes], ..FleetStats::default() },
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// Nodes still alive.
    pub(crate) fn alive_nodes(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    fn mark_dead(&mut self, node: usize) {
        if !self.dead[node] {
            self.dead[node] = true;
            self.job_txs[node] = None; // disconnect the worker
            self.stats.failovers += 1;
        }
    }

    /// The first alive owner of `sample_id` not already in `exclude`.
    fn route(&self, sample_id: u64, exclude: &[usize]) -> Option<usize> {
        self.map.owners(sample_id).into_iter().find(|&n| !self.dead[n] && !exclude.contains(&n))
    }

    /// The one (re-)dispatch: sends each of `samples` still pending to its
    /// first alive owner not yet asked for it, one group per node, and adds
    /// that node to the sample's list.
    ///
    /// # Errors
    ///
    /// Returns `uncovered` when a sample has no such owner and no group in
    /// flight carries it.
    fn dispatch(
        &mut self,
        samples: &[u64],
        hedge: bool,
        pending: &mut Pending,
        groups: &mut HashMap<u64, Group>,
        uncovered: ClientError,
    ) -> Result<(), ClientError> {
        let mut per_node: BTreeMap<usize, Vec<FetchRequest>> = BTreeMap::new();
        let mut unroutable = Vec::new();
        for &s in samples {
            let Some((req, tried)) = pending.get_mut(&s) else { continue };
            match self.route(s, tried) {
                Some(node) => {
                    tried.push(node);
                    per_node.entry(node).or_default().push(*req);
                }
                None => unroutable.push(s),
            }
        }
        for (node, reqs) in per_node {
            self.stats.requests_per_node[node] += reqs.len() as u64;
            if hedge {
                self.stats.hedges_issued += reqs.len() as u64;
            }
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            let samples = reqs.iter().map(|r| r.sample_id).collect();
            // A just-killed worker can only drop the send; the group then
            // never replies and the dead-node sweep reroutes it.
            if let Some(tx) = &self.job_txs[node] {
                let _ = tx.send(Job::Fetch(ticket, reqs));
            }
            groups.insert(
                ticket,
                Group { node, samples, hedge, hedged: false, sent_at: Instant::now() },
            );
        }
        // An unroutable sample may still be covered by a live hedge.
        if unroutable.iter().any(|s| !groups.values().any(|g| g.samples.contains(s))) {
            return Err(uncovered);
        }
        Ok(())
    }
}

impl FetchTransport for FleetTransport {
    fn configure(&mut self, dataset_seed: u64, pipeline: PipelineSpec) -> Result<(), ClientError> {
        let mut outstanding = HashMap::new();
        for (node, tx) in self.job_txs.iter().enumerate() {
            let Some(tx) = tx else { continue };
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            let _ = tx.send(Job::Configure(ticket, dataset_seed, pipeline.clone()));
            outstanding.insert(ticket, node);
        }
        let mut first_error = None;
        while !outstanding.is_empty() {
            let Ok(reply) = self.reply_rx.recv() else { return Err(ClientError::Disconnected) };
            if outstanding.remove(&reply.ticket).is_none() {
                continue; // stale reply from an earlier call
            }
            match reply.body {
                ReplyBody::Configured(Ok(())) => {}
                ReplyBody::Configured(Err(ClientError::Disconnected)) => {
                    self.mark_dead(reply.node);
                }
                ReplyBody::Configured(Err(e)) => first_error = Some(e),
                ReplyBody::Fetched(_) => {}
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        if self.alive_nodes() == 0 {
            return Err(ClientError::Disconnected);
        }
        Ok(())
    }

    fn fetch_many_requests(
        &mut self,
        requests: &[FetchRequest],
    ) -> Result<Vec<FetchResponse>, ClientError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        // Pending samples, deduplicated across the batch: repeated ids
        // fetch once and fan out at the end.
        let mut pending: Pending = HashMap::new();
        let mut unique = Vec::new();
        for req in requests {
            if let std::collections::hash_map::Entry::Vacant(slot) = pending.entry(req.sample_id) {
                slot.insert((*req, Vec::new()));
                unique.push(req.sample_id);
            }
        }

        // Tickets count up, so a reply below this one is a stale reply
        // from an earlier call.
        let first_ticket = self.next_ticket;
        let mut groups: HashMap<u64, Group> = HashMap::new();
        let mut done: HashMap<u64, FetchResponse> = HashMap::new();
        self.dispatch(&unique, false, &mut pending, &mut groups, ClientError::Disconnected)?;

        while !pending.is_empty() {
            // Without hedging nothing happens between replies, so the wait
            // has no timeout; it still ends when every worker has exited.
            let reply = match self.hedge_after {
                Some(wait) => self.reply_rx.recv_timeout(wait),
                None => self.reply_rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match reply {
                Ok(reply) => {
                    let known = reply.ticket >= first_ticket;
                    let group = groups.remove(&reply.ticket);
                    match reply.body {
                        ReplyBody::Fetched(Ok(responses)) if known => {
                            let hedge = group.as_ref().is_some_and(|g| g.hedge);
                            for resp in responses {
                                if pending.remove(&resp.sample_id).is_some() {
                                    if hedge {
                                        self.stats.hedge_wins += 1;
                                    }
                                    done.insert(resp.sample_id, resp);
                                }
                            }
                        }
                        ReplyBody::Fetched(Err(ClientError::Disconnected)) if known => {
                            self.mark_dead(reply.node);
                            // Reroute everything in flight on the dead node:
                            // this group plus any other queued behind it.
                            let mut orphans: Vec<u64> = groups
                                .iter()
                                .filter(|(_, g)| g.node == reply.node)
                                .map(|(&t, _)| t)
                                .collect();
                            orphans.sort_unstable();
                            let mut stranded: Vec<u64> = group
                                .into_iter()
                                .chain(orphans.iter().filter_map(|t| groups.remove(t)))
                                .flat_map(|g| g.samples)
                                .collect();
                            // A sample can sit in two of the node's groups
                            // (its primary and a later reroute); send it once.
                            stranded.sort_unstable();
                            stranded.dedup();
                            self.dispatch(
                                &stranded,
                                false,
                                &mut pending,
                                &mut groups,
                                ClientError::Disconnected,
                            )?;
                        }
                        ReplyBody::Fetched(Err(e)) if known => return Err(e),
                        _ => {} // stale ticket or configure reply: ignore
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ClientError::Disconnected);
                }
            }

            // Hedge pass: any un-hedged group past the deadline re-issues
            // its unfinished samples to the next alive owner.
            if let Some(after) = self.hedge_after {
                let mut to_hedge = Vec::new();
                for g in groups.values_mut() {
                    if !g.hedge && !g.hedged && g.sent_at.elapsed() >= after {
                        g.hedged = true;
                        to_hedge.extend(g.samples.iter().filter(|s| pending.contains_key(s)));
                    }
                }
                // No alive replica is fine — the primary is still working
                // on it; hedging is best-effort.
                let _ = self.dispatch(
                    &to_hedge,
                    true,
                    &mut pending,
                    &mut groups,
                    ClientError::Disconnected,
                );
            }
        }

        // Every pending sample drained, so every request has a response;
        // if that invariant ever breaks, surface a typed error instead of
        // panicking inside the training loop. Walking the batch backwards,
        // an id's last request moves its response out, and only a repeated
        // id clones the response already moved.
        let mut out: Vec<FetchResponse> = Vec::with_capacity(requests.len());
        for req in requests.iter().rev() {
            let resp = match done.remove(&req.sample_id) {
                Some(resp) => resp,
                None => out
                    .iter()
                    .find(|moved| moved.sample_id == req.sample_id)
                    .cloned()
                    .ok_or(ClientError::UnexpectedResponse)?,
            };
            out.push(resp);
        }
        out.reverse();
        Ok(out)
    }
}

impl Drop for FleetTransport {
    fn drop(&mut self) {
        self.job_txs.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::{SplitPoint, StageData};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    /// In-memory per-node stub: serves every sample, optionally slowly,
    /// optionally dying after N calls.
    struct Stub {
        node: u64,
        delay: Duration,
        calls: Arc<AtomicU64>,
        dead: Arc<AtomicBool>,
    }

    impl Stub {
        fn healthy(node: u64) -> Stub {
            Stub {
                node,
                delay: Duration::ZERO,
                calls: Arc::new(AtomicU64::new(0)),
                dead: Arc::new(AtomicBool::new(false)),
            }
        }
    }

    impl FetchTransport for Stub {
        fn configure(&mut self, _: u64, _: PipelineSpec) -> Result<(), ClientError> {
            if self.dead.load(Ordering::SeqCst) {
                return Err(ClientError::Disconnected);
            }
            Ok(())
        }

        fn fetch_many_requests(
            &mut self,
            requests: &[FetchRequest],
        ) -> Result<Vec<FetchResponse>, ClientError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if self.dead.load(Ordering::SeqCst) {
                return Err(ClientError::Disconnected);
            }
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            Ok(requests
                .iter()
                .map(|r| {
                    let mut payload = vec![self.node as u8];
                    payload.extend_from_slice(format!("sample-{}", r.sample_id).as_bytes());
                    FetchResponse {
                        sample_id: r.sample_id,
                        form: r.form,
                        data: StageData::Encoded(payload.into()),
                    }
                })
                .collect())
        }
    }

    /// The node a stub's response came from: its payload's first byte.
    fn served_by(resp: &FetchResponse) -> usize {
        usize::from(resp.data.as_encoded().expect("stubs answer encoded bytes")[0])
    }

    fn reqs(ids: &[u64]) -> Vec<FetchRequest> {
        ids.iter().map(|&id| FetchRequest::new(id, 0, SplitPoint::NONE)).collect()
    }

    #[test]
    fn scatter_gather_covers_every_sample() {
        let map = ShardMap::new(4, 2, 7);
        let stubs: Vec<Stub> = (0..4).map(Stub::healthy).collect();
        let mut fleet = FleetTransport::new(stubs, map.clone(), None);
        fleet.configure(1, PipelineSpec::standard_train()).unwrap();
        let ids: Vec<u64> = (0..64).collect();
        let out = fleet.fetch_many_requests(&reqs(&ids)).unwrap();
        assert_eq!(out.len(), 64);
        for (req, resp) in ids.iter().zip(&out) {
            assert_eq!(*req, resp.sample_id);
            // Served by the sample's primary owner.
            assert_eq!(served_by(resp), map.primary(resp.sample_id));
        }
        let routed: u64 = fleet.stats().requests_per_node.iter().sum();
        assert_eq!(routed, 64);
    }

    #[test]
    fn duplicate_ids_fetch_once_and_fan_out() {
        let map = ShardMap::new(2, 1, 3);
        let stubs: Vec<Stub> = (0..2).map(Stub::healthy).collect();
        let mut fleet = FleetTransport::new(stubs, map, None);
        fleet.configure(1, PipelineSpec::standard_train()).unwrap();
        let out = fleet.fetch_many_requests(&reqs(&[5, 9, 5, 5])).unwrap();
        let ids: Vec<u64> = out.iter().map(|r| r.sample_id).collect();
        assert_eq!(ids, [5, 9, 5, 5]);
        for dup in [&out[2], &out[3]] {
            assert_eq!(dup, &out[0], "every duplicate gets an equal response");
        }
        assert_eq!(out[0].data.as_encoded().map(|b| &b[1..]), Some(&b"sample-5"[..]));
        assert_eq!(fleet.stats().requests_per_node.iter().sum::<u64>(), 2);
    }

    #[test]
    fn dead_node_fails_over_to_replicas_permanently() {
        let map = ShardMap::new(3, 2, 11);
        let victim = map.primary(0);
        let stubs: Vec<Stub> = (0..3)
            .map(|n| {
                let s = Stub::healthy(n);
                if n as usize == victim {
                    s.dead.store(true, Ordering::SeqCst);
                }
                s
            })
            .collect();
        let calls: Vec<Arc<AtomicU64>> = stubs.iter().map(|s| Arc::clone(&s.calls)).collect();
        let mut fleet = FleetTransport::new(stubs, map.clone(), None);
        // Configure already discovers the corpse.
        fleet.configure(1, PipelineSpec::standard_train()).unwrap();
        assert!(fleet.dead[victim]);
        let ids: Vec<u64> = (0..32).collect();
        let out = fleet.fetch_many_requests(&reqs(&ids)).unwrap();
        assert_eq!(out.len(), 32);
        for resp in &out {
            assert_ne!(served_by(resp), victim, "dead node served a sample");
            assert!(map.owners(resp.sample_id).contains(&served_by(resp)));
        }
        // Later batches never route to the dead node again.
        let before = calls[victim].load(Ordering::SeqCst);
        fleet.fetch_many_requests(&reqs(&ids)).unwrap();
        assert_eq!(calls[victim].load(Ordering::SeqCst), before);
        assert_eq!(fleet.alive_nodes(), 2);
    }

    #[test]
    fn mid_flight_death_reroutes_without_losing_samples() {
        let map = ShardMap::new(2, 2, 5);
        let stubs: Vec<Stub> = (0..2).map(Stub::healthy).collect();
        // Node 0 dies on its first fetch (configure survives).
        let die_on_fetch = Arc::clone(&stubs[0].dead);
        let mut fleet = FleetTransport::new(stubs, map, None);
        fleet.configure(1, PipelineSpec::standard_train()).unwrap();
        die_on_fetch.store(true, Ordering::SeqCst);
        let ids: Vec<u64> = (0..16).collect();
        let out = fleet.fetch_many_requests(&reqs(&ids)).unwrap();
        assert_eq!(out.len(), 16);
        assert!(out.iter().all(|r| served_by(r) == 1), "survivor must serve everything");
        assert!(fleet.dead[0]);
        assert_eq!(fleet.stats().failovers, 1);
    }

    #[test]
    fn unreplicated_dead_node_surfaces_disconnect() {
        let map = ShardMap::new(2, 1, 5);
        let stubs: Vec<Stub> = (0..2).map(Stub::healthy).collect();
        stubs[0].dead.store(true, Ordering::SeqCst);
        let mut fleet = FleetTransport::new(stubs, map.clone(), None);
        fleet.configure(1, PipelineSpec::standard_train()).unwrap();
        // Find a sample owned (solely) by node 0.
        let victim_sample = (0..100u64).find(|&id| map.primary(id) == 0).unwrap();
        let err = fleet.fetch_many_requests(&reqs(&[victim_sample])).unwrap_err();
        assert!(matches!(err, ClientError::Disconnected));
    }

    #[test]
    fn hedging_beats_a_straggler_node() {
        let map = ShardMap::new(2, 2, 13);
        let slow_node = map.primary(0);
        let stubs: Vec<Stub> = (0..2)
            .map(|n| {
                let mut s = Stub::healthy(n);
                if n as usize == slow_node {
                    s.delay = Duration::from_millis(300);
                }
                s
            })
            .collect();
        let mut fleet = FleetTransport::new(stubs, map, Some(Duration::from_millis(10)));
        fleet.configure(1, PipelineSpec::standard_train()).unwrap();
        let started = Instant::now();
        let out = fleet.fetch_many_requests(&reqs(&[0])).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(out.len(), 1);
        assert!(
            elapsed < Duration::from_millis(250),
            "hedge did not bound the straggler: {elapsed:?}"
        );
        assert!(fleet.stats().hedges_issued >= 1);
        assert!(fleet.stats().hedge_wins >= 1);
    }

    #[test]
    fn a_slow_node_without_hedging_still_returns_every_sample() {
        let map = ShardMap::new(2, 2, 13);
        let stubs: Vec<Stub> = (0..2)
            .map(|n| {
                let mut s = Stub::healthy(n);
                s.delay = Duration::from_millis(120);
                s
            })
            .collect();
        let mut fleet = FleetTransport::new(stubs, map, None);
        fleet.configure(1, PipelineSpec::standard_train()).unwrap();
        let ids: Vec<u64> = (0..16).collect();
        let out = fleet.fetch_many_requests(&reqs(&ids)).unwrap();
        assert_eq!(out.iter().map(|r| r.sample_id).collect::<Vec<_>>(), ids);
        assert_eq!(fleet.stats().hedges_issued, 0);
    }

    /// A node client that panics on its first fetch, taking its worker
    /// thread down, or, holding a stub, serves as the stub does.
    struct Panics(Option<Stub>);

    impl FetchTransport for Panics {
        fn configure(&mut self, _: u64, _: PipelineSpec) -> Result<(), ClientError> {
            Ok(())
        }

        fn fetch_many_requests(
            &mut self,
            requests: &[FetchRequest],
        ) -> Result<Vec<FetchResponse>, ClientError> {
            match &mut self.0 {
                Some(stub) => stub.fetch_many_requests(requests),
                None => panic!("node client panicked"),
            }
        }
    }

    #[test]
    fn a_worker_that_dies_without_replying_ends_an_unhedged_wait() {
        let mut fleet = FleetTransport::new(vec![Panics(None)], ShardMap::new(1, 1, 5), None);
        fleet.configure(1, PipelineSpec::standard_train()).unwrap();
        let err = fleet.fetch_many_requests(&reqs(&[0, 1, 2])).unwrap_err();
        assert!(matches!(err, ClientError::Disconnected));
    }

    #[test]
    fn a_panicking_node_client_fails_over_to_its_replica() {
        let map = ShardMap::new(2, 2, 5);
        let ids: Vec<u64> = (0..16).collect();
        assert!(ids.iter().any(|&id| map.primary(id) == 0), "node 0 must own a sample");
        // On a thread, so a fetch that never returns fails the test on the
        // timeout below rather than hanging it.
        let (done_tx, done) = mpsc::channel();
        let fetch_ids = ids.clone();
        std::thread::spawn(move || {
            let nodes = vec![Panics(None), Panics(Some(Stub::healthy(1)))];
            let mut fleet = FleetTransport::new(nodes, map, None);
            fleet.configure(1, PipelineSpec::standard_train()).unwrap();
            let out = fleet.fetch_many_requests(&reqs(&fetch_ids));
            let _ = done_tx.send((out, fleet.stats().failovers));
        });
        let (out, failovers) =
            done.recv_timeout(Duration::from_secs(10)).expect("the fetch never returned");
        let out = out.unwrap();
        assert_eq!(out.iter().map(|r| r.sample_id).collect::<Vec<_>>(), ids);
        assert!(out.iter().all(|r| served_by(r) == 1), "the replica serves every sample");
        assert_eq!(failovers, 1);
    }

    #[test]
    fn no_hedging_without_deadline() {
        let map = ShardMap::new(2, 2, 13);
        let stubs: Vec<Stub> = (0..2).map(Stub::healthy).collect();
        let mut fleet = FleetTransport::new(stubs, map, None);
        fleet.configure(1, PipelineSpec::standard_train()).unwrap();
        fleet.fetch_many_requests(&reqs(&[0, 1, 2, 3])).unwrap();
        assert_eq!(fleet.stats().hedges_issued, 0);
        assert_eq!(fleet.stats().hedge_wins, 0);
    }

    #[test]
    fn composes_under_the_transport_trait() {
        fn assert_transport<X: FetchTransport>() {}
        assert_transport::<FleetTransport>();
        assert_transport::<storage::RetryingTransport<FleetTransport>>();
    }
}
