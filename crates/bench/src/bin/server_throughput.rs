//! Serial vs pipelined serving throughput over the real TCP path.
//!
//! Sweeps client-connection counts, beside a swept number of configured
//! but idle connections, against one readiness-driven
//! [`TcpStorageServer`]. Every active connection issues the same number of
//! raw fetches two ways:
//!
//! * **serial** — one request in flight per connection (`fetch_request`
//!   round trips, the pre-multiplexing protocol's behavior);
//! * **pipelined** — the whole batch submitted before the first await
//!   (`fetch_many_requests`), multiplexed on the connection by request id.
//!
//! Reports aggregate requests/second plus per-request p50/p99 latency for
//! each mode and each (connections, idle) cell, prints a table, and
//! optionally writes a JSON artifact.
//!
//! ```sh
//! cargo run --release -p bench --bin server_throughput
//! cargo run --release -p bench --bin server_throughput -- \
//!     --conns 1,8,64 --idle 0,1000 --per-conn 32 \
//!     --json target/server_throughput.json --assert
//! ```
//!
//! `--idle 1000` holds both ends of 1 000 connections in this process:
//! raise `ulimit -n` above 2 100 first.
//!
//! `--assert` exits nonzero unless pipelined reaches 1.5x serial req/s on
//! one connection beside no idle ones, and, for every swept idle count,
//! the serial p50 of one active connection beside them is at most 1.5x its
//! p50 beside none (the CI smoke gates). The 8- and 64-connection rows are
//! printed but not gated: there the one event-loop thread bounds both
//! modes, so pipelining, which saves client CPU, cannot show.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use bench::gate::{fixed, object, Args, Clock, Report, Verdicts};
use netsim::Bandwidth;
use pipeline::{PipelineSpec, SplitPoint};
use storage::{FetchRequest, ObjectStore, ServerConfig, TcpStorageClient, TcpStorageServer};

const SAMPLES: u64 = 16;

struct ModeResult {
    rps: f64,
    p50: Duration,
    p99: Duration,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one (connections, mode) cell and returns aggregate req/s plus the
/// per-request latency distribution. Connections and sessions are set up
/// before the clock starts; a barrier releases every client at once. Each
/// client takes its own start after the barrier and its own end, and the
/// cell's wall time runs from the first start to the last end, so a
/// client that finishes before any other thread is scheduled is timed.
fn run_mode(
    server: &TcpStorageServer,
    seed: u64,
    connections: usize,
    per_conn: usize,
    pipelined: bool,
) -> ModeResult {
    let addr = server.local_addr();
    let barrier = Barrier::new(connections);
    let clients: Vec<(Instant, Instant, Vec<Duration>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut client = TcpStorageClient::connect(addr).expect("connect");
                    client.configure(seed, PipelineSpec::standard_train()).expect("configure");
                    let reqs: Vec<FetchRequest> = (0..per_conn)
                        .map(|i| {
                            FetchRequest::new((t + i) as u64 % SAMPLES, i as u64, SplitPoint::NONE)
                        })
                        .collect();
                    barrier.wait();
                    let started = Instant::now();
                    let mut lats = Vec::with_capacity(per_conn);
                    if pipelined {
                        let ids = client.submit_all(&reqs).expect("submit");
                        for id in ids {
                            client.await_response(id).expect("await");
                            // Completion time relative to batch start: the
                            // latency a pipelined caller actually observes.
                            lats.push(started.elapsed());
                        }
                    } else {
                        for req in &reqs {
                            let sent = Instant::now();
                            client.fetch_request(*req).expect("fetch");
                            lats.push(sent.elapsed());
                        }
                    }
                    (started, Instant::now(), lats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let first_start = clients.iter().map(|c| c.0).min();
    let last_end = clients.iter().map(|c| c.1).max();
    let wall = first_start.zip(last_end).map_or(Duration::ZERO, |(s, e)| e - s);
    let mut latencies: Vec<Duration> = clients.into_iter().flat_map(|c| c.2).collect();
    latencies.sort_unstable();
    let total = (connections * per_conn) as f64;
    ModeResult {
        rps: total / wall.as_secs_f64().max(f64::EPSILON),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
    }
}

/// A depth-1 fetch beside idle connections may cost at most this many
/// times what it costs beside none: an idle connection must cost the event
/// loop nothing.
const IDLE_P50_FACTOR: f64 = 1.5;

/// Pipelined req/s on one connection must reach this many times serial:
/// a pipelined batch pays one round trip where serial fetches pay one
/// each.
const PIPELINE_SPEEDUP: f64 = 1.5;

/// Connects and configures `n` clients that then send nothing.
fn open_idle(server: &TcpStorageServer, seed: u64, n: usize) -> Vec<TcpStorageClient> {
    (0..n)
        .map(|_| {
            let mut client = TcpStorageClient::connect(server.local_addr()).unwrap_or_else(|e| {
                eprintln!("idle connection failed ({e}); {n} need `ulimit -n` above {}", 2 * n);
                std::process::exit(2);
            });
            client.configure(seed, PipelineSpec::standard_train()).expect("configure idle");
            client
        })
        .collect()
}

fn main() {
    let args = Args::parse(
        "server_throughput",
        &[("--conns", "1,8,64"), ("--idle", "0"), ("--per-conn", "32"), ("--repeat", "3")],
    );
    let conns: Vec<usize> = args.list("--conns");
    let idles: Vec<usize> = args.list("--idle");
    let per_conn: usize = args.value("--per-conn");
    let repeat: usize = args.at_least("--repeat", 1);

    let ds = datasets::DatasetSpec::mini(SAMPLES, 47);
    let store = ObjectStore::materialize_dataset(&ds, 0..SAMPLES);
    let server = TcpStorageServer::bind(
        store,
        ServerConfig {
            cores: 4,
            bandwidth: Bandwidth::from_gbps(100.0),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind throughput server");

    // Best-of-N per cell: throughput cells measure capability, and on a
    // loaded host a single scheduler stall otherwise dominates a ~1s cell.
    let best = |connections: usize, pipelined: bool| {
        (0..repeat)
            .map(|_| run_mode(&server, ds.seed, connections, per_conn, pipelined))
            .max_by(|a, b| a.rps.total_cmp(&b.rps))
            .expect("repeat >= 1")
    };
    // (connections, idle, serial, pipelined) per swept cell.
    let mut cells = Vec::new();
    for &idle in &idles {
        let parked = open_idle(&server, ds.seed, idle);
        for &connections in &conns {
            cells.push((connections, idle, best(connections, false), best(connections, true)));
        }
        drop(parked);
    }
    server.shutdown();

    let mut report = Report::new("server_throughput").param("per_conn", per_conn);
    let mode = |m: &ModeResult| {
        object(&[
            ("rps", fixed(m.rps, 1)),
            ("p50_us", m.p50.as_micros().to_string()),
            ("p99_us", m.p99.as_micros().to_string()),
        ])
    };
    for (connections, idle, serial, pipelined) in &cells {
        report.row([
            ("connections", connections.to_string()),
            ("idle", idle.to_string()),
            ("serial", mode(serial)),
            ("pipelined", mode(pipelined)),
        ]);
    }
    report.publish(&args);

    let mut verdicts = Verdicts::default();
    let alone = cells.iter().find(|c| c.0 == 1 && c.1 == 0);
    verdicts.check(
        Clock::Virtual,
        alone.is_some(),
        "--assert needs the 1 connection, 0 idle point swept",
    );
    if let Some((_, _, serial, pipelined)) = alone {
        let speedup = pipelined.rps / serial.rps.max(f64::EPSILON);
        verdicts.check(
            Clock::Wall,
            speedup >= PIPELINE_SPEEDUP,
            format!(
                "pipelined ({:.0} rps) is {speedup:.2}x serial ({:.0} rps) on 1 connection, \
                 under {PIPELINE_SPEEDUP}x",
                pipelined.rps, serial.rps
            ),
        );
        for (_, idle, beside, _) in cells.iter().filter(|c| c.0 == 1 && c.1 > 0) {
            verdicts.check(
                Clock::Wall,
                beside.p50 <= serial.p50.mul_f64(IDLE_P50_FACTOR),
                format!(
                    "serial p50 of 1 connection is {} us beside {idle} idle, over \
                     {IDLE_P50_FACTOR}x its {} us beside none",
                    beside.p50.as_micros(),
                    serial.p50.as_micros()
                ),
            );
        }
    }
    verdicts.finish(&args);
}
