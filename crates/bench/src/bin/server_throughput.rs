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

use netsim::Bandwidth;
use pipeline::{PipelineSpec, SplitPoint};
use storage::{FetchRequest, ObjectStore, ServerConfig, TcpStorageClient, TcpStorageServer};

const SAMPLES: u64 = 16;

struct ModeResult {
    rps: f64,
    p50: Duration,
    p99: Duration,
}

struct Row {
    connections: usize,
    idle: usize,
    serial: ModeResult,
    pipelined: ModeResult,
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
/// before the clock starts; a barrier releases every client at once.
fn run_mode(
    server: &TcpStorageServer,
    seed: u64,
    connections: usize,
    per_conn: usize,
    pipelined: bool,
) -> ModeResult {
    let addr = server.local_addr();
    let barrier = Barrier::new(connections + 1);
    let (wall, mut latencies) = std::thread::scope(|s| {
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
                    let mut lats = Vec::with_capacity(per_conn);
                    if pipelined {
                        let started = Instant::now();
                        let ids = client.submit_all(&reqs).expect("submit");
                        for id in ids {
                            client.await_response(id).expect("await");
                            // Completion time relative to batch start: the
                            // latency a pipelined caller actually observes.
                            lats.push(started.elapsed());
                        }
                    } else {
                        for req in &reqs {
                            let started = Instant::now();
                            client.fetch_request(*req).expect("fetch");
                            lats.push(started.elapsed());
                        }
                    }
                    lats
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let lats: Vec<Duration> =
            handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect();
        (started.elapsed(), lats)
    });
    latencies.sort_unstable();
    let total = (connections * per_conn) as f64;
    ModeResult {
        rps: total / wall.as_secs_f64().max(f64::EPSILON),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
    }
}

fn json_escape_free_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "0.0".to_string()
    }
}

fn render_json(per_conn: usize, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"server_throughput\",\n");
    out.push_str(&format!("  \"per_conn\": {per_conn},\n  \"rows\": [\n"));
    for (i, row) in rows.iter().enumerate() {
        let mode = |m: &ModeResult| {
            format!(
                "{{\"rps\": {}, \"p50_us\": {}, \"p99_us\": {}}}",
                json_escape_free_number(m.rps),
                m.p50.as_micros(),
                m.p99.as_micros()
            )
        };
        out.push_str(&format!(
            "    {{\"connections\": {}, \"idle\": {}, \"serial\": {}, \"pipelined\": {}}}{}\n",
            row.connections,
            row.idle,
            mode(&row.serial),
            mode(&row.pipelined),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A depth-1 fetch beside idle connections may cost at most this many
/// times what it costs beside none (ROADMAP item 2's gate).
const IDLE_P50_FACTOR: f64 = 1.5;

/// Pipelined req/s on one connection must reach this many times serial:
/// a pipelined batch pays one round trip where serial fetches pay one
/// each.
const PIPELINE_SPEEDUP: f64 = 1.5;

fn parse_counts(flag: &str, list: &str) -> Vec<usize> {
    list.split(',')
        .map(|s| s.trim().parse().unwrap_or_else(|_| panic!("{flag} takes integers, got '{s}'")))
        .collect()
}

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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut conns: Vec<usize> = vec![1, 8, 64];
    let mut idles: Vec<usize> = vec![0];
    let mut per_conn = 32usize;
    let mut repeat = 3usize;
    let mut json_path: Option<String> = None;
    let mut assert_gate = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--conns" => {
                conns = parse_counts(
                    "--conns",
                    it.next().expect("--conns needs a comma-separated list"),
                );
            }
            "--idle" => {
                idles =
                    parse_counts("--idle", it.next().expect("--idle needs a comma-separated list"));
            }
            "--per-conn" => {
                per_conn = it
                    .next()
                    .expect("--per-conn needs a count")
                    .parse()
                    .expect("per-conn is an integer");
            }
            "--repeat" => {
                repeat = it
                    .next()
                    .expect("--repeat needs a count")
                    .parse()
                    .expect("repeat is an integer");
                assert!(repeat >= 1, "--repeat must be >= 1");
            }
            "--json" => json_path = Some(it.next().expect("--json needs a path").clone()),
            "--assert" => assert_gate = true,
            other => {
                eprintln!(
                    "unknown flag '{other}'; flags: --conns --idle --per-conn --repeat --json --assert"
                );
                std::process::exit(2);
            }
        }
    }

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

    println!(
        "server_throughput: {per_conn} raw fetches per connection, 4 server cores, best of {repeat}"
    );
    println!(
        "{:>11} {:>6}  {:>13} {:>9} {:>9}   {:>13} {:>9} {:>9}  {:>8}",
        "connections",
        "idle",
        "serial rps",
        "p50 us",
        "p99 us",
        "pipelined rps",
        "p50 us",
        "p99 us",
        "speedup"
    );
    let mut rows = Vec::new();
    // Best-of-N per cell: throughput cells measure capability, and on a
    // loaded host a single scheduler stall otherwise dominates a ~1s cell.
    let best = |server: &TcpStorageServer, connections: usize, pipelined: bool| {
        (0..repeat)
            .map(|_| run_mode(server, ds.seed, connections, per_conn, pipelined))
            .max_by(|a, b| a.rps.total_cmp(&b.rps))
            .expect("repeat >= 1")
    };
    for &idle in &idles {
        let parked = open_idle(&server, ds.seed, idle);
        for &connections in &conns {
            let serial = best(&server, connections, false);
            let pipelined = best(&server, connections, true);
            println!(
                "{:>11} {:>6}  {:>13.0} {:>9} {:>9}   {:>13.0} {:>9} {:>9}  {:>7.2}x",
                connections,
                idle,
                serial.rps,
                serial.p50.as_micros(),
                serial.p99.as_micros(),
                pipelined.rps,
                pipelined.p50.as_micros(),
                pipelined.p99.as_micros(),
                pipelined.rps / serial.rps.max(f64::EPSILON)
            );
            rows.push(Row { connections, idle, serial, pipelined });
        }
        drop(parked);
    }

    if let Some(path) = json_path {
        std::fs::write(&path, render_json(per_conn, &rows)).expect("write JSON artifact");
        println!("wrote {path}");
    }

    if assert_gate {
        let Some(alone) = rows.iter().find(|r| r.connections == 1 && r.idle == 0) else {
            eprintln!("FAIL: --assert needs the 1 connection, 0 idle point swept");
            std::process::exit(1);
        };
        let mut failed = false;
        let speedup = alone.pipelined.rps / alone.serial.rps.max(f64::EPSILON);
        if speedup < PIPELINE_SPEEDUP {
            eprintln!(
                "FAIL: pipelined ({:.0} rps) is {speedup:.2}x serial ({:.0} rps) on 1 connection, under {PIPELINE_SPEEDUP}x",
                alone.pipelined.rps, alone.serial.rps
            );
            failed = true;
        } else {
            println!(
                "assert ok: pipelined is {speedup:.2}x serial on 1 connection, at least {PIPELINE_SPEEDUP}x"
            );
        }
        for row in rows.iter().filter(|r| r.connections == 1 && r.idle > 0) {
            let limit = alone.serial.p50.mul_f64(IDLE_P50_FACTOR);
            if row.serial.p50 > limit {
                eprintln!(
                    "FAIL: serial p50 of 1 connection is {} us beside {} idle, over {IDLE_P50_FACTOR}x its {} us beside none",
                    row.serial.p50.as_micros(),
                    row.idle,
                    alone.serial.p50.as_micros()
                );
                failed = true;
            } else {
                println!(
                    "assert ok: serial p50 of 1 connection is {} us beside {} idle, within {IDLE_P50_FACTOR}x its {} us beside none",
                    row.serial.p50.as_micros(),
                    row.idle,
                    alone.serial.p50.as_micros()
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }

    server.shutdown();
}
