//! The per-layer table: every layer timed from outside, through its public
//! functions, on one small seeded corpus.
//!
//! The table is the same whichever workload's traced run prints it, so a
//! layer's number can be read against any workload's end-to-end metric
//! (README.md says which should move which). Cells are short (a traced run
//! has to fit the driver's time cap) and carry no bound; they locate a
//! change, the end-to-end metrics judge it.

use std::time::{Duration, Instant};

use crate::api::{
    self, DirectClients, Fixtures, LiveCorpus, LiveStack, PlanSim, ServeRig, LIVE_BATCH,
    PLAN_SAMPLES,
};
use crate::measure::{cpu_seconds, percentile, seconds_per_call};
use crate::report::Metric;
use crate::trace::{self, Trace};
use crate::workloads::live_window;

/// `(name, unit, higher is better)` of every per-layer metric, in print
/// order. `BENCHMARK.json` lists the same names (a unit test checks).
pub const PER_LAYER: [(&str, &str, bool); 59] = [
    ("codec.decode_mb_per_s", "MB/s", true),
    ("codec.decode_mpx_per_s", "Mpx/s", true),
    ("codec.encode_mpx_per_s", "Mpx/s", true),
    ("imagery.render_ms_per_mpx", "ms", false),
    ("datasets.materialize_ms_per_sample", "ms", false),
    ("pipeline.op_us.decode", "us", false),
    ("pipeline.op_us.random_resized_crop", "us", false),
    ("pipeline.op_us.random_horizontal_flip", "us", false),
    ("pipeline.op_us.to_tensor", "us", false),
    ("pipeline.op_us.normalize", "us", false),
    ("pipeline.suffix_us_per_sample", "us", false),
    ("pipeline.collate_us_per_batch", "us", false),
    ("storage.wire.crc32_gb_per_s", "GB/s", true),
    ("storage.wire.encode_response_gb_per_s", "GB/s", true),
    ("storage.wire.decode_response_gb_per_s", "GB/s", true),
    ("storage.wire.request_roundtrip_ns", "ns", false),
    ("storage.executor.raw_us_per_sample", "us", false),
    ("storage.executor.prefix_us_per_sample", "us", false),
    ("storage.object_store.get_ns", "ns", false),
    ("storage.serve.fetch_p50_us.idle0", "us", false),
    ("storage.serve.fetch_p50_us.idle1k", "us", false),
    ("storage.serve.fetch_p99_us.idle1k", "us", false),
    ("storage.serve.cpu_us_per_fetch.idle1k", "us", false),
    ("storage.serve.idle_cpu_pct", "%", false),
    ("storage.serve.pipelined_rps", "1/s", true),
    ("netsim.token_bucket_ns_per_call", "ns", false),
    ("netsim.meter_record_ns", "ns", false),
    ("tenant.dwrr_push_pop_ns", "ns", false),
    ("fleet.fetch_ms_per_batch", "ms", false),
    ("fleet.scatter_overhead_us_per_sample", "us", false),
    ("fleet.node_bytes_share_max", "ratio", false),
    ("fleet.hedges", "count", false),
    ("fleet.failovers", "count", false),
    ("cache.hit_rate", "ratio", true),
    ("cache.rejections", "count", false),
    ("cache.evictions", "count", false),
    ("cache.hit_ns", "ns", false),
    ("cache.insert_ns", "ns", false),
    ("core.loader.fetch_wait_share", "ratio", false),
    ("core.loader.suffix_collate_share", "ratio", true),
    ("core.loader.step_p90_ms", "ms", false),
    ("core.profile_ms_40k", "ms", false),
    ("core.plan_ms.no-off", "ms", false),
    ("core.plan_ms.all-off", "ms", false),
    ("core.plan_ms.fastflow", "ms", false),
    ("core.plan_ms.resize-off", "ms", false),
    ("core.plan_ms.sophon", "ms", false),
    ("core.plan.wire_bytes_per_sample.no-off", "bytes", false),
    ("core.plan.wire_bytes_per_sample.all-off", "bytes", false),
    ("core.plan.wire_bytes_per_sample.fastflow", "bytes", false),
    ("core.plan.wire_bytes_per_sample.resize-off", "bytes", false),
    ("core.plan.wire_bytes_per_sample.sophon", "bytes", false),
    ("core.plan.offloaded_share.sophon", "ratio", true),
    ("core.run_training_fleet_cached_ms", "ms", false),
    ("core.adaptive_epoch_ms", "ms", false),
    ("core.adaptive_replans", "count", false),
    ("cluster.sim_samples_per_s", "1/s", true),
    ("cluster.sim_vs_live_rel_err", "ratio", false),
    ("trace.overhead_pct", "%", false),
];

/// Samples in the layer corpus: two loader batches per epoch.
const LAYER_SAMPLES: u64 = 64;
/// Wall budget of one single-call cell.
const CELL: Duration = Duration::from_millis(100);
/// Depth-1 fetches behind the idle-connection percentiles (p99 needs ~10
/// beyond it) and behind the no-idle median.
const SERVE_FETCHES: u64 = 1_000;
const SERVE_FETCHES_IDLE0: u64 = 300;
const SERVE_IDLE: usize = 1_000;
const IDLE_WATCH: Duration = Duration::from_millis(500);
const PROBE_EPOCHS: u64 = 2;

/// Values gathered by name, then emitted in `PER_LAYER` order.
struct Table {
    values: Vec<(String, f64)>,
}

impl Table {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// Times `op` for [`CELL`] under a span and returns seconds per call.
    fn cell(trace: &Trace, name: &'static str, burst: usize, op: impl FnMut()) -> f64 {
        let _span = trace::span(trace, name);
        seconds_per_call(CELL, burst, op)
    }
}

/// Measures every per-layer metric. `trace_overhead_pct` alone comes from
/// the caller, which derives it from the traced workload's own windows.
pub fn measure(seed: u64, trace_overhead_pct: f64, trace: &Trace) -> Result<Vec<Metric>, String> {
    let mut t = Table { values: Vec::new() };
    t.put("trace.overhead_pct", trace_overhead_pct);
    let corpus = {
        let _span = trace::span(trace, "layers.corpus");
        LiveCorpus::build(LAYER_SAMPLES, seed)?
    };
    single_call_cells(&corpus, trace, &mut t)?;
    wide_probe(&corpus, trace, &mut t)?;
    capped_probe(&corpus, trace, &mut t)?;
    serve_probe(&corpus, trace, &mut t)?;
    planner_cells(trace, &mut t)?;

    PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            t.values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| Metric::new(*name, unit, *v))
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))
        })
        .collect()
}

fn single_call_cells(corpus: &LiveCorpus, trace: &Trace, t: &mut Table) -> Result<(), String> {
    use std::hint::black_box;
    let mut fx = Fixtures::build(corpus)?;
    let mpx = fx.image_pixels() as f64 / 1e6;

    let s = Table::cell(trace, "codec.decode", 1, || {
        black_box(fx.codec_decode());
    });
    t.put("codec.decode_mb_per_s", fx.encoded_bytes() as f64 / 1e6 / s);
    t.put("codec.decode_mpx_per_s", mpx / s);
    let s = Table::cell(trace, "codec.encode", 1, || {
        black_box(fx.codec_encode());
    });
    t.put("codec.encode_mpx_per_s", mpx / s);
    let s = Table::cell(trace, "imagery.render", 1, || {
        black_box(fx.imagery_render());
    });
    t.put("imagery.render_ms_per_mpx", s * 1e3 / mpx);
    let s = Table::cell(trace, "datasets.materialize", 1, || {
        black_box(fx.datasets_materialize());
    });
    t.put("datasets.materialize_ms_per_sample", s * 1e3);

    for (i, op) in fx.op_names().into_iter().enumerate() {
        let s = Table::cell(trace, "pipeline.op", 1, || {
            black_box(fx.pipeline_op(i));
        });
        t.put(format!("pipeline.op_us.{op}"), s * 1e6);
    }
    let s = Table::cell(trace, "pipeline.run_suffix", 1, || {
        black_box(fx.pipeline_suffix());
    });
    t.put("pipeline.suffix_us_per_sample", s * 1e6);
    let s = Table::cell(trace, "pipeline.collate", 1, || {
        black_box(fx.pipeline_collate());
    });
    t.put("pipeline.collate_us_per_batch", s * 1e6);

    let frame_gb = fx.response_frame_bytes() as f64 / 1e9;
    let s = Table::cell(trace, "wire.crc32", 8, || {
        black_box(fx.wire_crc32());
    });
    t.put("storage.wire.crc32_gb_per_s", frame_gb / s);
    let s = Table::cell(trace, "wire.encode_response_into", 8, || {
        black_box(fx.wire_encode_response());
    });
    t.put("storage.wire.encode_response_gb_per_s", frame_gb / s);
    let s = Table::cell(trace, "wire.decode_response_framed", 8, || {
        black_box(fx.wire_decode_response());
    });
    t.put("storage.wire.decode_response_gb_per_s", frame_gb / s);
    let s = Table::cell(trace, "wire.request_roundtrip", 1_000, || {
        black_box(fx.wire_request_roundtrip());
    });
    t.put("storage.wire.request_roundtrip_ns", s * 1e9);

    let s = Table::cell(trace, "executor.execute.raw", 100, || {
        black_box(fx.executor_raw());
    });
    t.put("storage.executor.raw_us_per_sample", s * 1e6);
    let s = Table::cell(trace, "executor.execute.prefix", 1, || {
        black_box(fx.executor_prefix());
    });
    t.put("storage.executor.prefix_us_per_sample", s * 1e6);
    let mut id = 0u64;
    let s = Table::cell(trace, "object_store.get", 1_000, || {
        id += 1;
        black_box(fx.object_store_get(id));
    });
    t.put("storage.object_store.get_ns", s * 1e9);

    let s = Table::cell(trace, "cache.get", 1_000, || {
        black_box(fx.cache_hit());
    });
    t.put("cache.hit_ns", s * 1e9);
    let s = Table::cell(trace, "cache.insert", 1_000, || {
        black_box(fx.cache_insert());
    });
    t.put("cache.insert_ns", s * 1e9);
    let s = Table::cell(trace, "token_bucket.delay_for", 1_000, || {
        black_box(fx.token_bucket());
    });
    t.put("netsim.token_bucket_ns_per_call", s * 1e9);
    let s = Table::cell(trace, "meter.record", 1_000, || fx.meter_record());
    t.put("netsim.meter_record_ns", s * 1e9);
    let mut i = 0u32;
    let s = Table::cell(trace, "dwrr.push_pop", 1_000, || {
        i = i.wrapping_add(1);
        black_box(fx.dwrr_push_pop(i));
    });
    t.put("tenant.dwrr_push_pop_ns", s * 1e9);
    Ok(())
}

/// Fleet cells on the uncapped fleet: the link never waits, so the batch
/// time is scatter, server CPU and gather.
fn wide_probe(corpus: &LiveCorpus, trace: &Trace, t: &mut Table) -> Result<(), String> {
    let _span = trace::span(trace, "layers.wide_probe");
    let mut live = api::live_wide(corpus, &None)?;
    live.run_epoch(0, None, |_| {})?;
    let window = live_window(&mut live, 1, PROBE_EPOCHS, &None);
    if let Some(e) = window.error {
        return Err(format!("wide probe: {e}"));
    }
    let fleet_side = live.stack().fleet_side();
    t.put("fleet.fetch_ms_per_batch", fleet_side.seconds * 1e3 / fleet_side.calls.max(1) as f64);
    t.put("fleet.node_bytes_share_max", live.node_bytes_share_max());
    let stats = live.stack().fleet_stats();
    t.put("fleet.hedges", stats.hedges_issued as f64);
    t.put("fleet.failovers", stats.failovers as f64);

    // The same 32 requests through the fleet and straight to the nodes,
    // both with every node working at once.
    let mut direct = DirectClients::connect(&live, corpus)?;
    let mut failed = false;
    let via_fleet = seconds_per_call(CELL * 2, 1, || {
        failed |= live.fetch_plan_batch(corpus) != Ok(LIVE_BATCH);
    });
    let via_direct = seconds_per_call(CELL * 2, 1, || {
        failed |= direct.fetch_batch() != Ok(LIVE_BATCH);
    });
    if failed {
        return Err("scatter-overhead cell lost a response".to_string());
    }
    t.put(
        "fleet.scatter_overhead_us_per_sample",
        (via_fleet - via_direct) * 1e6 / LIVE_BATCH as f64,
    );
    drop(direct);
    live.shutdown();
    Ok(())
}

/// Cache and loader cells on the capped fleet, where the link is the limit
/// and time waiting for fetches is what a loader change would hide.
fn capped_probe(corpus: &LiveCorpus, trace: &Trace, t: &mut Table) -> Result<(), String> {
    let _span = trace::span(trace, "layers.capped_probe");
    let mut live = api::live_capped_cached(corpus, &None)?;
    let started = Instant::now();
    live.run_epoch(0, None, |_| {})?;
    let cold = started.elapsed().as_secs_f64();
    let simulated = corpus.simulated_cold_epoch_seconds()?;
    t.put("cluster.sim_vs_live_rel_err", (simulated - cold).abs() / cold);

    let before = live.stack().cache_stats().unwrap_or_default();
    let fetch_before = live.stack().loader_side().seconds;
    let window = live_window(&mut live, 1, PROBE_EPOCHS, &None);
    if let Some(e) = window.error {
        return Err(format!("capped probe: {e}"));
    }
    let after = live.stack().cache_stats().unwrap_or_default();
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    t.put("cache.hit_rate", (after.hits - before.hits) as f64 / lookups.max(1) as f64);
    t.put("cache.rejections", after.rejections as f64);
    t.put("cache.evictions", after.evictions as f64);
    let fetch_wait = (live.stack().loader_side().seconds - fetch_before) / window.wall_s;
    t.put("core.loader.fetch_wait_share", fetch_wait);
    t.put("core.loader.suffix_collate_share", 1.0 - fetch_wait);
    t.put("core.loader.step_p90_ms", window.step_p90_ms());
    live.shutdown();
    Ok(())
}

fn fetch_latencies(rig: &mut ServeRig, n: u64) -> Result<(Vec<f64>, f64), String> {
    let cpu_before = cpu_seconds();
    let mut us = Vec::with_capacity(n as usize);
    for i in 0..n {
        let started = Instant::now();
        if !rig.fetch(i)? {
            return Err(format!("serve probe: fetch {i} returned the wrong payload"));
        }
        us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    us.sort_by(f64::total_cmp);
    Ok((us, (cpu_seconds() - cpu_before) * 1e6 / n as f64))
}

/// Serving-loop cells: the same depth-1 fetch with no idle connections and
/// with a thousand, the cost of holding them, and pipelined bursts.
fn serve_probe(corpus: &LiveCorpus, trace: &Trace, t: &mut Table) -> Result<(), String> {
    let _span = trace::span(trace, "layers.serve_probe");
    let mut rig = ServeRig::bind(corpus)?;
    fetch_latencies(&mut rig, 64)?;
    let (idle0, _) = fetch_latencies(&mut rig, SERVE_FETCHES_IDLE0)?;
    t.put("storage.serve.fetch_p50_us.idle0", percentile(&idle0, 0.5));
    let mut lost = false;
    let burst_s = seconds_per_call(CELL * 2, 1, || {
        lost |= rig.fetch_burst(32) != Ok(32);
    });
    if lost {
        return Err("serve probe: a pipelined burst lost a response".to_string());
    }
    t.put("storage.serve.pipelined_rps", 32.0 / burst_s);

    rig.add_connections(SERVE_IDLE)?;
    let (idle1k, cpu_us) = fetch_latencies(&mut rig, SERVE_FETCHES)?;
    t.put("storage.serve.fetch_p50_us.idle1k", percentile(&idle1k, 0.5));
    t.put("storage.serve.fetch_p99_us.idle1k", percentile(&idle1k, 0.99));
    t.put("storage.serve.cpu_us_per_fetch.idle1k", cpu_us);

    // Nobody sends: whatever CPU the process burns now is the serving
    // loop scanning its idle connections.
    let cpu_before = cpu_seconds();
    std::thread::sleep(IDLE_WATCH);
    let idle_cpu = (cpu_seconds() - cpu_before) / IDLE_WATCH.as_secs_f64();
    t.put("storage.serve.idle_cpu_pct", idle_cpu * 100.0);
    rig.confined_server_threads()?;
    rig.shutdown();
    Ok(())
}

fn planner_cells(trace: &Trace, t: &mut Table) -> Result<(), String> {
    let _span = trace::span(trace, "layers.planner_cells");
    let ms = |started: Instant| started.elapsed().as_secs_f64() * 1e3;
    let sim = PlanSim::build();
    let started = Instant::now();
    std::hint::black_box(sim.profile());
    t.put("core.profile_ms_40k", ms(started));

    for (i, name) in sim.policy_names().into_iter().enumerate() {
        let started = Instant::now();
        std::hint::black_box(sim.plan_only(i)?);
        t.put(format!("core.plan_ms.{name}"), ms(started));
        let outcome = sim.run_policy(i)?;
        t.put(
            format!("core.plan.wire_bytes_per_sample.{name}"),
            outcome.traffic_bytes as f64 / PLAN_SAMPLES as f64,
        );
        if name == "sophon" {
            t.put(
                "core.plan.offloaded_share.sophon",
                outcome.offloaded_samples as f64 / PLAN_SAMPLES as f64,
            );
        }
    }
    let started = Instant::now();
    std::hint::black_box(sim.fleet_cached()?);
    t.put("core.run_training_fleet_cached_ms", ms(started));
    let started = Instant::now();
    let adaptive = sim.adaptive_epoch(true)?;
    t.put("core.adaptive_epoch_ms", ms(started));
    t.put("core.adaptive_replans", adaptive.replans as f64);
    let started = Instant::now();
    let samples = sim.simulate_no_off()?;
    t.put("cluster.sim_samples_per_s", samples as f64 / started.elapsed().as_secs_f64());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::is_valid_name;

    #[test]
    fn per_layer_names_are_legal_unique_and_in_the_manifest() {
        let manifest = include_str!("../../../../../BENCHMARK.json");
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, higher) in PER_LAYER {
            assert!(is_valid_name(name), "{name}");
            assert!(unit.len() <= 16, "{unit}");
            assert!(seen.insert(name), "{name} listed twice");
            let needle = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                if higher { "higher" } else { "lower" }
            );
            assert!(manifest.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
    }

    #[test]
    fn op_cells_cover_the_standard_pipeline() {
        for op in
            ["decode", "random_resized_crop", "random_horizontal_flip", "to_tensor", "normalize"]
        {
            let name = format!("pipeline.op_us.{op}");
            assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "{name}");
        }
    }
}
