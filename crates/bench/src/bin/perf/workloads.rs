//! The four workloads. Each is a closed loop driven by one thread: the next
//! batch, request or round is issued only after the previous one completed.
//!
//! Every timed window is a fixed amount of work and never a wall-clock
//! loop: the constants below are sized so a window lasts about
//! [`REFERENCE_SECONDS`] on the reference host in one of its slow hours
//! (README.md) and 14-17 s in a quiet one, and `--seconds` scales the amount
//! of work proportionally.
//!
//! A window is a run of equal units of work (an epoch, a cycle over the
//! stored samples, a round), each timed on its own. The clock-dependent
//! metrics are read off the window's quietest unit, not its mean: the
//! reference host slows by a third for seconds to minutes at a time, which
//! moves a window's mean by as much and its fastest unit by half of that
//! (README.md has the measurements).

use std::time::Instant;

use crate::api::{
    self, Live, LiveCorpus, LiveStack, PlanSim, ServeRig, LIVE_SAMPLES, PLAN_SAMPLES, SERVE_SAMPLES,
};
use crate::measure::{cpu_seconds, median, peak_rss_mb, percentile, Fnv};
use crate::report::{Metric, RunResult, END_TO_END};
use crate::trace::{self, Trace};

/// Why each exists is recorded in README.md and `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] =
    ["live_wide", "live_capped_cached", "serve_idle1k", "plan_sim_40k"];

/// Window length the work constants are sized for. The sizing uses the
/// slow-hour rates (190 and 94 samples/s, 580 requests/s, 0.21 s a round)
/// because the driver's 92 runs share one total time cap.
pub const REFERENCE_SECONDS: f64 = 20.0;
/// Slices the untraced and the traced quarter window are each cut into.
const TRACE_SLICES: u64 = 5;
/// Timed epochs of `live_wide` (after one warm-up epoch).
const WIDE_EPOCHS: u64 = 20;
/// Timed warm epochs of `live_capped_cached` (after the cold epoch).
const CAPPED_EPOCHS: u64 = 10;
/// Timed cycles of `serve_idle1k`: each is one depth-1 fetch of every stored
/// sample (11 520 requests in all), so bytes per request are exact.
const SERVE_CYCLES: u64 = 180;
const SERVE_IDLE: usize = 1_000;
/// Timed rounds of `plan_sim_40k` (after `PLAN_WARMUP_ROUNDS`).
const PLAN_ROUNDS: u64 = 90;
/// Untimed rounds that count as set-up; eight keep `setup_s` above a second.
const PLAN_WARMUP_ROUNDS: u64 = 8;
/// Set-ups per end-to-end run of `plan_sim_40k`; `setup_s` is their median.
/// The socket workloads set up once: materialising their corpus already
/// takes 4-7 s, long enough to repeat on its own.
const PLAN_SETUP_REPEATS: usize = 5;
/// Open files `serve_idle1k` needs: both ends of 1 001 connections.
pub const SERVE_FDS_NEEDED: u64 = 2_200;

fn scaled(work: u64, seconds: f64) -> u64 {
    ((work as f64 * seconds / REFERENCE_SECONDS).round() as u64).max(1)
}

/// One unit of a window: an epoch, a cycle or a round. Every unit of a
/// window is the same amount of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    pub samples: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Median gap between the unit's steps, in milliseconds.
    pub step_p50_ms: f64,
}

/// What one timed window measured, before it is turned into metrics.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub samples: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub wire_bytes: u64,
    /// Gap before each completed step, in milliseconds.
    pub step_ms: Vec<f64>,
    pub units: Vec<Unit>,
    pub attempted: u64,
    pub failed: u64,
    /// The error that ended the window early, if one did.
    pub error: Option<String>,
}

impl Window {
    pub fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.wall_s.max(f64::EPSILON)
    }

    fn sorted_steps(&self) -> Vec<f64> {
        let mut sorted = self.step_ms.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    pub fn step_p50_ms(&self) -> f64 {
        percentile(&self.sorted_steps(), 0.5)
    }

    pub fn step_p90_ms(&self) -> f64 {
        percentile(&self.sorted_steps(), 0.9)
    }

    /// The lowest `of` over the window's units: what the program does when
    /// the host leaves it alone. Interference only ever adds time, so the
    /// quietest of many equal units repeats where their mean does not.
    fn quietest(&self, of: impl Fn(&Unit) -> f64) -> f64 {
        self.units.iter().map(of).fold(f64::INFINITY, f64::min)
    }

    /// Adds a later slice of the same window to this one.
    fn absorb(&mut self, slice: Window) {
        self.samples += slice.samples;
        self.wall_s += slice.wall_s;
        self.cpu_s += slice.cpu_s;
        self.wire_bytes += slice.wire_bytes;
        self.step_ms.extend(slice.step_ms);
        self.units.extend(slice.units);
        self.attempted += slice.attempted;
        self.failed += slice.failed;
        self.error = self.error.take().or(slice.error);
    }
}

/// Starts a window's clocks; `finish` reads them again.
struct Clocks {
    wall: Instant,
    cpu: f64,
    last_step: Instant,
    unit_wall: Instant,
    unit_cpu: f64,
    /// Index in `Window::step_ms` of the current unit's first step.
    unit_first_step: usize,
}

impl Clocks {
    fn start() -> Clocks {
        let wall = Instant::now();
        let cpu = cpu_seconds();
        Clocks { wall, cpu, last_step: wall, unit_wall: wall, unit_cpu: cpu, unit_first_step: 0 }
    }

    fn step(&mut self, window: &mut Window) {
        let now = Instant::now();
        window.step_ms.push(now.duration_since(self.last_step).as_secs_f64() * 1e3);
        self.last_step = now;
    }

    /// Closes the unit that delivered `samples` and starts the next one.
    fn end_unit(&mut self, window: &mut Window, samples: u64) {
        let (now, cpu) = (Instant::now(), cpu_seconds());
        window.units.push(Unit {
            samples,
            wall_s: now.duration_since(self.unit_wall).as_secs_f64(),
            cpu_s: cpu - self.unit_cpu,
            step_p50_ms: median(&window.step_ms[self.unit_first_step..]),
        });
        self.unit_wall = now;
        self.unit_cpu = cpu;
        self.unit_first_step = window.step_ms.len();
    }

    fn finish(&self, window: &mut Window) {
        window.wall_s = self.wall.elapsed().as_secs_f64();
        window.cpu_s = cpu_seconds() - self.cpu;
    }
}

/// The six end-to-end metrics of a window, in `END_TO_END` order.
pub fn end_to_end_metrics(
    window: &Window,
    wire_bytes_per_sample: f64,
    setup_s: f64,
) -> Vec<Metric> {
    let ksamples = |u: &Unit| u.samples.max(1) as f64 / 1e3;
    let values = [
        1e3 / window.quietest(|u| u.wall_s / ksamples(u)),
        window.quietest(|u| u.step_p50_ms),
        wire_bytes_per_sample,
        window.quietest(|u| u.cpu_s / ksamples(u)),
        peak_rss_mb(),
        setup_s,
    ];
    END_TO_END.iter().zip(values).map(|(def, v)| Metric::new(def.name, def.unit, v)).collect()
}

/// Runs `setup` `repeats` times, dropping each rig before building the next,
/// and returns the last rig with the median set-up time. The first set-up is
/// timed from process start.
fn repeat_setup<R>(
    process_start: Instant,
    repeats: usize,
    mut setup: impl FnMut() -> Result<R, String>,
) -> Result<(R, f64), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut started = process_start;
    let mut rig = setup()?;
    times.push(started.elapsed().as_secs_f64());
    for _ in 1..repeats {
        drop(rig);
        started = Instant::now();
        rig = setup()?;
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((rig, median(&times)))
}

/// Parameters of one run.
pub struct RunSpec {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub process_start: Instant,
    pub fd_limit: u64,
}

/// What a workload hands back.
pub struct Outcome {
    pub result: RunResult,
    /// On a traced run, `samples_per_s` of the untraced and of the traced
    /// quarter window; their difference is the tracing overhead.
    pub overhead: Option<(f64, f64)>,
}

pub fn run(spec: &RunSpec, trace: &Trace) -> Result<Outcome, String> {
    match spec.workload {
        "live_wide" => run_live(spec, trace, WIDE_EPOCHS, |corpus| api::live_wide(corpus, trace)),
        "live_capped_cached" => {
            run_live(spec, trace, CAPPED_EPOCHS, |corpus| api::live_capped_cached(corpus, trace))
        }
        "serve_idle1k" => run_serve(spec, trace),
        "plan_sim_40k" => run_plan_sim(spec, trace),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// The end-to-end run is one window of `work` units starting at unit 0. The
/// traced run spends a quarter of that with tracing off and a quarter with it
/// on, alternating between the two in up to [`TRACE_SLICES`] slices each, so that
/// the host's drift (tens of percent within seconds on a shared machine)
/// falls on both sides alike and the difference is the tracing.
///
/// `window(first, units, trace)` runs `units` units from unit `first`.
fn timed_windows(
    spec: &RunSpec,
    trace: &Trace,
    work: u64,
    mut window: impl FnMut(u64, u64, &Trace) -> Window,
) -> (Window, Option<(f64, f64)>) {
    if !spec.traced {
        return (window(0, work, trace), None);
    }
    // A short window (ten capped epochs) has fewer than that many units in a
    // quarter; it gets one unit per slice and fewer slices.
    let pairs = (work / 4).clamp(1, TRACE_SLICES);
    let slice = (work / 4 / pairs).max(1);
    let (mut untraced, mut traced) = (Window::default(), Window::default());
    for pair in 0..pairs {
        // Decorators inside the rig hold their own handle: pause the
        // recorder itself, not just this function's use of it.
        trace::set_enabled(trace, false);
        untraced.absorb(window(2 * pair * slice, slice, &None));
        trace::set_enabled(trace, true);
        traced.absorb(window((2 * pair + 1) * slice, slice, trace));
    }
    let rates = (untraced.samples_per_s(), traced.samples_per_s());
    (traced, Some(rates))
}

fn outcome(
    spec: &RunSpec,
    window: &Window,
    wire_bytes_per_sample: f64,
    setup_s: f64,
    mut checks: Vec<(String, bool)>,
    overhead: Option<(f64, f64)>,
) -> Outcome {
    if let Some(e) = &window.error {
        checks.push((format!("window ran to completion: {e}"), false));
    }
    Outcome {
        result: RunResult {
            workload: spec.workload,
            seed: spec.seed,
            correct: checks.iter().all(|(_, ok)| *ok) && window.failed == 0,
            attempted: window.attempted,
            failed: window.failed,
            steps: window.step_ms.len(),
            units: window.units.len(),
            whole_window: [
                window.samples_per_s(),
                window.step_p50_ms(),
                window.cpu_s / (window.samples.max(1) as f64 / 1e3),
            ],
            metrics: end_to_end_metrics(window, wire_bytes_per_sample, setup_s),
            checks,
        },
        overhead,
    }
}

// ---------------------------------------------------------------------------
// live_wide and live_capped_cached
// ---------------------------------------------------------------------------

/// The warm-up epoch with its two output checks: delivered tensors equal a
/// local un-offloaded reference, and the wire carried the planned bytes.
struct WarmUp {
    digest_ok: bool,
    wire_ok: bool,
    wire_bytes: u64,
}

fn warm_up<T: LiveStack>(live: &mut Live<T>, corpus: &LiveCorpus) -> Result<WarmUp, String> {
    let reference = live.reference_digest(corpus, 0)?;
    let before = live.wire_bytes();
    let mut digest = Fnv::new();
    live.run_epoch(0, Some(&mut digest), |_| {})?;
    let wire_bytes = live.wire_bytes() - before;
    // Frame overhead is ~30 bytes on ~100 KB payloads, well inside 1%.
    let planned = corpus.planned_bytes as f64;
    let wire_ok = wire_bytes >= corpus.planned_bytes && wire_bytes as f64 <= 1.01 * planned;
    Ok(WarmUp { digest_ok: digest.0 == reference, wire_ok, wire_bytes })
}

/// Runs `epochs` epochs starting at `first_epoch`; checks only sample count
/// and tensor shape inside the window.
pub fn live_window<T: LiveStack>(
    live: &mut Live<T>,
    first_epoch: u64,
    epochs: u64,
    trace: &Trace,
) -> Window {
    let per_epoch = live.samples();
    let mut window = Window::default();
    let bytes_before = live.wire_bytes();
    let mut clocks = Clocks::start();
    for epoch in first_epoch..first_epoch + epochs {
        window.attempted += per_epoch;
        trace::set_id(trace, epoch as u32, 0);
        let epoch_span = trace::begin(trace, "loader.run_epoch");
        let mut step_span = trace::begin(trace, "loader.step");
        let mut delivered = 0u64;
        let mut misshapen = 0u64;
        let mut step = 0u32;
        let outcome = live.run_epoch(epoch, None, |s| {
            clocks.step(&mut window);
            delivered += s.samples as u64;
            if !s.shape_ok {
                misshapen += s.samples as u64;
            }
            trace::end(trace, step_span.take());
            if delivered < per_epoch {
                step += 1;
                trace::set_id(trace, epoch as u32, step);
                step_span = trace::begin(trace, "loader.step");
            }
        });
        trace::end(trace, step_span.take());
        trace::end(trace, epoch_span);
        window.samples += delivered - misshapen;
        clocks.end_unit(&mut window, delivered - misshapen);
        if let Err(e) = outcome {
            window.error = Some(e);
            break;
        }
        if delivered != per_epoch {
            window.error = Some(format!("epoch {epoch} delivered {delivered} samples"));
            break;
        }
    }
    clocks.finish(&mut window);
    window.wire_bytes = live.wire_bytes() - bytes_before;
    window.failed = window.attempted - window.samples;
    window
}

fn run_live<T: LiveStack>(
    spec: &RunSpec,
    trace: &Trace,
    reference_epochs: u64,
    build: impl Fn(&LiveCorpus) -> Result<Live<T>, String>,
) -> Result<Outcome, String> {
    let setup_span = trace::begin(trace, "setup");
    let corpus = LiveCorpus::build(LIVE_SAMPLES, spec.seed)?;
    let mut live = build(&corpus)?;
    let warm = warm_up(&mut live, &corpus)?;
    trace::end(trace, setup_span);
    let setup_s = spec.process_start.elapsed().as_secs_f64();

    let share = corpus.offloaded as f64 / LIVE_SAMPLES as f64;
    let checks = vec![
        (
            format!("sophon offloads 30-70% of samples ({} of {LIVE_SAMPLES})", corpus.offloaded),
            (0.3..=0.7).contains(&share),
        ),
        ("warm-up digest equals local un-offloaded reference".to_string(), warm.digest_ok),
        (
            format!(
                "cold-epoch wire bytes {} within 1% of planned {}",
                warm.wire_bytes, corpus.planned_bytes
            ),
            warm.wire_ok,
        ),
    ];

    // Epoch 0 was the warm-up, so unit `u` of the window is epoch `u + 1`.
    let epochs = scaled(reference_epochs, spec.seconds);
    let (window, overhead) = timed_windows(spec, trace, epochs, |first, n, trace| {
        live_window(&mut live, first + 1, n, trace)
    });
    live.shutdown();

    let wire_per_sample = window.wire_bytes as f64 / window.samples.max(1) as f64;
    Ok(outcome(spec, &window, wire_per_sample, setup_s, checks, overhead))
}

// ---------------------------------------------------------------------------
// serve_idle1k
// ---------------------------------------------------------------------------

/// Runs `cycles` cycles from cycle `first`; request `i` of the window is
/// sample `i mod 64` of the seeded order on connection `i mod 1001`.
fn serve_window(rig: &mut ServeRig, first: u64, cycles: u64, trace: &Trace) -> Window {
    let mut window = Window::default();
    let bytes_before = rig.response_bytes();
    let mut clocks = Clocks::start();
    'window: for cycle in first..first + cycles {
        let mut served = 0;
        for i in cycle * SERVE_SAMPLES..(cycle + 1) * SERVE_SAMPLES {
            window.attempted += 1;
            trace::set_id(trace, cycle as u32, (i % SERVE_SAMPLES) as u32);
            let _span = trace::span(trace, "client.fetch_request");
            match rig.fetch(i) {
                Ok(true) => served += 1,
                Ok(false) => {}
                Err(e) => {
                    window.error = Some(e);
                    window.samples += served;
                    break 'window;
                }
            }
            clocks.step(&mut window);
        }
        window.samples += served;
        clocks.end_unit(&mut window, served);
    }
    clocks.finish(&mut window);
    window.wire_bytes = rig.response_bytes() - bytes_before;
    window.failed = window.attempted - window.samples;
    window
}

fn run_serve(spec: &RunSpec, trace: &Trace) -> Result<Outcome, String> {
    if spec.fd_limit < SERVE_FDS_NEEDED {
        return Err(format!(
            "serve_idle1k holds both ends of {} connections and needs `ulimit -n` >= \
             {SERVE_FDS_NEEDED}; this process is limited to {}",
            SERVE_IDLE + 1,
            spec.fd_limit
        ));
    }
    let setup_span = trace::begin(trace, "setup");
    let corpus = LiveCorpus::build(SERVE_SAMPLES, spec.seed)?;
    let mut rig = ServeRig::bind(&corpus)?;
    rig.add_connections(SERVE_IDLE)?;
    let payloads_ok = rig.verify_payloads()?;
    rig.warm_connections()?;
    trace::end(trace, setup_span);
    let setup_s = spec.process_start.elapsed().as_secs_f64();

    let cycles = scaled(SERVE_CYCLES, spec.seconds);
    let (window, overhead) = timed_windows(spec, trace, cycles, |first, n, trace| {
        serve_window(&mut rig, first, n, trace)
    });
    let confined = rig.confined_server_threads();
    rig.shutdown();

    let checks = vec![
        ("every stored sample is served byte-identical".to_string(), payloads_ok),
        match confined {
            Ok(n) => (format!("all {n} server threads are confined to one CPU"), true),
            Err(e) => (e, false),
        },
    ];
    let wire_per_sample = window.wire_bytes as f64 / window.samples.max(1) as f64;
    Ok(outcome(spec, &window, wire_per_sample, setup_s, checks, overhead))
}

// ---------------------------------------------------------------------------
// plan_sim_40k
// ---------------------------------------------------------------------------

/// What every round must reproduce.
#[derive(Debug, Clone, PartialEq)]
struct RoundOutput {
    policy_traffic: Vec<u64>,
    sophon_traffic: u64,
    fleet_cached_warm_bytes: u64,
    adaptive: api::AdaptiveOutcome,
}

fn plan_round(sim: &PlanSim, trace: &Trace) -> Result<RoundOutput, String> {
    let mut policy_traffic = Vec::new();
    let mut sophon_traffic = 0;
    for (i, name) in sim.policy_names().into_iter().enumerate() {
        let _span = trace::span(trace, "scenario.run_with_profiles");
        let outcome = sim.run_policy(i)?;
        if name == "sophon" {
            sophon_traffic = outcome.traffic_bytes;
        }
        policy_traffic.push(outcome.traffic_bytes);
    }
    let fleet_cached_warm_bytes = {
        let _span = trace::span(trace, "scenario.run_training_fleet_cached");
        sim.fleet_cached()?
    };
    let adaptive = {
        let _span = trace::span(trace, "run_fleet_epoch_adaptive");
        sim.adaptive_epoch(true)?
    };
    Ok(RoundOutput { policy_traffic, sophon_traffic, fleet_cached_warm_bytes, adaptive })
}

fn plan_window(sim: &PlanSim, expected: &RoundOutput, rounds: u64, trace: &Trace) -> Window {
    let mut window = Window::default();
    let mut clocks = Clocks::start();
    let mut reproduced = 0;
    for round in 0..rounds {
        window.attempted += 1;
        trace::set_id(trace, 0, round as u32);
        let _span = trace::span(trace, "round");
        let same = match plan_round(sim, trace) {
            // A round's whole output is a handful of integers, so comparing
            // it is cheap enough to do inside the window.
            Ok(out) => out == *expected,
            Err(e) => {
                window.error = Some(e);
                break;
            }
        };
        reproduced += u64::from(same);
        clocks.step(&mut window);
        clocks.end_unit(&mut window, if same { PLAN_SAMPLES } else { 0 });
    }
    clocks.finish(&mut window);
    window.samples = reproduced * PLAN_SAMPLES;
    window.failed = window.attempted - reproduced;
    window
}

fn run_plan_sim(spec: &RunSpec, trace: &Trace) -> Result<Outcome, String> {
    let repeats = if spec.traced { 1 } else { PLAN_SETUP_REPEATS };
    let ((sim, expected, static_digest), setup_s) =
        repeat_setup(spec.process_start, repeats, || {
            let _span = trace::span(trace, "setup");
            let sim = PlanSim::build();
            let static_digest = sim.adaptive_epoch(false)?.digest;
            let mut expected = plan_round(&sim, &None)?;
            for _ in 1..PLAN_WARMUP_ROUNDS {
                // A warm-up round that differs shows up in the window, whose
                // every round is compared with the last one seen here.
                expected = plan_round(&sim, &None)?;
            }
            Ok((sim, expected, static_digest))
        })?;

    let rounds = scaled(PLAN_ROUNDS, spec.seconds);
    let (window, overhead) =
        timed_windows(spec, trace, rounds, |_, n, trace| plan_window(&sim, &expected, n, trace));

    let checks = vec![
        (
            "adaptive digest equals static digest".to_string(),
            expected.adaptive.digest == static_digest,
        ),
        (
            format!(
                "every round reproduces the warm-up's output ({} replans)",
                expected.adaptive.replans
            ),
            window.failed == 0,
        ),
    ];
    let wire_per_sample = expected.sophon_traffic as f64 / PLAN_SAMPLES as f64;
    Ok(outcome(spec, &window, wire_per_sample, setup_s, checks, overhead))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(workload: &'static str, traced: bool) -> RunSpec {
        RunSpec {
            workload,
            seed: 1,
            seconds: REFERENCE_SECONDS,
            traced,
            process_start: Instant::now(),
            fd_limit: 4_096,
        }
    }

    fn window() -> Window {
        Window {
            samples: 4_800,
            wall_s: 20.0,
            cpu_s: 31.0,
            wire_bytes: 480_000_000,
            step_ms: vec![130.0, 140.0, 150.0],
            // A slow unit and a quiet one: the metrics read the quiet one.
            units: vec![
                Unit { samples: 2_400, wall_s: 12.0, cpu_s: 19.0, step_p50_ms: 150.0 },
                Unit { samples: 2_400, wall_s: 8.0, cpu_s: 12.0, step_p50_ms: 130.0 },
            ],
            attempted: 4_800,
            failed: 0,
            error: None,
        }
    }

    #[test]
    fn every_workload_reports_all_six_end_to_end_metrics() {
        // Each workload's result is assembled by `outcome` from a `Window`.
        let expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        for workload in WORKLOADS {
            let out = outcome(&spec(workload, false), &window(), 100_000.0, 2.5, vec![], None);
            let names: Vec<&str> = out.result.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, expected, "{workload}");
            assert!(out.result.metrics.iter().all(|m| m.value > 0.0), "{workload}: zero metric");
            assert!(out.result.correct);
            assert_eq!(out.result.steps, 3);
        }
        assert_eq!(window().samples_per_s(), 240.0);
        assert_eq!(window().step_p50_ms(), 140.0);
        let quiet: Vec<f64> =
            end_to_end_metrics(&window(), 1.0, 1.0).iter().map(|m| m.value).collect();
        assert_eq!(quiet[..2], [300.0, 130.0]);
        assert_eq!(quiet[3], 5.0);
    }

    #[test]
    fn an_error_or_a_failed_operation_makes_the_run_incorrect() {
        let mut w = window();
        w.error = Some("transport died".to_string());
        assert!(!outcome(&spec("live_wide", false), &w, 1.0, 1.0, vec![], None).result.correct);
        let mut w = window();
        w.failed = 1;
        assert!(!outcome(&spec("live_wide", false), &w, 1.0, 1.0, vec![], None).result.correct);
    }

    #[test]
    fn traced_runs_alternate_untraced_and_traced_slices() {
        let mut calls = Vec::new();
        let (_, overhead) =
            timed_windows(&spec("serve_idle1k", true), &None, 100, |first, n, _| {
                calls.push((first, n));
                window()
            });
        let firsts: Vec<u64> = calls.iter().map(|c| c.0).collect();
        assert_eq!(firsts, [0, 5, 10, 15, 20, 25, 30, 35, 40, 45]);
        assert!(calls.iter().all(|c| c.1 == 5), "{calls:?}");
        assert_eq!(overhead, Some((240.0, 240.0)));
        let (_, overhead) =
            timed_windows(&spec("serve_idle1k", false), &None, 100, |first, n, _| {
                assert_eq!((first, n), (0, 100));
                window()
            });
        assert_eq!(overhead, None);
    }

    #[test]
    fn work_scales_with_seconds_and_never_reaches_zero() {
        assert_eq!(scaled(80, REFERENCE_SECONDS), 80);
        assert_eq!(scaled(80, REFERENCE_SECONDS / 10.0), 8);
        assert_eq!(scaled(10, 0.01), 1);
    }

    #[test]
    fn setup_time_is_taken_over_all_repeats_and_the_last_rig_is_kept() {
        let mut calls = 0;
        let (kept, median_s) = repeat_setup(Instant::now(), 3, || {
            calls += 1;
            Ok(calls)
        })
        .unwrap();
        assert_eq!(kept, 3);
        assert!(median_s >= 0.0);
    }
}
