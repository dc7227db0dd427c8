//! `perf`: the repository's committed performance benchmark.
//!
//! Four long fixed-work workloads, six end-to-end metrics on each, and a
//! separate traced run that times every layer from outside the program.
//! README.md in this directory records why each workload exists, the pinned
//! API surface, the reference host and the measured run-to-run spread.
//!
//! ```sh
//! cargo run --release -p bench --bin perf                  # all four workloads
//! cargo run --release -p bench --bin perf -- --workload live_wide --seed 7
//! cargo run --release -p bench --bin perf -- --workload serve_idle1k --trace 1
//! cargo run --release -p bench --bin perf -- --selfcheck   # two sets of runs must agree
//! cargo run --release -p bench --bin perf -- --quick       # a tenth of each window
//! ```
//!
//! The benchmark driver runs the same command (`BENCHMARK.json`) and appends
//! `--workload NAME --seed N --seconds S --trace 0|1`; the last line of
//! standard output is then one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod api;
mod layers;
mod measure;
mod report;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use measure::Host;
use report::END_TO_END;
use workloads::{RunSpec, REFERENCE_SECONDS, WORKLOADS};

const USAGE: &str = "flags: --workload NAME  --seed N  --seconds S  --trace 0|1|FILE  \
                     --quick  --selfcheck";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None` is the end-to-end run. `Some` is the traced run: `"1"` writes
    /// the Chrome trace to the default path, anything else names the file.
    trace: Option<String>,
    selfcheck: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 2024,
        seconds: REFERENCE_SECONDS,
        trace: None,
        selfcheck: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => out.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                out.seed = value("--seed")?.parse().map_err(|_| "--seed takes an integer")?;
            }
            "--seconds" => {
                out.seconds =
                    value("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                let v = value("--trace")?;
                out.trace = (v != "0").then(|| v.clone());
            }
            "--quick" => out.seconds = REFERENCE_SECONDS / 10.0,
            "--selfcheck" => out.selfcheck = true,
            other => return Err(format!("unknown flag '{other}'; {USAGE}")),
        }
    }
    if out.selfcheck && out.trace.is_some() {
        return Err("--selfcheck compares end-to-end runs and takes no --trace".to_string());
    }
    if let Some(w) = &out.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload '{w}'; workloads: {}", WORKLOADS.join(", ")));
        }
    }
    Ok(out)
}

/// Where `--trace 1` writes: next to the executable, which is inside the
/// build directory of whichever checkout is being measured.
fn default_trace_path(workload: &str) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join(format!("perf-trace-{workload}.json"))
}

/// Runs one workload in this process and prints its block and result line.
fn run_one(args: &Args, workload: &'static str, process_start: Instant) -> Result<bool, String> {
    let fd_limit = measure::raise_fd_limit();
    let host = Host::probe(fd_limit);
    let tracer = args.trace.as_ref().map(|_| trace::Tracer::new());
    let spec = RunSpec {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: tracer.is_some(),
        process_start,
        fd_limit,
    };
    let outcome = workloads::run(&spec, &tracer)?;
    let mut result = outcome.result;

    if let Some(target) = &args.trace {
        // The traced run reports the per-layer table instead of the
        // end-to-end metrics, which are only trusted with tracing off.
        let (untraced, traced) = outcome.overhead.unwrap_or((1.0, 1.0));
        let overhead_pct = (untraced - traced) / untraced.max(f64::EPSILON) * 100.0;
        let table = layers::measure(args.seed, overhead_pct, &tracer)?;
        let path = match target.as_str() {
            "1" => default_trace_path(workload),
            file => PathBuf::from(file),
        };
        let spans = tracer.as_ref().map(|t| t.spans()).unwrap_or_default();
        let extra = [
            ("workload".to_string(), report::json_string(workload)),
            ("host".to_string(), report::host_json(&host)),
            ("end_to_end_quarter_window".to_string(), report::metrics_json(&result.metrics)),
            ("per_layer".to_string(), report::metrics_json(&table)),
        ];
        std::fs::write(&path, trace::chrome_trace_json(&spans, &extra))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {} spans to {}", spans.len(), path.display());
        result.metrics = table;
    }

    if let Some(bad) = result.metrics.iter().find(|m| !report::is_valid_name(&m.name)) {
        return Err(format!("metric name '{}' is outside the contract's character set", bad.name));
    }
    report::print_run(&result, &host, args.trace.is_some());
    println!("{}", report::result_line(&result));
    Ok(result.correct)
}

/// One workload's metric values by name, parsed back from a result line.
type Values = Vec<(String, f64)>;

/// `file` with `-<workload>` before its extension: every workload's traced
/// run writes a trace file of its own.
fn trace_file_for(file: &str, workload: &str) -> String {
    let path = Path::new(file);
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    let name = match path.extension() {
        Some(ext) => format!("{stem}-{workload}.{}", ext.to_string_lossy()),
        None => format!("{stem}-{workload}"),
    };
    path.with_file_name(name).to_string_lossy().into_owned()
}

/// One child process per workload, so each has its own peak RSS, CPU clock
/// and set-up; with `--trace` each child makes the traced run instead.
/// Returns each child's metrics.
fn run_children(args: &Args, echo: bool) -> Result<Vec<(&'static str, Values)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all = Vec::new();
    for workload in WORKLOADS {
        let trace = match args.trace.as_deref() {
            None => "0".to_string(),
            Some("1") => "1".to_string(),
            Some(file) => trace_file_for(file, workload),
        };
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", &trace])
            .output()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        if echo {
            print!("{stdout}");
        }
        if !output.status.success() {
            return Err(format!(
                "{workload} exited with {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        let last = stdout.lines().last().unwrap_or_default();
        all.push((workload, parse_metric_values(last)));
    }
    Ok(all)
}

/// Pulls `"name": {"value": V` pairs back out of a result line written by
/// [`report::result_line`] (our own format, so no general JSON parser).
fn parse_metric_values(line: &str) -> Values {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(pos) = rest.find("\": {\"value\": ") {
        let name_start = rest[..pos].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..pos].to_string();
        let after = &rest[pos + "\": {\"value\": ".len()..];
        let end = after.find(',').unwrap_or(after.len());
        if let Ok(v) = after[..end].trim().parse::<f64>() {
            out.push((name, v));
        }
        rest = &after[end..];
    }
    out
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(def: &report::MetricDef, first: f64, second: f64) -> f64 {
    let change = (second - first) / first.abs().max(f64::EPSILON);
    if def.higher_is_better {
        -change
    } else {
        change
    }
}

fn selfcheck(args: &Args) -> Result<bool, String> {
    println!("selfcheck: every workload twice on this build, {} s windows", args.seconds);
    let first = run_children(args, false)?;
    let second = run_children(args, false)?;
    let mut ok = true;
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for def in END_TO_END {
            let find = |set: &[(String, f64)]| {
                set.iter().find(|(n, _)| n == def.name).map(|(_, v)| *v).unwrap_or(f64::NAN)
            };
            let (x, y) = (find(a), find(b));
            // Either order is "the same code twice": take the worse one.
            let differ = worsening(&def, x, y).max(worsening(&def, y, x));
            let pass = differ.is_finite() && differ <= def.bound;
            ok &= pass;
            println!(
                "{:<20} {:<24} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}% {}",
                workload,
                def.name,
                x,
                y,
                differ * 100.0,
                def.bound * 100.0,
                if pass { "" } else { "EXCEEDS BOUND" }
            );
        }
    }
    Ok(ok)
}

/// Every workload's metrics as one JSON document.
fn combined_json(all: &[(&'static str, Values)]) -> String {
    let body: Vec<String> = all
        .iter()
        .map(|(workload, metrics)| {
            let fields: Vec<String> = metrics
                .iter()
                .map(|(n, v)| format!("{}: {}", report::json_string(n), report::json_number(*v)))
                .collect();
            format!("{}: {{{}}}", report::json_string(workload), fields.join(", "))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.selfcheck {
        selfcheck(&args)
    } else if let Some(name) = &args.workload {
        let workload = WORKLOADS.into_iter().find(|n| n == name).expect("validated by parse_args");
        run_one(&args, workload, process_start)
    } else {
        run_children(&args, true).map(|all| {
            println!("{}", combined_json(&all));
            true
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: a check failed or a bound was exceeded (see above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Metric;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_flags_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "plan_sim_40k",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("plan_sim_40k"));
        assert_eq!((a.seed, a.seconds), (9, 20.0));
        assert_eq!(a.trace.as_deref(), Some("1"));
        assert_eq!(parse_args(&strings(&["--trace", "0"])).unwrap().trace, None);
        assert_eq!(
            parse_args(&strings(&["--trace", "t.json"])).unwrap().trace.as_deref(),
            Some("t.json")
        );
        assert_eq!(parse_args(&strings(&["--quick"])).unwrap().seconds, REFERENCE_SECONDS / 10.0);
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--frobnicate"])).is_err());
        assert!(parse_args(&strings(&["--selfcheck", "--trace", "t.json"])).is_err());
    }

    #[test]
    fn each_workload_gets_its_own_trace_file() {
        assert_eq!(trace_file_for("out/t.json", "live_wide"), "out/t-live_wide.json");
        assert_eq!(trace_file_for("t", "plan_sim_40k"), "t-plan_sim_40k");
    }

    #[test]
    fn result_lines_parse_back() {
        let r = report::RunResult {
            workload: "w",
            seed: 1,
            correct: true,
            attempted: 1,
            failed: 0,
            steps: 1,
            units: 1,
            whole_window: [0.0; 3],
            metrics: vec![
                Metric::new("samples_per_s", "1/s", 245.5),
                Metric::new("setup_s", "s", 1.25),
            ],
            checks: vec![],
        };
        assert_eq!(
            parse_metric_values(&report::result_line(&r)),
            vec![("samples_per_s".to_string(), 245.5), ("setup_s".to_string(), 1.25)]
        );
    }

    #[test]
    fn worsening_respects_direction() {
        let higher = END_TO_END[0];
        let lower = END_TO_END[1];
        assert!((worsening(&higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&lower, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!(worsening(&higher, 100.0, 110.0) < 0.0);
    }
}
