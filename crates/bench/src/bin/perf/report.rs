//! Metric tables and the output they are printed in: a human-readable
//! table, then one JSON object as the last line of standard output in the
//! shape `BENCHMARK.json` promises.

use crate::measure::Host;

/// An end-to-end metric every workload reports. `bound` is the share of
/// the parent's median by which it may worsen; `BENCHMARK.json` carries the
/// same table (a unit test holds the two together).
///
/// The four clock-dependent metrics sit at the contract's ceiling of 0.25:
/// on the shared two-core reference host ten runs of one build spread by
/// 2-5% (quartile distance over median) in a calm hour and by up to 18% in
/// a rough one (README.md), and a bound has to hold in both. A change
/// smaller than that is unresolved by comparing medians and needs paired
/// runs. The two count-like metrics repeat exactly or nearly so and keep
/// tight bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [MetricDef; 6] = [
    MetricDef { name: "samples_per_s", unit: "1/s", higher_is_better: true, bound: 0.25 },
    MetricDef { name: "step_p50_ms", unit: "ms", higher_is_better: false, bound: 0.25 },
    MetricDef {
        name: "wire_bytes_per_sample",
        unit: "bytes",
        higher_is_better: false,
        bound: 0.01,
    },
    MetricDef { name: "cpu_s_per_ksample", unit: "s", higher_is_better: false, bound: 0.25 },
    MetricDef { name: "peak_rss_mb", unit: "MB", higher_is_better: false, bound: 0.10 },
    MetricDef { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
];

/// One measured value under a contract-legal name and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.into(), unit, value }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Steps (batches, requests or rounds) inside the timed window.
    pub steps: usize,
    /// Equal units of work (epochs, cycles or rounds) the window is made of.
    pub units: usize,
    /// `samples_per_s`, `step_p50_ms` and `cpu_s_per_ksample` taken over the
    /// whole window instead of its quietest unit; printed, not reported.
    pub whole_window: [f64; 3],
    pub metrics: Vec<Metric>,
    /// Output checks that ran, as `(what, passed)`.
    pub checks: Vec<(String, bool)>,
}

/// A metric name the contract accepts: starts with a letter or digit, then
/// at most 63 more of `[A-Za-z0-9_.-]`.
pub fn is_valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with all its digits (Rust prints the shortest string
/// that round-trips); non-finite values have no JSON form and become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics_json(&r.metrics)
    )
}

pub fn host_json(h: &Host) -> String {
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"fd_limit\": {}, \"commit\": {}}}",
        h.nproc,
        json_string(&h.cpu_model),
        h.fd_limit,
        json_string(&h.commit)
    )
}

/// Prints the human-readable block for one run. The result line is printed
/// by the caller, last.
pub fn print_run(r: &RunResult, host: &Host, traced: bool) {
    println!(
        "== {} (seed {}, {}) ==",
        r.workload,
        r.seed,
        if traced { "traced run: per-layer metrics" } else { "end-to-end run" }
    );
    println!("host: {}", host_json(host));
    for m in &r.metrics {
        println!("  {:<48} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("  steps in window: {} in {} units", r.steps, r.units);
    println!(
        "  whole window: {:.4} samples/s, step p50 {:.4} ms, {:.4} CPU-s per 1000 samples",
        r.whole_window[0], r.whole_window[1], r.whole_window[2]
    );
    println!("  operations: {} attempted, {} failed", r.attempted, r.failed);
    for (what, passed) in &r.checks {
        println!("  check {:<60} {}", what, if *passed { "ok" } else { "FAILED" });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_contract_character_set() {
        for ok in ["samples_per_s", "pipeline.op_us.decode", "core.plan_ms.no-off", "9lives"] {
            assert!(is_valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", ".hidden", "-dash", "has space", "slash/es", "pct%", too_long.as_str()] {
            assert!(!is_valid_name(bad), "{bad}");
        }
        for def in END_TO_END {
            assert!(is_valid_name(def.name));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            workload: "w",
            seed: 1,
            correct: true,
            attempted: 10,
            failed: 0,
            steps: 3,
            units: 1,
            whole_window: [0.0; 3],
            metrics: vec![Metric::new("latency_ms", "ms", 1.2034), Metric::new("n", "count", 3.0)],
            checks: vec![],
        };
        assert_eq!(
            result_line(&r),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"n\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn json_escapes_and_non_finite_numbers() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn bounds_match_benchmark_json() {
        // The manifest the driver reads and the table `--selfcheck` gates on
        // must not drift apart.
        let manifest = include_str!("../../../../../BENCHMARK.json");
        for def in END_TO_END {
            let needle = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                def.name,
                def.unit,
                if def.higher_is_better { "higher" } else { "lower" },
                def.bound
            );
            assert!(manifest.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
    }
}
