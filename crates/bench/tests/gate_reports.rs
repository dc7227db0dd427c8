//! The CI gate binaries over the one `bench::gate` harness.
//!
//! Each virtual-time gate's JSON artifact is compared byte for byte with a
//! golden recorded from the binaries before they shared the harness;
//! `server_throughput` measures wall-clock time, so only its keys and row
//! shape are compared. A bad command line exits 2 before any work.

use std::path::PathBuf;
use std::process::{Command, Output};

use bench::gate::{fixed, list, object, string, Clock, Report, Verdicts};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn gate binary")
}

/// Runs `bin` with `args` plus `--json`, and returns the artifact.
fn artifact(bin: &str, name: &str, args: &[&str]) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.json"));
    let path_arg = path.to_str().expect("utf-8 temp dir");
    let out = run(bin, &[args, &["--json", path_arg]].concat());
    assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
    std::fs::read_to_string(&path).expect("read JSON artifact")
}

#[test]
fn adaptive_replan_json_is_unchanged() {
    let bin = env!("CARGO_BIN_EXE_adaptive_replan");
    let json = artifact(bin, "adaptive_replan", &["--seeds", "11,17,83", "--assert"]);
    assert_eq!(json, include_str!("golden/adaptive_replan.json"));
}

#[test]
fn brownout_json_is_unchanged() {
    let json =
        artifact(env!("CARGO_BIN_EXE_brownout"), "brownout", &["--seeds", "17,83", "--assert"]);
    assert_eq!(json, include_str!("golden/brownout.json"));
}

#[test]
fn multi_tenant_json_is_unchanged() {
    let args = ["--tenants", "8,32,128", "--per-tenant", "48", "--assert"];
    let json = artifact(env!("CARGO_BIN_EXE_multi_tenant"), "multi_tenant", &args);
    assert_eq!(json, include_str!("golden/multi_tenant.json"));
}

#[test]
fn modality_sweep_json_is_unchanged() {
    let args = ["--samples", "256", "--clips", "16", "--assert"];
    let json = artifact(env!("CARGO_BIN_EXE_modality_sweep"), "modality_sweep", &args);
    assert_eq!(json, include_str!("golden/modality_sweep.json"));
}

#[test]
fn server_throughput_keeps_its_keys_and_row_shape() {
    let args = ["--conns", "1", "--idle", "0", "--per-conn", "4"];
    let json = artifact(env!("CARGO_BIN_EXE_server_throughput"), "server_throughput", &args);
    let shape = |json: &str| json.replace(|c: char| c.is_ascii_digit() || c == '.', "");
    assert_eq!(shape(&json), shape(include_str!("golden/server_throughput.json")));
}

#[test]
fn a_bad_command_line_exits_2_naming_the_flag_before_any_work() {
    let cases: [(&str, &[&str], &str); 7] = [
        (env!("CARGO_BIN_EXE_adaptive_replan"), &["--seeds", "x"], "--seeds takes u64, got 'x'"),
        (env!("CARGO_BIN_EXE_brownout"), &["--samples", "-1"], "--samples takes u64"),
        (env!("CARGO_BIN_EXE_modality_sweep"), &["--clips"], "--clips needs a value"),
        (env!("CARGO_BIN_EXE_multi_tenant"), &["--per-tenant"], "--per-tenant needs a value"),
        (env!("CARGO_BIN_EXE_multi_tenant"), &["--json"], "--json needs a value"),
        (env!("CARGO_BIN_EXE_server_throughput"), &["--repeat", "0"], "at least 1, got 0"),
        (env!("CARGO_BIN_EXE_server_throughput"), &["--hedge"], "unknown flag '--hedge'"),
    ];
    for (bin, args, problem) in cases {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} did work before rejecting its command line");
        assert!(stderr.contains(problem), "{args:?}: {stderr}");
        assert!(
            stderr.trim_end().ends_with("--json --assert"),
            "{args:?} lists no flags: {stderr}"
        );
    }
}

#[test]
fn json_and_table_render_the_same_cells() {
    let mut r = Report::new("t").param("n", 2).param("bound", 3.0);
    r.row([("k", string("a\"b")), ("v", fixed(1.26, 1)), ("l", list([1, 2]))]);
    r.row([("k", string("c")), ("v", fixed(f64::NAN, 1)), ("l", object(&[("x", list::<u8>([]))]))]);
    assert_eq!(
        r.json(),
        "{\n  \"bench\": \"t\",\n  \"n\": 2,\n  \"bound\": 3,\n  \"rows\": [\n    \
         {\"k\": \"a\\\"b\", \"v\": 1.3, \"l\": [1, 2]},\n    \
         {\"k\": \"c\", \"v\": null, \"l\": {\"x\": []}}\n  ]\n}\n"
    );
    assert_eq!(
        r.table(),
        "t: n 2, bound 3\n     k     v          l\n\"a\\\"b\"   1.3     [1, 2]\n   \"c\"  null  {\"x\": []}\n"
    );
}

#[test]
fn failures_carry_their_clock() {
    let mut v = Verdicts::default();
    v.check(Clock::Virtual, true, "fine");
    v.check(Clock::Wall, false, "slow");
    v.check(Clock::Virtual, false, "wrong");
    assert_eq!(v.failures(), ["slow (wall clock)", "wrong (virtual time)"]);
}
