//! Pins what `sophon-sim` prints for six flag sets, byte for byte.
//!
//! Each file under `tests/golden/sophon_sim/` is the binary's stdout for one
//! flag set, recorded at commit `4bfaed8` and checked there to repeat
//! exactly across runs. Together they cover the policy table, the engine's
//! explanation, a cached fleet training run, both adaptive chaos profiles
//! (whose replan lines print channel names and ratios) and the multi-tenant
//! split, so a change that must leave plans and simulations untouched shows
//! any drift here.

use std::path::PathBuf;
use std::process::Command;

/// Runs `sophon-sim` with `args` and compares its stdout with the golden
/// file `name.txt`, reporting the first line that differs.
fn check(name: &str, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_sophon-sim"))
        .args(args)
        .output()
        .expect("sophon-sim starts");
    assert!(
        out.status.success(),
        "sophon-sim {args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("sophon-sim prints UTF-8");
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", "sophon_sim"]
        .iter()
        .collect::<PathBuf>()
        .join(format!("{name}.txt"));
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if got != want {
        let end = std::iter::repeat("<end of output>");
        let (line, (g, w)) = got
            .lines()
            .chain(end.clone())
            .zip(want.lines().chain(end))
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .expect("the outputs differ, so some line does");
        panic!(
            "sophon-sim {args:?} differs from {} at line {}:\n  got:  {g}\n  want: {w}",
            path.display(),
            line + 1
        );
    }
}

#[test]
fn default_flags() {
    check("default", &[]);
}

#[test]
fn sophon_explain() {
    check("sophon_explain", &["--policy", "sophon", "--explain"]);
}

#[test]
fn cached_fleet_training() {
    check(
        "cached_fleet",
        &[
            "--shards",
            "4",
            "--replication",
            "2",
            "--cache-budget-pct",
            "25",
            "--cache-policy",
            "efficiency",
            "--epochs",
            "3",
        ],
    );
}

#[test]
fn adaptive_light_chaos() {
    check(
        "adaptive_light",
        &["--shards", "4", "--replication", "2", "--adaptive", "--chaos-profile", "light"],
    );
}

#[test]
fn adaptive_link_squeeze_brownout() {
    check(
        "adaptive_brownout",
        &[
            "--shards",
            "4",
            "--replication",
            "2",
            "--adaptive",
            "--chaos-profile",
            "link-squeeze",
            "--brownout-tiers",
            "0.25,0.5,1.0",
        ],
    );
}

#[test]
fn weighted_tenants() {
    check("tenants", &["--tenants", "3", "--tenant-weights", "1,2,3"]);
}
