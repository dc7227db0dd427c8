//! Shape assertions for the paper's evaluation (Figures 3 and 4).
//!
//! Absolute numbers differ (our substrate is a simulator, not the authors'
//! testbed); these tests pin the *qualitative* results: who wins, by
//! roughly what factor, and where the crossovers fall.

use cluster::{ClusterConfig, GpuModel};
use datasets::DatasetSpec;
use sophon_planner::prelude::*;

const N: u64 = 4_096;

fn scenario(ds: DatasetSpec, storage_cores: usize) -> Scenario {
    Scenario::new(ds, ClusterConfig::paper_testbed(storage_cores), GpuModel::AlexNet, 256)
}

fn report_for<'a>(reports: &'a [RunReport], policy: &str) -> &'a RunReport {
    reports.iter().find(|r| r.policy == policy).unwrap_or_else(|| panic!("missing {policy}"))
}

#[test]
fn figure_3_openimages_ample_cpu() {
    let reports = scenario(DatasetSpec::openimages_like(N, 42), 48).run_all().unwrap();
    let no_off = report_for(&reports, "no-off");
    let all_off = report_for(&reports, "all-off");
    let fastflow = report_for(&reports, "fastflow");
    let resize = report_for(&reports, "resize-off");
    let sophon = report_for(&reports, "sophon");

    // All-Off inflates traffic ~1.9x on OpenImages.
    let inflation = all_off.epoch.traffic_bytes as f64 / no_off.epoch.traffic_bytes as f64;
    assert!((1.5..2.6).contains(&inflation), "All-Off inflation {inflation}");
    // All-Off has the longest training time of all policies.
    for r in &reports {
        assert!(all_off.epoch.epoch_seconds >= r.epoch.epoch_seconds - 1e-9, "{}", r.policy);
    }

    // FastFlow declines offloading: identical to No-Off.
    assert_eq!(fastflow.epoch.traffic_bytes, no_off.epoch.traffic_bytes);

    // Resize-Off cuts OpenImages traffic ~2x.
    let resize_cut = no_off.epoch.traffic_bytes as f64 / resize.epoch.traffic_bytes as f64;
    assert!((1.6..2.4).contains(&resize_cut), "Resize-Off reduction {resize_cut}");

    // SOPHON cuts ~2.2x — more than Resize-Off (it skips non-beneficial
    // samples) — and is the fastest policy.
    let sophon_cut = no_off.epoch.traffic_bytes as f64 / sophon.epoch.traffic_bytes as f64;
    assert!((1.9..2.8).contains(&sophon_cut), "SOPHON reduction {sophon_cut}");
    assert!(sophon_cut > resize_cut);
    for r in &reports {
        assert!(
            sophon.epoch.epoch_seconds <= r.epoch.epoch_seconds + 1e-9,
            "SOPHON slower than {}: {} vs {}",
            r.policy,
            sophon.epoch.epoch_seconds,
            r.epoch.epoch_seconds
        );
    }
    // Headline: 1.2-2.2x training-time improvement over existing solutions.
    let speedup = no_off.epoch.epoch_seconds / sophon.epoch.epoch_seconds;
    assert!((1.5..3.0).contains(&speedup), "speedup over No-Off {speedup}");
}

#[test]
fn figure_3_imagenet_ample_cpu() {
    let reports = scenario(DatasetSpec::imagenet_like(N, 42), 48).run_all().unwrap();
    let no_off = report_for(&reports, "no-off");
    let all_off = report_for(&reports, "all-off");
    let resize = report_for(&reports, "resize-off");
    let sophon = report_for(&reports, "sophon");

    // All-Off inflates ImageNet traffic ~5.1x.
    let inflation = all_off.epoch.traffic_bytes as f64 / no_off.epoch.traffic_bytes as f64;
    assert!((4.0..6.5).contains(&inflation), "All-Off inflation {inflation}");

    // Resize-Off *increases* ImageNet traffic (~1.3x) — the paper's key
    // counterexample to uniform offloading.
    let resize_rel = resize.epoch.traffic_bytes as f64 / no_off.epoch.traffic_bytes as f64;
    assert!((1.1..1.6).contains(&resize_rel), "Resize-Off relative traffic {resize_rel}");

    // SOPHON still reduces traffic (~1.2x) and beats No-Off on time.
    let sophon_cut = no_off.epoch.traffic_bytes as f64 / sophon.epoch.traffic_bytes as f64;
    assert!((1.05..1.5).contains(&sophon_cut), "SOPHON reduction {sophon_cut}");
    assert!(sophon.epoch.epoch_seconds < no_off.epoch.epoch_seconds);
    assert!(sophon.epoch.epoch_seconds < resize.epoch.epoch_seconds);
}

#[test]
fn figure_4_limited_storage_cpu_openimages() {
    let ds = DatasetSpec::openimages_like(N, 42);
    let core_counts = [1usize, 2, 4, 8];
    let mut sophon_times = Vec::new();
    for &cores in &core_counts {
        let reports = scenario(ds.clone(), cores).run_all().unwrap();
        let no_off = report_for(&reports, "no-off").epoch.epoch_seconds;
        let all_off = report_for(&reports, "all-off").epoch.epoch_seconds;
        let fastflow = report_for(&reports, "fastflow");
        let resize = report_for(&reports, "resize-off");
        let sophon = report_for(&reports, "sophon");

        // All-Off is the slowest at every core count.
        for r in &reports {
            assert!(all_off >= r.epoch.epoch_seconds - 1e-9, "{} cores: {}", cores, r.policy);
        }
        // FastFlow always declines offloading.
        assert_eq!(fastflow.summary.offloaded_samples, 0, "{cores} cores");
        // Resize-Off has the lowest traffic of the uniform policies, and
        // also beats SOPHON's traffic while limited cores force SOPHON to
        // hold back (the paper's sweep stops at 5 cores; with ~8+ cores
        // SOPHON offloads everything beneficial and wins traffic too).
        for r in &reports {
            if r.policy != "sophon" {
                assert!(
                    resize.epoch.traffic_bytes <= r.epoch.traffic_bytes,
                    "{} cores: resize traffic vs {}",
                    cores,
                    r.policy
                );
            }
        }
        if cores <= 2 {
            assert!(
                resize.epoch.traffic_bytes < sophon.epoch.traffic_bytes,
                "{cores} cores: Resize-Off should have the lowest traffic"
            );
        }
        // ...but with ≤ 2 cores its storage-CPU appetite makes it slower
        // than No-Off.
        if cores <= 2 {
            assert!(
                resize.epoch.epoch_seconds > no_off,
                "{cores} cores: Resize-Off {} should exceed No-Off {no_off}",
                resize.epoch.epoch_seconds
            );
        }
        // SOPHON is the fastest policy at every core count.
        for r in &reports {
            assert!(
                sophon.epoch.epoch_seconds <= r.epoch.epoch_seconds + 1e-9,
                "{} cores: SOPHON vs {}",
                cores,
                r.policy
            );
        }
        sophon_times.push(sophon.epoch.epoch_seconds);
    }
    // Diminishing returns: the per-core gain shrinks as cores are added
    // (the paper: 0→1 core saves 22 s, 4→5 only 9 s).
    let gains: Vec<f64> = sophon_times
        .windows(2)
        .zip(core_counts.windows(2))
        .map(|(t, c)| (t[0] - t[1]) / (c[1] - c[0]) as f64)
        .collect();
    for w in gains.windows(2) {
        assert!(w[1] <= w[0] + 1e-6, "per-core gains should shrink: {gains:?}");
    }
    assert!(gains[0] > 0.0, "first extra cores must help: {sophon_times:?}");
}

#[test]
fn sophon_never_loses_to_no_off_anywhere() {
    // Robustness sweep across datasets, models, and storage cores: SOPHON
    // may at worst match No-Off (it falls back to no offloading).
    for ds in [DatasetSpec::openimages_like(1024, 9), DatasetSpec::imagenet_like(1024, 9)] {
        for gpu in [GpuModel::AlexNet, GpuModel::ResNet18, GpuModel::ResNet50] {
            for cores in [0usize, 1, 48] {
                let mut s = scenario(ds.clone(), cores);
                s.gpu = gpu;
                let no_off = s.run(&NoOffPolicy).unwrap();
                let sophon = s.run(&SophonPolicy::default()).unwrap();
                assert!(
                    sophon.epoch.epoch_seconds <= no_off.epoch.epoch_seconds * 1.001,
                    "{} {:?} {} cores: sophon {} vs no-off {}",
                    ds.name,
                    gpu,
                    cores,
                    sophon.epoch.epoch_seconds,
                    no_off.epoch.epoch_seconds
                );
            }
        }
    }
}
