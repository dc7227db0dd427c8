//! Property tests for the telemetry estimators and the drift detector.
//!
//! The load-bearing property is order-independence: the controller's
//! drift verdicts are computed from windowed statistics, so any
//! interleaving of the observations that land in a window must produce
//! the same verdict. Combined with monotonic-timestamp rejection, this is
//! what makes "same seed → same replan points" hold end to end.

use proptest::prelude::*;
use telemetry::{
    percentile, windowed_mean, windowed_rate, CusumDetector, DriftConfig, Ewma, MetricSeries,
};

/// Builds a series from `(t, v)` pairs, returning how many were accepted.
fn fill(series: &mut MetricSeries, pairs: &[(f64, f64)]) -> usize {
    pairs.iter().filter(|&&(t, v)| series.push(t, v).is_ok()).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pushing any non-decreasing finite sequence succeeds entirely, and
    /// the series mean matches the plain arithmetic mean of the retained
    /// tail.
    #[test]
    fn monotone_pushes_all_accepted(values in proptest::collection::vec(0u32..1000, 1..64)) {
        let mut s = MetricSeries::new(32);
        let pairs: Vec<(f64, f64)> =
            values.iter().enumerate().map(|(i, &v)| (i as f64, v as f64)).collect();
        prop_assert_eq!(fill(&mut s, &pairs), pairs.len());
        prop_assert_eq!(s.rejected(), 0);
        let tail: Vec<f64> =
            pairs.iter().rev().take(32).rev().map(|&(_, v)| v).collect();
        let expect = tail.iter().sum::<f64>() / tail.len() as f64;
        let got = s.mean_over(f64::INFINITY, pairs.len() as f64).unwrap();
        prop_assert!((got - expect).abs() < 1e-9);
    }

    /// A timestamp rewind anywhere in the stream is rejected and leaves
    /// the accepted contents exactly what in-order delivery would give.
    #[test]
    fn out_of_order_rejection_preserves_prefix(
        n in 2usize..40,
        rewind_at in 1usize..39,
    ) {
        let rewind_at = rewind_at.min(n - 1);
        let mut s = MetricSeries::new(64);
        for i in 0..n {
            s.push(i as f64, i as f64).unwrap();
            if i == rewind_at {
                // A sample from the past: must bounce without side effects.
                prop_assert!(s.push(i as f64 - 1.5, 999.0).is_err());
            }
        }
        prop_assert_eq!(s.len(), n);
        prop_assert_eq!(s.rejected(), 1);
        let w = s.window(0.0);
        for (i, sample) in w.iter().enumerate() {
            prop_assert_eq!(sample.value, i as f64);
        }
    }

    /// windowed_mean and percentile are permutation-invariant, so a drift
    /// verdict computed from a window statistic cannot depend on the
    /// arrival interleaving of the window's samples.
    #[test]
    fn window_statistics_are_permutation_invariant(
        values in proptest::collection::vec(0u32..10_000, 1..48),
        seed in any::<u64>(),
    ) {
        let a: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        // Deterministic Fisher–Yates driven by the seed.
        let mut b = a.clone();
        let mut state = seed | 1;
        for i in (1..b.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            b.swap(i, j);
        }
        let wrap = |v: &[f64]| -> Vec<telemetry::MetricSample> {
            v.iter().map(|&value| telemetry::MetricSample { t: 0.0, value }).collect()
        };
        prop_assert_eq!(windowed_mean(&wrap(&a)), windowed_mean(&wrap(&b)));
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(percentile(&a, q), percentile(&b, q));
        }
    }

    /// Drift verdicts from window means are stable under shuffled sample
    /// order: two series fed the same per-window observations in different
    /// intra-window order trip identical verdicts at identical times.
    #[test]
    fn drift_verdicts_stable_under_shuffled_window_order(
        seed in any::<u64>(),
        step in 2.0f64..6.0,
        flip_at in 4usize..12,
    ) {
        let windows = 16usize;
        let per_window = 8usize;
        let run = |shuffle: bool| -> Vec<(u64, String)> {
            let mut series = MetricSeries::new(256);
            let mut det = CusumDetector::new(DriftConfig::for_reference(1.0)).unwrap();
            let mut verdicts = Vec::new();
            let mut state = seed | 1;
            for w in 0..windows {
                let level = if w < flip_at { 1.0 } else { step };
                // Jittered observations around the level; same multiset
                // either way, order optionally shuffled. Timestamps within
                // a window are equal, so shuffling stays push-legal.
                let mut obs: Vec<f64> =
                    (0..per_window).map(|i| level + 0.01 * (i as f64 - 3.5)).collect();
                if shuffle {
                    for i in (1..obs.len()).rev() {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let j = (state >> 33) as usize % (i + 1);
                        obs.swap(i, j);
                    }
                }
                let t = w as f64;
                for v in obs {
                    series.push(t, v).unwrap();
                }
                let mean = series.mean_last(per_window).unwrap();
                if let Some(v) = det.update(t, mean) {
                    verdicts.push((w as u64, format!("{:?}@{}", v.direction, v.at)));
                }
            }
            verdicts
        };
        let ordered = run(false);
        let shuffled = run(true);
        prop_assert_eq!(&ordered, &shuffled);
        prop_assert!(!ordered.is_empty(), "a {step}x step must trip at least once");
    }

    /// The cumulative-counter rate estimator recovers a constant rate
    /// exactly, regardless of sampling cadence.
    #[test]
    fn windowed_rate_recovers_constant_rate(
        rate in 1u32..100_000,
        gaps in proptest::collection::vec(1u32..50, 2..32),
    ) {
        let mut t = 0.0f64;
        let mut samples = Vec::new();
        for g in &gaps {
            t += *g as f64 / 10.0;
            samples.push(telemetry::MetricSample { t, value: t * rate as f64 });
        }
        let got = windowed_rate(&samples).unwrap();
        prop_assert!((got - rate as f64).abs() / (rate as f64) < 1e-9);
    }

    /// EWMA stays within the observed range (it is a convex combination).
    #[test]
    fn ewma_bounded_by_observations(
        values in proptest::collection::vec(0u32..1000, 1..64),
        alpha_pct in 1u32..100,
    ) {
        let mut e = Ewma::new(alpha_pct as f64 / 100.0);
        let lo = *values.iter().min().unwrap() as f64;
        let hi = *values.iter().max().unwrap() as f64;
        for &v in &values {
            let out = e.update(v as f64).unwrap();
            prop_assert!(out >= lo - 1e-9 && out <= hi + 1e-9);
        }
    }
}

/// Empty-window behavior is `None` across every estimator — no silent
/// zeros that a controller could mistake for a real reading.
#[test]
fn empty_windows_yield_none_everywhere() {
    let s = MetricSeries::new(8);
    assert_eq!(s.mean_over(10.0, 0.0), None);
    assert_eq!(s.rate_over(10.0, 0.0), None);
    assert_eq!(s.percentile_over(0.5, 10.0, 0.0), None);
    assert_eq!(windowed_mean(&[]), None);
    assert_eq!(windowed_rate(&[]), None);
    assert_eq!(percentile(&[], 0.5), None);
}
