//! Estimators over metric windows.
//!
//! All functions are pure and total over their inputs; callers get `None`
//! rather than a poisoned number when a window is too small to support the
//! statistic. `windowed_mean` and [`percentile`] are permutation-invariant
//! in the window contents, which is what makes drift verdicts computed
//! from them independent of intra-window arrival order.

use crate::series::MetricSample;

/// Mean of the window's values; `None` on an empty window.
pub fn windowed_mean(window: &[MetricSample]) -> Option<f64> {
    if window.is_empty() {
        return None;
    }
    Some(window.iter().map(|s| s.value).sum::<f64>() / window.len() as f64)
}

/// Rate of change of a cumulative counter over the window:
/// `(last.value - first.value) / (last.t - first.t)`.
///
/// `None` when the window has fewer than two samples or spans zero time —
/// a counter read once says nothing about a rate. Negative rates are
/// reported as-is (a counter reset mid-window); callers that know their
/// counter is monotonic can clamp.
pub fn windowed_rate(window: &[MetricSample]) -> Option<f64> {
    let (first, last) = match (window.first(), window.last()) {
        (Some(f), Some(l)) if l.t > f.t => (f, l),
        _ => return None,
    };
    Some((last.value - first.value) / (last.t - first.t))
}

/// Nearest-rank percentile of `values` for `q` in `[0, 1]`; `None` on an
/// empty slice or an out-of-range/non-finite `q`.
///
/// Sorting uses a total order over finite values (non-finite values never
/// enter a series, see `MetricSeries::push`), so the result is
/// deterministic for any input permutation.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !q.is_finite() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// An exponentially weighted moving average.
///
/// `value ← alpha * x + (1 - alpha) * value`, seeded by the first
/// observation. Smooths a noisy channel before it feeds a drift detector;
/// unlike the windowed estimators it is order-sensitive by design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates a smoother with weight `alpha` on the newest observation.
    ///
    /// # Panics
    ///
    /// Panics when `alpha` is outside `(0, 1]` (allocation-time
    /// invariant).
    pub fn new(alpha: f64) -> Ewma {
        assert!(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha {alpha} outside (0, 1]"
        );
        Ewma { alpha, value: None }
    }

    /// Folds in one observation and returns the updated average.
    /// Non-finite observations are ignored (the previous average stands).
    pub fn update(&mut self, x: f64) -> Option<f64> {
        if x.is_finite() {
            self.value = Some(match self.value {
                None => x,
                Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
            });
        }
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(pairs: &[(f64, f64)]) -> Vec<MetricSample> {
        pairs.iter().map(|&(t, value)| MetricSample { t, value }).collect()
    }

    #[test]
    fn mean_and_rate() {
        let win = w(&[(0.0, 0.0), (1.0, 100.0), (2.0, 300.0)]);
        assert!((windowed_mean(&win).unwrap() - 400.0 / 3.0).abs() < 1e-9);
        assert!((windowed_rate(&win).unwrap() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_windows() {
        assert_eq!(windowed_mean(&[]), None);
        assert_eq!(windowed_rate(&[]), None);
        assert_eq!(windowed_rate(&w(&[(1.0, 5.0)])), None);
        // Two samples at the same instant: no rate.
        assert_eq!(windowed_rate(&w(&[(1.0, 5.0), (1.0, 9.0)])), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 1.0), Some(9.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&v, 1.5), None);
        assert_eq!(percentile(&v, f64::NAN), None);
    }

    #[test]
    fn percentile_is_permutation_invariant() {
        let a = [4.0, 8.0, 15.0, 16.0, 23.0, 42.0];
        let b = [42.0, 4.0, 23.0, 8.0, 16.0, 15.0];
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(percentile(&a, q), percentile(&b, q));
        }
    }

    #[test]
    fn ewma_converges_and_ignores_non_finite_input() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.update(f64::NAN), None);
        assert_eq!(e.update(10.0), Some(10.0));
        assert_eq!(e.update(0.0), Some(5.0));
        assert_eq!(e.update(f64::NAN), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        Ewma::new(0.0);
    }
}
