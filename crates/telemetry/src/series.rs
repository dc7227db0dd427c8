//! Bounded, monotonically timestamped metric series.

use std::collections::VecDeque;

use crate::estimator;

/// One `(time, value)` observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSample {
    /// Seconds on the producer's monotonic clock (virtual or wall).
    pub t: f64,
    /// The observed value.
    pub value: f64,
}

/// Errors from pushing into a [`MetricSeries`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SeriesError {
    /// The sample's timestamp precedes the newest accepted sample's.
    /// Telemetry clocks are monotonic; a rewind means the producer mixed
    /// clocks or reordered sends, and silently accepting it would corrupt
    /// every window read downstream.
    OutOfOrder {
        /// The rejected timestamp.
        t: f64,
        /// The newest accepted timestamp.
        newest: f64,
    },
    /// The timestamp or value is NaN or infinite.
    NonFinite {
        /// The offending timestamp.
        t: f64,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for SeriesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeriesError::OutOfOrder { t, newest } => {
                write!(f, "sample at t={t} precedes newest accepted t={newest}")
            }
            SeriesError::NonFinite { t, value } => {
                write!(f, "non-finite sample (t={t}, value={value})")
            }
        }
    }
}

impl std::error::Error for SeriesError {}

/// A bounded ring buffer of timestamped observations.
///
/// Pushes must be in non-decreasing time order (equal timestamps are fine:
/// many per-sample observations can share one batch-boundary clock
/// reading). When the buffer is full the oldest sample is evicted, so the
/// series always holds the most recent `capacity` observations — the only
/// ones a windowed estimator can see anyway.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    capacity: usize,
    buf: VecDeque<MetricSample>,
    accepted: u64,
    rejected: u64,
}

impl MetricSeries {
    /// Creates an empty series holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero (allocation-time invariant).
    pub fn new(capacity: usize) -> MetricSeries {
        assert!(capacity > 0, "a series needs capacity for at least one sample");
        MetricSeries { capacity, buf: VecDeque::with_capacity(capacity), accepted: 0, rejected: 0 }
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Samples rejected as out-of-order or non-finite.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Appends an observation.
    ///
    /// # Errors
    ///
    /// [`SeriesError::OutOfOrder`] when `t` precedes the newest accepted
    /// timestamp, [`SeriesError::NonFinite`] for NaN/infinite inputs. A
    /// rejected sample leaves the series unchanged (and bumps
    /// [`MetricSeries::rejected`]).
    pub fn push(&mut self, t: f64, value: f64) -> Result<(), SeriesError> {
        if !t.is_finite() || !value.is_finite() {
            self.rejected += 1;
            return Err(SeriesError::NonFinite { t, value });
        }
        if let Some(newest) = self.buf.back() {
            if t < newest.t {
                self.rejected += 1;
                return Err(SeriesError::OutOfOrder { t, newest: newest.t });
            }
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(MetricSample { t, value });
        self.accepted += 1;
        Ok(())
    }

    /// The retained samples with `t >= since`, oldest first.
    pub fn window(&self, since: f64) -> Vec<MetricSample> {
        // Samples are time-ordered; scan back from the newest.
        let start = self.buf.iter().rposition(|s| s.t < since).map_or(0, |i| i + 1);
        self.buf.iter().skip(start).copied().collect()
    }

    /// Mean value over the trailing `window_seconds` ending at `now`;
    /// `None` when the window is empty.
    pub fn mean_over(&self, window_seconds: f64, now: f64) -> Option<f64> {
        estimator::windowed_mean(&self.window(now - window_seconds))
    }

    /// Rate of change over the trailing `window_seconds` ending at `now`,
    /// treating values as a cumulative counter; `None` when the window has
    /// fewer than two samples or spans zero time.
    pub fn rate_over(&self, window_seconds: f64, now: f64) -> Option<f64> {
        estimator::windowed_rate(&self.window(now - window_seconds))
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`) of the values in the
    /// trailing `window_seconds` ending at `now`; `None` on empty windows.
    pub fn percentile_over(&self, q: f64, window_seconds: f64, now: f64) -> Option<f64> {
        let values: Vec<f64> = self.window(now - window_seconds).iter().map(|s| s.value).collect();
        estimator::percentile(&values, q)
    }

    /// Mean of the newest `n` samples; `None` when empty.
    pub fn mean_last(&self, n: usize) -> Option<f64> {
        let take = n.min(self.buf.len());
        if take == 0 {
            return None;
        }
        let sum: f64 = self.buf.iter().rev().take(take).map(|s| s.value).sum();
        Some(sum / take as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_window() {
        let mut s = MetricSeries::new(8);
        for i in 0..5 {
            s.push(i as f64, i as f64 * 10.0).unwrap();
        }
        assert_eq!(s.len(), 5);
        let w = s.window(2.0);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].t, 2.0);
        assert_eq!(w.last().unwrap().value, 40.0, "the window ends at the newest sample");
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut s = MetricSeries::new(3);
        for i in 0..10 {
            s.push(i as f64, 0.0).unwrap();
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.buf.front().unwrap().t, 7.0);
        assert_eq!(s.accepted, 10);
    }

    #[test]
    fn out_of_order_rejected_and_counted() {
        let mut s = MetricSeries::new(8);
        s.push(5.0, 1.0).unwrap();
        let err = s.push(4.0, 2.0).unwrap_err();
        assert_eq!(err, SeriesError::OutOfOrder { t: 4.0, newest: 5.0 });
        assert_eq!(s.len(), 1);
        assert_eq!(s.rejected(), 1);
        // Equal timestamps are allowed (batch-boundary clock sharing).
        s.push(5.0, 3.0).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn non_finite_rejected() {
        let mut s = MetricSeries::new(4);
        assert!(matches!(s.push(f64::NAN, 1.0), Err(SeriesError::NonFinite { .. })));
        assert!(matches!(s.push(0.0, f64::INFINITY), Err(SeriesError::NonFinite { .. })));
        assert!(s.is_empty());
    }

    #[test]
    fn empty_window_estimators_are_none() {
        let s = MetricSeries::new(4);
        assert_eq!(s.mean_over(10.0, 100.0), None);
        assert_eq!(s.rate_over(10.0, 100.0), None);
        assert_eq!(s.percentile_over(0.5, 10.0, 100.0), None);
        assert_eq!(s.mean_last(3), None);
    }

    #[test]
    fn windowed_statistics() {
        let mut s = MetricSeries::new(64);
        // Cumulative counter growing 100 per second.
        for i in 0..=10 {
            s.push(i as f64, i as f64 * 100.0).unwrap();
        }
        let rate = s.rate_over(5.0, 10.0).unwrap();
        assert!((rate - 100.0).abs() < 1e-9, "rate {rate}");
        assert_eq!(s.mean_last(1), Some(1000.0));
        let p50 = s.percentile_over(0.5, 100.0, 10.0).unwrap();
        assert_eq!(p50, 500.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        MetricSeries::new(0);
    }
}
