//! Live telemetry for the feedback-controlled planner.
//!
//! SOPHON plans from offline profiles; this crate supplies the pieces that
//! let the plan *react* when reality drifts away from those profiles
//! (storage CPU contention, link congestion, stragglers):
//!
//! * [`MetricSeries`] — a bounded ring buffer of `(time, value)` samples
//!   with monotonic timestamps. Out-of-order pushes are a typed error, so
//!   every window read off a series is causally ordered by construction.
//! * Estimators — windowed mean / [`windowed_rate`] for cumulative
//!   counters / nearest-rank [`percentile`], plus an [`Ewma`] smoother.
//!   All are pure functions of the window contents (permutation-invariant
//!   where the statistic is), which keeps drift verdicts independent of
//!   intra-window arrival interleavings.
//! * [`CusumDetector`] — a two-sided CUSUM drift detector with hysteresis:
//!   it accumulates deviations from a reference level and trips when the
//!   accumulated evidence crosses a threshold; after tripping it disarms
//!   until either values return near the reference or the caller
//!   [`CusumDetector::rebase`]s it onto the new level (what a controller
//!   does after acting on a verdict).
//! * [`TelemetryHub`] — a name-keyed registry of series (a sorted name
//!   index, so iteration order is deterministic) shared by instrumented
//!   components; a hot producer resolves each name to a [`SeriesId`] once
//!   and pushes by id.
//!
//! Timestamps are plain `f64` seconds from any monotonic clock — the
//! discrete-event simulator's virtual clock or a wall-clock
//! `Instant::elapsed()`. Nothing in this crate reads a clock itself, which
//! is what keeps drift verdicts bit-reproducible under a fixed seed.
//!
//! # Example
//!
//! ```
//! use telemetry::{CusumDetector, DriftConfig, MetricSeries};
//!
//! let mut series = MetricSeries::new(128);
//! let mut det = CusumDetector::new(DriftConfig::for_reference(1.0)).unwrap();
//! // Nominal for a while, then the link is squeezed: observed/expected
//! // transfer-time ratio jumps to ~2.5.
//! let mut verdict = None;
//! for i in 0..40 {
//!     let t = i as f64;
//!     let v = if i < 20 { 1.0 } else { 2.5 };
//!     series.push(t, v).unwrap();
//!     let mean = series.mean_over(8.0, t).unwrap();
//!     if let Some(d) = det.update(t, mean) {
//!         verdict = Some(d);
//!         break;
//!     }
//! }
//! let drift = verdict.expect("a 2.5x squeeze must trip the detector");
//! assert_eq!(drift.direction, telemetry::DriftDirection::Up);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod drift;
mod estimator;
mod hub;
mod series;

pub use drift::{CusumDetector, DriftConfig, DriftDirection, DriftError, DriftVerdict};
pub use estimator::{percentile, windowed_mean, windowed_rate, Ewma};
pub use hub::{SeriesId, TelemetryHub};
pub use series::{MetricSample, MetricSeries, SeriesError};
