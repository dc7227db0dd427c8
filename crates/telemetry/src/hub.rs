//! A name-keyed registry of metric series.

use std::collections::BTreeMap;

use crate::series::{MetricSeries, SeriesError};

/// A deterministic registry of [`MetricSeries`], keyed by name.
///
/// Instrumented components (the stage-graph driver, the TCP server's
/// tenant accounting, live traffic meters) all write into one hub; the
/// feedback controller reads windows back out. A `BTreeMap` keeps
/// iteration order stable so anything derived from "all series" is
/// reproducible.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHub {
    capacity: usize,
    series: BTreeMap<String, MetricSeries>,
}

/// Default per-series ring capacity.
const DEFAULT_CAPACITY: usize = 1024;

impl TelemetryHub {
    /// Creates a hub whose series each retain up to `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero (allocation-time invariant).
    pub fn new(capacity: usize) -> TelemetryHub {
        assert!(capacity > 0, "series capacity must be positive");
        TelemetryHub { capacity, series: BTreeMap::new() }
    }

    /// Appends an observation to `name`'s series, creating it on first
    /// use.
    ///
    /// # Errors
    ///
    /// Propagates [`SeriesError`] from the underlying series (out-of-order
    /// or non-finite samples).
    pub fn push(&mut self, name: &str, t: f64, value: f64) -> Result<(), SeriesError> {
        // A registered series is found by `&str`; only a new name allocates
        // its key.
        if let Some(series) = self.series.get_mut(name) {
            return series.push(t, value);
        }
        let capacity = if self.capacity == 0 { DEFAULT_CAPACITY } else { self.capacity };
        self.series
            .entry(name.to_string())
            .or_insert_with(|| MetricSeries::new(name, capacity))
            .push(t, value)
    }

    /// The series registered under `name`, if any.
    pub fn series(&self, name: &str) -> Option<&MetricSeries> {
        self.series.get(name)
    }

    /// Iterates `(name, series)` pairs in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricSeries)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_on_first_push_and_orders_names() {
        let mut hub = TelemetryHub::new(16);
        hub.push("node1.link", 0.0, 1.0).unwrap();
        hub.push("node0.cpu", 0.0, 2.0).unwrap();
        hub.push("node0.cpu", 1.0, 3.0).unwrap();
        let names: Vec<&str> = hub.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["node0.cpu", "node1.link"]);
        assert_eq!(hub.series("node0.cpu").unwrap().len(), 2);
        assert_eq!(hub.series("missing"), None);
    }

    #[test]
    fn default_hub_uses_default_capacity() {
        let mut hub = TelemetryHub::default();
        hub.push("x", 0.0, 1.0).unwrap();
        let mut want = MetricSeries::new("x", 1024);
        want.push(0.0, 1.0).unwrap();
        assert_eq!(hub.series("x"), Some(&want));
    }

    #[test]
    fn per_series_ordering_enforced_through_hub() {
        let mut hub = TelemetryHub::new(8);
        hub.push("x", 5.0, 1.0).unwrap();
        assert!(hub.push("x", 1.0, 1.0).is_err());
        // Other series are unaffected by one series' clock.
        hub.push("y", 1.0, 1.0).unwrap();
    }
}
