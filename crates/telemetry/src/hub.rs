//! A name-keyed registry of metric series.

use std::collections::BTreeMap;

use crate::series::{MetricSeries, SeriesError};

/// A deterministic registry of [`MetricSeries`], keyed by name.
///
/// Instrumented components (the stage-graph driver, the TCP server's
/// tenant accounting, live traffic meters) all write into one hub; the
/// feedback controller reads windows back out. The series live in a `Vec`
/// in registration order, each at a [`SeriesId`]; a sorted `BTreeMap` from
/// name to id keeps iteration order stable, so anything derived from "all
/// series" is reproducible. A hot producer resolves its names to ids once
/// ([`TelemetryHub::register`]) and pushes by id, with no name lookup.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHub {
    capacity: usize,
    ids: BTreeMap<String, SeriesId>,
    series: Vec<MetricSeries>,
}

/// Where a [`TelemetryHub`] keeps one series: ids are dense, from 0 in
/// registration order, and are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesId(usize);

impl SeriesId {
    /// The id's position among its hub's series, for callers that keep
    /// per-series state in a `Vec` of their own.
    pub fn index(self) -> usize {
        self.0
    }
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
        TelemetryHub { capacity, ids: BTreeMap::new(), series: Vec::new() }
    }

    /// The id of `name`'s series, creating it empty on first use.
    pub fn register(&mut self, name: &str) -> SeriesId {
        // A registered series is found by `&str`; only a new name allocates
        // its key.
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let capacity = if self.capacity == 0 { DEFAULT_CAPACITY } else { self.capacity };
        let id = SeriesId(self.series.len());
        self.series.push(MetricSeries::new(capacity));
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Appends an observation to `name`'s series, creating it on first
    /// use.
    ///
    /// # Errors
    ///
    /// Propagates [`SeriesError`] from the underlying series (out-of-order
    /// or non-finite samples).
    pub fn push(&mut self, name: &str, t: f64, value: f64) -> Result<(), SeriesError> {
        let id = self.register(name);
        self.push_to(id, t, value)
    }

    /// Appends an observation to the series at `id`.
    ///
    /// # Errors
    ///
    /// Propagates [`SeriesError`] from the underlying series.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not registered with this hub.
    pub fn push_to(&mut self, id: SeriesId, t: f64, value: f64) -> Result<(), SeriesError> {
        self.series[id.0].push(t, value)
    }

    /// The id of `name`'s series, if it is registered.
    pub fn id(&self, name: &str) -> Option<SeriesId> {
        self.ids.get(name).copied()
    }

    /// The series registered under `name`, if any.
    pub fn series(&self, name: &str) -> Option<&MetricSeries> {
        self.id(name).map(|id| &self.series[id.0])
    }

    /// Iterates `(name, id, series)` triples in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, SeriesId, &MetricSeries)> {
        self.ids.iter().map(|(name, &id)| (name.as_str(), id, &self.series[id.0]))
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
        let names: Vec<&str> = hub.iter().map(|(name, _, _)| name).collect();
        assert_eq!(names, ["node0.cpu", "node1.link"]);
        assert_eq!(hub.series("node0.cpu").unwrap().len(), 2);
        assert_eq!(hub.series("missing"), None);
    }

    #[test]
    fn ids_are_dense_in_registration_order_and_iteration_stays_sorted() {
        let mut hub = TelemetryHub::new(16);
        let link = hub.register("node1.link");
        let cpu = hub.register("node0.cpu");
        assert_eq!((link.index(), cpu.index()), (0, 1));
        assert_eq!(hub.register("node1.link"), link, "a name keeps its id");
        assert_eq!(hub.id("node0.cpu"), Some(cpu));
        assert_eq!(hub.id("missing"), None);
        hub.push_to(cpu, 0.0, 2.0).unwrap();
        hub.push("node0.cpu", 1.0, 3.0).unwrap();
        let order: Vec<(&str, SeriesId, usize)> =
            hub.iter().map(|(name, id, series)| (name, id, series.len())).collect();
        assert_eq!(order, [("node0.cpu", cpu, 2), ("node1.link", link, 0)]);
    }

    #[test]
    fn default_hub_uses_default_capacity() {
        let mut hub = TelemetryHub::default();
        hub.push("x", 0.0, 1.0).unwrap();
        let mut want = MetricSeries::new(1024);
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
