//! Two-sided CUSUM drift detection with hysteresis.

/// Configuration of a [`CusumDetector`].
///
/// The detector watches a statistic (typically a windowed mean of an
/// observed/expected ratio) against `reference`. Deviations beyond `slack`
/// accumulate into one-sided sums; when a sum exceeds `threshold` the
/// detector trips. `slack` absorbs persistent small noise, `threshold`
/// sets how much accumulated evidence a verdict needs, and `hysteresis`
/// is the re-arm band: after a trip, the detector stays disarmed until the
/// statistic returns within `hysteresis` of the reference (or the caller
/// [`CusumDetector::rebase`]s onto the new level).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// The level the statistic is expected to hold.
    pub(crate) reference: f64,
    /// Per-update deviation ignored before accumulation (CUSUM `k`).
    pub(crate) slack: f64,
    /// Accumulated deviation that trips a verdict (CUSUM `h`).
    pub(crate) threshold: f64,
    /// Re-arm band: while disarmed, the statistic must come back within
    /// this distance of the reference before the detector arms again.
    pub(crate) hysteresis: f64,
}

impl DriftConfig {
    /// A reasonable default for ratio channels centered on `reference`:
    /// slack of 10% of the reference's magnitude, threshold of 50%,
    /// re-arm band of 20%.
    pub fn for_reference(reference: f64) -> DriftConfig {
        let scale = reference.abs().max(1e-12);
        DriftConfig {
            reference,
            slack: 0.10 * scale,
            threshold: 0.50 * scale,
            hysteresis: 0.20 * scale,
        }
    }
}

/// Errors constructing a [`CusumDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum DriftError {
    /// A config field is NaN/infinite or a magnitude is negative.
    InvalidConfig(DriftConfig),
}

impl std::fmt::Display for DriftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriftError::InvalidConfig(c) => write!(
                f,
                "invalid drift config (reference {}, slack {}, threshold {}, hysteresis {})",
                c.reference, c.slack, c.threshold, c.hysteresis
            ),
        }
    }
}

impl std::error::Error for DriftError {}

/// Which side of the reference the statistic drifted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftDirection {
    /// The statistic rose above the reference (e.g. service times grew —
    /// a straggler or a squeezed link).
    Up,
    /// The statistic fell below the reference (e.g. a squeezed resource
    /// recovered).
    Down,
}

/// A tripped drift detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftVerdict {
    /// Direction of the drift.
    pub direction: DriftDirection,
    /// Timestamp of the observation that tripped the detector.
    pub at: f64,
    /// The statistic's value at the trip — the controller's first estimate
    /// of the new level.
    pub level: f64,
    /// Accumulated evidence at the trip (≥ the configured threshold).
    pub(crate) evidence: f64,
}

/// A two-sided CUSUM detector with hysteresis.
///
/// Deterministic: verdicts are a pure function of the update sequence, so
/// under a seeded simulation the same seed trips the same verdicts at the
/// same virtual times.
#[derive(Debug, Clone, PartialEq)]
pub struct CusumDetector {
    config: DriftConfig,
    up: f64,
    down: f64,
    armed: bool,
    trips: u64,
}

impl CusumDetector {
    /// Creates an armed detector.
    ///
    /// # Errors
    ///
    /// [`DriftError::InvalidConfig`] when any field is non-finite or
    /// `slack`/`threshold`/`hysteresis` is negative.
    pub fn new(config: DriftConfig) -> Result<CusumDetector, DriftError> {
        let finite = config.reference.is_finite()
            && config.slack.is_finite()
            && config.threshold.is_finite()
            && config.hysteresis.is_finite();
        if !finite || config.slack < 0.0 || config.threshold < 0.0 || config.hysteresis < 0.0 {
            return Err(DriftError::InvalidConfig(config));
        }
        Ok(CusumDetector { config, up: 0.0, down: 0.0, armed: true, trips: 0 })
    }

    /// Folds in one statistic reading.
    ///
    /// Returns a verdict at most once per excursion: after tripping, the
    /// detector disarms and further updates return `None` until the
    /// statistic re-enters the hysteresis band around the reference (the
    /// excursion ended on its own) or [`CusumDetector::rebase`] declares a
    /// new reference (the controller acted on the verdict). Non-finite
    /// readings are ignored.
    pub fn update(&mut self, t: f64, value: f64) -> Option<DriftVerdict> {
        if !value.is_finite() || !t.is_finite() {
            return None;
        }
        let dev = value - self.config.reference;
        if !self.armed {
            if dev.abs() <= self.config.hysteresis {
                self.armed = true;
                self.up = 0.0;
                self.down = 0.0;
            }
            return None;
        }
        self.up = (self.up + dev - self.config.slack).max(0.0);
        self.down = (self.down - dev - self.config.slack).max(0.0);
        let (evidence, direction) = if self.up > self.down {
            (self.up, DriftDirection::Up)
        } else {
            (self.down, DriftDirection::Down)
        };
        if evidence > self.config.threshold {
            self.armed = false;
            self.up = 0.0;
            self.down = 0.0;
            self.trips += 1;
            return Some(DriftVerdict { direction, at: t, level: value, evidence });
        }
        None
    }

    /// Re-centers the detector on `reference` (scaling slack, threshold,
    /// and hysteresis to the new magnitude) and re-arms it. This is what a
    /// controller calls after acting on a verdict: the new level is now
    /// the expectation, and the next drift is measured from there.
    pub fn rebase(&mut self, reference: f64) {
        let old_scale = self.config.reference.abs().max(1e-12);
        let new_scale = reference.abs().max(1e-12);
        let ratio = new_scale / old_scale;
        self.config = DriftConfig {
            reference,
            slack: self.config.slack * ratio,
            threshold: self.config.threshold * ratio,
            hysteresis: self.config.hysteresis * ratio,
        };
        self.up = 0.0;
        self.down = 0.0;
        self.armed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> CusumDetector {
        CusumDetector::new(DriftConfig::for_reference(1.0)).unwrap()
    }

    #[test]
    fn steady_signal_never_trips() {
        let mut d = detector();
        for i in 0..10_000 {
            // Persistent noise inside the slack band.
            let v = 1.0 + if i % 2 == 0 { 0.05 } else { -0.05 };
            assert_eq!(d.update(i as f64, v), None);
        }
        assert_eq!(d.trips, 0);
    }

    #[test]
    fn step_change_trips_with_direction_and_level() {
        let mut d = detector();
        for i in 0..20 {
            assert_eq!(d.update(i as f64, 1.0), None);
        }
        let mut verdict = None;
        for i in 20..40 {
            if let Some(v) = d.update(i as f64, 2.5) {
                verdict = Some(v);
                break;
            }
        }
        let v = verdict.expect("a 2.5x step must trip");
        assert_eq!(v.direction, DriftDirection::Up);
        assert_eq!(v.level, 2.5);
        assert!(v.evidence > 0.5);
        assert!(v.at < 23.0, "evidence accumulates fast on a big step, tripped at {}", v.at);
    }

    #[test]
    fn downward_drift_detected() {
        let mut d = detector();
        let mut verdict = None;
        for i in 0..40 {
            if let Some(v) = d.update(i as f64, 0.3) {
                verdict = Some(v);
                break;
            }
        }
        assert_eq!(verdict.unwrap().direction, DriftDirection::Down);
    }

    #[test]
    fn hysteresis_suppresses_repeat_verdicts() {
        let mut d = detector();
        let mut verdicts = 0;
        // A persistent excursion: exactly one verdict, not one per update.
        for i in 0..1000 {
            if d.update(i as f64, 3.0).is_some() {
                verdicts += 1;
            }
        }
        assert_eq!(verdicts, 1);
        assert!(!d.armed);
        // Signal returns to the reference: the detector re-arms and a new
        // excursion yields a new verdict.
        for i in 1000..1010 {
            assert_eq!(d.update(i as f64, 1.0), None);
        }
        assert!(d.armed);
        let mut second = false;
        for i in 1010..1100 {
            if d.update(i as f64, 3.0).is_some() {
                second = true;
                break;
            }
        }
        assert!(second);
        assert_eq!(d.trips, 2);
    }

    #[test]
    fn rebase_rearms_on_the_new_level() {
        let mut d = detector();
        let mut tripped = None;
        for i in 0..100 {
            if let Some(v) = d.update(i as f64, 2.0) {
                tripped = Some(v);
                break;
            }
        }
        let v = tripped.unwrap();
        d.rebase(v.level);
        assert!(d.armed);
        assert_eq!(d.config.reference, 2.0);
        // The new level is now nominal: no verdicts.
        for i in 100..300 {
            assert_eq!(d.update(i as f64, 2.0), None);
        }
        // But a further drift from the new level trips again, and the
        // rebased bands scale with the level (20% of 2.0, not of 1.0).
        let mut second = None;
        for i in 300..400 {
            if let Some(v) = d.update(i as f64, 5.0) {
                second = Some(v);
                break;
            }
        }
        assert_eq!(second.unwrap().direction, DriftDirection::Up);
        assert!((d.config.hysteresis - 0.4).abs() < 1e-12);
    }

    #[test]
    fn non_finite_updates_ignored() {
        let mut d = detector();
        assert_eq!(d.update(0.0, f64::NAN), None);
        assert_eq!(d.update(f64::INFINITY, 1.0), None);
        assert_eq!(d.trips, 0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = DriftConfig { reference: 1.0, slack: -0.1, threshold: 0.5, hysteresis: 0.1 };
        assert!(matches!(CusumDetector::new(bad), Err(DriftError::InvalidConfig(_))));
        let nan = DriftConfig { reference: f64::NAN, slack: 0.1, threshold: 0.5, hysteresis: 0.1 };
        assert!(CusumDetector::new(nan).is_err());
    }
}
