//! Per-request time budgets.
//!
//! The TCP client used to hide a hardcoded 50 ms read timeout deep in the
//! connection setup; a slow-but-correct server looked exactly like a dead
//! one. A [`Deadline`] makes the budget explicit: it is carried by the
//! client, started afresh at the top of every public call, and converted
//! into socket read timeouts as the remaining budget shrinks. Expiry
//! surfaces as [`ClientError::DeadlineExceeded`](crate::ClientError), which
//! the retry layer treats as transient — the canonical answer to a dropped
//! response frame.

use std::time::{Duration, Instant};

/// A time budget for one protocol exchange (configure or fetch batch).
///
/// `Deadline::NONE` means "block forever" — the pre-deadline behaviour and
/// the default. A finite deadline bounds the whole exchange, not each
/// individual read: the remaining budget shrinks as responses stream in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Deadline {
    budget: Option<Duration>,
}

impl Deadline {
    /// No deadline: block until the transport fails outright.
    pub const NONE: Deadline = Deadline { budget: None };

    /// A budget of `d` from the moment a request is issued.
    pub fn after(d: Duration) -> Deadline {
        Deadline { budget: Some(d) }
    }

    /// The configured budget, when finite.
    pub fn budget(&self) -> Option<Duration> {
        self.budget
    }

    /// Whether this deadline ever expires.
    pub fn is_finite(&self) -> bool {
        self.budget.is_some()
    }

    /// The absolute expiry for an exchange starting now.
    pub fn expiry_from_now(&self) -> Option<Instant> {
        self.budget.map(|b| Instant::now() + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        assert_eq!(Deadline::NONE.budget(), None);
        assert!(!Deadline::NONE.is_finite());
        assert_eq!(Deadline::NONE.expiry_from_now(), None);
        assert_eq!(Deadline::default(), Deadline::NONE);
    }

    #[test]
    fn finite_budget_yields_a_future_expiry() {
        let d = Deadline::after(Duration::from_millis(250));
        assert_eq!(d.budget(), Some(Duration::from_millis(250)));
        assert!(d.is_finite());
        let expiry = d.expiry_from_now().unwrap();
        assert!(expiry > Instant::now());
        assert!(expiry <= Instant::now() + Duration::from_millis(250));
    }
}
