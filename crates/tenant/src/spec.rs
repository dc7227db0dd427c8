//! Tenant identity and per-tenant serving contracts.

/// A tenant's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u16);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// One tenant's serving contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Scheduling weight (relative share of storage service); must be at
    /// least 1.
    pub weight: u32,
    /// Egress byte quota in bytes per second; `None` means unmetered.
    pub quota_bytes_per_sec: Option<f64>,
    /// Token-bucket burst allowance in bytes (ignored when unmetered).
    pub burst_bytes: u64,
    /// Maximum requests this tenant may have in flight at once.
    pub max_in_flight: usize,
}

impl Default for TenantSpec {
    fn default() -> TenantSpec {
        TenantSpec { weight: 1, quota_bytes_per_sec: None, burst_bytes: 1 << 20, max_in_flight: 64 }
    }
}

impl TenantSpec {
    /// Returns a copy with the given scheduling weight.
    ///
    /// # Panics
    ///
    /// Panics when `weight` is zero.
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> TenantSpec {
        assert!(weight >= 1, "tenant weight must be at least 1");
        self.weight = weight;
        self
    }

    /// Returns a copy metered at `bytes_per_sec` with the given burst.
    ///
    /// # Panics
    ///
    /// Panics when `bytes_per_sec` is not finite and positive or `burst`
    /// is zero.
    #[must_use]
    pub fn with_quota(mut self, bytes_per_sec: f64, burst: u64) -> TenantSpec {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "quota must be finite and positive, got {bytes_per_sec}"
        );
        assert!(burst > 0, "burst must be positive");
        self.quota_bytes_per_sec = Some(bytes_per_sec);
        self.burst_bytes = burst;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "weight must be at least 1")]
    fn zero_weight_is_rejected() {
        let _ = TenantSpec::default().with_weight(0);
    }

    #[test]
    #[should_panic(expected = "quota must be finite and positive")]
    fn non_positive_quota_is_rejected() {
        let _ = TenantSpec::default().with_quota(0.0, 1024);
    }
}
