//! Tenant identity and per-tenant serving contracts.

use std::collections::BTreeMap;

/// A tenant's wire-level identity.
///
/// Carried as a `u16` in every request frame; `0` is the default tenant,
/// which a client that names none sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The tenant a client that names none sends as.
    pub const DEFAULT: TenantId = TenantId(0);
}

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
    /// Maximum requests this tenant may have in flight on the server;
    /// admission control rejects (not queues) the excess.
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

    /// Returns a copy with the given in-flight bound.
    ///
    /// # Panics
    ///
    /// Panics when `bound` is zero.
    #[must_use]
    pub fn with_max_in_flight(mut self, bound: usize) -> TenantSpec {
        assert!(bound >= 1, "in-flight bound must be at least 1");
        self.max_in_flight = bound;
        self
    }
}

/// The set of tenant contracts a server enforces.
///
/// Unknown tenants fall back to `default_spec`, so a policy is never a
/// registration gate — it only changes weights and limits. The
/// `Default` policy is fully permissive (single implicit tenant, weight
/// 1, unmetered, no in-flight cap), which keeps single-job deployments
/// byte-identical to the pre-tenancy behaviour: any number of untagged
/// connections may pile work onto tenant 0, bounded only by the
/// per-connection flow control. Registering an explicit spec (or
/// tightening `default_spec`) is what opts a tenant into admission
/// limits.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPolicy {
    /// Explicit per-tenant contracts.
    pub(crate) specs: BTreeMap<u16, TenantSpec>,
    /// Contract applied to tenants without an explicit entry.
    pub(crate) default_spec: TenantSpec,
}

impl Default for TenantPolicy {
    fn default() -> TenantPolicy {
        TenantPolicy {
            specs: BTreeMap::new(),
            default_spec: TenantSpec::default().with_max_in_flight(usize::MAX),
        }
    }
}

impl TenantPolicy {
    /// The contract for `tenant` (explicit entry or the default).
    pub fn spec(&self, tenant: TenantId) -> &TenantSpec {
        self.specs.get(&tenant.0).unwrap_or(&self.default_spec)
    }

    /// Registers an explicit contract, replacing any previous one.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId, spec: TenantSpec) -> TenantPolicy {
        self.specs.insert(tenant.0, spec);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_tenants_get_the_default_spec() {
        let policy =
            TenantPolicy::default().with_tenant(TenantId(3), TenantSpec::default().with_weight(5));
        assert_eq!(policy.spec(TenantId(3)).weight, 5);
        assert_eq!(policy.spec(TenantId(9)).weight, 1);
        assert_eq!(policy.spec(TenantId(9)).quota_bytes_per_sec, None);
    }

    #[test]
    fn default_policy_never_caps_in_flight() {
        // Single-tenant deployments attribute every connection to
        // tenant 0; the default policy must not let that aggregate hit an
        // admission bound (per-connection flow control is the only limit).
        let policy = TenantPolicy::default();
        assert_eq!(policy.spec(TenantId::DEFAULT).max_in_flight, usize::MAX);
        assert_eq!(policy.spec(TenantId::DEFAULT).quota_bytes_per_sec, None);
    }

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
