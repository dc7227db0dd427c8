/// Which resource dominates an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bottleneck {
    /// GPU compute (`T_G` predominant).
    Gpu,
    /// Compute-node preprocessing CPU (`T_CC`).
    ComputeCpu,
    /// Storage-node preprocessing CPU (`T_CS`).
    StorageCpu,
    /// The storage→compute link (`T_Net`).
    Network,
}

/// The paper's four per-epoch cost metrics (§3.2), in seconds:
///
/// * `t_g` — GPU time for one epoch;
/// * `t_cc` — compute-node preprocessing CPU time, divided by its cores;
/// * `t_cs` — storage-node offloaded CPU time, divided by its cores;
/// * `t_net` — total transfer bytes over the link bandwidth.
///
/// In a well-pipelined epoch the makespan approaches
/// `max(t_g, t_cc, t_cs, t_net)`, so the decision engine drives `t_net`
/// down only while it is the predominant term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostVector {
    /// GPU seconds per epoch.
    pub t_g: f64,
    /// Compute-node CPU seconds per epoch (per-core normalized).
    pub t_cc: f64,
    /// Storage-node CPU seconds per epoch (per-core normalized).
    pub t_cs: f64,
    /// Network transfer seconds per epoch.
    pub t_net: f64,
}

impl CostVector {
    /// Creates a cost vector.
    ///
    /// # Panics
    ///
    /// Panics when any component is negative or not finite.
    pub fn new(t_g: f64, t_cc: f64, t_cs: f64, t_net: f64) -> CostVector {
        for (name, v) in [("t_g", t_g), ("t_cc", t_cc), ("t_cs", t_cs), ("t_net", t_net)] {
            assert!(v.is_finite() && v >= 0.0, "invalid {name}: {v}");
        }
        CostVector { t_g, t_cc, t_cs, t_net }
    }

    /// The predominant metric (ties broken in the order GPU, compute CPU,
    /// storage CPU, network — so "network predominant" is a strict claim).
    pub(crate) fn predominant(&self) -> Bottleneck {
        let pairs = [
            (Bottleneck::Gpu, self.t_g),
            (Bottleneck::ComputeCpu, self.t_cc),
            (Bottleneck::StorageCpu, self.t_cs),
            (Bottleneck::Network, self.t_net),
        ];
        let mut best = pairs[0];
        for &p in &pairs[1..] {
            if p.1 > best.1 {
                best = p;
            }
        }
        best.0
    }

    /// The predicted epoch lower bound: the largest component.
    pub fn makespan(&self) -> f64 {
        self.t_g.max(self.t_cc).max(self.t_cs).max(self.t_net)
    }

    /// Whether the network is the strict predominant cost — the engine's
    /// continue-offloading condition.
    pub fn network_predominant(&self) -> bool {
        self.predominant() == Bottleneck::Network
    }
}

impl std::fmt::Display for CostVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "T_G={:.1}s T_CC={:.1}s T_CS={:.1}s T_Net={:.1}s",
            self.t_g, self.t_cc, self.t_cs, self.t_net
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predominant_picks_max() {
        let v = CostVector::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(v.predominant(), Bottleneck::Network);
        assert!(v.network_predominant());
        let v = CostVector::new(9.0, 2.0, 3.0, 4.0);
        assert_eq!(v.predominant(), Bottleneck::Gpu);
        assert!(!v.network_predominant());
    }

    #[test]
    fn ties_resolve_to_non_network() {
        // Equal network and GPU: network is NOT strictly predominant.
        let v = CostVector::new(4.0, 0.0, 0.0, 4.0);
        assert_eq!(v.predominant(), Bottleneck::Gpu);
    }

    #[test]
    fn makespan_is_max() {
        let v = CostVector::new(1.0, 5.0, 2.0, 3.0);
        assert_eq!(v.makespan(), 5.0);
    }

    #[test]
    #[should_panic(expected = "invalid t_net")]
    fn rejects_negative() {
        let _ = CostVector::new(0.0, 0.0, 0.0, -1.0);
    }

    #[test]
    fn display_is_informative() {
        let s = CostVector::new(1.0, 2.0, 3.0, 4.0).to_string();
        assert!(s.contains("T_Net=4.0s"), "{s}");
    }
}
