//! Deficit-weighted round robin over per-tenant FIFO queues.

use std::collections::{BTreeMap, VecDeque};

use crate::TenantId;

#[derive(Debug)]
struct Queue<T> {
    /// FIFO of `(item, cost)` pairs; cost is in scheduler units
    /// (typically bytes, or 1 for count-fair scheduling).
    items: VecDeque<(T, u64)>,
    /// Unspent service credit carried across rounds.
    deficit: u64,
    weight: u32,
    in_ring: bool,
}

/// A deficit-weighted round-robin (DWRR) scheduler.
///
/// Each tenant owns a FIFO queue; active tenants sit in a service ring.
/// A tenant at the front of the ring serves items while its deficit
/// counter covers their cost; otherwise it earns `quantum × weight`
/// credit and the ring rotates. Over time each backlogged tenant's
/// service share converges to its weight fraction regardless of item
/// sizes — a large-request tenant cannot crowd out small-request ones.
///
/// Order is deterministic: the ring is FIFO over activation order, and
/// queues drain in arrival order. Idle tenants carry no credit (the
/// deficit resets when a queue empties), so a tenant cannot bank credit
/// while idle and then burst past its share.
#[derive(Debug)]
pub struct DwrrScheduler<T> {
    quantum: u64,
    queues: BTreeMap<u16, Queue<T>>,
    ring: VecDeque<u16>,
    len: usize,
}

impl<T> DwrrScheduler<T> {
    /// A scheduler granting `quantum × weight` credit per round.
    ///
    /// Pick the quantum near the typical item cost: bytes of a typical
    /// response for byte-fair scheduling, or 1 for count-fair.
    ///
    /// # Panics
    ///
    /// Panics when `quantum` is zero (rounds would never earn credit).
    pub fn new(quantum: u64) -> DwrrScheduler<T> {
        assert!(quantum > 0, "quantum must be positive");
        DwrrScheduler { quantum, queues: BTreeMap::new(), ring: VecDeque::new(), len: 0 }
    }

    /// Sets `tenant`'s weight for future credit grants.
    ///
    /// # Panics
    ///
    /// Panics when `weight` is zero.
    pub fn set_weight(&mut self, tenant: TenantId, weight: u32) {
        assert!(weight >= 1, "weight must be at least 1");
        self.queue_mut(tenant).weight = weight;
    }

    fn queue_mut(&mut self, tenant: TenantId) -> &mut Queue<T> {
        self.queues.entry(tenant.0).or_insert_with(|| Queue {
            items: VecDeque::new(),
            deficit: 0,
            weight: 1,
            in_ring: false,
        })
    }

    /// Enqueues `item` for `tenant` with the given service cost.
    pub fn push(&mut self, tenant: TenantId, cost: u64, item: T) {
        let q = self.queue_mut(tenant);
        q.items.push_back((item, cost));
        if !q.in_ring {
            q.in_ring = true;
            q.deficit = 0;
            self.ring.push_back(tenant.0);
        }
        self.len += 1;
    }

    /// Dequeues the next item in DWRR order, with its tenant.
    pub fn pop(&mut self) -> Option<(TenantId, T)> {
        loop {
            let &front = self.ring.front()?;
            let q = self.queues.get_mut(&front).expect("ring tenants have queues");
            let Some(&(_, head_cost)) = q.items.front() else {
                // Drained while in the ring: retire it and drop banked credit.
                q.in_ring = false;
                q.deficit = 0;
                self.ring.pop_front();
                continue;
            };
            if q.deficit >= head_cost {
                q.deficit -= head_cost;
                let (item, _) = q.items.pop_front().expect("checked non-empty");
                if q.items.is_empty() {
                    q.in_ring = false;
                    q.deficit = 0;
                    self.ring.pop_front();
                }
                self.len -= 1;
                return Some((TenantId(front), item));
            }
            // Not enough credit: earn a quantum and move to the back.
            q.deficit = q.deficit.saturating_add(self.quantum.saturating_mul(q.weight as u64));
            self.ring.rotate_left(1);
        }
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_fifo_within_a_tenant() {
        let mut s = DwrrScheduler::new(10);
        for i in 0..5 {
            s.push(TenantId(1), 10, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn equal_weights_interleave_equally() {
        let mut s = DwrrScheduler::new(1);
        for i in 0..6 {
            s.push(TenantId(0), 1, i);
            s.push(TenantId(1), 1, i);
        }
        let mut counts = [0usize; 2];
        for _ in 0..6 {
            let (t, _) = s.pop().unwrap();
            counts[t.0 as usize] += 1;
        }
        // After six pops the split is even (±1 for round phase).
        assert!(counts[0].abs_diff(counts[1]) <= 1, "{counts:?}");
    }

    #[test]
    fn service_share_follows_weights_under_backlog() {
        let mut s = DwrrScheduler::new(100);
        s.set_weight(TenantId(0), 1);
        s.set_weight(TenantId(1), 3);
        for i in 0..400u32 {
            s.push(TenantId(0), 100, i);
            s.push(TenantId(1), 100, i);
        }
        let mut served = [0u32; 2];
        for _ in 0..200 {
            let (t, _) = s.pop().unwrap();
            served[t.0 as usize] += 1;
        }
        // Weight-3 tenant gets ~3× the service while both are backlogged.
        let ratio = served[1] as f64 / served[0] as f64;
        assert!((2.5..=3.5).contains(&ratio), "served {served:?}");
    }

    #[test]
    fn large_items_cannot_crowd_out_small_ones() {
        // Tenant 0 sends 10× larger items; with byte costs, tenant 1
        // still gets ~10× as many items through per unit of service.
        let mut s = DwrrScheduler::new(1000);
        for i in 0..100u32 {
            s.push(TenantId(0), 10_000, i);
            s.push(TenantId(1), 1_000, i);
        }
        let mut bytes = [0u64; 2];
        let mut items = [0u32; 2];
        for _ in 0..55 {
            let (t, _) = s.pop().unwrap();
            bytes[t.0 as usize] += if t.0 == 0 { 10_000 } else { 1_000 };
            items[t.0 as usize] += 1;
        }
        // Byte service stays near parity even though item counts differ.
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!((0.5..=2.0).contains(&ratio), "bytes {bytes:?} items {items:?}");
        assert!(items[1] > items[0] * 5, "items {items:?}");
    }

    #[test]
    fn idle_tenants_do_not_bank_credit() {
        let mut s = DwrrScheduler::new(10);
        s.push(TenantId(0), 10, 'a');
        assert_eq!(s.pop(), Some((TenantId(0), 'a')));
        // Long idle stretch, then both tenants arrive together: no
        // stored deficit advantage for the returning tenant.
        for _ in 0..10 {
            s.push(TenantId(0), 10, 'x');
            s.push(TenantId(1), 10, 'y');
        }
        let mut first_four = Vec::new();
        for _ in 0..4 {
            first_four.push(s.pop().unwrap().0 .0);
        }
        assert_eq!(first_four.iter().filter(|&&t| t == 0).count(), 2, "{first_four:?}");
    }

    #[test]
    fn pop_on_empty_returns_none() {
        let mut s: DwrrScheduler<()> = DwrrScheduler::new(1);
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
    }
}
