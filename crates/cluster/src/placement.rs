//! Deterministic consistent-hash placement of samples across storage nodes.
//!
//! A [`ShardMap`] hashes each node onto a ring at `VNODES` points (virtual
//! nodes smooth the load split) and assigns every sample to the first node
//! clockwise of its own hash; the next `replication - 1` *distinct* nodes
//! clockwise hold replicas. Everything is keyed by a seed and plain
//! SplitMix64 hashing, so two processes given the same `(seed, nodes,
//! replication)` triple derive byte-identical shard maps — the property
//! that lets the client and the multi-server harness agree on ownership
//! without any coordination service.

/// Virtual nodes per physical node on the hash ring.
const VNODES: usize = 64;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// Ring points and sample lookups must hash in disjoint streams: node 0's
// vnode `v` and sample id `v` share the raw input `v`, so without the tag a
// small sample id hashes exactly onto a node-0 ring point and the
// `partition_point` lookup lands on that very point — pinning the first
// `VNODES` ids of every corpus to node 0.
const RING_STREAM: u64 = 0x5249_4e47; // "RING"
const SAMPLE_STREAM: u64 = 0x5341_4d50; // "SAMP"

fn mix(stream: u64, seed: u64, value: u64) -> u64 {
    splitmix64(seed ^ splitmix64(splitmix64(stream) ^ value))
}

/// Deterministic consistent-hash map from sample ids to storage nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// `(ring position, node)` pairs sorted by position.
    ring: Vec<(u64, usize)>,
    nodes: usize,
    replication: usize,
    seed: u64,
}

impl ShardMap {
    /// Builds the map for `nodes` storage nodes with `replication` owners
    /// per sample (primary + replicas), keyed by `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `nodes` is zero or `replication` is zero or exceeds
    /// `nodes` (a sample cannot have more distinct owners than nodes).
    pub fn new(nodes: usize, replication: usize, seed: u64) -> ShardMap {
        assert!(nodes > 0, "fleet needs at least one node");
        assert!(
            replication >= 1 && replication <= nodes,
            "replication {replication} must be in 1..={nodes}"
        );
        let mut ring = Vec::with_capacity(nodes * VNODES);
        for node in 0..nodes {
            for vnode in 0..VNODES {
                let h = mix(RING_STREAM, seed, (node as u64) << 32 | vnode as u64);
                ring.push((h, node));
            }
        }
        // Position ties (astronomically unlikely) break by node id so the
        // map stays a pure function of its inputs.
        ring.sort_unstable();
        ShardMap { ring, nodes, replication, seed }
    }

    /// Number of physical nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Owners per sample (primary + replicas).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The seed the map was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The ring index of the first point at or clockwise of `sample_id`'s
    /// hash; `ring.len()` when the hash lies past the last point, which
    /// wraps to index 0.
    fn ring_start(&self, sample_id: u64) -> usize {
        let h = mix(SAMPLE_STREAM, self.seed, sample_id);
        self.ring.partition_point(|&(pos, _)| pos < h)
    }

    /// The primary owner of `sample_id`: `owners(sample_id)[0]` without
    /// building the owner list.
    pub fn primary(&self, sample_id: u64) -> usize {
        self.ring[self.ring_start(sample_id) % self.ring.len()].1
    }

    /// The ordered owner list of `sample_id`: primary first, then
    /// `replication - 1` distinct replica nodes in ring order.
    pub fn owners(&self, sample_id: u64) -> Vec<usize> {
        let mut owners = Vec::with_capacity(self.replication);
        self.push_owners(sample_id, &mut owners);
        owners
    }

    /// The owner lists of sample ids `0..samples` as one flat table.
    pub fn owner_table(&self, samples: usize) -> OwnerTable {
        let mut owners = Vec::with_capacity(samples * self.replication);
        for id in 0..samples {
            self.push_owners(id as u64, &mut owners);
        }
        OwnerTable { replication: self.replication, owners }
    }

    /// Appends `sample_id`'s owner list to `out`.
    fn push_owners(&self, sample_id: u64, out: &mut Vec<usize>) {
        let (first, start) = (out.len(), self.ring_start(sample_id));
        for i in 0..self.ring.len() {
            let (_, node) = self.ring[(start + i) % self.ring.len()];
            if !out[first..].contains(&node) {
                out.push(node);
                if out.len() - first == self.replication {
                    break;
                }
            }
        }
    }
}

/// Every sample's ordered owner list (primary first) in one flat vector,
/// `replication` entries per sample: what the fleet simulator routes by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnerTable {
    replication: usize,
    owners: Vec<usize>,
}

impl OwnerTable {
    /// A table from its flat rows: sample `i`'s owners are
    /// `owners[i * replication..(i + 1) * replication]`.
    ///
    /// # Panics
    ///
    /// Panics when `replication` is zero or does not divide
    /// `owners.len()`.
    pub fn new(replication: usize, owners: Vec<usize>) -> OwnerTable {
        assert!(
            replication > 0 && owners.len().is_multiple_of(replication),
            "{} owners do not split into rows of {replication}",
            owners.len()
        );
        OwnerTable { replication, owners }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.owners.len() / self.replication
    }

    /// Whether the table has no samples.
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// Sample `sample`'s owners, primary first.
    ///
    /// # Panics
    ///
    /// Panics when `sample >= self.len()`.
    pub fn owners(&self, sample: usize) -> &[usize] {
        &self.owners[sample * self.replication..(sample + 1) * self.replication]
    }

    /// Every sample's owners, in sample order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, usize> {
        self.owners.chunks_exact(self.replication)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Per-node primary-sample counts over `0..samples`.
    fn primary_counts(map: &ShardMap, samples: u64) -> Vec<u64> {
        let mut counts = vec![0u64; map.nodes];
        for id in 0..samples {
            counts[map.primary(id)] += 1;
        }
        counts
    }

    #[test]
    fn same_seed_same_map() {
        let a = ShardMap::new(4, 2, 99);
        let b = ShardMap::new(4, 2, 99);
        assert_eq!(a, b);
        for id in 0..1000u64 {
            assert_eq!(a.owners(id), b.owners(id));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ShardMap::new(4, 1, 1);
        let b = ShardMap::new(4, 1, 2);
        let moved = (0..1000u64).filter(|&id| a.primary(id) != b.primary(id)).count();
        assert!(moved > 250, "only {moved}/1000 samples moved between seeds");
    }

    #[test]
    fn owners_are_distinct_and_replication_sized() {
        let map = ShardMap::new(5, 3, 7);
        for id in 0..500u64 {
            let owners = map.owners(id);
            assert_eq!(owners.len(), 3);
            let mut dedup = owners.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "owners {owners:?} repeat a node");
            assert!(owners.iter().all(|&n| n < 5));
        }
    }

    #[test]
    fn small_ids_are_not_pinned_to_node_zero() {
        // Regression: sample id `v` and node 0's vnode `v` hash from the
        // same raw input, so without stream separation every id below
        // `VNODES` landed exactly on a node-0 ring point.
        let map = ShardMap::new(4, 2, 42);
        let counts = primary_counts(&map, VNODES as u64);
        assert!(
            counts[0] < VNODES as u64 / 2,
            "node 0 holds {} of the first {VNODES} ids",
            counts[0]
        );
        assert!(counts.iter().filter(|&&c| c > 0).count() >= 3, "counts {counts:?}");
    }

    #[test]
    fn load_is_roughly_balanced() {
        let map = ShardMap::new(4, 1, 42);
        let counts = primary_counts(&map, 8_000);
        let expected = 8_000.0 / 4.0;
        for (node, &c) in counts.iter().enumerate() {
            let skew = (c as f64 - expected).abs() / expected;
            assert!(skew < 0.5, "node {node} holds {c} of 8000 (skew {skew:.2})");
        }
    }

    #[test]
    fn adding_a_node_moves_a_minority_of_samples() {
        // The consistent-hashing property: growing the fleet from 4 to 5
        // nodes relocates roughly 1/5 of the keys, not all of them.
        let four = ShardMap::new(4, 1, 11);
        let five = ShardMap::new(5, 1, 11);
        let moved = (0..4_000u64).filter(|&id| four.primary(id) != five.primary(id)).count();
        let frac = moved as f64 / 4_000.0;
        assert!(frac < 0.40, "adding one node moved {frac:.2} of keys");
        assert!(frac > 0.05, "adding one node moved almost nothing ({frac:.2})");
    }

    #[test]
    fn primary_is_the_first_owner() {
        let ids = (0..10_000u64).chain(u64::MAX - 999..=u64::MAX);
        for nodes in 1..=8 {
            for replication in 1..=nodes {
                for seed in [0u64, 7, 2024] {
                    let map = ShardMap::new(nodes, replication, seed);
                    let mut wrapped = 0;
                    for id in ids.clone() {
                        wrapped += usize::from(map.ring_start(id) == map.ring.len());
                        assert_eq!(
                            map.primary(id),
                            map.owners(id)[0],
                            "id {id}, {nodes} nodes, replication {replication}, seed {seed}"
                        );
                    }
                    // Some hashes lie past the last ring point, so the
                    // wrap to the first point is exercised too.
                    assert!(wrapped > 0, "{nodes} nodes, seed {seed}: no id wrapped");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn owner_table_rows_are_the_owner_lists(
            nodes in 1usize..=6,
            pick in 0usize..6,
            seed in any::<u64>(),
            samples in 0usize..600,
        ) {
            let replication = 1 + pick % nodes;
            let map = ShardMap::new(nodes, replication, seed);
            let table = map.owner_table(samples);
            prop_assert_eq!(table.len(), samples);
            prop_assert_eq!(table.iter().len(), samples);
            for (id, row) in table.iter().enumerate() {
                prop_assert_eq!(row.len(), replication);
                prop_assert_eq!(row, map.owners(id as u64).as_slice());
                prop_assert_eq!(table.owners(id), row);
            }
        }
    }

    #[test]
    #[should_panic(expected = "rows of 2")]
    fn owner_table_rows_must_be_whole() {
        OwnerTable::new(2, vec![0, 1, 0]);
    }

    #[test]
    fn single_node_owns_everything() {
        let map = ShardMap::new(1, 1, 3);
        for id in 0..100u64 {
            assert_eq!(map.owners(id), vec![0]);
        }
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn replication_beyond_nodes_rejected() {
        ShardMap::new(2, 3, 0);
    }
}
