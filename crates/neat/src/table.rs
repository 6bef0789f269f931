//! Gene tables: one flat, strictly key-ascending run per gene kind.
//!
//! Every distance, crossover, encode, compile and content hash walks a
//! whole table in key order; a mutation pass edits it in a handful of
//! places. So the table *is* its sorted run — a `Vec<(key, gene)>`: walks
//! are slice iteration, lookups binary searches, a clone one `memcpy`, a
//! drop one `free`, and an insert or remove shifts the tail.
//!
//! [`GeneTable`] owns the ordering invariant: nothing outside this module
//! can make a table whose keys do not strictly ascend, so the merges and
//! searches over [`GeneTable::as_slice`] never re-check it. Method names
//! are those of the `BTreeMap` it replaced.

use serde::{Deserialize, Error, Serialize, Value};
use std::ops::Index;

/// Spare entries reserved when an insert finds the buffer full: a child
/// is built at exact capacity and a mutation pass adds at most four genes,
/// for which `Vec`'s doubling would hold the table twice.
const INSERT_SLACK: usize = 4;

/// A map from gene key to gene, stored as one strictly key-ascending run
/// (and serialized as one: a list of `[key, gene]` pairs).
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct GeneTable<K, G>(Vec<(K, G)>);

impl<K: Ord + Copy, G> GeneTable<K, G> {
    /// Adopts `run` as a table, or names the first entry whose key does
    /// not ascend past its predecessor's (out of order, or a duplicate).
    pub(crate) fn from_sorted(run: Vec<(K, G)>) -> Result<Self, usize> {
        match run.windows(2).position(|w| w[0].0 >= w[1].0) {
            Some(i) => Err(i + 1),
            None => Ok(GeneTable(run)),
        }
    }

    /// Number of genes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the table holds no genes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The genes as one key-ascending run.
    pub fn as_slice(&self) -> &[(K, G)] {
        &self.0
    }

    /// Where in [`as_slice`](Self::as_slice) `key`'s gene sits, or would.
    pub(crate) fn search(&self, key: &K) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The gene stored under `key`.
    pub fn get(&self, key: &K) -> Option<&G> {
        self.search(key).ok().map(|i| &self.0[i].1)
    }

    /// Mutable access to the gene stored under `key`.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut G> {
        self.search(key).ok().map(|i| &mut self.0[i].1)
    }

    /// Whether a gene is stored under `key`.
    pub fn contains_key(&self, key: &K) -> bool {
        self.search(key).is_ok()
    }

    /// Stores `gene` under `key`, returning the gene it replaced.
    pub fn insert(&mut self, key: K, gene: G) -> Option<G> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, gene)),
            Err(i) => {
                if self.0.len() == self.0.capacity() {
                    self.0.reserve_exact(INSERT_SLACK);
                }
                self.0.insert(i, (key, gene));
                None
            }
        }
    }

    /// Removes and returns the gene stored under `key`.
    pub(crate) fn remove(&mut self, key: &K) -> Option<G> {
        self.search(key).ok().map(|i| self.0.remove(i).1)
    }

    /// Keeps only the genes `keep` accepts, in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &mut G) -> bool) {
        self.0.retain_mut(|(k, g)| keep(k, g));
    }

    /// A table of this table's keys: under each, `mix(mine, theirs)` where
    /// `other` holds that key too, else a copy of this table's gene. One
    /// two-pointer pass, `mix` called in key order, exact capacity.
    pub(crate) fn merge_matching(&self, other: &Self, mut mix: impl FnMut(&G, &G) -> G) -> Self
    where
        G: Copy,
    {
        let theirs = other.as_slice();
        let mut j = 0;
        let mut run = Vec::with_capacity(self.len());
        for &(key, mine) in &self.0 {
            while j < theirs.len() && theirs[j].0 < key {
                j += 1;
            }
            let gene = match theirs.get(j) {
                Some((k, g)) if *k == key => mix(&mine, g),
                _ => mine,
            };
            run.push((key, gene));
        }
        GeneTable(run)
    }

    /// `(key, gene)` pairs in ascending key order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&K, &G)> + ExactSizeIterator + '_ {
        self.0.iter().map(|(k, g)| (k, g))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &K> + ExactSizeIterator + '_ {
        self.0.iter().map(|(k, _)| k)
    }

    /// Genes in ascending key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &G> + ExactSizeIterator + '_ {
        self.0.iter().map(|(_, g)| g)
    }

    /// Mutable genes in ascending key order (keys cannot be edited).
    pub fn values_mut(&mut self) -> impl ExactSizeIterator<Item = &mut G> + '_ {
        self.0.iter_mut().map(|(_, g)| g)
    }
}

impl<K: Ord + Copy, G> Index<&K> for GeneTable<K, G> {
    type Output = G;

    /// Panics if no gene is stored under `key`.
    fn index(&self, key: &K) -> &G {
        self.get(key).expect("no gene under this key")
    }
}

/// Pairs in any order; of two with one key the later wins (as `BTreeMap`).
/// One sort, where inserting pair by pair would be quadratic.
impl<K: Ord + Copy, G> FromIterator<(K, G)> for GeneTable<K, G> {
    fn from_iter<I: IntoIterator<Item = (K, G)>>(pairs: I) -> Self {
        let mut run: Vec<(K, G)> = pairs.into_iter().collect();
        run.sort_by_key(|&(k, _)| k); // stable: equal keys stay in arrival order
        run.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        run.shrink_to_fit();
        GeneTable(run)
    }
}

impl<K: Ord + Copy, G, const N: usize> From<[(K, G); N]> for GeneTable<K, G> {
    fn from(pairs: [(K, G); N]) -> Self {
        pairs.into_iter().collect()
    }
}

/// Accepts only what serializing writes: a shuffled or duplicated pair
/// list is an error, not a table that binary search would mis-read.
impl<K: Deserialize + Ord + Copy, G: Deserialize> Deserialize for GeneTable<K, G> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        GeneTable::from_sorted(Vec::from_value(value)?)
            .map_err(|i| Error::custom(format!("gene pair {i} does not ascend")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    type Table = GeneTable<i8, u32>;

    #[test]
    fn from_sorted_accepts_only_strictly_ascending_runs() {
        assert_eq!(Table::from_sorted(vec![]).unwrap().len(), 0);
        assert_eq!(Table::from_sorted(vec![(3, 0)]).unwrap().len(), 1);
        let t = Table::from_sorted(vec![(-2, 7), (0, 8), (5, 9)]).unwrap();
        assert_eq!(t.as_slice(), [(-2, 7), (0, 8), (5, 9)]);
        assert_eq!(Table::from_sorted(vec![(0, 1), (0, 2)]), Err(1));
        assert_eq!(Table::from_sorted(vec![(0, 1), (4, 2), (3, 3)]), Err(2));
    }

    #[test]
    fn collecting_sorts_once_and_the_last_duplicate_wins() {
        let t: Table = [(5, 1), (-1, 2), (5, 3), (0, 4), (-1, 5), (5, 6)].into();
        assert_eq!(t.as_slice(), [(-1, 5), (0, 4), (5, 6)]);
        let model: BTreeMap<i8, u32> = [(5, 1), (-1, 2), (5, 3), (0, 4), (-1, 5), (5, 6)].into();
        assert!(t.iter().eq(model.iter()));
    }

    #[test]
    fn inserts_grow_the_buffer_by_a_bounded_slack_not_by_doubling() {
        let mut t: GeneTable<i32, u32> = (0..1000).map(|k| (2 * k, 0)).collect();
        let exact = t.clone();
        assert_eq!(
            exact.0.capacity(),
            1000,
            "a clone is built at exact capacity"
        );
        t = exact;
        for k in 0..10 {
            t.insert(2 * k + 1, 1);
            assert!(
                t.0.capacity() <= t.len() + INSERT_SLACK,
                "{}",
                t.0.capacity()
            );
        }
    }

    #[test]
    fn structural_edits_keep_a_child_within_a_tenth_of_its_gene_bytes() {
        use crate::{Genome, GenomeId, NeatConfig};
        use rand::{rngs::StdRng, SeedableRng};
        // Alien-ram shape. A child is written at exact capacity; the one
        // structural insert half of all children then take must not
        // double a 74 KB buffer.
        let cfg = NeatConfig::builder(128, 18).build().unwrap();
        let rng = StdRng::seed_from_u64;
        let a = Genome::new_initial(&cfg, GenomeId(0), &mut rng(40));
        let b = Genome::new_initial(&cfg, GenomeId(1), &mut rng(41));
        let mut child = Genome::crossover(&a, &b, GenomeId(2), &mut rng(42));
        child.mutate_add_node(&cfg, &mut rng(43));
        child.mutate_add_connection(&cfg, &mut rng(44));
        assert_eq!(child.nodes().len(), 19);
        let (nodes, conns) = (&child.nodes().0, &child.conns().0);
        let node_bytes = std::mem::size_of_val(&nodes[0]);
        let conn_bytes = std::mem::size_of_val(&conns[0]);
        let genes = nodes.len() * node_bytes + conns.len() * conn_bytes;
        let held = nodes.capacity() * node_bytes + conns.capacity() * conn_bytes;
        assert!(
            (held as f64) < 1.1 * genes as f64,
            "{held} bytes held for {genes} bytes of genes"
        );
        assert!(genes > 70_000, "{genes}");
    }

    #[test]
    #[should_panic(expected = "no gene under this key")]
    fn indexing_a_missing_key_panics() {
        let t: Table = [(1, 1)].into();
        let _ = t[&2];
    }

    #[test]
    fn json_is_a_pair_list_and_rejects_unsorted_or_duplicated_pairs() {
        let t: Table = [(-1, 5), (0, 4), (5, 6)].into();
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, "[[-1,5],[0,4],[5,6]]");
        assert_eq!(serde_json::from_str::<Table>(&json).unwrap(), t);
        for bad in ["[[0,4],[-1,5]]", "[[0,4],[0,5]]", "{\"0\":4}", "[[0]]"] {
            assert!(serde_json::from_str::<Table>(bad).is_err(), "{bad}");
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(i8, u32),
        Remove(i8),
        Bump(i8),
        RetainOdd,
        RetainBelow(i8),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // A narrow key range, so inserts hit existing keys, land below
        // the first key and above the last, and removes mostly find
        // something.
        (0u8..7, -12i8..12, any::<u32>()).prop_map(|(kind, k, v)| match kind {
            0..=2 => Op::Insert(k, v),
            3 => Op::Remove(k),
            4 => Op::Bump(k),
            5 => Op::RetainOdd,
            _ => Op::RetainBelow(k),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        /// The table is observably a `BTreeMap`: same answers, same
        /// iteration order, after any sequence of edits.
        #[test]
        fn table_behaves_like_a_btreemap(
            seed in proptest::collection::vec((-12i8..12, any::<u32>()), 0..16),
            ops in proptest::collection::vec(arb_op(), 0..60),
        ) {
            let mut table: Table = seed.iter().copied().collect();
            let mut model: BTreeMap<i8, u32> = seed.iter().copied().collect();
            for op in ops {
                match op {
                    Op::Insert(k, v) => prop_assert_eq!(table.insert(k, v), model.insert(k, v)),
                    Op::Remove(k) => prop_assert_eq!(table.remove(&k), model.remove(&k)),
                    Op::Bump(k) => {
                        let (t, m) = (table.get_mut(&k), model.get_mut(&k));
                        prop_assert_eq!(t.is_some(), m.is_some());
                        if let (Some(t), Some(m)) = (t, m) {
                            *t = t.wrapping_add(1);
                            *m = m.wrapping_add(1);
                        }
                    }
                    Op::RetainOdd => {
                        table.retain(|_, v| { *v /= 2; *v % 2 == 1 });
                        model.retain(|_, v| { *v /= 2; *v % 2 == 1 });
                    }
                    Op::RetainBelow(limit) => {
                        table.retain(|k, _| *k < limit);
                        model.retain(|k, _| *k < limit);
                    }
                }
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.is_empty(), model.is_empty());
                prop_assert!(table.iter().eq(model.iter()));
                prop_assert!(table.iter().rev().eq(model.iter().rev()));
                prop_assert!(table.keys().eq(model.keys()));
                prop_assert!(table.values().eq(model.values()));
                                for k in -13i8..13 {
                    prop_assert_eq!(table.get(&k), model.get(&k));
                    prop_assert_eq!(table.contains_key(&k), model.contains_key(&k));
                }
                // The invariant every merge-join rests on.
                prop_assert!(table.as_slice().windows(2).all(|w| w[0].0 < w[1].0));
                prop_assert!(Table::from_sorted(table.as_slice().to_vec()).is_ok());
            }
            for (t, m) in table.values_mut().zip(model.values_mut()) {
                *t ^= 1;
                *m ^= 1;
            }
            prop_assert!(table.iter().eq(model.iter()));
        }
    }
}
