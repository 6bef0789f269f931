//! Content-addressed fitness cache: skip re-evaluating genomes whose
//! content was already scored.
//!
//! NEAT re-submits unchanged genomes for evaluation all the time — every
//! elite is copied verbatim into the next generation (under a fresh
//! [`GenomeId`](crate::GenomeId)), and crossover regularly reproduces a
//! parent gene-for-gene. When episode seeds derive from the genome's
//! *content* rather than its id (see the `clan-core` evaluator), such a
//! genome is guaranteed to replay exactly the same episodes and earn
//! exactly the same fitness — so the evaluation can be served from a
//! cache, bit-identically, without running a single environment step.
//!
//! The cache key is `(master_seed, content_hash)` where the hash is
//! [`Genome::content_hash`](crate::Genome::content_hash): stable under
//! gene insertion order, blind to id and fitness, and sensitive to every
//! gene attribute down to the last ulp. The episode plan (episodes per
//! evaluation, inference mode) is part of the seed derivation upstream,
//! so one cache instance must only ever serve one evaluation plan —
//! which is how the evaluators own their caches.
//!
//! Hits and lookups are counted in a per-generation *window* so
//! orchestrators can report a hit rate per generation without the
//! counters becoming part of the determinism contract.

use crate::population::Evaluation;
use serde::{Deserialize, Serialize};
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only store keyed by (seed, content_hash): never iterated, so hash order cannot leak into results"
)]
use std::collections::HashMap;

/// A cached evaluation: the outcome plus the compiled network's
/// per-activation gene cost (structure-determined, so caching it skips
/// recompilation on a hit).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CachedEvaluation {
    /// The fitness/activation outcome, bit-identical to a fresh run.
    pub evaluation: Evaluation,
    /// Genes touched per activation by the compiled network.
    pub genes_per_activation: u64,
}

/// Content-addressed store of genome evaluations.
///
/// Keys are `(master_seed, content_hash)`; values are the full
/// [`CachedEvaluation`]. The store is bounded: when it exceeds
/// [`FitnessCache::DEFAULT_CAPACITY`] entries it is cleared wholesale
/// (eviction only ever costs wall-clock, never correctness, because a
/// miss re-derives the identical result).
#[derive(Debug, Clone, Default)]
pub struct FitnessCache {
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only: get/insert/clear, no iteration; eviction clears wholesale"
    )]
    entries: HashMap<(u64, u64), CachedEvaluation>,
    capacity: usize,
    hits_window: u64,
    lookups_window: u64,
    hits_total: u64,
    lookups_total: u64,
}

impl FitnessCache {
    /// Entry cap before the wholesale clear (~64k genomes ≈ hundreds of
    /// generations of a paper-sized population).
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates an empty cache with the default capacity.
    pub fn new() -> FitnessCache {
        FitnessCache::with_capacity(FitnessCache::DEFAULT_CAPACITY)
    }

    /// Creates an empty cache cleared whenever it would exceed
    /// `capacity` entries.
    pub fn with_capacity(capacity: usize) -> FitnessCache {
        FitnessCache {
            capacity: capacity.max(1),
            ..FitnessCache::default()
        }
    }

    /// Looks up a `(master_seed, content_hash)` key, counting the lookup
    /// (and the hit, if any) in the current window.
    pub fn lookup(&mut self, master_seed: u64, content_hash: u64) -> Option<CachedEvaluation> {
        self.lookups_window += 1;
        self.lookups_total += 1;
        let found = self.entries.get(&(master_seed, content_hash)).copied();
        if found.is_some() {
            self.hits_window += 1;
            self.hits_total += 1;
        }
        found
    }

    /// Stores an evaluation under `(master_seed, content_hash)`,
    /// clearing the store first if it is full.
    pub fn insert(&mut self, master_seed: u64, content_hash: u64, cached: CachedEvaluation) {
        if self.entries.len() >= self.capacity {
            self.entries.clear();
        }
        self.entries.insert((master_seed, content_hash), cached);
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hits and lookups since the last [`take_window`](Self::take_window).
    pub fn window(&self) -> (u64, u64) {
        (self.hits_window, self.lookups_window)
    }

    /// Drains the per-generation window, returning `(hits, lookups)`.
    pub fn take_window(&mut self) -> (u64, u64) {
        let w = (self.hits_window, self.lookups_window);
        self.hits_window = 0;
        self.lookups_window = 0;
        w
    }

    /// Lifetime hit rate (`hits_total / lookups_total`), 0 before any
    /// lookup. Telemetry publishes this as the `cache.hit_rate` gauge.
    pub fn hit_rate_total(&self) -> f64 {
        if self.lookups_total == 0 {
            0.0
        } else {
            self.hits_total as f64 / self.lookups_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(fitness: f64) -> CachedEvaluation {
        CachedEvaluation {
            evaluation: Evaluation {
                fitness,
                activations: 10,
            },
            genes_per_activation: 3,
        }
    }

    #[test]
    fn lookup_miss_then_hit() {
        let mut c = FitnessCache::new();
        assert_eq!(c.lookup(1, 42), None);
        c.insert(1, 42, eval(5.0));
        assert_eq!(c.lookup(1, 42), Some(eval(5.0)));
        assert_eq!(c.window(), (1, 2));
        assert_eq!(c.take_window(), (1, 2));
        assert_eq!(c.window(), (0, 0));
        assert!((c.hit_rate_total() - 0.5).abs() < 1e-12);
        assert_eq!(FitnessCache::new().hit_rate_total(), 0.0);
    }

    #[test]
    fn master_seed_partitions_the_store() {
        let mut c = FitnessCache::new();
        c.insert(1, 42, eval(5.0));
        assert_eq!(c.lookup(2, 42), None, "other master seed must miss");
        assert!(c.lookup(1, 42).is_some());
    }

    #[test]
    fn capacity_clears_wholesale() {
        let mut c = FitnessCache::with_capacity(2);
        c.insert(1, 1, eval(1.0));
        c.insert(1, 2, eval(2.0));
        assert_eq!(c.len(), 2);
        c.insert(1, 3, eval(3.0));
        assert_eq!(c.len(), 1, "full store is cleared before insert");
        assert!(c.lookup(1, 3).is_some());
        assert!(c.lookup(1, 1).is_none());
    }
}
