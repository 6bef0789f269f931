//! Gene-level cost accounting (the CLAN paper's cost metric, §III-B).
//!
//! "Genome size is naturally defined by the number of genes it contains and
//! hence compute and communication costs grow proportionally to it; we use
//! the number of genes processed/communicated by different compute and
//! communication blocks as a measure of cost. A gene is a 32-bit
//! datastructure."
//!
//! [`CostCounters`] accumulates genes processed per compute block;
//! [`GenerationCosts`] is one generation's snapshot (the unit plotted in
//! the paper's Figure 3).

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// Genes processed by each NEAT compute block during one generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GenerationCosts {
    /// Genes touched while evaluating networks (per activation × timesteps).
    pub inference_genes: u64,
    /// Genes touched while computing compatibility distances.
    pub speciation_genes: u64,
    /// Genes copied/created during crossover and mutation.
    pub reproduction_genes: u64,
    /// Number of network activations performed.
    pub activations: u64,
    /// Number of genome-pair distance evaluations.
    pub distance_evals: u64,
    /// Number of episodes (genome evaluations) run.
    pub episodes: u64,
}

impl GenerationCosts {
    /// Total genes processed across all blocks.
    pub fn total_genes(&self) -> u64 {
        self.inference_genes + self.speciation_genes + self.reproduction_genes
    }

    /// Genes processed by the Evolution umbrella (speciation + reproduction),
    /// matching the paper's Inference-vs-Evolution split.
    pub fn evolution_genes(&self) -> u64 {
        self.speciation_genes + self.reproduction_genes
    }
}

impl Add for GenerationCosts {
    type Output = GenerationCosts;

    fn add(self, rhs: GenerationCosts) -> GenerationCosts {
        GenerationCosts {
            inference_genes: self.inference_genes + rhs.inference_genes,
            speciation_genes: self.speciation_genes + rhs.speciation_genes,
            reproduction_genes: self.reproduction_genes + rhs.reproduction_genes,
            activations: self.activations + rhs.activations,
            distance_evals: self.distance_evals + rhs.distance_evals,
            episodes: self.episodes + rhs.episodes,
        }
    }
}

impl AddAssign for GenerationCosts {
    fn add_assign(&mut self, rhs: GenerationCosts) {
        *self = *self + rhs;
    }
}

/// Accumulates [`GenerationCosts`] over a run, with a current in-progress
/// generation that can be snapshotted and reset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CostCounters {
    current: GenerationCosts,
    history: Vec<GenerationCosts>,
}

impl CostCounters {
    /// Creates an empty counter set.
    pub fn new() -> CostCounters {
        CostCounters::default()
    }

    /// Records `genes` processed by inference across one activation.
    #[inline]
    pub(crate) fn record_inference(&mut self, genes: u64) {
        self.current.inference_genes += genes;
        self.current.activations += 1;
    }

    /// Records the completion of one evaluation episode.
    #[inline]
    pub(crate) fn record_episode(&mut self) {
        self.current.episodes += 1;
    }

    /// Records `genes` processed by one compatibility-distance computation.
    #[inline]
    pub(crate) fn record_distance(&mut self, genes: u64) {
        self.current.speciation_genes += genes;
        self.current.distance_evals += 1;
    }

    /// Records `genes` produced/copied during reproduction.
    #[inline]
    pub fn record_reproduction(&mut self, genes: u64) {
        self.current.reproduction_genes += genes;
    }

    /// The in-progress generation's costs so far.
    pub fn current(&self) -> GenerationCosts {
        self.current
    }

    /// Closes the current generation: pushes its costs into the history and
    /// resets the in-progress counters. Returns the closed snapshot.
    pub fn finish_generation(&mut self) -> GenerationCosts {
        let snap = self.current;
        self.history.push(snap);
        self.current = GenerationCosts::default();
        snap
    }

    /// Per-generation history, oldest first.
    pub fn history(&self) -> &[GenerationCosts] {
        &self.history
    }

    /// Sum over all closed generations plus the in-progress one.
    pub fn cumulative(&self) -> GenerationCosts {
        self.history
            .iter()
            .copied()
            .fold(self.current, |acc, g| acc + g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let mut c = CostCounters::new();
        c.record_inference(10);
        c.record_inference(5);
        c.record_distance(7);
        c.record_reproduction(3);
        c.record_episode();
        let g = c.current();
        assert_eq!(g.inference_genes, 15);
        assert_eq!(g.activations, 2);
        assert_eq!(g.speciation_genes, 7);
        assert_eq!(g.distance_evals, 1);
        assert_eq!(g.reproduction_genes, 3);
        assert_eq!(g.episodes, 1);
        assert_eq!(g.total_genes(), 25);
        assert_eq!(g.evolution_genes(), 10);
    }

    #[test]
    fn finish_generation_resets() {
        let mut c = CostCounters::new();
        c.record_inference(10);
        let snap = c.finish_generation();
        assert_eq!(snap.inference_genes, 10);
        assert_eq!(c.current(), GenerationCosts::default());
        assert_eq!(c.history().len(), 1);
    }

    #[test]
    fn cumulative_includes_in_progress() {
        let mut c = CostCounters::new();
        c.record_inference(10);
        c.finish_generation();
        c.record_inference(4);
        assert_eq!(c.cumulative().inference_genes, 14);
    }

    #[test]
    fn add_is_fieldwise() {
        let a = GenerationCosts {
            inference_genes: 1,
            speciation_genes: 2,
            reproduction_genes: 3,
            activations: 4,
            distance_evals: 5,
            episodes: 6,
        };
        let b = a;
        let c = a + b;
        assert_eq!(c.inference_genes, 2);
        assert_eq!(c.episodes, 12);
    }
}
