//! Species stagnation: culling species whose fitness has not improved.
//!
//! Mirrors `neat-python`'s `DefaultStagnation`: a species that has gone
//! `max_stagnation` generations without improving its best fitness is
//! removed, except that the `species_elitism` fittest species are always
//! protected (so the population cannot go extinct by stagnation alone
//! while enough species exist).

use crate::config::NeatConfig;
use crate::gene::{GenomeId, SpeciesId};
use crate::genome::Genome;
use crate::species::SpeciesSet;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Outcome of a stagnation pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagnationOutcome {
    /// Species removed this pass, with their final mean fitness.
    pub removed: Vec<(SpeciesId, f64)>,
    /// Species remaining alive.
    pub survivors: Vec<SpeciesId>,
}

/// Updates per-species fitness from `genomes` and removes stagnant species.
///
/// Each species' fitness is the mean of its members' fitness; improvement
/// is measured against the species' best-ever *maximum* member fitness.
///
/// # Panics
///
/// Panics if any member genome lacks a fitness value; callers must
/// evaluate the whole population first (enforced by `Population`).
pub(crate) fn cull_stagnant_species(
    species: &mut SpeciesSet,
    genomes: &BTreeMap<GenomeId, Genome>,
    cfg: &NeatConfig,
    generation: u64,
) -> StagnationOutcome {
    // Record current fitness stats on every species.
    let sids: Vec<SpeciesId> = species.species().keys().copied().collect();
    for &sid in &sids {
        let s = species.species_mut().get_mut(&sid).expect("species exists");
        let fits: Vec<f64> = s
            .members()
            .iter()
            .map(|m| {
                genomes[m]
                    .fitness()
                    .expect("stagnation requires evaluated genomes")
            })
            .collect();
        debug_assert!(!fits.is_empty(), "empty species must be pruned earlier");
        let mean = fits.iter().sum::<f64>() / fits.len() as f64;
        let max = fits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        s.record_fitness(mean, max, generation);
    }

    // Rank species by current fitness (descending) to find the protected set.
    let mut ranked: Vec<(SpeciesId, f64)> = sids
        .iter()
        .map(|&sid| {
            let f = species.species()[&sid].fitness().expect("just recorded");
            (sid, f)
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite fitness")
            .then(a.0.cmp(&b.0))
    });
    let protected: Vec<SpeciesId> = ranked
        .iter()
        .take(cfg.species_elitism)
        .map(|&(sid, _)| sid)
        .collect();

    let mut removed = Vec::new();
    for (sid, fit) in &ranked {
        let stagnant = species.species()[sid].stagnation(generation) > cfg.max_stagnation as u64;
        if stagnant && !protected.contains(sid) {
            species.remove(*sid);
            removed.push((*sid, *fit));
        }
    }
    let survivors = species.species().keys().copied().collect();
    StagnationOutcome { removed, survivors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CostCounters;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, threshold: f64) -> (NeatConfig, BTreeMap<GenomeId, Genome>, SpeciesSet) {
        let cfg = NeatConfig::builder(2, 1)
            .compatibility_threshold(threshold)
            .max_stagnation(3)
            .species_elitism(1)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut genomes: BTreeMap<GenomeId, Genome> = (0..n)
            .map(|i| {
                let id = GenomeId(i as u64);
                (id, Genome::new_initial(&cfg, id, &mut rng))
            })
            .collect();
        // Force divergence so we get multiple species.
        let ids: Vec<GenomeId> = genomes.keys().copied().collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                let g = genomes.get_mut(id).unwrap();
                let mut r = StdRng::seed_from_u64(50 + i as u64);
                for _ in 0..25 {
                    g.mutate(&cfg, &mut r);
                }
            }
        }
        let mut set = SpeciesSet::new();
        let mut counters = CostCounters::new();
        set.speciate(&genomes, &cfg, 0, &mut counters);
        (cfg, genomes, set)
    }

    #[test]
    fn improving_species_survive() {
        let (cfg, mut genomes, mut set) = setup(10, 0.5);
        for gen in 0..10 {
            for (i, g) in genomes.values_mut().enumerate() {
                g.set_fitness(gen as f64 + i as f64 * 0.01); // always improving
            }
            let out = cull_stagnant_species(&mut set, &genomes, &cfg, gen);
            assert!(out.removed.is_empty(), "gen {gen}: {:?}", out.removed);
        }
    }

    #[test]
    fn stagnant_species_culled_after_limit() {
        let (cfg, mut genomes, mut set) = setup(10, 0.5);
        assert!(set.len() >= 2, "need multiple species for this test");
        for g in genomes.values_mut() {
            g.set_fitness(1.0); // never improves after gen 0
        }
        let mut total_removed = 0;
        for gen in 0..10 {
            let out = cull_stagnant_species(&mut set, &genomes, &cfg, gen);
            total_removed += out.removed.len();
            // Re-speciate survivors' members (simplified: reuse same genomes).
        }
        assert!(total_removed > 0, "stagnant species should be culled");
        assert!(!set.is_empty(), "species elitism must protect the best");
    }

    #[test]
    fn species_elitism_protects_best() {
        let (cfg, mut genomes, mut set) = setup(10, 0.5);
        for g in genomes.values_mut() {
            g.set_fitness(0.0);
        }
        for gen in 0..20 {
            cull_stagnant_species(&mut set, &genomes, &cfg, gen);
        }
        assert_eq!(set.len(), 1, "exactly the elite species survives");
    }
}
