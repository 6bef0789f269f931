//! Speciation: partitioning a population into species by compatibility
//! distance (the paper's `S` compute block).
//!
//! NEAT speciates to protect structural innovation: a genome that just
//! grew a new node competes only within its species until the structure
//! has had time to optimize. The CLAN paper's key observation is that this
//! step is *synchronous* — it needs every genome's structure — which is
//! exactly what CLAN_DDA relaxes by speciating small "clans" independently.

use crate::config::NeatConfig;
use crate::counters::CostCounters;
use crate::gene::{GenomeId, SpeciesId};
use crate::genome::Genome;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One species: a set of structurally similar genomes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Species {
    id: SpeciesId,
    created_generation: u64,
    last_improved_generation: u64,
    representative: Genome,
    members: Vec<GenomeId>,
    /// Mean member fitness for the current generation, set during planning.
    fitness: Option<f64>,
    /// Adjusted (shared) fitness, set during planning.
    adjusted_fitness: Option<f64>,
    /// Best species fitness seen so far (for stagnation tracking).
    best_fitness: Option<f64>,
}

impl Species {
    pub(crate) fn new(id: SpeciesId, representative: Genome, generation: u64) -> Species {
        Species {
            id,
            created_generation: generation,
            last_improved_generation: generation,
            representative,
            members: Vec::new(),
            fitness: None,
            adjusted_fitness: None,
            best_fitness: None,
        }
    }

    /// Species identifier.
    pub fn id(&self) -> SpeciesId {
        self.id
    }

    /// Generation in which the species was created.
    pub fn created_generation(&self) -> u64 {
        self.created_generation
    }

    /// Last generation in which the species' fitness improved.
    pub fn last_improved_generation(&self) -> u64 {
        self.last_improved_generation
    }

    /// The genome representing this species for distance comparisons.
    pub fn representative(&self) -> &Genome {
        &self.representative
    }

    /// Member genome ids for the current generation.
    pub fn members(&self) -> &[GenomeId] {
        &self.members
    }

    /// Mean member fitness (set during generation planning).
    pub fn fitness(&self) -> Option<f64> {
        self.fitness
    }

    /// Adjusted (fitness-shared) fitness (set during generation planning).
    pub fn adjusted_fitness(&self) -> Option<f64> {
        self.adjusted_fitness
    }

    pub(crate) fn record_fitness(&mut self, mean: f64, max: f64, generation: u64) {
        self.fitness = Some(mean);
        if self.best_fitness.is_none_or(|b| max > b) {
            self.best_fitness = Some(max);
            self.last_improved_generation = generation;
        }
    }

    pub(crate) fn set_adjusted_fitness(&mut self, af: f64) {
        self.adjusted_fitness = Some(af);
    }

    /// Generations since the species last improved.
    pub fn stagnation(&self, generation: u64) -> u64 {
        generation.saturating_sub(self.last_improved_generation)
    }
}

/// The set of all living species plus the speciation procedure.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SpeciesSet {
    species: BTreeMap<SpeciesId, Species>,
    next_id: u32,
}

/// Result summary of one speciation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpeciationOutcome {
    /// Number of species after the pass.
    pub species_count: usize,
    /// Number of genome-pair distance evaluations performed.
    pub distance_evals: u64,
    /// Genes processed by those evaluations (the paper's cost unit).
    pub genes_processed: u64,
}

impl SpeciesSet {
    /// Creates an empty species set.
    pub fn new() -> SpeciesSet {
        SpeciesSet::default()
    }

    /// Living species, keyed by id.
    pub fn species(&self) -> &BTreeMap<SpeciesId, Species> {
        &self.species
    }

    /// Mutable access for planning (crate-internal).
    pub(crate) fn species_mut(&mut self) -> &mut BTreeMap<SpeciesId, Species> {
        &mut self.species
    }

    /// Number of living species.
    pub fn len(&self) -> usize {
        self.species.len()
    }

    /// True if no species exist (fresh or post-extinction state).
    pub fn is_empty(&self) -> bool {
        self.species.is_empty()
    }

    /// Removes a species (stagnation culling).
    pub(crate) fn remove(&mut self, id: SpeciesId) -> Option<Species> {
        self.species.remove(&id)
    }

    /// Assigns every genome to a species, following `neat-python`:
    ///
    /// 1. Each existing species adopts as its new representative the
    ///    unassigned genome closest to its previous representative.
    /// 2. Every remaining genome joins the species with the nearest
    ///    representative if that distance is below
    ///    `cfg.compatibility_threshold`, otherwise it founds a new species.
    ///
    /// Every distance evaluation is charged to `counters` (genes of both
    /// genomes), which is how the paper's Figure 3 speciation cost series
    /// is produced.
    pub fn speciate(
        &mut self,
        genomes: &BTreeMap<GenomeId, Genome>,
        cfg: &NeatConfig,
        generation: u64,
        counters: &mut CostCounters,
    ) -> SpeciationOutcome {
        let mut distance_evals = 0u64;
        let mut genes_processed = 0u64;
        let mut dist = |rep: &Genome, genome: &Genome, counters: &mut CostCounters| -> f64 {
            let genes = rep.num_genes() + genome.num_genes();
            counters.record_distance(genes);
            distance_evals += 1;
            genes_processed += genes;
            rep.distance(genome, cfg)
        };

        let mut unassigned: BTreeMap<GenomeId, &Genome> =
            genomes.iter().map(|(&id, g)| (id, g)).collect();

        // Phase 1: re-anchor each surviving species on the closest genome.
        let mut adopted: Vec<(SpeciesId, GenomeId)> = Vec::new();
        for (&sid, species) in &self.species {
            let rep = species.representative();
            let mut best: Option<(f64, GenomeId)> = None;
            for (&gid, g) in &unassigned {
                let d = dist(rep, g, counters);
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, gid));
                }
            }
            // More species than genomes: a species left without one keeps
            // its old representative and simply gets no members this round.
            if let Some((_, gid)) = best {
                unassigned.remove(&gid);
                adopted.push((sid, gid));
            }
        }
        for s in self.species.values_mut() {
            s.members.clear();
        }
        for (sid, gid) in adopted {
            let genome = genomes[&gid].clone();
            let s = self.species.get_mut(&sid).expect("species exists");
            s.representative = genome;
            s.members.push(gid);
        }

        // Phase 2: assign the rest to the nearest compatible species.
        for (gid, genome) in unassigned {
            let mut best: Option<(f64, SpeciesId)> = None;
            for (sid, s) in &self.species {
                let d = dist(s.representative(), genome, counters);
                if d < cfg.compatibility_threshold && best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, *sid));
                }
            }
            match best {
                Some((_, sid)) => {
                    let s = self.species.get_mut(&sid).expect("species exists");
                    s.members.push(gid);
                }
                None => {
                    let sid = SpeciesId(self.next_id);
                    self.next_id += 1;
                    let mut sp = Species::new(sid, genome.clone(), generation);
                    sp.members.push(gid);
                    self.species.insert(sid, sp);
                }
            }
        }

        // Drop species that ended up with no members (they would otherwise
        // linger forever with a stale representative).
        self.species.retain(|_, s| !s.members().is_empty());

        SpeciationOutcome {
            species_count: self.species.len(),
            distance_evals,
            genes_processed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> NeatConfig {
        NeatConfig::builder(3, 1).build().unwrap()
    }

    fn make_genomes(cfg: &NeatConfig, n: usize, seed: u64) -> BTreeMap<GenomeId, Genome> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let id = GenomeId(i as u64);
                (id, Genome::new_initial(cfg, id, &mut rng))
            })
            .collect()
    }

    #[test]
    fn all_genomes_assigned_exactly_once() {
        let cfg = cfg();
        let genomes = make_genomes(&cfg, 20, 1);
        let mut set = SpeciesSet::new();
        let mut counters = CostCounters::new();
        set.speciate(&genomes, &cfg, 0, &mut counters);
        let mut seen = std::collections::BTreeSet::new();
        for s in set.species().values() {
            for &m in s.members() {
                assert!(seen.insert(m), "genome {m} assigned twice");
            }
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn similar_genomes_share_one_species() {
        let cfg = cfg();
        // Identical initial genomes (same seed per genome) are distance 0.
        let mut genomes = BTreeMap::new();
        let proto = Genome::new_initial(&cfg, GenomeId(0), &mut StdRng::seed_from_u64(2));
        for i in 0..10 {
            let mut g = proto.clone();
            g.set_id(GenomeId(i));
            genomes.insert(GenomeId(i), g);
        }
        let mut set = SpeciesSet::new();
        let mut counters = CostCounters::new();
        let out = set.speciate(&genomes, &cfg, 0, &mut counters);
        assert_eq!(out.species_count, 1);
    }

    #[test]
    fn divergent_genomes_split_species() {
        let cfg = NeatConfig::builder(3, 1)
            .compatibility_threshold(0.5)
            .build()
            .unwrap();
        let mut genomes = make_genomes(&cfg, 8, 3);
        // Heavily mutate half the population to force divergence.
        let ids: Vec<GenomeId> = genomes.keys().copied().collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                let g = genomes.get_mut(id).unwrap();
                let mut rng = StdRng::seed_from_u64(100 + i as u64);
                for _ in 0..30 {
                    g.mutate(&cfg, &mut rng);
                }
            }
        }
        let mut set = SpeciesSet::new();
        let mut counters = CostCounters::new();
        let out = set.speciate(&genomes, &cfg, 0, &mut counters);
        assert!(out.species_count >= 2, "expected divergence to split");
    }

    #[test]
    fn representatives_persist_across_rounds() {
        let cfg = cfg();
        let genomes = make_genomes(&cfg, 12, 4);
        let mut set = SpeciesSet::new();
        let mut counters = CostCounters::new();
        set.speciate(&genomes, &cfg, 0, &mut counters);
        let count1 = set.len();
        // Same genomes again: structure identical, species must not churn.
        set.speciate(&genomes, &cfg, 1, &mut counters);
        assert_eq!(set.len(), count1);
    }

    #[test]
    fn cost_accounting_nonzero() {
        let cfg = cfg();
        let genomes = make_genomes(&cfg, 10, 5);
        let mut set = SpeciesSet::new();
        let mut counters = CostCounters::new();
        let out = set.speciate(&genomes, &cfg, 0, &mut counters);
        assert!(out.distance_evals > 0);
        assert!(out.genes_processed >= out.distance_evals * 8);
        assert_eq!(counters.current().speciation_genes, out.genes_processed);
    }

    #[test]
    fn members_hold_every_genome_and_no_stranger() {
        let cfg = cfg();
        let genomes = make_genomes(&cfg, 6, 6);
        let mut set = SpeciesSet::new();
        let mut counters = CostCounters::new();
        set.speciate(&genomes, &cfg, 0, &mut counters);
        let member = |gid| set.species().values().any(|s| s.members().contains(&gid));
        for &gid in genomes.keys() {
            assert!(member(gid));
        }
        assert!(!member(GenomeId(999)));
    }

    #[test]
    fn stagnation_counter_tracks_improvement() {
        let cfg = cfg();
        let g = Genome::new_initial(&cfg, GenomeId(0), &mut StdRng::seed_from_u64(7));
        let mut s = Species::new(SpeciesId(0), g, 0);
        s.record_fitness(1.0, 1.0, 0);
        assert_eq!(s.stagnation(5), 5);
        s.record_fitness(2.0, 2.0, 5);
        assert_eq!(s.stagnation(5), 0);
        // No improvement: last_improved stays.
        s.record_fitness(1.5, 1.5, 9);
        assert_eq!(s.stagnation(9), 4);
    }
}
