//! Population: the per-generation NEAT loop, exposed both as a one-call
//! serial driver ([`Population::advance_generation`]) and as individual
//! phases (speciate / plan / reproduce / install) so the CLAN
//! orchestrators can distribute each compute block independently.

use crate::config::{InitialConnection, NeatConfig};
use crate::counters::{CostCounters, GenerationCosts};
use crate::error::NeatError;
use crate::fanout;
use crate::gene::GenomeId;
use crate::genome::Genome;
use crate::network::FeedForwardNetwork;
use crate::reproduction::{compute_plan, make_child, ChildSpec, GenerationPlan};
use crate::rng::{op_rng, OpTag};
use crate::species::{SpeciationOutcome, SpeciesSet};
use crate::stagnation::cull_stagnant_species;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Result of evaluating one genome on a task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Fitness achieved (higher is better).
    pub fitness: f64,
    /// Number of network activations performed (timesteps), used for
    /// gene-level inference cost accounting.
    pub activations: u64,
}

impl From<f64> for Evaluation {
    /// Treats a bare fitness as a single-activation evaluation.
    fn from(fitness: f64) -> Self {
        Evaluation {
            fitness,
            activations: 1,
        }
    }
}

/// Summary of one completed generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerationSummary {
    /// Index of the generation that just finished (0-based).
    pub generation: u64,
    /// Species count after speciation.
    pub num_species: usize,
    /// Best fitness in the evaluated population.
    pub best_fitness: f64,
    /// Gene-level costs incurred by this generation.
    pub costs: GenerationCosts,
    /// Whether the population went extinct and was re-seeded.
    pub extinction: bool,
}

/// A NEAT population with deterministic, distribution-friendly phases.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Population {
    cfg: NeatConfig,
    genomes: BTreeMap<GenomeId, Genome>,
    species: SpeciesSet,
    generation: u64,
    next_genome_id: u64,
    master_seed: u64,
    counters: CostCounters,
    best_ever: Option<Genome>,
    extinctions: u32,
}

impl Population {
    /// Creates a population of `cfg.population_size` initial genomes.
    ///
    /// Genome `i` is built from the RNG stream
    /// `(seed, generation 0, i, InitGenome)`, on every core its genes
    /// justify, so two populations with the same config and seed are
    /// identical at any core count.
    pub fn new(cfg: NeatConfig, seed: u64) -> Population {
        let mut pop = Population {
            cfg,
            genomes: BTreeMap::new(),
            species: SpeciesSet::new(),
            generation: 0,
            next_genome_id: 0,
            master_seed: seed,
            counters: CostCounters::new(),
            best_ever: None,
            extinctions: 0,
        };
        pop.seed();
        pop
    }

    /// The configuration in force.
    pub fn config(&self) -> &NeatConfig {
        &self.cfg
    }

    /// Current generation index (0 before any [`advance_generation`]).
    ///
    /// [`advance_generation`]: Self::advance_generation
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The master seed the population was created with.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Number of times the population went extinct and was re-seeded.
    pub fn extinctions(&self) -> u32 {
        self.extinctions
    }

    /// Current genomes, keyed by id.
    pub fn genomes(&self) -> &BTreeMap<GenomeId, Genome> {
        &self.genomes
    }

    /// Looks up a genome.
    pub fn genome(&self, id: GenomeId) -> Option<&Genome> {
        self.genomes.get(&id)
    }

    /// Number of genomes (always `population_size` between phases).
    pub fn len(&self) -> usize {
        self.genomes.len()
    }

    /// Whether the population is empty (never true in normal operation).
    pub fn is_empty(&self) -> bool {
        self.genomes.is_empty()
    }

    /// Current species set.
    pub fn species(&self) -> &SpeciesSet {
        &self.species
    }

    /// Cost counters (inference/speciation/reproduction genes).
    pub fn counters(&self) -> &CostCounters {
        &self.counters
    }

    /// Mutable cost counters, for orchestrators that account externally
    /// performed work (e.g. distributed inference).
    pub fn counters_mut(&mut self) -> &mut CostCounters {
        &mut self.counters
    }

    /// Assigns fitness to one genome without charging inference cost
    /// (callers that account the work themselves, or tests). Like every
    /// fitness write it feeds the [`best_ever`](Self::best_ever) tracker.
    ///
    /// # Errors
    ///
    /// Returns [`NeatError::UnknownGenome`] if `id` is not present.
    pub fn set_fitness(&mut self, id: GenomeId, fitness: f64) -> Result<(), NeatError> {
        self.write_fitness(id, fitness).map(|_| ())
    }

    /// The one fitness write: stores `fitness` on the genome and promotes
    /// it to `best_ever` when it is strictly better than everything seen
    /// so far (so among equals the first writer — the lowest id of an
    /// id-ordered sweep, as [`best`](Self::best) breaks ties — is kept).
    /// Returns whether it was promoted.
    fn write_fitness(&mut self, id: GenomeId, fitness: f64) -> Result<bool, NeatError> {
        let genome = self
            .genomes
            .get_mut(&id)
            .ok_or(NeatError::UnknownGenome { genome: id.0 })?;
        genome.set_fitness(fitness);
        let improved = self
            .best_ever
            .as_ref()
            .and_then(Genome::fitness)
            .is_none_or(|best| fitness > best);
        if improved {
            self.best_ever = Some(genome.clone());
        }
        Ok(improved)
    }

    /// Records one finished evaluation (phase `I`, wherever it ran):
    /// charges `activations x genes_per_activation` inference genes and
    /// one episode, writes the fitness, and returns whether the genome
    /// became the new [`best_ever`](Self::best_ever). Every evaluation
    /// surface — [`evaluate`](Self::evaluate), the CLAN orchestrators'
    /// partitioned replay, the async steady-state loop — ends here, so
    /// cost counters and fitness state are bit-identical whichever engine
    /// computed `eval`, provided results are recorded in the same order.
    ///
    /// # Errors
    ///
    /// Returns [`NeatError::UnknownGenome`] if `id` is not present
    /// (nothing is charged).
    pub fn record_evaluation(
        &mut self,
        id: GenomeId,
        eval: Evaluation,
        genes_per_activation: u64,
    ) -> Result<bool, NeatError> {
        let improved = self.write_fitness(id, eval.fitness)?;
        self.counters
            .record_inference(eval.activations * genes_per_activation);
        self.counters.record_episode();
        Ok(improved)
    }

    /// Evaluates every genome with `evaluator` (phase `I`), in genome-id
    /// order.
    ///
    /// The evaluator receives the compiled network and the genome and
    /// returns anything convertible to [`Evaluation`] (a bare `f64` counts
    /// as one activation); each result goes through
    /// [`record_evaluation`](Self::record_evaluation).
    pub fn evaluate<F, E>(&mut self, mut evaluator: F)
    where
        F: FnMut(&FeedForwardNetwork, &Genome) -> E,
        E: Into<Evaluation>,
    {
        let ids: Vec<GenomeId> = self.genomes.keys().copied().collect();
        for id in ids {
            let genome = &self.genomes[&id];
            let net = FeedForwardNetwork::compile(genome, &self.cfg);
            let eval: Evaluation = evaluator(&net, genome).into();
            self.record_evaluation(id, eval, net.genes_per_activation())
                .expect("id enumerated above");
        }
    }

    /// Best genome of the current (evaluated) population.
    pub fn best(&self) -> Option<&Genome> {
        self.genomes
            .values()
            .filter(|g| g.fitness().is_some())
            .max_by(|a, b| {
                a.fitness()
                    .partial_cmp(&b.fitness())
                    .expect("finite fitness")
                    .then(b.id().cmp(&a.id()))
            })
    }

    /// Best genome seen in any generation so far.
    pub fn best_ever(&self) -> Option<&Genome> {
        self.best_ever.as_ref()
    }

    /// Phase `S`: assigns every genome to a species.
    pub fn speciate(&mut self) -> SpeciationOutcome {
        self.species.speciate(
            &self.genomes,
            &self.cfg,
            self.generation,
            &mut self.counters,
        )
    }

    /// Phase `GP`: stagnation culling, fitness sharing, spawn counts, and
    /// parent selection.
    ///
    /// # Errors
    ///
    /// - [`NeatError::MissingFitness`] if any genome is unevaluated.
    /// - [`NeatError::Extinction`] if every species stagnated; callers
    ///   should then invoke [`reset_population`](Self::reset_population)
    ///   (which [`advance_generation`](Self::advance_generation) does
    ///   automatically when `reset_on_extinction` is set).
    pub fn plan_generation(&mut self) -> Result<GenerationPlan, NeatError> {
        if let Some((id, _)) = self.genomes.iter().find(|(_, g)| g.fitness().is_none()) {
            return Err(NeatError::MissingFitness { genome: id.0 });
        }
        cull_stagnant_species(&mut self.species, &self.genomes, &self.cfg, self.generation);
        if self.species.is_empty() {
            return Err(NeatError::Extinction);
        }
        Ok(compute_plan(
            &mut self.species,
            &self.genomes,
            &self.cfg,
            self.generation,
            self.master_seed,
            &mut self.next_genome_id,
        ))
    }

    /// One child from genomes resident here (panics if a parent is not).
    /// Pure — [`make_child`] is location-independent, nothing is charged —
    /// so any thread may build any child.
    fn child_of(&self, spec: &ChildSpec) -> Genome {
        let parents = spec.parent_ids();
        let p1 = &self.genomes[&parents[0]];
        let p2 = parents.get(1).map(|id| &self.genomes[id]);
        make_child(&self.cfg, spec, (p1, p2), self.master_seed, self.generation)
    }

    /// [`child_of`](Self::child_of), charging reproduction cost.
    pub(crate) fn build_child(&mut self, spec: &ChildSpec) -> Genome {
        let child = self.child_of(spec);
        self.counters.record_reproduction(child.num_genes());
        child
    }

    /// Phase `R` performed centrally: every child of `plan`, in plan order.
    /// A child is a pure function of `(config, spec, parents, master seed,
    /// generation)` — why DDS can ship specs to agents — so the centre breeds
    /// on all its cores ([`fanout`], sized by the population's genes), then
    /// charges the cost in plan order: bit-identical at any core count.
    pub fn reproduce_centrally(&mut self, plan: &GenerationPlan) -> Vec<Genome> {
        let genes = self.genomes.values().map(Genome::num_genes).sum();
        self.reproduce_over(fanout::workers(genes), plan)
    }

    /// [`reproduce_centrally`](Self::reproduce_centrally) on `workers` threads.
    fn reproduce_over(&mut self, workers: usize, plan: &GenerationPlan) -> Vec<Genome> {
        let children = fanout::fan_out_over(workers, &plan.children, |spec| self.child_of(spec));
        for child in &children {
            self.counters.record_reproduction(child.num_genes());
        }
        children
    }

    /// Installs the next generation's genomes and advances the generation
    /// counter. Children keep whatever ids their specs assigned.
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty or contains duplicate ids.
    pub fn install_next_generation(&mut self, children: Vec<Genome>) {
        self.replace_genomes(children);
        self.generation += 1;
    }

    /// Allocates a fresh genome id (steady-state reproduction creates
    /// children one at a time instead of through a [`GenerationPlan`]).
    pub(crate) fn allocate_genome_id(&mut self) -> GenomeId {
        let id = GenomeId(self.next_genome_id);
        self.next_genome_id += 1;
        id
    }

    /// Removes one genome (steady-state eviction).
    ///
    /// # Errors
    ///
    /// [`NeatError::UnknownGenome`] if `id` is not present.
    pub(crate) fn remove_genome(&mut self, id: GenomeId) -> Result<Genome, NeatError> {
        self.genomes
            .remove(&id)
            .ok_or(NeatError::UnknownGenome { genome: id.0 })
    }

    /// Inserts one genome (steady-state insertion). The id must have come
    /// from [`allocate_genome_id`](Self::allocate_genome_id) so it cannot
    /// collide.
    ///
    /// # Panics
    ///
    /// Panics if a genome with the same id is already present.
    pub(crate) fn insert_genome(&mut self, genome: Genome) {
        self.next_genome_id = self.next_genome_id.max(genome.id().0 + 1);
        let prev = self.genomes.insert(genome.id(), genome);
        assert!(prev.is_none(), "duplicate genome id inserted");
    }

    /// Replaces the current genomes without advancing the generation
    /// counter.
    ///
    /// Used by migration/resynchronization schemes (e.g. CLAN_DDA's
    /// periodic global speciation) that shuffle genomes between
    /// subpopulations mid-generation. Species assignments are left to the
    /// next [`speciate`](Self::speciate) call.
    ///
    /// # Panics
    ///
    /// Panics if `genomes` is empty or contains duplicate ids.
    pub fn replace_genomes(&mut self, genomes: Vec<Genome>) {
        assert!(!genomes.is_empty(), "population cannot be empty");
        let mut map = BTreeMap::new();
        for g in genomes {
            self.next_genome_id = self.next_genome_id.max(g.id().0 + 1);
            let prev = map.insert(g.id(), g);
            assert!(prev.is_none(), "duplicate genome id");
        }
        self.genomes = map;
    }

    /// Re-seeds a fresh random population after total extinction, under
    /// fresh ids, as [`new`](Self::new) seeds one.
    pub fn reset_population(&mut self) {
        self.extinctions += 1;
        self.generation += 1;
        self.seed();
        self.species = SpeciesSet::new();
    }

    /// Replaces the genomes with `population_size` initial ones under fresh
    /// ids, genome `id` from `(master seed, generation, id, InitGenome)`.
    /// Each is pure in its id, so seeding fans out like breeding ([`fanout`],
    /// sized by the genes drawn): the same genomes at any core count.
    fn seed(&mut self) {
        let wired = !matches!(self.cfg.initial_connection, InitialConnection::Unconnected);
        let per_genome = self.cfg.num_outputs * (1 + usize::from(wired) * self.cfg.num_inputs);
        let genes = (self.cfg.population_size * per_genome) as u64;
        self.seed_over(fanout::workers(genes));
    }

    /// [`seed`](Self::seed) on `workers` threads.
    fn seed_over(&mut self, workers: usize) {
        let first = self.next_genome_id;
        self.next_genome_id += self.cfg.population_size as u64;
        let ids: Vec<GenomeId> = (first..self.next_genome_id).map(GenomeId).collect();
        let (cfg, seed, generation) = (&self.cfg, self.master_seed, self.generation);
        let genomes = fanout::fan_out_over(workers, &ids, |&id| {
            let mut rng = op_rng(seed, generation, id.0, OpTag::InitGenome);
            Genome::new_initial(cfg, id, &mut rng)
        });
        self.genomes = ids.into_iter().zip(genomes).collect();
    }

    /// One evolution step after evaluation: `S`, `GP`, then phase `R` as
    /// `reproduce` (the plan in, the children out in plan order —
    /// [`reproduce_centrally`](Self::reproduce_centrally) for a serial run).
    /// Closes the generation's cost counters; the summary's `costs` carry
    /// the speciation / reproduction split the orchestrators time it with.
    /// Total extinction re-seeds ([`reset_population`](Self::reset_population))
    /// instead when `reset_on_extinction` is set, without calling `reproduce`.
    ///
    /// # Errors
    ///
    /// - [`NeatError::MissingFitness`] if any genome is unevaluated
    ///   (nothing has been changed).
    /// - [`NeatError::Extinction`] if every species stagnated and
    ///   `reset_on_extinction` is disabled.
    /// - Whatever `reproduce` returns.
    pub fn try_advance_generation<E: From<NeatError>>(
        &mut self,
        reproduce: impl FnOnce(&mut Population, &GenerationPlan) -> Result<Vec<Genome>, E>,
    ) -> Result<GenerationSummary, E> {
        if let Some((id, _)) = self.genomes.iter().find(|(_, g)| g.fitness().is_none()) {
            return Err(NeatError::MissingFitness { genome: id.0 }.into());
        }
        let generation = self.generation;
        let best_fitness = self
            .best()
            .and_then(Genome::fitness)
            .expect("a population is never empty and was just checked evaluated");
        let speciation = self.speciate();
        let (num_species, extinction) = match self.plan_generation() {
            Ok(plan) => {
                let children = reproduce(self, &plan)?;
                self.install_next_generation(children);
                (speciation.species_count, false)
            }
            Err(NeatError::Extinction) if self.cfg.reset_on_extinction => {
                self.reset_population();
                (0, true)
            }
            Err(e) => return Err(e.into()),
        };
        Ok(GenerationSummary {
            generation,
            num_species,
            best_fitness,
            costs: self.counters.finish_generation(),
            extinction,
        })
    }

    /// [`try_advance_generation`](Self::try_advance_generation) with
    /// central reproduction, for callers with nowhere to report a failure.
    ///
    /// # Panics
    ///
    /// Panics if any genome lacks fitness, or on extinction when
    /// `reset_on_extinction` is disabled.
    pub fn advance_generation(&mut self) -> GenerationSummary {
        self.try_advance_generation(|pop, plan| Ok(pop.reproduce_centrally(plan)))
            .unwrap_or_else(|e: NeatError| panic!("cannot advance the generation: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Scratch;

    fn cfg(pop: usize) -> NeatConfig {
        NeatConfig::builder(2, 1)
            .population_size(pop)
            .build()
            .unwrap()
    }

    #[test]
    fn new_population_has_configured_size() {
        let pop = Population::new(cfg(30), 1);
        assert_eq!(pop.len(), 30);
        assert_eq!(pop.generation(), 0);
        assert!(!pop.is_empty());
    }

    #[test]
    fn same_seed_same_population() {
        let a = Population::new(cfg(20), 5);
        let b = Population::new(cfg(20), 5);
        assert_eq!(a.genomes(), b.genomes());
        let c = Population::new(cfg(20), 6);
        assert_ne!(a.genomes(), c.genomes());
    }

    #[test]
    fn evaluate_sets_all_fitness_and_counts() {
        let mut pop = Population::new(cfg(10), 2);
        pop.evaluate(|_net, _| Evaluation {
            fitness: 1.0,
            activations: 200,
        });
        assert!(pop.genomes().values().all(|g| g.fitness() == Some(1.0)));
        let costs = pop.counters().current();
        assert_eq!(costs.episodes, 10);
        assert_eq!(costs.activations, 10);
        // 2 inputs -> 1 output full wiring: 2 conns + 1 node = 3 genes/activation.
        assert_eq!(costs.inference_genes, 10 * 200 * 3);
    }

    #[test]
    fn advance_generation_replaces_population() {
        let mut pop = Population::new(cfg(12), 3);
        pop.evaluate(|_, g| g.id().0 as f64);
        let old_ids: Vec<GenomeId> = pop.genomes().keys().copied().collect();
        let summary = pop.advance_generation();
        assert_eq!(pop.generation(), 1);
        assert_eq!(pop.len(), 12);
        assert_eq!(summary.best_fitness, 11.0);
        assert!(summary.num_species >= 1);
        let new_ids: Vec<GenomeId> = pop.genomes().keys().copied().collect();
        assert!(new_ids.iter().all(|id| !old_ids.contains(id)));
        assert!(pop.genomes().values().all(|g| g.fitness().is_none()));
    }

    #[test]
    fn plan_generation_requires_fitness() {
        let mut pop = Population::new(cfg(10), 4);
        let err = pop.plan_generation();
        assert!(matches!(err, Err(NeatError::MissingFitness { .. })));
    }

    #[test]
    fn set_fitness_unknown_genome_errors() {
        let mut pop = Population::new(cfg(5), 5);
        assert!(matches!(
            pop.set_fitness(GenomeId(999), 1.0),
            Err(NeatError::UnknownGenome { genome: 999 })
        ));
        assert!(pop.set_fitness(GenomeId(0), 1.0).is_ok());
    }

    #[test]
    fn best_ever_tracks_across_generations() {
        let mut pop = Population::new(cfg(15), 6);
        for gen in 0..4 {
            pop.evaluate(|_, g| (g.id().0 % 7) as f64 + gen as f64);
            pop.advance_generation();
        }
        let be = pop.best_ever().unwrap();
        assert!(be.fitness().unwrap() >= 3.0);
    }

    #[test]
    fn fitness_improves_on_trivial_task() {
        // Maximize output for input 1.0 — easy gradient for evolution.
        let cfg = NeatConfig::builder(1, 1)
            .population_size(50)
            .build()
            .unwrap();
        let mut pop = Population::new(cfg, 7);
        let mut first_best = None;
        let mut last_best = 0.0;
        let mut scratch = Scratch::new();
        for _ in 0..15 {
            pop.evaluate(|net, _| net.activate_into(&[1.0], &mut scratch)[0]);
            let s = pop.advance_generation();
            first_best.get_or_insert(s.best_fitness);
            last_best = s.best_fitness;
        }
        assert!(
            last_best >= first_best.unwrap(),
            "evolution should not regress on a static task: {first_best:?} -> {last_best}"
        );
        assert!(last_best > 0.9, "sigmoid output should approach 1.0");
    }

    #[test]
    fn generation_cost_history_accumulates() {
        let mut pop = Population::new(cfg(10), 9);
        for _ in 0..3 {
            pop.evaluate(|_, _| 1.0);
            pop.advance_generation();
        }
        assert_eq!(pop.counters().history().len(), 3);
        for g in pop.counters().history() {
            assert!(g.inference_genes > 0);
            assert!(g.speciation_genes > 0);
            assert!(g.reproduction_genes > 0);
        }
    }

    #[test]
    fn replace_genomes_keeps_generation_and_tracks_ids() {
        let mut pop = Population::new(cfg(6), 10);
        let gen_before = pop.generation();
        let replacement: Vec<Genome> = pop
            .genomes()
            .values()
            .take(4)
            .cloned()
            .enumerate()
            .map(|(i, mut g)| {
                g.set_id(GenomeId(500 + i as u64));
                g
            })
            .collect();
        pop.replace_genomes(replacement);
        assert_eq!(pop.generation(), gen_before);
        assert_eq!(pop.len(), 4);
        // Fresh ids must continue above the replaced range.
        pop.evaluate(|_, _| 1.0);
        pop.advance_generation();
        assert!(pop.genomes().keys().all(|id| id.0 >= 504));
    }

    #[test]
    #[should_panic(expected = "duplicate genome id")]
    fn replace_genomes_rejects_duplicates() {
        let mut pop = Population::new(cfg(4), 11);
        let g = pop.genomes().values().next().unwrap().clone();
        pop.replace_genomes(vec![g.clone(), g]);
    }

    #[test]
    fn extinction_resets_population_when_configured() {
        // max_stagnation 0 + species_elitism 0: any non-improving species
        // is culled at generation >= 1, forcing total extinction.
        let cfg = NeatConfig::builder(2, 1)
            .population_size(12)
            .max_stagnation(0)
            .species_elitism(0)
            .reset_on_extinction(true)
            .build()
            .unwrap();
        let mut pop = Population::new(cfg, 12);
        let mut saw_extinction = false;
        for _ in 0..4 {
            pop.evaluate(|_, _| 1.0); // constant fitness: never improves
            let summary = pop.advance_generation();
            saw_extinction |= summary.extinction;
            assert_eq!(pop.len(), 12, "reset must restore population size");
        }
        assert!(saw_extinction, "constant fitness must trigger extinction");
        assert!(pop.extinctions() >= 1);
    }

    #[test]
    #[should_panic(expected = "population went extinct")]
    fn extinction_panics_when_reset_disabled() {
        let cfg = NeatConfig::builder(2, 1)
            .population_size(8)
            .max_stagnation(0)
            .species_elitism(0)
            .reset_on_extinction(false)
            .build()
            .unwrap();
        let mut pop = Population::new(cfg, 13);
        for _ in 0..4 {
            pop.evaluate(|_, _| 1.0);
            pop.advance_generation();
        }
    }

    #[test]
    fn record_evaluation_charges_writes_and_reports_improvement() {
        let mut pop = Population::new(cfg(4), 14);
        let eval = |fitness| Evaluation {
            fitness,
            activations: 2,
        };
        assert_eq!(pop.record_evaluation(GenomeId(2), eval(5.0), 3), Ok(true));
        assert_eq!(pop.record_evaluation(GenomeId(0), eval(5.0), 3), Ok(false));
        assert_eq!(pop.best_ever().map(Genome::id), Some(GenomeId(2)));
        assert_eq!(
            pop.record_evaluation(GenomeId(9999), eval(9.0), 3),
            Err(NeatError::UnknownGenome { genome: 9999 })
        );
        let costs = pop.counters().current();
        assert_eq!(costs.episodes, 2, "an unknown id charges nothing");
        assert_eq!(costs.inference_genes, 2 * 2 * 3);
    }

    #[test]
    fn reproduction_is_identical_at_any_worker_count() {
        use crate::reproduction::ChildKind;
        // 31 children: no worker count below divides them evenly.
        let mut pop = Population::new(cfg(31), 15);
        pop.evaluate(|_, g| (g.id().0 % 7) as f64);
        pop.speciate();
        let plan = pop.plan_generation().unwrap();
        let kinds: Vec<ChildKind> = plan.children.iter().map(|c| c.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, ChildKind::Elite { .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, ChildKind::Crossover { parent1, parent2 } if parent1 == parent2)));
        // The reference: one child at a time, charged as it is built.
        let mut serial = pop.clone();
        let expected: Vec<Genome> = plan
            .children
            .iter()
            .map(|spec| serial.build_child(spec))
            .collect();
        for workers in [1, 2, 3, 8] {
            let mut fanned = pop.clone();
            let children = fanned.reproduce_over(workers, &plan);
            assert_eq!(children, expected, "{workers} worker(s)");
            let ids: Vec<GenomeId> = children.iter().map(Genome::id).collect();
            let planned: Vec<GenomeId> = plan.children.iter().map(|c| c.child_id).collect();
            assert_eq!(ids, planned, "plan order at {workers} worker(s)");
            assert_eq!(
                fanned.counters().current(),
                serial.counters().current(),
                "{workers} worker(s)"
            );
        }
    }

    #[test]
    fn seeding_is_identical_at_any_worker_count() {
        use crate::config::InitialConnection as Ic;
        // The reference: one genome at a time, as seeding always ran.
        let serial = |cfg: &NeatConfig, generation: u64, first_id: u64| {
            let mut genomes = BTreeMap::new();
            for id in (first_id..).take(cfg.population_size).map(GenomeId) {
                let mut rng = op_rng(15, generation, id.0, OpTag::InitGenome);
                genomes.insert(id, Genome::new_initial(cfg, id, &mut rng));
            }
            genomes
        };
        for wiring in [Ic::Full, Ic::Partial(0.5), Ic::Unconnected] {
            // 31 genomes: no worker count below divides them evenly;
            // constant fitness and no stagnation allowance force extinction.
            let cfg = NeatConfig::builder(5, 3)
                .population_size(31)
                .initial_connection(wiring)
                .max_stagnation(0)
                .species_elitism(0)
                .reset_on_extinction(true)
                .build()
                .unwrap();
            let fresh = Population::new(cfg.clone(), 15);
            assert_eq!(fresh.genomes(), &serial(&cfg, 0, 0), "{wiring:?}");
            let mut pop = fresh.clone();
            let (generation, first_id) = loop {
                let before = (pop.generation() + 1, pop.next_genome_id);
                pop.evaluate(|_, _| 1.0);
                if pop.advance_generation().extinction {
                    break before;
                }
            };
            let reseeded = serial(&cfg, generation, first_id);
            assert_eq!(pop.genomes(), &reseeded, "{wiring:?} re-seeded");
            for workers in [1, 2, 3, 8] {
                for (seeded, expected) in [(&fresh, serial(&cfg, 0, 0)), (&pop, reseeded.clone())] {
                    let mut again = seeded.clone();
                    again.next_genome_id -= cfg.population_size as u64;
                    again.seed_over(workers);
                    assert_eq!(again.genomes, expected, "{wiring:?} at {workers} worker(s)");
                    assert_eq!(again.next_genome_id, seeded.next_genome_id);
                }
            }
        }
    }

    #[test]
    fn serial_two_runs_bit_identical() {
        let run = |seed: u64| {
            let mut pop = Population::new(cfg(20), seed);
            let mut scratch = Scratch::new();
            for _ in 0..5 {
                pop.evaluate(|net, _| net.activate_into(&[0.3, -0.7], &mut scratch)[0]);
                pop.advance_generation();
            }
            pop.genomes().clone()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
