//! Generation planning and reproduction (the paper's `GP` and `R` blocks).
//!
//! *Generation planning* is the synchronous bookkeeping step: fitness
//! sharing, spawn counts, parent pools, and parent selection for every
//! child. Its output — a [`GenerationPlan`] — is exactly the data CLAN_DDS
//! ships to agents ("sending spawn count", "sending parent list", "sending
//! parent genomes" in the paper's Figure 4).
//!
//! *Reproduction* ([`make_child`]) turns one [`ChildSpec`] plus its parent
//! genomes into a child, deterministically: the RNG stream is derived from
//! `(master_seed, generation, child_id)`, so any agent — or any core of
//! the centre ([`crate::fanout`]) — reproduces any child identically.

use crate::config::NeatConfig;
use crate::gene::{GenomeId, SpeciesId};
use crate::genome::Genome;
use crate::rng::{op_rng, OpTag};
use crate::species::SpeciesSet;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// How one child of the next generation is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChildKind {
    /// Verbatim copy of a top genome (elitism).
    Elite {
        /// The genome being copied.
        source: GenomeId,
    },
    /// Sexual reproduction followed by mutation.
    Crossover {
        /// The fitter parent (ties broken by lower id).
        parent1: GenomeId,
        /// The other parent (may equal `parent1`, as in `neat-python`).
        parent2: GenomeId,
    },
}

/// Specification of one child: which species it belongs to and how to
/// build it. Self-contained given access to the parent genomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChildSpec {
    /// Id the child will carry in the next generation.
    pub child_id: GenomeId,
    /// Species the child is budgeted under.
    pub species: SpeciesId,
    /// Construction recipe.
    pub kind: ChildKind,
}

impl ChildSpec {
    /// Genome ids this child needs as inputs.
    pub fn parent_ids(&self) -> Vec<GenomeId> {
        match self.kind {
            ChildKind::Elite { source } => vec![source],
            ChildKind::Crossover { parent1, parent2 } => {
                if parent1 == parent2 {
                    vec![parent1]
                } else {
                    vec![parent1, parent2]
                }
            }
        }
    }
}

/// Per-species slice of the plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpeciesPlan {
    /// The species this plan covers.
    pub species: SpeciesId,
    /// Number of children budgeted (fitness sharing outcome).
    pub spawn: usize,
    /// Parent pool: the top `survival_threshold` fraction of members,
    /// fitness-descending.
    pub parent_pool: Vec<GenomeId>,
}

/// The full synchronous plan for building the next generation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenerationPlan {
    /// Generation being planned (children belong to `generation + 1`).
    pub generation: u64,
    /// Per-species budgets and parent pools.
    pub species_plans: Vec<SpeciesPlan>,
    /// Every child to create, in deterministic order.
    pub children: Vec<ChildSpec>,
}

impl GenerationPlan {
    /// Unique set of parent genome ids referenced by any child.
    ///
    /// This is what CLAN_DDS must transfer to agents ("sending parent
    /// genomes"), since the chosen parents are not necessarily resident on
    /// the agent that builds the child.
    pub fn parent_ids(&self) -> BTreeSet<GenomeId> {
        self.children.iter().flat_map(|c| c.parent_ids()).collect()
    }
}

/// Computes fitness sharing, spawn counts, parent pools, and per-child
/// parent selection. Deterministic given identical inputs.
///
/// `next_genome_id` supplies fresh child ids and is advanced.
///
/// # Panics
///
/// Panics if any member genome lacks fitness (callers evaluate first) or
/// if the species set is empty.
pub fn compute_plan(
    species: &mut SpeciesSet,
    genomes: &BTreeMap<GenomeId, Genome>,
    cfg: &NeatConfig,
    generation: u64,
    master_seed: u64,
    next_genome_id: &mut u64,
) -> GenerationPlan {
    assert!(!species.is_empty(), "cannot plan with zero species");
    let fitness_of = |id: GenomeId| -> f64 {
        genomes[&id]
            .fitness()
            .expect("generation planning requires evaluated genomes")
    };

    // --- Fitness sharing (adjusted fitness), neat-python style. ---------
    let all_fits: Vec<f64> = species
        .species()
        .values()
        .flat_map(|s| s.members().iter().map(|&m| fitness_of(m)))
        .collect();
    let min_f = all_fits.iter().copied().fold(f64::INFINITY, f64::min);
    let max_f = all_fits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let range = (max_f - min_f).max(1.0);

    let adjusted: Vec<(SpeciesId, f64)> = species
        .species_mut()
        .iter_mut()
        .map(|(&sid, s)| {
            let mean =
                s.members().iter().map(|&m| fitness_of(m)).sum::<f64>() / s.members().len() as f64;
            let af = (mean - min_f) / range;
            s.set_adjusted_fitness(af);
            (sid, af)
        })
        .collect();

    // --- Spawn counts: proportional shares normalized to exactly the ----
    // configured population size (largest-remainder), with a
    // min_species_size floor where the budget allows.
    let pop = cfg.population_size;
    let spawn = allocate_spawn(&adjusted, pop, cfg.min_species_size);

    // --- Parent pools and child specs. ----------------------------------
    let mut species_plans = Vec::with_capacity(adjusted.len());
    let mut children = Vec::with_capacity(pop);
    for (&(sid, _), &n_spawn) in adjusted.iter().zip(spawn.iter()) {
        let s = &species.species()[&sid];
        let mut ranked: Vec<GenomeId> = s.members().to_vec();
        ranked.sort_by(|&a, &b| {
            fitness_of(b)
                .partial_cmp(&fitness_of(a))
                .expect("finite fitness")
                .then(a.cmp(&b))
        });
        let cutoff = ((cfg.survival_threshold * ranked.len() as f64).ceil() as usize)
            .max(2)
            .min(ranked.len());
        let pool: Vec<GenomeId> = ranked[..cutoff].to_vec();

        let n_elites = cfg.elitism.min(n_spawn).min(ranked.len());
        for elite in ranked.iter().take(n_elites) {
            let child_id = GenomeId(*next_genome_id);
            *next_genome_id += 1;
            children.push(ChildSpec {
                child_id,
                species: sid,
                kind: ChildKind::Elite { source: *elite },
            });
        }
        for _ in n_elites..n_spawn {
            let child_id = GenomeId(*next_genome_id);
            *next_genome_id += 1;
            let mut rng = op_rng(master_seed, generation, child_id.0, OpTag::ParentSelect);
            let a = pool[rng.gen_range(0..pool.len())];
            let b = pool[rng.gen_range(0..pool.len())];
            // Fitter parent first; ties broken by id for determinism.
            let (parent1, parent2) = order_parents(a, b, &fitness_of);
            children.push(ChildSpec {
                child_id,
                species: sid,
                kind: ChildKind::Crossover { parent1, parent2 },
            });
        }
        species_plans.push(SpeciesPlan {
            species: sid,
            spawn: n_spawn,
            parent_pool: pool,
        });
    }

    GenerationPlan {
        generation,
        species_plans,
        children,
    }
}

/// Orders two parent ids so the fitter (ties: lower id) comes first.
fn order_parents(
    a: GenomeId,
    b: GenomeId,
    fitness_of: &impl Fn(GenomeId) -> f64,
) -> (GenomeId, GenomeId) {
    let (fa, fb) = (fitness_of(a), fitness_of(b));
    if fb > fa || (fb == fa && b < a) {
        (b, a)
    } else {
        (a, b)
    }
}

/// Largest-remainder allocation of `pop` spawn slots proportional to
/// adjusted fitness, honoring `min_size` per species where possible.
///
/// Always sums to exactly `pop` (the exactness — a small deviation from
/// `neat-python`, whose population size drifts — keeps distributed
/// partitioning clean).
fn allocate_spawn(adjusted: &[(SpeciesId, f64)], pop: usize, min_size: usize) -> Vec<usize> {
    let n = adjusted.len();
    debug_assert!(n > 0);
    let af_sum: f64 = adjusted.iter().map(|&(_, af)| af).sum();
    let raw: Vec<f64> = if af_sum > 0.0 {
        adjusted
            .iter()
            .map(|&(_, af)| af / af_sum * pop as f64)
            .collect()
    } else {
        vec![pop as f64 / n as f64; n]
    };

    // Largest remainder to hit pop exactly.
    let mut alloc: Vec<usize> = raw.iter().map(|&r| r.floor() as usize).collect();
    let mut rest: i64 = pop as i64 - alloc.iter().sum::<usize>() as i64;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        let ri = raw[i] - raw[i].floor();
        let rj = raw[j] - raw[j].floor();
        rj.partial_cmp(&ri)
            .expect("finite remainders")
            .then(adjusted[i].0.cmp(&adjusted[j].0))
    });
    let mut k = 0;
    while rest > 0 {
        alloc[order[k % n]] += 1;
        rest -= 1;
        k += 1;
    }

    // Enforce the floor by stealing from the largest allocations, if the
    // budget allows (n * min_size <= pop).
    if n * min_size <= pop {
        while let Some(under) = alloc.iter().position(|&a| a < min_size) {
            let (over, _) = alloc
                .iter()
                .enumerate()
                .max_by_key(|&(i, &a)| (a, std::cmp::Reverse(adjusted[i].0)))
                .expect("non-empty");
            debug_assert!(alloc[over] > min_size);
            alloc[over] -= 1;
            alloc[under] += 1;
        }
    }
    debug_assert_eq!(alloc.iter().sum::<usize>(), pop);
    alloc
}

/// Builds one child from its spec and parent genomes.
///
/// Deterministic and location-independent: RNG streams derive from
/// `(master_seed, generation, child_id)`, so the same child built on any
/// agent (or the center) is bit-identical. Returns the child genome;
/// callers charge `child.num_genes()` to reproduction cost.
///
/// # Panics
///
/// Panics if `parents` does not match `spec.kind`'s requirements
/// (elite needs the source as `parents.0`).
pub fn make_child(
    cfg: &NeatConfig,
    spec: &ChildSpec,
    parents: (&Genome, Option<&Genome>),
    master_seed: u64,
    generation: u64,
) -> Genome {
    match spec.kind {
        ChildKind::Elite { source } => {
            let (p, _) = parents;
            assert_eq!(p.id(), source, "elite spec requires its source genome");
            let mut child = p.clone();
            child.set_id(spec.child_id);
            child.clear_fitness();
            child
        }
        ChildKind::Crossover { parent1, parent2 } => {
            let (p1, p2) = parents;
            assert_eq!(p1.id(), parent1, "crossover spec requires parent1 first");
            let p2 = if parent1 == parent2 {
                p1
            } else {
                let p2 = p2.expect("distinct parents require second genome");
                assert_eq!(p2.id(), parent2, "crossover spec parent2 mismatch");
                p2
            };
            let mut xo_rng = op_rng(master_seed, generation, spec.child_id.0, OpTag::Crossover);
            let mut child = Genome::crossover(p1, p2, spec.child_id, &mut xo_rng);
            let mut mut_rng = op_rng(master_seed, generation, spec.child_id.0, OpTag::Mutation);
            child.mutate(cfg, &mut mut_rng);
            child
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CostCounters;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(pop: usize) -> (NeatConfig, BTreeMap<GenomeId, Genome>, SpeciesSet) {
        let cfg = NeatConfig::builder(3, 1)
            .population_size(pop)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let mut genomes: BTreeMap<GenomeId, Genome> = (0..pop)
            .map(|i| {
                let id = GenomeId(i as u64);
                let mut g = Genome::new_initial(&cfg, id, &mut rng);
                g.set_fitness(i as f64);
                (id, g)
            })
            .collect();
        let ids: Vec<GenomeId> = genomes.keys().copied().collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 0 {
                let g = genomes.get_mut(id).unwrap();
                let mut r = StdRng::seed_from_u64(77 + i as u64);
                for _ in 0..20 {
                    g.mutate(&cfg, &mut r);
                }
                g.set_fitness(i as f64);
            }
        }
        let mut set = SpeciesSet::new();
        let mut counters = CostCounters::new();
        set.speciate(&genomes, &cfg, 0, &mut counters);
        (cfg, genomes, set)
    }

    #[test]
    fn plan_budgets_exactly_population_size() {
        let (cfg, genomes, mut set) = setup(30);
        let mut next_id = 1000;
        let plan = compute_plan(&mut set, &genomes, &cfg, 0, 7, &mut next_id);
        assert_eq!(plan.children.len(), 30);
        assert_eq!(next_id, 1030);
        let total: usize = plan.species_plans.iter().map(|sp| sp.spawn).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn plan_child_ids_unique_and_sequential() {
        let (cfg, genomes, mut set) = setup(20);
        let mut next_id = 500;
        let plan = compute_plan(&mut set, &genomes, &cfg, 0, 7, &mut next_id);
        let ids: BTreeSet<u64> = plan.children.iter().map(|c| c.child_id.0).collect();
        assert_eq!(ids.len(), 20);
        assert_eq!(*ids.iter().next().unwrap(), 500);
        assert_eq!(*ids.iter().last().unwrap(), 519);
    }

    #[test]
    fn plan_is_deterministic() {
        let (cfg, genomes, set) = setup(25);
        let mut set_a = set.clone();
        let mut set_b = set;
        let mut id_a = 0;
        let mut id_b = 0;
        let a = compute_plan(&mut set_a, &genomes, &cfg, 3, 99, &mut id_a);
        let b = compute_plan(&mut set_b, &genomes, &cfg, 3, 99, &mut id_b);
        assert_eq!(a, b);
    }

    #[test]
    fn elites_come_from_top_of_species() {
        let (cfg, genomes, mut set) = setup(30);
        let mut next_id = 0;
        let plan = compute_plan(&mut set, &genomes, &cfg, 0, 7, &mut next_id);
        for sp in &plan.species_plans {
            let elite_sources: Vec<GenomeId> = plan
                .children
                .iter()
                .filter(|c| c.species == sp.species)
                .filter_map(|c| match c.kind {
                    ChildKind::Elite { source } => Some(source),
                    _ => None,
                })
                .collect();
            for e in &elite_sources {
                // Elites must be in the parent pool's top ranks.
                assert!(
                    sp.parent_pool.contains(e) || elite_sources.len() <= cfg.elitism,
                    "elite {e} should be among the fittest"
                );
            }
        }
    }

    #[test]
    fn crossover_parents_ordered_fitter_first() {
        let (cfg, genomes, mut set) = setup(40);
        let mut next_id = 0;
        let plan = compute_plan(&mut set, &genomes, &cfg, 0, 7, &mut next_id);
        for c in &plan.children {
            if let ChildKind::Crossover { parent1, parent2 } = c.kind {
                let f1 = genomes[&parent1].fitness().unwrap();
                let f2 = genomes[&parent2].fitness().unwrap();
                assert!(
                    f1 > f2 || (f1 == f2 && parent1 <= parent2),
                    "parent order violated: {parent1}({f1}) vs {parent2}({f2})"
                );
            }
        }
    }

    #[test]
    fn parent_pool_respects_survival_threshold() {
        let (cfg, genomes, mut set) = setup(40);
        let mut next_id = 0;
        let plan = compute_plan(&mut set, &genomes, &cfg, 0, 7, &mut next_id);
        for sp in &plan.species_plans {
            let mems = set
                .species()
                .get(&sp.species)
                .map(|s| s.members().len())
                .unwrap_or(0);
            let expected = ((cfg.survival_threshold * mems as f64).ceil() as usize)
                .max(2)
                .min(mems);
            assert_eq!(sp.parent_pool.len(), expected);
        }
    }

    #[test]
    fn make_child_elite_is_verbatim_copy() {
        let (cfg, genomes, _) = setup(10);
        let source = GenomeId(3);
        let spec = ChildSpec {
            child_id: GenomeId(100),
            species: SpeciesId(0),
            kind: ChildKind::Elite { source },
        };
        let child = make_child(&cfg, &spec, (&genomes[&source], None), 7, 0);
        assert_eq!(child.id(), GenomeId(100));
        assert_eq!(child.fitness(), None);
        assert_eq!(child.nodes(), genomes[&source].nodes());
        assert_eq!(child.conns(), genomes[&source].conns());
    }

    #[test]
    fn make_child_location_independent() {
        let (cfg, genomes, _) = setup(10);
        let spec = ChildSpec {
            child_id: GenomeId(200),
            species: SpeciesId(0),
            kind: ChildKind::Crossover {
                parent1: GenomeId(9),
                parent2: GenomeId(8),
            },
        };
        let a = make_child(
            &cfg,
            &spec,
            (&genomes[&GenomeId(9)], Some(&genomes[&GenomeId(8)])),
            7,
            0,
        );
        let b = make_child(
            &cfg,
            &spec,
            (&genomes[&GenomeId(9)], Some(&genomes[&GenomeId(8)])),
            7,
            0,
        );
        assert_eq!(a, b, "same spec + seed must be bit-identical anywhere");
    }

    #[test]
    fn make_child_self_crossover_allowed() {
        let (cfg, genomes, _) = setup(10);
        let spec = ChildSpec {
            child_id: GenomeId(300),
            species: SpeciesId(0),
            kind: ChildKind::Crossover {
                parent1: GenomeId(5),
                parent2: GenomeId(5),
            },
        };
        let child = make_child(&cfg, &spec, (&genomes[&GenomeId(5)], None), 7, 0);
        child.check_invariants(&cfg).unwrap();
    }

    #[test]
    fn allocate_spawn_sums_to_population() {
        let adj = vec![
            (SpeciesId(0), 0.9),
            (SpeciesId(1), 0.1),
            (SpeciesId(2), 0.0),
        ];
        let alloc = allocate_spawn(&adj, 150, 2);
        assert_eq!(alloc.iter().sum::<usize>(), 150);
        assert!(alloc.iter().all(|&a| a >= 2), "{alloc:?}");
        assert!(alloc[0] > alloc[1], "{alloc:?}");
    }

    #[test]
    fn allocate_spawn_zero_fitness_equal_shares() {
        let adj = vec![(SpeciesId(0), 0.0), (SpeciesId(1), 0.0)];
        let alloc = allocate_spawn(&adj, 10, 2);
        assert_eq!(alloc, vec![5, 5]);
    }

    #[test]
    fn allocate_spawn_more_species_than_budget() {
        let adj: Vec<(SpeciesId, f64)> = (0..10)
            .map(|i| (SpeciesId(i), 1.0 / (i + 1) as f64))
            .collect();
        let alloc = allocate_spawn(&adj, 5, 2);
        assert_eq!(alloc.iter().sum::<usize>(), 5);
    }

    #[test]
    fn spec_parent_ids_dedup_self_cross() {
        let spec = ChildSpec {
            child_id: GenomeId(1),
            species: SpeciesId(0),
            kind: ChildKind::Crossover {
                parent1: GenomeId(4),
                parent2: GenomeId(4),
            },
        };
        assert_eq!(spec.parent_ids(), vec![GenomeId(4)]);
    }
}
