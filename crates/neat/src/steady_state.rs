//! Barrier-free steady-state reproduction (the async CLAN mode).
//!
//! Generational NEAT ends every round with a gather barrier: the whole
//! population must be evaluated before planning (`GP`) runs. The CLAN
//! paper's asynchronous design removes that barrier — a fitness arrival
//! triggers one reproduction event: two tournaments pick parents from
//! the evaluated members, a child is built on a fresh id, and it
//! *insert-replaces* the worst evaluated genome. There are no
//! generations and no species bookkeeping; selection pressure comes
//! entirely from the tournaments and the replace-worst rule.
//!
//! That pressure only exists once there is an evaluated population to
//! select from, so this module is the *step*, not the loop: the one loop
//! that drives it (`clan_core::asynchronous`) evaluates the founding
//! population first and calls [`steady_state_insert`] only from the
//! first arrival that finds no founder left to dispatch — its bootstrap
//! rule. Inserting from the second arrival instead leaves one evaluated
//! non-champion for every later event to evict and re-breed from: a
//! (1+1) hill-climber, with the tournaments inert.
//!
//! Two invariants hold for every [`steady_state_insert`] (pinned by
//! proptests in the workspace's `tests/async_steady_state.rs`):
//!
//! 1. **Size conservation** — exactly one genome is evicted for the one
//!    inserted, so the population never grows or shrinks.
//! 2. **Champion protection** — the current best evaluated genome is
//!    never the eviction victim, so the resident champion (and therefore
//!    the lineage behind `best_ever`) always survives to parent again.
//!
//! Determinism: every stochastic choice draws from
//! `op_rng(master_seed, event, 0, OpTag::Tournament)`, where `event` is
//! the reproduction-event sequence number, and the child itself is built
//! by the same [`make_child`](crate::reproduction::make_child) stream the
//! generational modes use. Replaying the same *sequence* of events
//! reproduces the same population bit-for-bit — which is exactly what the
//! virtual-time layer in `clan-core` exploits to make an async run
//! reproducible for a fixed `(seed, latency schedule)`.

use crate::gene::{GenomeId, SpeciesId};
use crate::genome::Genome;
use crate::population::Population;
use crate::reproduction::{ChildKind, ChildSpec};
use crate::rng::{op_rng, OpTag};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Outcome of one steady-state reproduction event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InsertReport {
    /// Id of the freshly created (unevaluated) child.
    pub child: GenomeId,
    /// The fitter parent (ties broken by lower id).
    pub parent1: GenomeId,
    /// The other parent (may equal `parent1`).
    pub parent2: GenomeId,
    /// The evaluated genome the child replaced.
    pub evicted: GenomeId,
}

/// Deterministic tournament over the *evaluated* members: samples
/// `size` entrants (with replacement, as `evolve_async`-style loops do)
/// and returns the fittest, ties broken toward the lower id. `None` if
/// nothing is evaluated yet.
pub fn tournament_select<R: Rng>(pop: &Population, size: usize, rng: &mut R) -> Option<GenomeId> {
    let evaluated: Vec<(GenomeId, f64)> = pop
        .genomes()
        .iter()
        .filter_map(|(id, g)| g.fitness().map(|f| (*id, f)))
        .collect();
    if evaluated.is_empty() {
        return None;
    }
    let size = size.max(1);
    let mut best: Option<(GenomeId, f64)> = None;
    for _ in 0..size {
        let pick = evaluated[rng.gen_range(0..evaluated.len())];
        best = Some(match best {
            Some(cur) if pick.1 > cur.1 || (pick.1 == cur.1 && pick.0 < cur.0) => pick,
            Some(cur) => cur,
            None => pick,
        });
    }
    best.map(|(id, _)| id)
}

/// The genome the next insertion will evict: the worst evaluated member
/// (ties broken toward the *higher* id, evicting the younger of equals),
/// never the current best. `None` if fewer than two members are
/// evaluated — there is no victim that isn't the champion.
///
/// Unevaluated members (children still in flight on some agent) are
/// never victims either: evicting them would orphan a pending result.
pub fn eviction_victim(pop: &Population) -> Option<GenomeId> {
    let protect = pop.best()?.id();
    pop.genomes()
        .iter()
        .filter(|(id, g)| g.fitness().is_some() && **id != protect)
        .min_by(|(ia, a), (ib, b)| {
            a.fitness()
                .partial_cmp(&b.fitness())
                .expect("finite fitness")
                .then(ib.cmp(ia))
        })
        .map(|(id, _)| *id)
}

/// One steady-state reproduction event, deterministic in
/// `(master_seed, event)`: tournament-selects two parents, builds a child
/// on a fresh id, and insert-replaces the [`eviction_victim`]. The child
/// is left unevaluated — the caller dispatches it for evaluation.
///
/// Returns `None` (and leaves the population untouched) when fewer than
/// two members are evaluated, since eviction would have to take the
/// champion.
pub fn steady_state_insert(
    pop: &mut Population,
    tournament_size: usize,
    event: u64,
) -> Option<InsertReport> {
    let victim = eviction_victim(pop)?;
    let mut rng = op_rng(pop.master_seed(), event, 0, OpTag::Tournament);
    let a = tournament_select(pop, tournament_size, &mut rng)?;
    let b = tournament_select(pop, tournament_size, &mut rng)?;
    let fit = |id: GenomeId| pop.genome(id).and_then(Genome::fitness).expect("evaluated");
    let (parent1, parent2) = if fit(b) > fit(a) || (fit(b) == fit(a) && b < a) {
        (b, a)
    } else {
        (a, b)
    };
    let spec = ChildSpec {
        child_id: pop.allocate_genome_id(),
        species: SpeciesId(0),
        kind: ChildKind::Crossover { parent1, parent2 },
    };
    let child = pop.build_child(&spec);
    pop.remove_genome(victim).expect("victim is resident");
    pop.insert_genome(child);
    Some(InsertReport {
        child: spec.child_id,
        parent1,
        parent2,
        evicted: victim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NeatConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn evaluated_pop(n: usize, seed: u64) -> Population {
        let cfg = NeatConfig::builder(2, 1)
            .population_size(n)
            .build()
            .unwrap();
        let mut pop = Population::new(cfg, seed);
        let ids: Vec<GenomeId> = pop.genomes().keys().copied().collect();
        for (i, id) in ids.iter().enumerate() {
            pop.set_fitness(*id, i as f64).unwrap();
        }
        pop
    }

    #[test]
    fn tournament_prefers_fitter_entrants() {
        let pop = evaluated_pop(8, 3);
        // A tournament as large as the population must return the champion.
        let mut rng = StdRng::seed_from_u64(1);
        let mut saw_best = false;
        for _ in 0..32 {
            let winner = tournament_select(&pop, 64, &mut rng).unwrap();
            saw_best |= winner == pop.best().unwrap().id();
        }
        assert!(saw_best, "a saturated tournament should find the champion");
    }

    #[test]
    fn tournament_is_deterministic_in_its_rng() {
        let pop = evaluated_pop(10, 4);
        let a = tournament_select(&pop, 3, &mut StdRng::seed_from_u64(9));
        let b = tournament_select(&pop, 3, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn victim_is_worst_and_never_champion() {
        let pop = evaluated_pop(6, 5);
        let victim = eviction_victim(&pop).unwrap();
        let worst = pop
            .genomes()
            .iter()
            .min_by(|a, b| a.1.fitness().partial_cmp(&b.1.fitness()).unwrap())
            .map(|(id, _)| *id)
            .unwrap();
        assert_eq!(victim, worst);
        assert_ne!(victim, pop.best().unwrap().id());
    }

    #[test]
    fn insert_conserves_size_and_leaves_child_unevaluated() {
        let mut pop = evaluated_pop(6, 7);
        let n = pop.len();
        let report = steady_state_insert(&mut pop, 3, 0).unwrap();
        assert_eq!(pop.len(), n);
        assert!(pop.genome(report.child).unwrap().fitness().is_none());
        assert!(pop.genome(report.evicted).is_none());
        assert_ne!(report.evicted, pop.best().unwrap().id());
    }

    #[test]
    fn insert_needs_two_evaluated_members() {
        let cfg = NeatConfig::builder(2, 1)
            .population_size(4)
            .build()
            .unwrap();
        let mut pop = Population::new(cfg, 11);
        assert!(steady_state_insert(&mut pop, 3, 0).is_none());
        let first = *pop.genomes().keys().next().unwrap();
        pop.set_fitness(first, 1.0).unwrap();
        // One evaluated member: it is the champion, so still no victim.
        assert!(steady_state_insert(&mut pop, 3, 1).is_none());
    }

    #[test]
    fn insert_replays_identically_for_same_event() {
        let mut a = evaluated_pop(8, 21);
        let mut b = evaluated_pop(8, 21);
        let ra = steady_state_insert(&mut a, 3, 5).unwrap();
        let rb = steady_state_insert(&mut b, 3, 5).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(
            a.genome(ra.child).unwrap().content_hash(),
            b.genome(rb.child).unwrap().content_hash()
        );
    }
}
