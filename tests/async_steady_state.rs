//! Property-based pins for the async steady-state mode: the two
//! insert-replace invariants (size conservation, champion protection)
//! and the virtual-time reproducibility contract over *arbitrary*
//! seeded latency schedules — not just the hand-picked ones the unit
//! tests use.

use clan::core::{AsyncOrchestrator, Evaluator, InferenceMode, LatencySchedule, Tracer};
use clan::envs::Workload;
use clan::neat::rng::{derive_seed, OpTag};
use clan::neat::steady_state::steady_state_insert;
use clan::neat::{GenomeId, NeatConfig, Population};
use proptest::prelude::*;

/// A population with every member evaluated to a fitness drawn from a
/// seeded stream (so champions land on arbitrary ids, not just id 0).
fn evaluated_pop(n: usize, seed: u64) -> Population {
    let cfg = NeatConfig::builder(2, 1)
        .population_size(n)
        .build()
        .expect("config");
    let mut pop = Population::new(cfg, seed);
    let ids: Vec<GenomeId> = pop.genomes().keys().copied().collect();
    for (i, id) in ids.iter().enumerate() {
        let f = (derive_seed(seed, &[i as u64, OpTag::Tournament as u64]) % 1000) as f64;
        pop.set_fitness(*id, f).expect("resident");
    }
    pop.note_best_ever();
    pop
}

/// Current champion: the max-fitness evaluated member, ties toward the
/// lower id (the same rule `Population::best` uses).
fn champion(pop: &Population) -> (GenomeId, f64) {
    pop.genomes()
        .iter()
        .filter_map(|(id, g)| g.fitness().map(|f| (*id, f)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(b.0.cmp(&a.0)))
        .expect("at least one evaluated member")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ---------------- steady-state insert invariants ----------------

    #[test]
    fn insert_conserves_size_and_never_evicts_the_champion(
        seed in any::<u64>(),
        n in 4usize..14,
        tournament in 1usize..6,
        events in 1u64..30,
    ) {
        let mut pop = evaluated_pop(n, seed);
        let mut floor = champion(&pop).1;
        for e in 0..events {
            let (champ_id, champ_fit) = champion(&pop);
            let report = steady_state_insert(&mut pop, tournament, e)
                .expect("a fully evaluated population always has a victim");
            // Size conservation: one in, one out, every single event.
            prop_assert_eq!(pop.len(), n);
            // Champion protection: the best genome is never the victim,
            // stays resident, and keeps its fitness bit-for-bit.
            prop_assert_ne!(report.evicted, champ_id);
            let still = pop.genome(champ_id).expect("champion survives");
            prop_assert_eq!(still.fitness(), Some(champ_fit));
            // Therefore the resident max fitness never regresses.
            prop_assert!(champion(&pop).1 >= floor);
            floor = champion(&pop).1;
            // The child arrives unevaluated; score it (seeded, so some
            // children dethrone the champion and rotate the protected id)
            // to model the completion that would trigger the next event.
            let f = (derive_seed(seed ^ 0xA5, &[e, report.child.0]) % 1500) as f64;
            pop.set_fitness(report.child, f).expect("child resident");
            pop.note_best_ever();
        }
    }

    #[test]
    fn insert_replays_bit_identically_for_any_seed(
        seed in any::<u64>(),
        n in 4usize..12,
        tournament in 1usize..6,
        event in any::<u64>(),
    ) {
        let mut a = evaluated_pop(n, seed);
        let mut b = evaluated_pop(n, seed);
        let ra = steady_state_insert(&mut a, tournament, event).expect("victim");
        let rb = steady_state_insert(&mut b, tournament, event).expect("victim");
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(
            a.genome(ra.child).expect("resident").content_hash(),
            b.genome(rb.child).expect("resident").content_hash()
        );
    }

    // ---------------- virtual-time reproducibility ----------------

    #[test]
    fn virtual_replay_is_deterministic_for_any_schedule(
        master in any::<u64>(),
        sched_seed in any::<u64>(),
        bases in proptest::collection::vec(1u64..20_000, 1..4),
        jitter in 0u32..91,
        extra_evals in 0u64..20,
    ) {
        let w = Workload::CartPole;
        let n = bases.len() + 2;
        let total = n as u64 + extra_evals;
        let schedule = LatencySchedule::new(sched_seed, bases.clone(), jitter)
            .expect("positive bases, jitter <= 90");
        let run = || {
            let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
                .population_size(n)
                .build()
                .expect("config");
            let evaluator = Evaluator::new(w, InferenceMode::MultiStep);
            let mut orch =
                AsyncOrchestrator::new(Population::new(cfg, master), evaluator, total, 3)
                    .expect("budget covers the population");
            let tracer = Tracer::new();
            orch.install_tracer(tracer.clone());
            orch.run_virtual(&schedule).expect("virtual run");
            let stats = orch.stats().expect("run finished").clone();
            let trace = tracer.finish().expect("live tracer records");
            (trace.logical_text(), stats)
        };
        let (log_a, stats_a) = run();
        let (log_b, stats_b) = run();
        // The whole contract: same (seed, schedule) => byte-identical
        // logical traces, same hash, same final best fitness.
        prop_assert_eq!(&log_a, &log_b);
        prop_assert_eq!(stats_a.event_log_hash, stats_b.event_log_hash);
        prop_assert_eq!(stats_a.best_fitness.to_bits(), stats_b.best_fitness.to_bits());
        prop_assert_eq!(stats_a.total_evals, total);
        let completions = log_a.lines().filter(|l| l.contains(" k=async ")).count();
        prop_assert_eq!(completions as u64, total);
    }

    #[test]
    fn service_times_are_pure_and_jitter_bounded(
        sched_seed in any::<u64>(),
        base in 1u64..1_000_000,
        jitter in 0u32..91,
        agent in 0usize..4,
        k in any::<u64>(),
    ) {
        let s = LatencySchedule::uniform(sched_seed, 4, base, jitter).expect("valid");
        let t = s.service_us(agent, k);
        prop_assert_eq!(t, s.service_us(agent, k), "pure in (agent, k)");
        prop_assert!(t >= 1);
        let lo = base as i128 * (100 - i128::from(jitter)) / 100;
        let hi = base as i128 * (100 + i128::from(jitter)) / 100;
        prop_assert!((t as i128) >= lo.max(1) && (t as i128) <= hi,
            "service {t} outside ±{jitter}% of {base}");
    }
}
