//! The batched evaluation engine and the content-addressed fitness cache
//! must not change the evolutionary computation: the `no-batch`, `no-cache`
//! and `no-batch-no-cache` matrix rows (`tests/common/mod.rs`). Also pins
//! the canonical genome hash the cache keys on: stable under gene
//! reordering and relabeling, colliding only on structural equality.

mod common;

use clan::core::{ClanTopology, InferenceMode};
use clan::envs::Workload;
use clan::neat::genome::Genome;
use clan::neat::{GenomeId, NeatConfig};
use common::{check, local_evaluator, orchestrator, run, GENERATIONS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn cache_and_batching_are_bit_identical_across_topologies() {
    // Every topology over 1/2/4 simulated agents against the default
    // batch-on, cache-on engine; each cell also asserts that a cache that
    // is on is consulted and hit, and one that is off stays silent.
    for row in ["no-batch", "no-cache", "no-batch-no-cache"] {
        check(row);
    }
}

#[test]
fn serial_baseline_matches_every_distributed_mode_with_cache_on() {
    // The canonical cross-topology check on the default engine:
    // serial ≡ dcs ≡ dds at matching seeds.
    let fitness = |topology, agents| -> Vec<u64> {
        let local = local_evaluator(Workload::CartPole, InferenceMode::MultiStep);
        let r = run(&mut *orchestrator(topology, agents, local), GENERATIONS);
        let per_generation = r.reports.iter().map(|g| g.best_fitness.to_bits());
        per_generation
            .chain([r.best.fitness().unwrap().to_bits()])
            .collect()
    };
    let serial = fitness(ClanTopology::serial(), 1);
    for topology in [ClanTopology::dcs(), ClanTopology::dds()] {
        for agents in [2, 4] {
            assert_eq!(
                serial,
                fitness(topology, agents),
                "{topology}@{agents} diverged from serial"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Canonical-hash properties
// ---------------------------------------------------------------------

fn arb_cfg() -> impl Strategy<Value = NeatConfig> {
    (1usize..5, 1usize..4).prop_map(|(inputs, outputs)| {
        NeatConfig::builder(inputs, outputs)
            .population_size(10)
            .build()
            .expect("valid config")
    })
}

/// Builds a genome and walks it through a random mutation history.
fn mutated(cfg: &NeatConfig, seed: u64, ops: &[u8]) -> Genome {
    let mut g = Genome::new_initial(cfg, GenomeId(0), &mut StdRng::seed_from_u64(seed));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
    for &op in ops {
        match op {
            0 => g.mutate_add_node(cfg, &mut rng),
            1 => g.mutate_delete_node(cfg, &mut rng),
            2 => g.mutate_add_connection(cfg, &mut rng),
            _ => g.mutate_delete_connection(&mut rng),
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn content_hash_is_stable_under_gene_reordering(
        cfg in arb_cfg(),
        seed in any::<u64>(),
        ops in proptest::collection::vec(0u8..4, 0..30),
    ) {
        let g = mutated(&cfg, seed, &ops);
        // Rebuild from genes arriving in reverse order and under a fresh
        // id: the key-ordered gene tables are the canonical form, so the
        // digest must not notice.
        let nodes_rev = g.nodes().iter().rev().map(|(k, v)| (*k, *v)).collect();
        let conns_rev = g.conns().iter().rev().map(|(k, v)| (*k, *v)).collect();
        let mut rebuilt = Genome::from_parts(GenomeId(9999), nodes_rev, conns_rev);
        rebuilt.set_fitness(123.0);
        prop_assert_eq!(g.content_hash(), rebuilt.content_hash());
    }

    #[test]
    fn content_hash_collides_only_on_structural_equality(
        cfg in arb_cfg(),
        s1 in any::<u64>(),
        s2 in any::<u64>(),
        ops1 in proptest::collection::vec(0u8..4, 0..20),
        ops2 in proptest::collection::vec(0u8..4, 0..20),
    ) {
        let a = mutated(&cfg, s1, &ops1);
        let b = mutated(&cfg, s2, &ops2);
        let structurally_equal = a.nodes() == b.nodes() && a.conns() == b.conns();
        prop_assert_eq!(
            a.content_hash() == b.content_hash(),
            structurally_equal,
            "hash equality must coincide with structural equality"
        );
    }
}
