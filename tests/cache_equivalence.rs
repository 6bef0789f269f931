//! The batched evaluation engine and the content-addressed fitness
//! cache must not change the evolutionary computation: cache-on,
//! cache-off, batch-on, batch-off, and every mix produce bit-identical
//! runs across all four topologies at 1/2/4 agents.
//!
//! Also pins the canonical genome hash the cache keys on: stable under
//! gene reordering and id/fitness relabeling, and colliding only on
//! structural equality.

use clan::core::{ClanDriver, ClanTopology, RunReport};
use clan::envs::Workload;
use clan::neat::genome::Genome;
use clan::neat::{GenomeId, NeatConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 1234;
const POP: usize = 24;
const GENS: u64 = 4;

/// Runs `GENS` generations of CartPole under one engine setting.
fn run(topology: ClanTopology, agents: usize, batch: bool, cache: bool) -> RunReport {
    ClanDriver::builder(Workload::CartPole)
        .topology(topology)
        .agents(agents)
        .population_size(POP)
        .seed(SEED)
        .batch_lanes(if batch { 32 } else { 1 })
        .fitness_cache(cache)
        .build()
        .expect("driver builds")
        .run(GENS)
        .expect("run completes")
}

/// Asserts two runs evolved identically, generation by generation.
fn assert_identical(a: &RunReport, b: &RunReport, label: &str) {
    assert_eq!(a.generations.len(), b.generations.len(), "{label}");
    for (ga, gb) in a.generations.iter().zip(&b.generations) {
        assert_eq!(
            ga.best_fitness, gb.best_fitness,
            "{label}: fitness diverged at gen {}",
            ga.generation
        );
        assert_eq!(
            ga.costs, gb.costs,
            "{label}: cost counters diverged at gen {}",
            ga.generation
        );
        assert_eq!(ga.num_species, gb.num_species, "{label}");
    }
    assert_eq!(a.best_fitness, b.best_fitness, "{label}");
}

#[test]
fn cache_and_batching_are_bit_identical_across_topologies() {
    let cases: Vec<(ClanTopology, usize)> = [1usize, 2, 4]
        .iter()
        .flat_map(|&n| {
            let mut v = vec![
                (ClanTopology::dcs(), n),
                (ClanTopology::dds(), n),
                (ClanTopology::dda(n), n),
            ];
            if n == 1 {
                v.push((ClanTopology::serial(), 1));
            }
            v
        })
        .collect();
    for (topology, agents) in cases {
        let label = format!("{topology}@{agents}");
        // Baseline: scalar tier, no cache.
        let plain = run(topology, agents, false, false);
        assert_eq!(plain.cache_lookups, 0, "{label}: disabled cache is silent");
        // Batching alone, caching alone, and both together.
        let batched = run(topology, agents, true, false);
        let cached = run(topology, agents, false, true);
        let both = run(topology, agents, true, true);
        assert_identical(&plain, &batched, &format!("{label} batched"));
        assert_identical(&plain, &cached, &format!("{label} cached"));
        assert_identical(&plain, &both, &format!("{label} batched+cached"));
        for (r, name) in [(&cached, "cached"), (&both, "batched+cached")] {
            assert!(r.cache_lookups > 0, "{label} {name}: cache fields lookups");
            assert!(
                r.cache_hits > 0,
                "{label} {name}: elites must hit ({}/{} lookups)",
                r.cache_hits,
                r.cache_lookups
            );
            assert!(r.cache_hit_rate() > 0.0, "{label} {name}");
        }
    }
}

#[test]
fn serial_baseline_matches_every_distributed_mode_with_cache_on() {
    // The canonical cross-topology check, now with the cache enabled on
    // both sides: serial ≡ dcs ≡ dds at matching seeds.
    let serial = run(ClanTopology::serial(), 1, true, true);
    for (topology, agents) in [
        (ClanTopology::dcs(), 2),
        (ClanTopology::dcs(), 4),
        (ClanTopology::dds(), 2),
        (ClanTopology::dds(), 4),
    ] {
        let distributed = run(topology, agents, true, true);
        assert_eq!(
            serial.best_fitness, distributed.best_fitness,
            "{topology}@{agents} diverged from serial"
        );
        for (gs, gd) in serial.generations.iter().zip(&distributed.generations) {
            assert_eq!(
                gs.best_fitness, gd.best_fitness,
                "{topology}@{agents} gen {}",
                gs.generation
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
