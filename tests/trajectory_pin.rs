//! Cross-commit trajectory pin.
//!
//! Every equivalence suite compares *modes within one build*, so a change
//! that reorders one RNG draw everywhere (a container swap, a rewritten
//! operator loop) passes all of them. The constants below were recorded
//! at commit a4134e5 — the last build whose gene tables were `BTreeMap`s
//! — and pin the trajectory itself: the Logical-trace hash of two seeded
//! serial runs, and the content hash of one initial genome before and
//! after ten mutation passes.
//!
//! A failure here means evolution no longer does what it did for this
//! seed. Unless that is the stated goal of the change, fix the change;
//! never re-record to make a refactor pass.

use clan::core::{ClanDriver, ClanTopology};
use clan::envs::Workload;
use clan::neat::{Genome, GenomeId, NeatConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn serial_logical_hash(workload: Workload, population: usize, generations: u64, seed: u64) -> u64 {
    let (_, trace) = ClanDriver::builder(workload)
        .topology(ClanTopology::serial())
        .agents(1)
        .population_size(population)
        .seed(seed)
        .tracing(true)
        .build()
        .expect("driver builds")
        .run_with_trace(generations)
        .expect("run completes");
    trace.expect("tracing was enabled").logical_hash()
}

#[test]
fn small_serial_run_matches_the_recorded_trajectory() {
    // Speciation, stagnation, crossover and all four structural
    // mutations fire within eight CartPole generations at this size.
    assert_eq!(
        serial_logical_hash(Workload::CartPole, 40, 8, 13),
        CARTPOLE_LOGICAL_HASH
    );
}

#[test]
fn alien_shaped_run_matches_the_recorded_trajectory() {
    // `clan-cli run --workload alien --population 150 --generations 3
    // --seed 5` — the run CHANGES.md quotes since PR 19: 2 322-gene
    // genomes, above the reproduction fan-out's gene floor.
    assert_eq!(
        serial_logical_hash(Workload::Alien, 150, 3, 5),
        0x9DA1_4101_ED6C_19AE
    );
}

#[test]
fn initial_genome_and_ten_mutation_passes_hash_as_recorded() {
    // Alien-ram shape; structural rates raised so that ten passes hold
    // every operator: node and connection adds, both deletes, and the
    // attribute sweep over whatever they left.
    let cfg = NeatConfig::builder(128, 18)
        .node_add_prob(0.6)
        .node_delete_prob(0.3)
        .conn_add_prob(0.6)
        .conn_delete_prob(0.3)
        .build()
        .expect("valid config");
    let mut rng = StdRng::seed_from_u64(20_200_824);
    let mut g = Genome::new_initial(&cfg, GenomeId(0), &mut rng);
    assert_eq!((g.nodes().len(), g.conns().len()), (18, 128 * 18));
    assert_eq!(
        g.content_hash(),
        INITIAL_CONTENT_HASH,
        "new_initial drew differently"
    );
    for _ in 0..10 {
        g.mutate(&cfg, &mut rng);
    }
    assert_eq!((g.nodes().len(), g.conns().len()), MUTATED_SHAPE);
    assert_eq!(
        g.content_hash(),
        MUTATED_CONTENT_HASH,
        "mutate drew differently"
    );
    g.check_invariants(&cfg).expect("still a valid genome");
}

const CARTPOLE_LOGICAL_HASH: u64 = 0xA85A_6BA9_4F54_2F46;
const INITIAL_CONTENT_HASH: u64 = 0x03DF_C76E_51B0_F5F3;
const MUTATED_SHAPE: (usize, usize) = (24, 2314);
const MUTATED_CONTENT_HASH: u64 = 0x35F4_6051_B1DB_8E86;
