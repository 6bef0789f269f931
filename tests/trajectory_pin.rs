//! Cross-commit trajectory pin.
//!
//! Every equivalence suite compares *modes within one build*, so a change
//! that reorders one RNG draw everywhere (a container swap, a rewritten
//! operator loop) passes all of them. The constants below were recorded
//! at commit a4134e5 — the last build whose gene tables were `BTreeMap`s
//! — and pin the trajectory itself: the Logical-trace hash of two seeded
//! serial runs, and the content hash of one initial genome before and
//! after ten mutation passes. A third serial run, one that holds two
//! species, was recorded once speciation compared every distance against
//! the fixed `compatibility_threshold`.
//!
//! `analytic_side_of_every_topology_matches_the_recorded_fold` pins the
//! other half of a run: what each orchestrator *books* — every
//! `GenerationReport` (timeline bits, gene costs, species, best fitness)
//! and every analytic `CommLedger` row of a seeded Serial, DCS, DDS, DDA
//! and DDA-with-resync run — folded into one constant.
//!
//! A failure here means evolution no longer does what it did for this
//! seed. Unless that is the stated goal of the change, fix the change;
//! never re-record to make a refactor pass.

use clan::core::{ClanDriver, ClanTopology, RunReport};
use clan::envs::Workload;
use clan::neat::{Genome, GenomeId, NeatConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroU64;

fn serial_logical_hash(workload: Workload, population: usize, generations: u64, seed: u64) -> u64 {
    let report = ClanDriver::builder(workload)
        .topology(ClanTopology::serial())
        .agents(1)
        .population_size(population)
        .seed(seed)
        .tracing(true)
        .build()
        .expect("driver builds")
        .run(generations)
        .expect("run completes");
    report.trace.expect("tracing was enabled").logical_hash()
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
fn speciating_run_matches_the_recorded_trajectory() {
    // `clan-cli run --workload cartpole --population 150 --generations 10
    // --seed 29`: the default configuration holds two species from
    // generation 2 on, so a change to how genomes are assigned to species
    // moves this hash.
    let hash = serial_logical_hash(Workload::CartPole, 150, 10, 29);
    assert_eq!(hash, SPECIATING_LOGICAL_HASH, "got {hash:#018X}");
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

/// FNV-1a over 64-bit words.
fn fold(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn analytic_words(report: &RunReport) -> Vec<u64> {
    let mut words = Vec::new();
    for g in &report.generations {
        let t = g.timeline;
        let c = g.costs;
        words.extend([
            g.generation,
            g.best_fitness.to_bits(),
            g.num_species as u64,
            u64::from(g.extinction),
            t.inference_s.to_bits(),
            t.evolution_s.to_bits(),
            t.communication_s.to_bits(),
            c.inference_genes,
            c.speciation_genes,
            c.reproduction_genes,
            c.activations,
            c.distance_evals,
            c.episodes,
        ]);
    }
    for (kind, e) in report.ledger.rows() {
        words.extend([
            kind as u64,
            e.messages,
            e.floats,
            e.wire_bytes,
            e.retrans_wire_bytes,
        ]);
    }
    words
}

#[test]
fn analytic_side_of_every_topology_matches_the_recorded_fold() {
    // CartPole, population 20, three simulated agents, four generations.
    let runs = [
        ClanTopology::serial(),
        ClanTopology::dcs(),
        ClanTopology::dds(),
        ClanTopology::dda(),
        ClanTopology::dda_resync(NonZeroU64::new(2).expect("nonzero")),
    ];
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for topology in runs {
        let report = ClanDriver::builder(Workload::CartPole)
            .topology(topology)
            .agents(3)
            .population_size(20)
            .seed(31)
            .build()
            .expect("driver builds")
            .run(4)
            .expect("run completes");
        assert_eq!(report.generations.len(), 4, "{topology}");
        hash = analytic_words(&report).into_iter().fold(hash, fold);
    }
    assert_eq!(hash, ANALYTIC_FOLD, "got {hash:#018X}");
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

const ANALYTIC_FOLD: u64 = 0x25C9_0F02_4AE8_0213;
const CARTPOLE_LOGICAL_HASH: u64 = 0xA85A_6BA9_4F54_2F46;
const SPECIATING_LOGICAL_HASH: u64 = 0xEFA0_3E63_A298_5F08;
const INITIAL_CONTENT_HASH: u64 = 0x03DF_C76E_51B0_F5F3;
const MUTATED_SHAPE: (usize, usize) = (24, 2314);
const MUTATED_CONTENT_HASH: u64 = 0x35F4_6051_B1DB_8E86;
