//! Cross-crate integration: the distributed configurations must not
//! change the evolutionary computation.
//!
//! The determinism matrix (`tests/common/mod.rs`) holds each topology
//! fixed and varies where inference runs. This suite holds the claims
//! *across* configurations: Serial, CLAN_DCS and CLAN_DDS (analytic
//! orchestrators) and the real threaded runtime all produce bit-identical
//! populations for a given seed, at any simulated agent count, because
//! every stochastic decision derives its RNG stream from the entity it
//! concerns (episode seeds from the genome's content hash, reproduction
//! from `(seed, generation, child id)`) rather than from execution order
//! — and CLAN_DDA, a different algorithm, does not.

mod common;

use clan::core::runtime::EdgeCluster;
use clan::core::{
    ClanDriver, ClanDriverBuilder, ClanTopology, DcsOrchestrator, DdsOrchestrator, Evaluator,
    InferenceMode, Orchestrator, RunReport, SerialOrchestrator,
};
use clan::distsim::Cluster;
use clan::envs::Workload;
use clan::hw::Platform;
use clan::neat::Population;
use clan::netsim::WifiModel;
use common::{neat_cfg, topologies, POP, SEED};

const GENS: u64 = common::GENERATIONS as u64;

fn cluster(agents: usize) -> Cluster {
    Cluster::homogeneous(Platform::raspberry_pi(), agents, WifiModel::default())
}

fn population(w: Workload) -> Population {
    Population::new(neat_cfg(w), SEED)
}

fn driver(w: Workload, topology: ClanTopology, agents: usize) -> ClanDriverBuilder {
    ClanDriver::builder(w)
        .topology(topology)
        .agents(agents)
        .population_size(POP)
        .seed(SEED)
}

fn drive(builder: ClanDriverBuilder, generations: u64) -> RunReport {
    builder
        .build()
        .expect("config")
        .run(generations)
        .expect("run")
}

fn best_fitness_per_generation(report: &RunReport) -> Vec<f64> {
    report.generations.iter().map(|g| g.best_fitness).collect()
}

#[test]
fn parallel_evaluation_matches_across_all_topologies() {
    // The matrix's `threads-N` rows pin the engine; this pins the
    // driver's plumbing of `eval_threads` into it, on every topology
    // (including DDA, whose clans evaluate independently).
    for topo in topologies(3) {
        let agents = if topo == ClanTopology::serial() { 1 } else { 3 };
        let run = |threads| {
            drive(
                driver(Workload::CartPole, topo, agents).eval_threads(threads),
                GENS,
            )
        };
        let (serial, threaded) = (run(1), run(4));
        assert_eq!(serial.generations, threaded.generations, "{topo}");
    }
}

#[test]
fn serial_dcs_dds_produce_identical_populations() {
    let w = Workload::CartPole;
    let local = || Evaluator::new(w, InferenceMode::MultiStep);
    let mut serial = SerialOrchestrator::new(population(w), local(), cluster(1));
    let mut dcs = DcsOrchestrator::new(population(w), local(), cluster(5));
    let mut dds = DdsOrchestrator::new(population(w), local(), cluster(3));
    for _ in 0..GENS {
        let a = serial.step_generation().expect("serial");
        let b = dcs.step_generation().expect("dcs");
        let c = dds.step_generation().expect("dds");
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(a.best_fitness, c.best_fitness);
        assert_eq!(a.num_species, b.num_species);
    }
    assert_eq!(serial.population().genomes(), dcs.population().genomes());
    assert_eq!(serial.population().genomes(), dds.population().genomes());
}

#[test]
fn threaded_runtime_matches_analytic_orchestrators() {
    let w = Workload::MountainCar;
    let edge =
        EdgeCluster::spawn(3, w, InferenceMode::MultiStep, neat_cfg(w)).expect("cluster spawns");
    let remote = Evaluator::new(w, InferenceMode::MultiStep).with_remote(edge);
    let mut threaded = DdsOrchestrator::new(population(w), remote, cluster(3));
    let local = Evaluator::new(w, InferenceMode::MultiStep);
    let mut reference = SerialOrchestrator::new(population(w), local, cluster(1));
    for _ in 0..GENS {
        threaded.step_generation().expect("threaded");
        reference.step_generation().expect("serial");
    }
    assert_eq!(
        threaded.population().genomes(),
        reference.population().genomes()
    );
}

#[test]
fn agent_count_does_not_change_dcs_results() {
    let run = |agents| {
        drive(
            driver(Workload::CartPole, ClanTopology::dcs(), agents),
            GENS,
        )
    };
    let (r2, r7) = (run(2), run(7));
    for (a, b) in r2.generations.iter().zip(r7.generations.iter()) {
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(a.costs.inference_genes, b.costs.inference_genes);
    }
    // Timelines differ (that is the point of the study).
    assert_ne!(
        r2.total_timeline.communication_s,
        r7.total_timeline.communication_s
    );
}

#[test]
fn dda_differs_from_serial_by_design() {
    let serial = drive(driver(Workload::CartPole, ClanTopology::serial(), 1), GENS);
    let dda = drive(driver(Workload::CartPole, ClanTopology::dda(4), 4), GENS);
    // Asynchronous speciation is a different algorithm: trajectories are
    // allowed (expected) to diverge.
    assert_ne!(
        best_fitness_per_generation(&serial),
        best_fitness_per_generation(&dda),
        "clan-local evolution should diverge from global"
    );
}

#[test]
fn single_step_mode_is_equivalent_across_configs_too() {
    let run = |topo, agents| {
        let report = drive(driver(Workload::AirRaid, topo, agents).single_step(), 2);
        best_fitness_per_generation(&report)
    };
    let serial = run(ClanTopology::serial(), 1);
    assert_eq!(serial, run(ClanTopology::dcs(), 4));
    assert_eq!(serial, run(ClanTopology::dds(), 4));
}
