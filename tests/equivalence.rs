//! Cross-crate integration: the distributed configurations must not
//! change the evolutionary computation.
//!
//! The determinism matrix (`tests/common/mod.rs`) holds each topology
//! fixed and varies where inference runs. This suite holds the claims
//! *across* configurations: Serial, CLAN_DCS and CLAN_DDS (analytic
//! orchestrators) and the real threaded runtime all produce bit-identical
//! populations for a given seed at any simulated agent count — every
//! stochastic decision derives its RNG stream from the entity it concerns,
//! not from execution order — and CLAN_DDA, a different algorithm, does not.

mod common;

use clan::core::runtime::{AgentSource, EdgeCluster};
use clan::core::{
    ClanDriver, ClanTopology, DcsOrchestrator, DdsOrchestrator, GenerationReport, InferenceMode,
    Orchestrator, SerialOrchestrator,
};
use clan::envs::Workload;
use clan::neat::Population;
use common::{
    local_evaluator, neat_cfg, orchestrator, run, sim_cluster as cluster, spec, topologies,
    GENERATIONS, POP, SEED,
};

const MULTI: InferenceMode = InferenceMode::MultiStep;

fn population(w: Workload) -> Population {
    Population::new(neat_cfg(w), SEED)
}

/// What `w` evolves on `topology` over `agents` simulated devices,
/// evaluated locally.
fn evolve(
    w: Workload,
    mode: InferenceMode,
    topology: ClanTopology,
    agents: usize,
    generations: usize,
) -> Vec<GenerationReport> {
    let mut o = orchestrator(topology, agents, local_evaluator(w, mode));
    run(&mut *o, generations).reports
}

fn best_fitness(reports: &[GenerationReport]) -> Vec<f64> {
    reports.iter().map(|g| g.best_fitness).collect()
}

#[test]
fn parallel_evaluation_matches_across_all_topologies() {
    // The matrix's `threads-N` rows pin the engine; this pins the
    // driver's plumbing of `eval_threads` into it, on every topology
    // (including DDA, whose clans evaluate independently).
    for topo in topologies(3) {
        let run = |threads| {
            ClanDriver::builder(Workload::CartPole)
                .topology(topo)
                .agents(if topo == ClanTopology::serial() { 1 } else { 3 })
                .population_size(POP)
                .seed(SEED)
                .eval_threads(threads)
                .build()
                .expect("config")
                .run(GENERATIONS as u64)
                .expect("run")
        };
        assert_eq!(run(1).generations, run(4).generations, "{topo}");
    }
}

#[test]
fn serial_dcs_dds_produce_identical_populations() {
    let w = Workload::CartPole;
    let local = || local_evaluator(w, MULTI);
    let mut serial = SerialOrchestrator::new(population(w), local(), cluster(1));
    let mut dcs = DcsOrchestrator::new(population(w), local(), cluster(5));
    let mut dds = DdsOrchestrator::new(population(w), local(), cluster(3));
    for _ in 0..GENERATIONS {
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
        EdgeCluster::from_source(3, spec(w, MULTI), AgentSource::Threads).expect("cluster spawns");
    let remote = local_evaluator(w, MULTI).with_remote(edge);
    let mut threaded = DdsOrchestrator::new(population(w), remote, cluster(3));
    let mut reference =
        SerialOrchestrator::new(population(w), local_evaluator(w, MULTI), cluster(1));
    for _ in 0..GENERATIONS {
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
        evolve(
            Workload::CartPole,
            MULTI,
            ClanTopology::dcs(),
            agents,
            GENERATIONS,
        )
    };
    let (r2, r7) = (run(2), run(7));
    for (a, b) in r2.iter().zip(&r7) {
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(a.costs.inference_genes, b.costs.inference_genes);
    }
    // Timelines differ (that is the point of the study).
    let communication_s =
        |r: &[GenerationReport]| -> f64 { r.iter().map(|g| g.timeline.communication_s).sum() };
    assert_ne!(communication_s(&r2), communication_s(&r7));
}

#[test]
fn dda_differs_from_serial_by_design() {
    let run = |topo, agents| evolve(Workload::CartPole, MULTI, topo, agents, GENERATIONS);
    // Asynchronous speciation is a different algorithm: trajectories are
    // allowed (expected) to diverge.
    assert_ne!(
        best_fitness(&run(ClanTopology::serial(), 1)),
        best_fitness(&run(ClanTopology::dda(4), 4)),
        "clan-local evolution should diverge from global"
    );
}

#[test]
fn single_step_mode_is_equivalent_across_configs_too() {
    let single = InferenceMode::SingleStep;
    let run = |topo, agents| best_fitness(&evolve(Workload::AirRaid, single, topo, agents, 2));
    let serial = run(ClanTopology::serial(), 1);
    assert_eq!(serial, run(ClanTopology::dcs(), 4));
    assert_eq!(serial, run(ClanTopology::dds(), 4));
}
