//! Cross-crate integration: the distributed configurations must not
//! change the evolutionary computation.
//!
//! Serial, CLAN_DCS, CLAN_DDS (analytic orchestrators), and the real
//! threaded runtime all produce bit-identical populations for a given
//! seed, because every stochastic decision derives its RNG stream from
//! the entity it concerns (episode seeds from the genome's content
//! hash, reproduction from `(seed, generation, child id)`) rather than
//! from execution order.

use clan::core::runtime::EdgeCluster;
use clan::core::{
    ClanDriver, ClanTopology, DcsOrchestrator, DdsOrchestrator, Evaluator, InferenceMode,
    Orchestrator, SerialOrchestrator,
};
use clan::distsim::Cluster;
use clan::envs::Workload;
use clan::hw::Platform;
use clan::neat::{NeatConfig, Population};
use clan::netsim::WifiModel;

const SEED: u64 = 1234;
const POP: usize = 24;
const GENS: u64 = 4;

fn neat_cfg(w: Workload) -> NeatConfig {
    NeatConfig::builder(w.obs_dim(), w.n_actions())
        .population_size(POP)
        .build()
        .expect("valid config")
}

fn cluster(agents: usize) -> Cluster {
    Cluster::homogeneous(Platform::raspberry_pi(), agents, WifiModel::default())
}

#[test]
fn parallel_evaluation_is_bit_identical_to_serial() {
    // The tentpole determinism contract: evaluating the population across
    // N worker threads must not change anything — fitness trajectory,
    // gene-level cost counters, or the best genome ever seen — because
    // every episode seed derives from (master_seed, genome content
    // hash), never from execution order. Ten generations on both a
    // small and a medium workload, at 1/2/4/8 threads.
    for workload in [Workload::CartPole, Workload::LunarLander] {
        let run = |threads: usize| {
            let mut orchestrator = SerialOrchestrator::new(
                Population::new(neat_cfg(workload), SEED),
                Evaluator::with_threads(workload, InferenceMode::MultiStep, 1, threads),
                cluster(1),
            );
            let reports: Vec<_> = (0..10)
                .map(|_| orchestrator.step_generation().expect("generation"))
                .collect();
            (
                reports,
                orchestrator.population().genomes().clone(),
                orchestrator.best_ever().cloned(),
            )
        };
        let (serial_reports, serial_genomes, serial_best) = run(1);
        for threads in [2, 4, 8] {
            let (reports, genomes, best) = run(threads);
            for (a, b) in serial_reports.iter().zip(reports.iter()) {
                assert_eq!(
                    a.best_fitness, b.best_fitness,
                    "{workload}: fitness diverged at {threads} threads, gen {}",
                    a.generation
                );
                assert_eq!(
                    a.costs, b.costs,
                    "{workload}: cost counters diverged at {threads} threads, gen {}",
                    a.generation
                );
                assert_eq!(a.num_species, b.num_species, "{workload}@{threads}");
            }
            assert_eq!(
                serial_genomes, genomes,
                "{workload}: populations diverged at {threads} threads"
            );
            assert_eq!(
                serial_best, best,
                "{workload}: best-ever diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn parallel_evaluation_matches_across_all_topologies() {
    // eval_threads is orthogonal to the CLAN configuration: every
    // orchestrator runs inference through the same engine, so threading
    // must leave each topology's trajectory untouched (including DDA,
    // whose clans evaluate independently).
    for topo in [
        ClanTopology::serial(),
        ClanTopology::dcs(),
        ClanTopology::dds(),
        ClanTopology::dda(3),
    ] {
        let agents = if topo == ClanTopology::serial() { 1 } else { 3 };
        let run = |threads: usize| {
            ClanDriver::builder(Workload::CartPole)
                .topology(topo)
                .agents(agents)
                .population_size(POP)
                .seed(SEED)
                .eval_threads(threads)
                .build()
                .expect("config")
                .run(GENS)
                .expect("run")
        };
        let serial = run(1);
        let threaded = run(4);
        for (a, b) in serial.generations.iter().zip(threaded.generations.iter()) {
            assert_eq!(
                a.best_fitness, b.best_fitness,
                "{topo} gen {}",
                a.generation
            );
            assert_eq!(a.costs, b.costs, "{topo} gen {}", a.generation);
        }
    }
}

#[test]
fn serial_dcs_dds_produce_identical_populations() {
    let w = Workload::CartPole;
    let cfg = neat_cfg(w);
    let mut serial = SerialOrchestrator::new(
        Population::new(cfg.clone(), SEED),
        Evaluator::new(w, InferenceMode::MultiStep),
        cluster(1),
    );
    let mut dcs = DcsOrchestrator::new(
        Population::new(cfg.clone(), SEED),
        Evaluator::new(w, InferenceMode::MultiStep),
        cluster(5),
    );
    let mut dds = DdsOrchestrator::new(
        Population::new(cfg.clone(), SEED),
        Evaluator::new(w, InferenceMode::MultiStep),
        cluster(3),
    );
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
    let cfg = neat_cfg(w);
    let edge =
        EdgeCluster::spawn(3, w, InferenceMode::MultiStep, cfg.clone()).expect("cluster spawns");
    let mut threaded = DdsOrchestrator::new(
        Population::new(cfg.clone(), SEED),
        Evaluator::new(w, InferenceMode::MultiStep).with_remote(edge),
        cluster(3),
    );
    let mut reference = SerialOrchestrator::new(
        Population::new(cfg.clone(), SEED),
        Evaluator::new(w, InferenceMode::MultiStep),
        cluster(1),
    );
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
    let run = |agents: usize| {
        ClanDriver::builder(Workload::CartPole)
            .topology(ClanTopology::dcs())
            .agents(agents)
            .population_size(POP)
            .seed(SEED)
            .build()
            .expect("config")
            .run(GENS)
            .expect("run")
    };
    let r2 = run(2);
    let r7 = run(7);
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
    let serial = ClanDriver::builder(Workload::CartPole)
        .population_size(POP)
        .seed(SEED)
        .build()
        .expect("config")
        .run(GENS)
        .expect("run");
    let dda = ClanDriver::builder(Workload::CartPole)
        .topology(ClanTopology::dda(4))
        .agents(4)
        .population_size(POP)
        .seed(SEED)
        .build()
        .expect("config")
        .run(GENS)
        .expect("run");
    // Asynchronous speciation is a different algorithm: trajectories are
    // allowed (expected) to diverge.
    let same = serial
        .generations
        .iter()
        .zip(dda.generations.iter())
        .all(|(a, b)| a.best_fitness == b.best_fitness);
    assert!(!same, "clan-local evolution should diverge from global");
}

#[test]
fn single_step_mode_is_equivalent_across_configs_too() {
    let run = |topo: ClanTopology, agents: usize| {
        ClanDriver::builder(Workload::AirRaid)
            .topology(topo)
            .agents(agents)
            .population_size(POP)
            .seed(SEED)
            .single_step()
            .build()
            .expect("config")
            .run(2)
            .expect("run")
    };
    let serial = run(ClanTopology::serial(), 1);
    let dcs = run(ClanTopology::dcs(), 4);
    let dds = run(ClanTopology::dds(), 4);
    for ((a, b), c) in serial
        .generations
        .iter()
        .zip(dcs.generations.iter())
        .zip(dds.generations.iter())
    {
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(a.best_fitness, c.best_fitness);
    }
}
