//! The distributed-runtime headline: running CLAN over **real TCP
//! sockets** changes nothing about the evolution.
//!
//! For every CLAN topology (Serial / DCS / DDS / DDA) and loopback
//! cluster size (1 / 2 / 4 agents), a run whose inference executes on
//! TCP agents must be *bit-identical* to the purely local run: same
//! per-generation reports (fitness, species, cost counters, modeled
//! timelines), same best-ever genome. This holds because every episode
//! seed derives from `(master_seed, genome content hash)` — never
//! from placement or arrival order — and genome attributes travel as
//! exact `f64` bits.
//!
//! CI's `net-smoke` job runs this suite on every push.

use clan::core::runtime::EdgeCluster;
use clan::core::transport::ClusterSpec;
use clan::core::{
    orchestrator_for, ClanTopology, Evaluator, GenerationReport, InferenceMode, Orchestrator,
};
use clan::distsim::Cluster;
use clan::envs::Workload;
use clan::hw::Platform;
use clan::neat::{Genome, NeatConfig, Population};
use clan::netsim::{MessageKind, WifiModel};

const POP: usize = 20;
const SIM_AGENTS: usize = 4;
const GENERATIONS: usize = 3;
const SEED: u64 = 13;

fn neat_cfg() -> NeatConfig {
    let w = Workload::CartPole;
    NeatConfig::builder(w.obs_dim(), w.n_actions())
        .population_size(POP)
        .build()
        .unwrap()
}

/// The four paper configurations over the simulated `SIM_AGENTS` cluster.
fn topologies() -> [ClanTopology; 4] {
    [
        ClanTopology::serial(),
        ClanTopology::dcs(),
        ClanTopology::dds(),
        ClanTopology::dda(SIM_AGENTS),
    ]
}

/// Builds `topology`'s orchestrator around the given evaluator.
fn orchestrator(topology: ClanTopology, evaluator: Evaluator) -> Box<dyn Orchestrator> {
    let agents = if topology == ClanTopology::serial() {
        1
    } else {
        SIM_AGENTS
    };
    let sim = Cluster::homogeneous(Platform::raspberry_pi(), agents, WifiModel::default());
    orchestrator_for(topology, neat_cfg(), SEED, evaluator, sim, None).expect("clans large enough")
}

/// Runs `GENERATIONS` generations, returning the reports and the final
/// best-ever genome.
fn run(mut o: Box<dyn Orchestrator>) -> (Vec<GenerationReport>, Genome) {
    let reports = (0..GENERATIONS)
        .map(|_| o.step_generation().expect("generation steps"))
        .collect();
    (
        reports,
        o.best_ever().expect("evaluated runs have a best").clone(),
    )
}

fn local_evaluator() -> Evaluator {
    Evaluator::new(Workload::CartPole, InferenceMode::MultiStep)
}

fn tcp_evaluator(n_agents: usize) -> Evaluator {
    let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, neat_cfg());
    let cluster = EdgeCluster::spawn_local_spec(n_agents, spec).expect("loopback cluster binds");
    local_evaluator().with_remote(cluster)
}

#[test]
fn tcp_runs_bit_identical_to_serial_on_all_topologies() {
    for topology in topologies() {
        let (local_reports, local_best) = run(orchestrator(topology, local_evaluator()));
        for n_agents in [1usize, 2, 4] {
            let (net_reports, net_best) = run(orchestrator(topology, tcp_evaluator(n_agents)));
            assert_eq!(
                local_reports, net_reports,
                "{topology} over {n_agents} TCP agent(s): generation reports diverged"
            );
            assert_eq!(
                local_best, net_best,
                "{topology} over {n_agents} TCP agent(s): best-ever genome diverged"
            );
        }
    }
}

#[test]
fn tcp_run_measures_wire_traffic_against_the_model() {
    let mut o = orchestrator(ClanTopology::dcs(), tcp_evaluator(2));
    for _ in 0..GENERATIONS {
        o.step_generation().unwrap();
    }
    let wire = o.transport_ledger().expect("TCP run records wire traffic");
    // One Evaluate per agent per generation, answered by one Fitness.
    let genomes = wire.entry(MessageKind::SendGenomes);
    let fitness = wire.entry(MessageKind::SendFitness);
    assert_eq!(genomes.messages, (2 * GENERATIONS) as u64);
    assert_eq!(fitness.messages, (2 * GENERATIONS) as u64);
    assert!(genomes.wire_bytes > 0 && fitness.wire_bytes > 0);
    // The real wire format (f64 attributes, delta-coded gene keys,
    // framing) must cost more than the paper's 4-bytes-per-gene
    // accounting — this is the measured framing overhead ROADMAP.md
    // records.
    let overhead = wire.framing_overhead().expect("both measures present");
    assert!(
        overhead > 1.0 && overhead < 20.0,
        "framing overhead out of plausible range: {overhead}"
    );
    // The analytic (simulated) ledger is untouched by measurement: a
    // DCS orchestrator still models its own genome/fitness phases.
    assert!(o.ledger().total_floats() > 0);
    assert_eq!(o.ledger().total_wire_bytes(), 0);
}

#[test]
fn live_dds_ships_reproduction_over_the_wire_and_live_dcs_does_not() {
    // The paper's DDS cost: parents stream out and children stream back
    // every generation. A live DDS run must put those frames on the
    // measured wire; a live DCS run (central reproduction) none.
    let wire_of = |topology: ClanTopology| {
        let mut o = orchestrator(topology, tcp_evaluator(2));
        for _ in 0..GENERATIONS {
            o.step_generation().unwrap();
        }
        o.transport_ledger()
            .expect("TCP run records wire traffic")
            .clone()
    };
    let dds = wire_of(ClanTopology::dds());
    for kind in [MessageKind::SendParentGenomes, MessageKind::SendChildren] {
        let entry = dds.entry(kind);
        assert_eq!(
            entry.messages,
            (2 * GENERATIONS) as u64,
            "{kind:?}: one BuildChildren round trip per agent per generation"
        );
        assert!(entry.wire_bytes > 0, "{kind:?} bytes were measured");
    }
    let dcs = wire_of(ClanTopology::dcs());
    for kind in [MessageKind::SendParentGenomes, MessageKind::SendChildren] {
        assert_eq!(dcs.entry(kind).messages, 0, "DCS sends no {kind:?}");
        assert_eq!(dcs.entry(kind).wire_bytes, 0);
    }
}

#[test]
fn loopback_cluster_sizes_do_not_change_generation_count_semantics() {
    // Guard against partition-dependent behavior: 1, 2, and 4 agents
    // must produce identical fitness for the *initial* population too
    // (generation 0 is the easiest place to lose determinism).
    let fitness_of = |n_agents: usize| {
        let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, neat_cfg());
        let mut cluster = EdgeCluster::spawn_local_spec(n_agents, spec).unwrap();
        let mut pop = Population::new(neat_cfg(), SEED);
        cluster.evaluate(&mut pop).unwrap();
        pop.genomes()
            .values()
            .map(|g| g.fitness().unwrap())
            .collect::<Vec<f64>>()
    };
    let one = fitness_of(1);
    assert_eq!(one, fitness_of(2));
    assert_eq!(one, fitness_of(4));
}
