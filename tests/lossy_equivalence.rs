//! The loss-tolerant-transport headline: running CLAN over **UDP with
//! 20 % injected datagram loss** changes nothing about the evolution.
//!
//! For every CLAN topology (Serial / DCS / DDS / DDA) and loopback UDP
//! cluster size (1 / 2 / 4 agents), a run whose inference executes over
//! the reliable-datagram transport — with seeded drop faults injected
//! below the ARQ layer on every link — must be *bit-identical* to the
//! purely local run: same per-generation reports (fitness, species,
//! cost counters, modeled timelines), same best-ever genome. The ARQ
//! layer retransmits, deduplicates, and reorders back everything the
//! fault injector perturbs, so loss costs only time and retransmitted
//! bytes — both measured, neither allowed to leak into the result.
//!
//! CI's `net-smoke` job runs this suite on every push.

use clan::core::runtime::EdgeCluster;
use clan::core::transport::{ClusterSpec, FaultConfig, UdpConfig};
use clan::core::{
    orchestrator_for, ClanTopology, Evaluator, GenerationReport, InferenceMode, Orchestrator,
};
use clan::distsim::Cluster;
use clan::envs::Workload;
use clan::hw::Platform;
use clan::neat::{Genome, NeatConfig, Population};
use clan::netsim::WifiModel;

const POP: usize = 20;
const SIM_AGENTS: usize = 4;
const GENERATIONS: usize = 3;
const SEED: u64 = 13;
const LOSS: f64 = 0.2;

fn neat_cfg() -> NeatConfig {
    let w = Workload::CartPole;
    NeatConfig::builder(w.obs_dim(), w.n_actions())
        .population_size(POP)
        .build()
        .unwrap()
}

/// A small MTU (forcing real fragmentation of every genome frame) and a
/// fast retransmit timer so 20 % loss costs milliseconds, not seconds.
fn lossy_udp(fault_seed: u64) -> UdpConfig {
    UdpConfig::default()
        .with_mtu(256)
        .with_retransmit_interval_s(0.01)
        .with_idle_timeout_s(10.0)
        .with_faults(FaultConfig::loss(LOSS).with_seed(fault_seed))
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

fn lossy_udp_evaluator(n_agents: usize, fault_seed: u64) -> Evaluator {
    let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, neat_cfg());
    let cluster = EdgeCluster::spawn_local_udp_cfg(n_agents, spec, lossy_udp(fault_seed))
        .expect("loopback UDP cluster binds");
    local_evaluator().with_remote(cluster)
}

#[test]
fn udp_runs_with_20pct_loss_bit_identical_to_serial_on_all_topologies() {
    for topology in topologies() {
        let (local_reports, local_best) = run(orchestrator(topology, local_evaluator()));
        for n_agents in [1usize, 2, 4] {
            let (net_reports, net_best) = run(orchestrator(
                topology,
                lossy_udp_evaluator(n_agents, 7 + n_agents as u64),
            ));
            assert_eq!(
                local_reports, net_reports,
                "{topology} over {n_agents} lossy UDP agent(s): generation reports diverged"
            );
            assert_eq!(
                local_best, net_best,
                "{topology} over {n_agents} lossy UDP agent(s): best-ever genome diverged"
            );
        }
    }
}

#[test]
fn injected_loss_is_visible_as_retransmitted_bytes() {
    let mut o = orchestrator(ClanTopology::dcs(), lossy_udp_evaluator(2, 99));
    for _ in 0..GENERATIONS {
        o.step_generation().unwrap();
    }
    let wire = o.transport_ledger().expect("UDP run records wire traffic");
    assert!(wire.total_wire_bytes() > 0);
    assert!(
        wire.total_retrans_bytes() > 0,
        "20% injected loss must force retransmissions"
    );
    let overhead = wire.retrans_overhead().expect("both measures present");
    assert!(
        overhead > 0.01,
        "at 20% loss the recovery overhead should be well above 1%: {overhead}"
    );
    // The per-agent rows attribute the overhead to specific links.
    assert!(wire
        .agent_entries()
        .iter()
        .any(|row| row.retrans_wire_bytes > 0));
}

#[test]
fn clean_udp_runs_have_zero_retransmission_overhead() {
    // Loopback UDP without injected faults: the ledger's loss column
    // must stay zero, proving retransmissions are measured, not noise.
    let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, neat_cfg());
    let mut cluster =
        EdgeCluster::spawn_local_udp_cfg(2, spec, UdpConfig::default()).expect("binds");
    let mut pop = Population::new(neat_cfg(), SEED);
    cluster.evaluate(&mut pop).unwrap();
    assert_eq!(cluster.ledger().total_retrans_bytes(), 0);
    assert!(cluster.ledger().total_wire_bytes() > 0);
    cluster.shutdown();
}

#[test]
fn different_fault_seeds_still_converge_to_identical_results() {
    // The determinism contract must not secretly depend on the fault
    // pattern: two different seeds (different loss patterns, different
    // retransmission histories) produce the same evolution.
    let fitness_of = |fault_seed: u64| {
        let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, neat_cfg());
        let mut cluster = EdgeCluster::spawn_local_udp_cfg(2, spec, lossy_udp(fault_seed))
            .expect("loopback UDP cluster binds");
        let mut pop = Population::new(neat_cfg(), SEED);
        cluster.evaluate(&mut pop).unwrap();
        let fits: Vec<f64> = pop
            .genomes()
            .values()
            .map(|g| g.fitness().unwrap())
            .collect();
        cluster.shutdown();
        fits
    };
    assert_eq!(fitness_of(1), fitness_of(2));
}
