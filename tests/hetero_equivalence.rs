//! Heterogeneity-aware scheduling must not change the evolution.
//!
//! Throughput-weighted partitioning hands different agents different
//! chunk sizes, out-of-order gather banks responses in whatever order
//! agents finish, and round-trip calibration reshapes the partition
//! every generation — and none of it may perturb a single bit of the
//! evolved result, because results always replay in genome-id order and
//! every episode seed derives from `(master_seed, genome content hash)`.
//!
//! This suite pins that contract: skewed weights over real TCP agents
//! at 1/2/4 agents on all four topologies, plus an artificially delayed
//! agent (a work-proportional [`DelayTransport`]) with calibration
//! enabled, all bit-identical to the purely local run. CI's `net-smoke`
//! job runs it on every push.

use clan::core::runtime::EdgeCluster;
use clan::core::transport::agent::serve_session;
use clan::core::transport::{channel_pair, ClusterSpec, DelayTransport, Transport};
use clan::core::{
    orchestrator_for, ClanTopology, DcsOrchestrator, Evaluator, GenerationReport, InferenceMode,
    Orchestrator,
};
use clan::distsim::Cluster;
use clan::envs::Workload;
use clan::hw::Platform;
use clan::neat::{Genome, NeatConfig, Population};
use clan::netsim::WifiModel;
use std::time::Duration;

const POP: usize = 20;
const SIM_AGENTS: usize = 4;
const GENERATIONS: usize = 3;
const SEED: u64 = 29;

fn neat_cfg() -> NeatConfig {
    let w = Workload::CartPole;
    NeatConfig::builder(w.obs_dim(), w.n_actions())
        .population_size(POP)
        .build()
        .unwrap()
}

/// Deliberately lopsided capability weights for `n` agents.
fn skewed_weights(n: usize) -> Vec<f64> {
    [3.0, 0.5, 8.0, 1.0]
        .iter()
        .copied()
        .cycle()
        .take(n)
        .collect()
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

/// Loopback TCP agents with lopsided capability weights.
fn weighted_tcp_evaluator(n_agents: usize) -> Evaluator {
    let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, neat_cfg());
    let mut cluster =
        EdgeCluster::spawn_local_spec(n_agents, spec).expect("loopback cluster binds");
    cluster
        .set_weights(&skewed_weights(n_agents))
        .expect("valid weights");
    local_evaluator().with_remote(cluster)
}

/// Channel agents where agent 0 stalls on every request (fixed latency
/// plus a per-KiB cost, so bigger chunks stall longer), with round-trip
/// calibration steering the partition — the full heterogeneous stack.
fn delayed_calibrated_evaluator(n_agents: usize) -> Evaluator {
    let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(n_agents);
    for i in 0..n_agents {
        let (coord, mut agent_side) = channel_pair();
        std::thread::Builder::new()
            .name(format!("hetero-agent-{i}"))
            .spawn(move || {
                if i == 0 {
                    let mut slow = DelayTransport::new(agent_side, Duration::from_millis(4))
                        .with_per_kib(Duration::from_millis(4));
                    let _ = serve_session(&mut slow);
                } else {
                    let _ = serve_session(&mut agent_side);
                }
            })
            .expect("agent thread spawns");
        transports.push(Box::new(coord));
    }
    let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, neat_cfg());
    let mut cluster =
        EdgeCluster::connect_transports(transports, spec).expect("channel cluster configures");
    cluster.set_calibration(true);
    local_evaluator().with_remote(cluster)
}

#[test]
fn skewed_weights_over_tcp_bit_identical_to_serial_on_all_topologies() {
    for topology in topologies() {
        let (local_reports, local_best) = run(orchestrator(topology, local_evaluator()));
        for n_agents in [1usize, 2, 4] {
            let (net_reports, net_best) =
                run(orchestrator(topology, weighted_tcp_evaluator(n_agents)));
            assert_eq!(
                local_reports, net_reports,
                "{topology} over {n_agents} weighted TCP agent(s): reports diverged"
            );
            assert_eq!(
                local_best, net_best,
                "{topology} over {n_agents} weighted TCP agent(s): best-ever diverged"
            );
        }
    }
}

#[test]
fn delayed_agent_with_calibration_bit_identical_to_serial() {
    // The slow agent forces genuinely out-of-order arrivals (its peers
    // always finish first) and calibration reshapes the partition after
    // generation 0 — evolution must not notice either.
    for topology in [ClanTopology::dcs(), ClanTopology::dds()] {
        let (local_reports, local_best) = run(orchestrator(topology, local_evaluator()));
        let (slow_reports, slow_best) =
            run(orchestrator(topology, delayed_calibrated_evaluator(3)));
        assert_eq!(
            local_reports, slow_reports,
            "{topology} with a delayed calibrated agent: reports diverged"
        );
        assert_eq!(local_best, slow_best, "{topology}: best-ever diverged");
    }
}

#[test]
fn calibration_shifts_work_away_from_the_delayed_agent() {
    // Same setup as above, but assert the *scheduling* effect: after
    // calibration kicks in, the delayed agent 0 carries measurably
    // fewer genome-bytes than the fast agents.
    let mut o = DcsOrchestrator::new(
        Population::new(neat_cfg(), SEED),
        delayed_calibrated_evaluator(3),
        Cluster::homogeneous(Platform::raspberry_pi(), 3, WifiModel::default()),
    );
    for _ in 0..4 {
        o.step_generation().unwrap();
    }
    let wire = o.transport_ledger().expect("remote run records traffic");
    let rows = wire.agent_entries();
    assert_eq!(rows.len(), 3);
    let fast_max = rows[1].wire_bytes.max(rows[2].wire_bytes);
    assert!(
        rows[0].wire_bytes < fast_max,
        "calibration should shrink the slow agent's share: {rows:?}"
    );
    let gather = o.gather_stats().expect("remote run measures gathers");
    assert!(gather.gathers >= 4);
    assert!(gather.busy_s > 0.0);
}

#[test]
fn five_genomes_on_four_agents_busy_every_agent() {
    // The old `chunks(div_ceil)` scatter made this 2/2/1 with one agent
    // idle; the partitioner must produce 2/1/1/1.
    let cfg = NeatConfig::builder(4, 2)
        .population_size(5)
        .build()
        .unwrap();
    let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, cfg.clone());
    let mut cluster = EdgeCluster::spawn_local_spec(4, spec).unwrap();
    let mut pop = Population::new(cfg, SEED);
    cluster.evaluate(&mut pop).unwrap();
    let rows = cluster.ledger().agent_entries().to_vec();
    cluster.shutdown();
    assert_eq!(rows.len(), 4);
    for (i, row) in rows.iter().enumerate() {
        assert!(row.messages > 0, "agent {i} starved: {rows:?}");
    }
}
