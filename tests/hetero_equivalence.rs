//! A slow agent changes nothing about the evolution and does not set the
//! pace, with nobody telling the cluster which agent is slow: the
//! `heterogeneous` matrix row (`tests/common/mod.rs`), plus the pull
//! exchange's scheduling effects themselves.

mod common;

use clan::core::runtime::EdgeCluster;
use clan::core::transport::ClusterSpec;
use clan::core::{ClanTopology, InferenceMode};
use clan::envs::Workload;
use clan::neat::{NeatConfig, Population};
use common::{
    check, delayed_transports, local_evaluator, orchestrator, run, spec, Condition, GENERATIONS,
    SEED, SIM_AGENTS,
};

const MULTI: InferenceMode = InferenceMode::MultiStep;

#[test]
fn delayed_agent_bit_identical_to_serial() {
    // The slow agent forces genuinely out-of-order arrivals (its peers
    // always finish first) and pulls fewer runs — evolution must not
    // notice either.
    check("heterogeneous");
}

#[test]
fn pull_shifts_work_away_from_the_delayed_agent() {
    // The *scheduling* effect of that row's setup: with no hint, the
    // delayed agent 0 completes fewer items than every fast agent.
    let mut o = Condition::Heterogeneous.orchestrator(ClanTopology::dcs(), 4);
    run(&mut *o, GENERATIONS);
    let gather = o
        .evaluator()
        .remote_gather_stats()
        .expect("remote run measures gathers");
    let items: Vec<u64> = o
        .evaluator()
        .remote_agent_stats()
        .iter()
        .map(|a| a.items)
        .collect();
    assert_eq!(items.len(), 4);
    assert!(
        items[1..].iter().all(|&fast| items[0] < fast),
        "the delayed agent should pull the least: {items:?}"
    );
    assert_eq!(gather.gathers, GENERATIONS as u64);
    assert!(gather.busy_s > 0.0);
}

#[test]
fn a_clean_dcs_generations_wire_bytes_do_not_depend_on_which_agent_is_slow() {
    // Run boundaries depend only on the work list and the live-link
    // count, never on timing: whoever pulls what, the same generation
    // puts the same bytes on the wire.
    let wire_bytes = |slow: Option<usize>| {
        let workload = Workload::CartPole;
        let transports = delayed_transports(3, slow);
        let cluster = EdgeCluster::connect_transports(transports, spec(workload, MULTI))
            .expect("channel cluster comes up");
        let remote = local_evaluator(workload, MULTI).with_remote(cluster);
        let mut o = orchestrator(ClanTopology::dcs(), SIM_AGENTS, remote);
        run(&mut *o, 1);
        o.evaluator()
            .remote_ledger()
            .expect("remote run records traffic")
            .total_wire_bytes()
    };
    let clean = wire_bytes(None);
    for slow in 0..3 {
        assert_eq!(wire_bytes(Some(slow)), clean, "agent {slow} slow");
    }
}

#[test]
fn five_genomes_on_four_agents_busy_every_agent() {
    // The old `chunks(div_ceil)` scatter made this 2/2/1 with one agent
    // idle; five runs of one genome are dealt round-robin.
    let cfg = NeatConfig::builder(4, 2)
        .population_size(5)
        .build()
        .unwrap();
    let spec = ClusterSpec::new(Workload::CartPole, MULTI, cfg.clone());
    for condition in [Condition::Tcp, Condition::UdpClean] {
        let mut cluster = condition.cluster(spec.clone(), 4).expect("live");
        cluster
            .evaluate(&mut Population::new(cfg.clone(), SEED))
            .unwrap();
        let rows = cluster.agents().to_vec();
        cluster.shutdown();
        assert_eq!(rows.len(), 4);
        for (i, row) in rows.iter().enumerate() {
            assert!(
                row.messages > 0,
                "{condition:?}: agent {i} starved: {rows:?}"
            );
        }
    }
}
