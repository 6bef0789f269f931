//! Running CLAN over **real TCP sockets** changes nothing about the
//! evolution: the `tcp` matrix row (`tests/common/mod.rs`), plus what only
//! a real socket can show — measured wire traffic against the paper's
//! model, which topologies put reproduction on the wire, and that
//! generation-sized traffic cannot wedge a link.

mod common;

use clan::core::runtime::EdgeCluster;
use clan::core::transport::{ClusterSpec, UdpConfig};
use clan::core::{
    orchestrator_for, ClanTopology, Evaluator, GenerationReport, InferenceMode, STREAM_WINDOW,
};
use clan::envs::Workload;
use clan::neat::NeatConfig;
use clan::netsim::{CommLedger, MessageKind};
use common::{check, fitnesses, fresh_population, run, sim_cluster, Condition, GENERATIONS};
use std::time::Duration;

/// The measured wire ledger of `GENERATIONS` generations over 2 TCP
/// agents, the modeled one, and the run's reports.
fn wire_of(topology: ClanTopology) -> (CommLedger, CommLedger, Vec<GenerationReport>) {
    let mut o = Condition::Tcp.orchestrator(topology, 2);
    let reports = run(&mut *o, GENERATIONS).reports;
    let wire = o
        .evaluator()
        .remote_ledger()
        .expect("TCP run records wire traffic");
    (wire.clone(), o.ledger().clone(), reports)
}

#[test]
fn tcp_runs_bit_identical_to_serial_on_all_topologies() {
    check("tcp");
}

#[test]
fn tcp_run_measures_wire_traffic_against_the_model() {
    let (wire, modeled, reports) = wire_of(ClanTopology::dcs());
    // Each generation's cache misses go out in 4 x STREAM_WINDOW runs per
    // agent (one a genome when there are fewer misses), each run one
    // Evaluate answered by one Fitness.
    let runs: u64 = reports
        .iter()
        .map(|r| {
            assert!(r.cache_lookups > 0, "the cache counts the misses");
            (r.cache_lookups - r.cache_hits).min((4 * STREAM_WINDOW * 2) as u64)
        })
        .sum();
    let genomes = wire.entry(MessageKind::SendGenomes);
    let fitness = wire.entry(MessageKind::SendFitness);
    assert_eq!(genomes.messages, runs);
    assert_eq!(fitness.messages, runs);
    assert!(genomes.wire_bytes > 0 && fitness.wire_bytes > 0);
    // The real wire format (f64 attributes, delta-coded gene keys,
    // framing) must cost more than the paper's 4-bytes-per-gene
    // accounting — the measured framing overhead ROADMAP.md records.
    let overhead = wire.framing_overhead().expect("both measures present");
    assert!(
        overhead > 1.0 && overhead < 20.0,
        "framing overhead out of plausible range: {overhead}"
    );
    // The analytic (simulated) ledger is untouched by measurement: a
    // DCS orchestrator still models its own genome/fitness phases.
    assert!(modeled.total_floats() > 0);
    assert_eq!(modeled.total_wire_bytes(), 0);
}

#[test]
fn live_dds_ships_reproduction_over_the_wire_and_live_dcs_does_not() {
    // The paper's DDS cost: parents stream out and children stream back
    // every generation. A live DDS run must put those frames on the
    // measured wire; a live DCS run (central reproduction) none.
    let (dds, ..) = wire_of(ClanTopology::dds());
    let (dcs, ..) = wire_of(ClanTopology::dcs());
    for kind in [MessageKind::SendParentGenomes, MessageKind::SendChildren] {
        let entry = dds.entry(kind);
        assert_eq!(
            entry.messages,
            (2 * GENERATIONS) as u64,
            "{kind:?}: one BuildChildren round trip per agent per generation"
        );
        assert!(entry.wire_bytes > 0, "{kind:?} bytes were measured");
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
        let mut pop = fresh_population();
        Condition::Tcp
            .cartpole_cluster(n_agents)
            .evaluate(&mut pop)
            .unwrap();
        fitnesses(&pop)
    };
    let one = fitness_of(1);
    assert_eq!(one, fitness_of(2));
    assert_eq!(one, fitness_of(4));
}

#[test]
fn alien_sized_dds_generation_cannot_wedge_over_tcp_or_udp() {
    // At Alien shape (2 304 genes a genome, 150 genomes, 2 agents) a DDS
    // generation keeps two Evaluate runs of ~0.2 MB in flight per link,
    // then sends one BuildChildren run per link whose Children reply is as
    // large as its request. A worker blocked in a send while its agent
    // blocks writing a reply would hang here; the watchdog turns that
    // into a failure.
    let w = Workload::Alien;
    let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
        .population_size(150)
        .build()
        .expect("valid config");
    let spec = ClusterSpec::new(w, InferenceMode::MultiStep, cfg.clone());
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let clusters = [
            EdgeCluster::spawn_local_spec(2, spec.clone()),
            EdgeCluster::spawn_local_udp_cfg(2, spec, UdpConfig::default()),
        ];
        for cluster in clusters {
            let remote = Evaluator::new(w, InferenceMode::MultiStep).with_remote(cluster.unwrap());
            let mut dds =
                orchestrator_for(ClanTopology::dds(), cfg.clone(), 3, remote, sim_cluster(2))
                    .expect("DDS builds");
            dds.step_generation().expect("the generation completes");
            let wire = dds
                .evaluator()
                .remote_ledger()
                .expect("remote run records traffic");
            let _ = done.send(wire.clone());
        }
    });
    for transport in ["TCP", "UDP"] {
        let wire = finished
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("a DDS generation over {transport} wedged"));
        // Every genome misses, so 4 x STREAM_WINDOW Evaluate runs per
        // link; one BuildChildren run per link.
        let runs = (4 * STREAM_WINDOW * 2) as u64;
        assert_eq!(
            wire.entry(MessageKind::SendGenomes).messages,
            runs,
            "{transport}"
        );
        assert_eq!(
            wire.entry(MessageKind::SendParentGenomes).messages,
            2,
            "{transport}"
        );
        assert_eq!(
            wire.entry(MessageKind::SendChildren).messages,
            2,
            "{transport}"
        );
    }
}
