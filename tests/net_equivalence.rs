//! Running CLAN over **real TCP sockets** changes nothing about the
//! evolution: the `tcp` matrix row (`tests/common/mod.rs`), plus what only
//! a TCP run can show — measured wire traffic against the paper's model,
//! and which topologies put reproduction on the wire.

mod common;

use clan::core::ClanTopology;
use clan::netsim::{CommLedger, MessageKind};
use common::{check, fitnesses, fresh_population, run, Condition, GENERATIONS};

/// The measured wire ledger of `GENERATIONS` generations over 2 TCP agents.
fn wire_of(topology: ClanTopology) -> (CommLedger, CommLedger) {
    let mut o = Condition::Tcp.orchestrator(topology, 2);
    run(&mut *o, GENERATIONS);
    let wire = o.transport_ledger().expect("TCP run records wire traffic");
    (wire.clone(), o.ledger().clone())
}

#[test]
fn tcp_runs_bit_identical_to_serial_on_all_topologies() {
    check("tcp");
}

#[test]
fn tcp_run_measures_wire_traffic_against_the_model() {
    let (wire, modeled) = wire_of(ClanTopology::dcs());
    // One Evaluate per agent per generation, answered by one Fitness.
    let genomes = wire.entry(MessageKind::SendGenomes);
    let fitness = wire.entry(MessageKind::SendFitness);
    assert_eq!(genomes.messages, (2 * GENERATIONS) as u64);
    assert_eq!(fitness.messages, (2 * GENERATIONS) as u64);
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
    let (dds, _) = wire_of(ClanTopology::dds());
    let (dcs, _) = wire_of(ClanTopology::dcs());
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
