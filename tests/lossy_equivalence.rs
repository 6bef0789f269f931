//! Running CLAN over **UDP with 20 % injected datagram loss** changes
//! nothing about the evolution: the `udp-lossy` matrix rows
//! (`tests/common/mod.rs`). The ARQ layer undoes everything the fault
//! injector perturbs, so loss costs only time and retransmitted bytes —
//! both measured here, neither allowed to leak into the result.

mod common;

use clan::core::ClanTopology;
use common::{check, fresh_population, run, Condition, GENERATIONS};

#[test]
fn udp_runs_with_20pct_loss_bit_identical_to_serial_on_all_topologies() {
    check("udp-lossy");
}

#[test]
fn different_fault_seeds_still_converge_to_identical_results() {
    // The determinism contract must not secretly depend on the fault
    // pattern: other seeds (different loss patterns, different
    // retransmission histories) produce the same evolution.
    check("udp-lossy-reseeded");
}

#[test]
fn injected_loss_is_visible_as_retransmitted_bytes() {
    let mut o = Condition::UdpLossy { fault_seed: 97 }.orchestrator(ClanTopology::dcs(), 2);
    run(&mut *o, GENERATIONS);
    let wire = o
        .evaluator()
        .remote_ledger()
        .expect("UDP run records wire traffic");
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
    let mut cluster = Condition::UdpClean.cartpole_cluster(2);
    cluster.evaluate(&mut fresh_population()).unwrap();
    assert_eq!(cluster.ledger().total_retrans_bytes(), 0);
    assert!(cluster.ledger().total_wire_bytes() > 0);
    cluster.shutdown();
}
