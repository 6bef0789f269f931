//! Heterogeneity-aware scheduling must not change the evolution:
//! weighted partitioning, out-of-order gather and per-generation
//! round-trip calibration under the `skewed-weights` and
//! `delayed-calibrated` matrix rows (`tests/common/mod.rs`), plus the
//! scheduling effects themselves.

mod common;

use clan::core::transport::ClusterSpec;
use clan::core::{ClanTopology, InferenceMode};
use clan::envs::Workload;
use clan::neat::{NeatConfig, Population};
use common::{check, run, Condition, SEED};

#[test]
fn skewed_weights_over_tcp_bit_identical_to_serial_on_all_topologies() {
    check("skewed-weights");
}

#[test]
fn delayed_agent_with_calibration_bit_identical_to_serial() {
    // The slow agent forces genuinely out-of-order arrivals (its peers
    // always finish first) and calibration reshapes the partition after
    // generation 0 — evolution must not notice either.
    check("delayed-calibrated");
}

#[test]
fn calibration_shifts_work_away_from_the_delayed_agent() {
    // The *scheduling* effect of that row's setup: after calibration
    // kicks in, the delayed agent 0 carries measurably fewer
    // genome-bytes than the fast agents.
    let mut o = Condition::DelayedCalibrated.orchestrator(ClanTopology::dcs(), 3);
    run(&mut *o, 4);
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
    let mut cluster = Condition::Tcp.cluster(spec, 4).expect("live");
    cluster.evaluate(&mut Population::new(cfg, SEED)).unwrap();
    let rows = cluster.ledger().agent_entries().to_vec();
    cluster.shutdown();
    assert_eq!(rows.len(), 4);
    for (i, row) in rows.iter().enumerate() {
        assert!(row.messages > 0, "agent {i} starved: {rows:?}");
    }
}
