//! Figure 8 — compute-share breakdown (Evolution / Inference /
//! Communication) under single-step inference with two nodes.
//!
//! Single-step inference removes the multi-timestep crutch that hides
//! evolution and communication costs. Paper numbers for Airraid-ram-v0:
//! communication is ~36% of DCS, ~50% of DDS, and only ~22% of DDA
//! (3.6x less than DDS); for Cartpole-v0 communication swamps everything
//! (~93%) in every configuration.

use crate::output::{fmt, OutputSink};
use crate::{point, run_point};
use clan_core::ClanTopology;
use clan_distsim::ShareBreakdown;
use clan_envs::Workload;
use std::io;

const AGENTS: usize = 2;
const GENERATIONS: u64 = 6;

fn shares(workload: Workload, topology: ClanTopology) -> ShareBreakdown {
    let b = point(workload, topology, AGENTS).single_step();
    run_point(b, GENERATIONS).mean_timeline.shares()
}

/// Runs the share analysis on both panels' workloads.
///
/// # Errors
///
/// Propagates output failures.
pub fn run(sink: &OutputSink) -> io::Result<()> {
    let mut rows = Vec::new();
    let mut comm_share = std::collections::BTreeMap::new();
    for workload in [Workload::CartPole, Workload::AirRaid] {
        for topology in [
            ClanTopology::dcs(),
            ClanTopology::dds(),
            ClanTopology::dda(),
        ] {
            let s = shares(workload, topology);
            comm_share.insert((workload.name(), topology.name()), s.communication);
            rows.push(vec![
                workload.name().to_string(),
                topology.name(),
                fmt(100.0 * s.evolution),
                fmt(100.0 * s.inference),
                fmt(100.0 * s.communication),
            ]);
        }
    }
    sink.table(
        "fig8_compute_share",
        "Figure 8: compute share (%) with single-step inference, 2 nodes",
        &[
            "workload",
            "config",
            "evolution %",
            "inference %",
            "communication %",
        ],
        &rows,
    )?;

    let air = |c: &str| comm_share[&("Airraid-ram-v0", c.to_string())];
    let ratio = air("CLAN_DDS") / air("CLAN_DDA");
    sink.note(&format!(
        "Airraid communication share: DCS {:.0}% / DDS {:.0}% / DDA {:.0}% — DDS/DDA ratio {:.1}x (paper: 3.6x)",
        100.0 * air("CLAN_DCS"),
        100.0 * air("CLAN_DDS"),
        100.0 * air("CLAN_DDA"),
        ratio
    ));
    let cart_dcs = comm_share[&("Cartpole-v0", "CLAN_DCS".to_string())];
    sink.note(&format!(
        "Cartpole communication share under DCS: {:.0}% (paper: ~93% — tiny compute cannot amortize channel costs)",
        100.0 * cart_dcs
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dda_comm_share_smallest_on_large_workload() {
        let dcs = shares(Workload::AirRaid, ClanTopology::dcs()).communication;
        let dds = shares(Workload::AirRaid, ClanTopology::dds()).communication;
        let dda = shares(Workload::AirRaid, ClanTopology::dda()).communication;
        assert!(dda < dcs, "DDA {dda:.2} should beat DCS {dcs:.2}");
        assert!(dda < dds, "DDA {dda:.2} should beat DDS {dds:.2}");
        assert!(dds / dda > 2.0, "DDS/DDA share ratio should be large");
    }

    #[test]
    fn small_workload_is_communication_bound() {
        let s = shares(Workload::CartPole, ClanTopology::dcs());
        assert!(
            s.communication > 0.5,
            "single-step Cartpole must be comm-dominated: {:.2}",
            s.communication
        );
    }
}
