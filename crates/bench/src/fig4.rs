//! Figure 4 — breakdown of communication cost (floats transferred per
//! generation) for CLAN_DCS / CLAN_DDS / CLAN_DDA.
//!
//! The paper's counter-intuitive result: distributing reproduction (DDS)
//! *increases* traffic — parent genomes and children ping-pong between
//! agents and the center — while asynchronous speciation (DDA) pays for
//! genomes once at initialization and then sends only fitness scalars.

use crate::output::OutputSink;
use crate::{point, run_point};
use clan_core::{ClanTopology, RunReport};
use clan_envs::Workload;
use clan_netsim::MessageKind;
use std::io;

const AGENTS: usize = 2;
const GENERATIONS: u64 = 4;

fn run_config(workload: Workload, topology: ClanTopology) -> RunReport {
    run_point(point(workload, topology, AGENTS), GENERATIONS)
}

/// Runs the communication breakdown for the paper's four panels.
///
/// # Errors
///
/// Propagates output failures.
pub fn run(sink: &OutputSink) -> io::Result<()> {
    let panels = [
        Workload::CartPole,
        Workload::MountainCar,
        Workload::LunarLander,
        Workload::AirRaid,
    ];
    let mut rows = Vec::new();
    // Per panel: DCS, DDS and DDA floats per generation.
    let mut totals = Vec::new();
    for workload in panels {
        let mut per_config = [0u64; 3];
        for (i, topology) in [
            ClanTopology::dcs(),
            ClanTopology::dds(),
            ClanTopology::dda(),
        ]
        .into_iter()
        .enumerate()
        {
            let report = run_config(workload, topology);
            let per_gen = |floats: u64| floats / GENERATIONS;
            for (kind, entry) in report.ledger.rows() {
                rows.push(vec![
                    workload.name().to_string(),
                    topology.name(),
                    kind.to_string(),
                    per_gen(entry.floats).to_string(),
                ]);
            }
            per_config[i] = per_gen(report.ledger.total_floats());
        }
        totals.push((workload, per_config));
    }
    sink.table(
        "fig4_comm_breakdown",
        "Figure 4: floats transferred per generation, by message kind",
        &["workload", "config", "message kind", "floats/generation"],
        &rows,
    )?;

    // Shape checks matching the paper's reading of the figure.
    let mut ok = true;
    for (w, [dcs, dds, dda]) in totals {
        ok &= dds > dcs && dda < dcs / 2;
        sink.note(&format!(
            "{}: DCS {dcs} / DDS {dds} / DDA {dda} floats per generation (DDS/DDA = {:.0}x)",
            w.name(),
            dds as f64 / dda.max(1) as f64
        ));
    }
    sink.note(if ok {
        "PAPER CLAIM HOLDS: DDS > DCS >> DDA communication on every workload"
    } else {
        "WARNING: communication ordering deviates from the paper"
    });

    // DDA's traffic after initialization is fitness-only.
    let report = run_config(Workload::CartPole, ClanTopology::dda());
    let genome_floats = report.ledger.entry(MessageKind::SendGenomes).floats;
    sink.note(&format!(
        "DDA pays genome transfer only at initialization: {genome_floats} floats total across {GENERATIONS} generations"
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dds_exceeds_dcs_exceeds_dda() {
        let dcs = run_config(Workload::CartPole, ClanTopology::dcs());
        let dds = run_config(Workload::CartPole, ClanTopology::dds());
        let dda = run_config(Workload::CartPole, ClanTopology::dda());
        assert!(dds.ledger.total_floats() > dcs.ledger.total_floats());
        assert!(dcs.ledger.total_floats() > dda.ledger.total_floats());
    }
}
