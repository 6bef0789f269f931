//! Figure 6 — CLAN_DDS at scale: evolution + communication time.
//!
//! The paper's negative result: "evolution does not scale beyond 2
//! agents ... communication starts to dominate from the outset since the
//! entire population needs to be accessed multiple times during
//! evolution."

use crate::output::{fmt, OutputSink};
use crate::{point, run_point};
use clan_core::{ClanTopology, RunReport};
use clan_envs::Workload;
use std::io;

const GENERATIONS: u64 = 3;
const SCALES: [usize; 5] = [1, 2, 4, 6, 8];

fn run_dds(workload: Workload, agents: usize) -> RunReport {
    run_point(point(workload, ClanTopology::dds(), agents), GENERATIONS)
}

/// Runs the DDS scaling sweep (inference omitted, as in the paper).
///
/// # Errors
///
/// Propagates output failures.
pub fn run(sink: &OutputSink) -> io::Result<()> {
    let mut rows = Vec::new();
    for workload in Workload::FIGURES {
        let mut best_n = 1;
        let mut best = f64::INFINITY;
        for n in SCALES {
            let report = run_dds(workload, n);
            let t = report.mean_timeline;
            let evo_comm = t.evolution_s + t.communication_s;
            if evo_comm < best {
                best = evo_comm;
                best_n = n;
            }
            rows.push(vec![
                workload.name().to_string(),
                n.to_string(),
                fmt(t.evolution_s),
                fmt(t.communication_s),
                fmt(evo_comm),
            ]);
        }
        sink.note(&format!(
            "{}: evolution+comm minimized at {} agents (paper: never beyond 2)",
            workload.name(),
            best_n
        ));
    }
    sink.table(
        "fig6_dds_scaling",
        "Figure 6: CLAN_DDS evolution + communication vs agents (s)",
        &["workload", "agents", "evolution_s", "comm_s", "evo+comm_s"],
        &rows,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dds_does_not_scale() {
        // Adding agents must not help evolution+comm beyond ~2 agents.
        let at = |n: usize| {
            let r = run_dds(Workload::CartPole, n);
            r.mean_timeline.evolution_s + r.mean_timeline.communication_s
        };
        let two = at(2);
        let eight = at(8);
        assert!(
            eight > two,
            "DDS must get worse with scale: 2 agents {two:.2}s vs 8 agents {eight:.2}s"
        );
    }
}
