//! Figure 5 — CLAN_DCS at scale: (a) execution time vs. agent count for
//! all workloads, (b) inference-vs-communication breakdown on Cartpole.
//!
//! Expected shapes (paper §IV-B): small workloads stop scaling after
//! 5–10 units because communication catches up with the shrinking
//! inference time; large (Atari) workloads scale linearly across the
//! whole 15-Pi testbed.

use crate::output::{fmt, OutputSink};
use crate::{point, run_point};
use clan_core::{ClanTopology, RunReport};
use clan_envs::Workload;
use std::io;

const GENERATIONS: u64 = 3;

fn run_dcs(workload: Workload, agents: usize) -> RunReport {
    run_point(point(workload, ClanTopology::dcs(), agents), GENERATIONS)
}

/// Runs the DCS scaling sweep.
///
/// # Errors
///
/// Propagates output failures.
pub fn run(sink: &OutputSink) -> io::Result<()> {
    // (a) Execution time at scale.
    let mut rows = Vec::new();
    for workload in Workload::FIGURES {
        let scales: &[usize] = match workload.class() {
            clan_envs::WorkloadClass::Small => &[1, 3, 5, 7, 10],
            _ => &[1, 3, 5, 7, 10, 15],
        };
        let mut best_total = f64::INFINITY;
        let mut best_n = 1;
        for &n in scales {
            let report = run_dcs(workload, n);
            let t = report.mean_timeline;
            if t.inference_s + t.communication_s < best_total {
                best_total = t.inference_s + t.communication_s;
                best_n = n;
            }
            rows.push(vec![
                workload.name().to_string(),
                n.to_string(),
                fmt(t.inference_s),
                fmt(t.communication_s),
                fmt(t.inference_s + t.communication_s),
            ]);
        }
        sink.note(&format!(
            "{}: best inference+comm time at {} agents",
            workload.name(),
            best_n
        ));
    }
    sink.table(
        "fig5a_dcs_scaling",
        "Figure 5a: CLAN_DCS per-generation time vs agents (s)",
        &["workload", "agents", "inference_s", "comm_s", "total_s"],
        &rows,
    )?;

    // (b) Cartpole breakdown, 2..6 agents.
    let mut rows_b = Vec::new();
    for n in 2..=6usize {
        let report = run_dcs(Workload::CartPole, n);
        let t = report.mean_timeline;
        rows_b.push(vec![
            n.to_string(),
            fmt(t.inference_s),
            fmt(t.communication_s),
        ]);
    }
    sink.table(
        "fig5b_cartpole_breakdown",
        "Figure 5b: Cartpole-v0 inference vs communication (s)",
        &["agents", "inference_s", "comm_s"],
        &rows_b,
    )?;
    sink.note(
        "Expected shape: inference shrinks ~1/n while communication grows, so small workloads stop scaling at 5-10 agents.",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_scales_communication_grows() {
        let r1 = run_dcs(Workload::CartPole, 1);
        let r10 = run_dcs(Workload::CartPole, 10);
        assert!(r10.mean_timeline.inference_s < r1.mean_timeline.inference_s / 4.0);
        assert!(r10.mean_timeline.communication_s > r1.mean_timeline.communication_s);
    }

    #[test]
    fn atari_scales_linearly_to_testbed_limit() {
        let r1 = run_dcs(Workload::AirRaid, 1);
        let r15 = run_dcs(Workload::AirRaid, 15);
        let speedup = (r1.mean_timeline.inference_s + r1.mean_timeline.communication_s)
            / (r15.mean_timeline.inference_s + r15.mean_timeline.communication_s);
        assert!(speedup > 6.0, "large workloads keep scaling: {speedup:.1}x");
    }
}
