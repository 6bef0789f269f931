//! Figure 7 — CLAN_DDA: (a) evolution + communication at scale,
//! (b) accuracy cost of Asynchronous Speciation (generations to converge
//! vs. number of clans on LunarLander-v2).
//!
//! (a) shows the payoff: with genomes pinned to agents, communication
//! stays negligible and evolution scales alongside inference.
//! (b) shows the price: speciating over 1/k of the population reduces
//! exploration, so convergence slows as clans multiply.

use crate::output::{fmt, OutputSink};
use crate::{point, run_point, BENCH_SEED};
use clan_core::{ClanTopology, RunReport};
use clan_envs::Workload;
use std::io;

const GENERATIONS: u64 = 3;
const SCALES: [usize; 8] = [1, 2, 4, 6, 8, 10, 12, 15];
/// Clan counts for the accuracy study (paper: 1, 2, 4, 8, 16).
const CLAN_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
/// Runs averaged per data point ("We perform 10 runs and average").
const ACCURACY_RUNS: u64 = 10;
/// Generation cap for the convergence study. The paper's y-axis tops at
/// 40; we allow 60 so the cap compresses the slow (many-clan) points
/// less.
const MAX_GENERATIONS: u64 = 60;
/// Episodes averaged per genome evaluation in the accuracy study. A run
/// converges at LunarLander's solved score (200, gym's), so it takes a
/// reliable landing policy, not one lucky rollout.
const ACCURACY_EPISODES: u32 = 3;

fn run_dda(workload: Workload, agents: usize) -> RunReport {
    run_point(point(workload, ClanTopology::dda(), agents), GENERATIONS)
}

/// Generations for one convergence run (capped).
fn generations_to_converge(clans: usize, seed: u64) -> u64 {
    point(Workload::LunarLander, ClanTopology::dda(), clans)
        .episodes_per_eval(ACCURACY_EPISODES)
        .seed(seed)
        .build()
        .expect("valid driver config")
        .run_until_solved(MAX_GENERATIONS)
        .expect("run")
        .solved_at_generation
        .map_or(MAX_GENERATIONS, |g| g + 1)
}

/// Runs both panels.
///
/// # Errors
///
/// Propagates output failures.
pub fn run(sink: &OutputSink) -> io::Result<()> {
    // (a) Evolution + communication at scale.
    let mut rows = Vec::new();
    for workload in Workload::FIGURES {
        for n in SCALES {
            let report = run_dda(workload, n);
            let t = report.mean_timeline;
            rows.push(vec![
                workload.name().to_string(),
                n.to_string(),
                fmt(t.evolution_s),
                fmt(t.communication_s),
                fmt(t.evolution_s + t.communication_s),
            ]);
        }
    }
    sink.table(
        "fig7a_dda_scaling",
        "Figure 7a: CLAN_DDA evolution + communication vs agents (s)",
        &["workload", "agents", "evolution_s", "comm_s", "evo+comm_s"],
        &rows,
    )?;

    // (b) Accuracy vs clans.
    let mut rows_b = Vec::new();
    let mut means = Vec::new();
    for clans in CLAN_COUNTS {
        let mut total = 0u64;
        for run_idx in 0..ACCURACY_RUNS {
            total += generations_to_converge(clans, BENCH_SEED + 1000 * run_idx);
        }
        let mean = total as f64 / ACCURACY_RUNS as f64;
        means.push(mean);
        rows_b.push(vec![clans.to_string(), fmt(mean)]);
    }
    sink.table(
        "fig7b_accuracy_vs_clans",
        "Figure 7b: LunarLander-v2 generations to converge vs clans (10-run mean)",
        &["clans", "generations"],
        &rows_b,
    )?;
    let increasing = means.first().unwrap_or(&0.0) <= means.last().unwrap_or(&0.0);
    sink.note(if increasing {
        "PAPER CLAIM HOLDS: convergence slows (gradually) as clans increase"
    } else {
        "WARNING: convergence did not slow with clan count"
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dda_evolution_scales_down_with_agents() {
        let r1 = run_dda(Workload::AirRaid, 1);
        let r8 = run_dda(Workload::AirRaid, 8);
        assert!(r8.mean_timeline.evolution_s < r1.mean_timeline.evolution_s);
    }

    #[test]
    fn dda_comm_stays_small() {
        let r = run_dda(Workload::AirRaid, 15);
        // Steady-state DDA communication is fitness scalars only; even
        // amortizing the one-time init, comm must stay below evolution+inference.
        let t = r.mean_timeline;
        assert!(t.communication_s < t.inference_s + t.evolution_s);
    }
}
