//! Ablation studies for design choices this reproduction makes beyond
//! the paper's explicit experiments.
//!
//! 1. **Periodic global speciation** — the paper's future-work idea
//!    (§IV-C): "One can think of many ways to mitigate this problem such
//!    as allowing periodic global speciation". We implement it
//!    (`ClanTopology::dda_resync`) and set the generations and
//!    genome traffic it costs to solve against DCS's.
//! 2. **Dynamic compatibility thresholding** — no longer here. Over
//!    seeds 1..=40, a controller that steered the threshold toward a
//!    species-count band needed more generations than the fixed
//!    `compatibility_threshold` on XOR and LunarLander, matched it on
//!    CartPole, and at Alien shape split populations the fixed threshold
//!    keeps whole without raising best fitness; speciation now uses the
//!    fixed threshold alone.
//! 3. **Channel-invocation cost sensitivity** — the calibrated constant
//!    the paper blames for DDS's collapse; sweeping it shows how the
//!    Figure-9 crossover points move with communication technology.

use crate::output::{fmt, OutputSink};
use crate::{point, run_point};
use clan_core::ClanTopology;
use clan_envs::Workload;
use clan_netsim::WifiModel;
use std::io;
use std::num::NonZeroU64;

/// Runs both ablations.
///
/// # Errors
///
/// Propagates output failures.
pub fn run(sink: &OutputSink) -> io::Result<()> {
    resync_ablation(sink)?;
    channel_cost_ablation(sink)
}

/// Convergence and traffic of DDA by resync period, against DCS
/// (LunarLander, 8 agents).
fn resync_ablation(sink: &OutputSink) -> io::Result<()> {
    const SEEDS: std::ops::RangeInclusive<u64> = 1..=40;
    const MAX_GENS: u64 = 40;
    let runs = SEEDS.count() as f64;
    let every =
        |generations| ClanTopology::dda_resync(NonZeroU64::new(generations).expect("nonzero"));
    let settings = [
        ("DCS", ClanTopology::dcs()),
        ("DDA, never", ClanTopology::dda()),
        ("DDA, every 10", every(10)),
        ("DDA, every 5", every(5)),
        ("DDA, every 2", every(2)),
    ];
    let mut rows = Vec::new();
    let mut to_solve = Vec::new();
    for (label, topology) in settings {
        let mut total_gens = 0u64;
        let mut total_floats = 0u64;
        for seed in SEEDS {
            // The full MAX_GENS run, not until solved: floats/generation
            // divides by MAX_GENS.
            let b = point(Workload::LunarLander, topology, 8)
                .episodes_per_eval(3)
                .seed(seed);
            let report = run_point(b, MAX_GENS);
            total_gens += report.solved_at_generation.map_or(MAX_GENS, |g| g + 1);
            total_floats += report.ledger.total_floats();
        }
        let gens = total_gens as f64 / runs;
        let per_gen = total_floats as f64 / runs / MAX_GENS as f64;
        to_solve.push((label, gens * per_gen));
        rows.push(vec![
            label.to_string(),
            fmt(gens),
            fmt(per_gen),
            fmt(gens * per_gen),
        ]);
    }
    sink.table(
        "ablation_resync",
        "Ablation: periodic global speciation (paper future work) against DCS, LunarLander, 8 agents",
        &[
            "setting",
            "generations to converge",
            "floats/generation",
            "floats to solve",
        ],
        &rows,
    )?;
    let dcs = to_solve[0].1;
    let ratios: Vec<String> = to_solve[1..]
        .iter()
        .map(|(label, floats)| format!("{label} {:.2}x", floats / dcs))
        .collect();
    sink.note(&format!(
        "Floats to solve against DCS: {}.",
        ratios.join(", ")
    ));
    Ok(())
}

/// Figure-9a DCS-vs-serial crossover as a function of channel setup cost.
fn channel_cost_ablation(sink: &OutputSink) -> io::Result<()> {
    let mut rows = Vec::new();
    for setup_ms in [50.0, 100.0, 150.0, 300.0] {
        let net = WifiModel {
            channel_setup_s: setup_ms / 1000.0,
            ..WifiModel::default()
        };
        let total = |agents: usize| -> f64 {
            let b = point(Workload::AirRaid, ClanTopology::dcs(), agents)
                .single_step()
                .net(net);
            run_point(b, 3).mean_generation_s()
        };
        let serial = total(1);
        let crossover = [6usize, 12, 24, 40, 60, 100]
            .iter()
            .find(|&&n| total(n) > serial)
            .map_or(">100".to_string(), |n| n.to_string());
        rows.push(vec![format!("{setup_ms:.0} ms"), crossover, fmt(serial)]);
    }
    sink.table(
        "ablation_channel_cost",
        "Ablation: single-step DCS-vs-serial crossover point vs channel setup cost",
        &["channel setup", "crossover (units)", "serial total (s)"],
        &rows,
    )?;
    sink.note(
        "Cheaper channel invocation pushes the crossover out — the technology lever of Figure 10.",
    );
    Ok(())
}
