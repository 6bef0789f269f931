//! Figure 11 — performance per dollar: CLAN's Pi swarm vs. single
//! higher-end platforms (Table IV).
//!
//! Paper headline: at 6 Pis ($240) the swarm matches the Jetson TX2
//! ($600) on larger workloads — a 2.5x price-performance-product win —
//! and at 15 Pis ($600) it rivals the HPC CPU ($1500), a 1.2x PPP win.
//! GPU bars stay out of reach of the single-core Pi experiments.

use crate::output::{fmt, OutputSink};
use crate::{point, run_point};
use clan_core::{ClanDriverBuilder, ClanTopology};
use clan_envs::Workload;
use clan_hw::{Platform, PlatformKind};
use std::io;

const GENERATIONS: u64 = 3;
const PI_SCALES: [usize; 6] = [1, 2, 4, 6, 10, 15];

/// `(mean s/generation, mean J/generation)` of one point.
fn time_energy(point: ClanDriverBuilder) -> (f64, f64) {
    let r = run_point(point, GENERATIONS);
    (r.mean_generation_s(), r.mean_generation_energy_j())
}

/// `(mean s/generation, mean J/generation)` for a single node of `platform`.
fn serial_run(workload: Workload, platform: PlatformKind) -> (f64, f64) {
    time_energy(point(workload, ClanTopology::serial(), 1).platform(platform))
}

/// `(mean s/generation, mean J/generation)` for a CLAN_DDA swarm of `n` Pis.
fn swarm_run(workload: Workload, n: usize) -> (f64, f64) {
    time_energy(point(workload, ClanTopology::dda(), n))
}

/// How many times better `pis` Pis taking `swarm_s` are than one
/// `platform` taking `platform_s`, by price-performance product.
fn ppp_benefit(platform: PlatformKind, platform_s: f64, pis: usize, swarm_s: f64) -> f64 {
    Platform::new(platform).ppp(1, platform_s) / Platform::raspberry_pi().ppp(pis, swarm_s)
}

/// Runs the platform comparison on the paper's four panels.
///
/// # Errors
///
/// Propagates output failures.
pub fn run(sink: &OutputSink) -> io::Result<()> {
    let platforms = [
        PlatformKind::HpcGpu,
        PlatformKind::HpcCpu,
        PlatformKind::JetsonGpu,
        PlatformKind::JetsonCpu,
    ];
    let panels = [
        Workload::CartPole,
        Workload::MountainCar,
        Workload::LunarLander,
        Workload::AirRaid,
    ];
    let pi = Platform::raspberry_pi();
    let mut rows = Vec::new();
    for workload in panels {
        let singles =
            platforms.map(|p| (p.to_string(), Platform::new(p), 1, serial_run(workload, p)));
        let swarms = PI_SCALES.map(|n| (format!("{n} pi"), pi, n, swarm_run(workload, n)));
        for (label, p, units, (t, e)) in singles.into_iter().chain(swarms) {
            rows.push(vec![
                workload.name().to_string(),
                label,
                format!("${:.0}", p.price_usd * units as f64),
                fmt(t),
                fmt(p.ppp(units, t)),
                fmt(e),
            ]);
        }
    }
    sink.table(
        "fig11_perf_per_dollar",
        "Figure 11: average time per generation (s), price-performance product, energy",
        &[
            "workload",
            "platform",
            "price",
            "s/generation",
            "PPP ($*s)",
            "J/generation",
        ],
        &rows,
    )?;

    // Headline PPP claims on the large workload.
    let jetson = serial_run(Workload::AirRaid, PlatformKind::JetsonCpu).0;
    let hpc = serial_run(Workload::AirRaid, PlatformKind::HpcCpu).0;
    let six_pi = swarm_run(Workload::AirRaid, 6).0;
    let fifteen_pi = swarm_run(Workload::AirRaid, 15).0;
    let ppp_vs_jetson = ppp_benefit(PlatformKind::JetsonCpu, jetson, 6, six_pi);
    let ppp_vs_hpc = ppp_benefit(PlatformKind::HpcCpu, hpc, 15, fifteen_pi);
    sink.note(&format!(
        "Airraid: 6 Pis {six_pi:.1}s vs Jetson CPU {jetson:.1}s -> PPP benefit {ppp_vs_jetson:.1}x (paper: 2.5x)"
    ));
    sink.note(&format!(
        "Airraid: 15 Pis {fifteen_pi:.1}s vs HPC CPU {hpc:.1}s -> PPP benefit {ppp_vs_hpc:.1}x (paper: 1.2x)"
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swarm_achieves_ppp_benefit_on_large_workload() {
        let jetson = serial_run(Workload::AirRaid, PlatformKind::JetsonCpu).0;
        let six_pi = swarm_run(Workload::AirRaid, 6).0;
        let ppp = ppp_benefit(PlatformKind::JetsonCpu, jetson, 6, six_pi);
        assert!(ppp > 1.5, "6-Pi swarm should win on PPP: {ppp:.2}x");
    }

    #[test]
    fn cartpole_swarm_not_competitive() {
        // "Performance is not comparable for extremely small workloads."
        let one = swarm_run(Workload::CartPole, 1).0;
        let ten = swarm_run(Workload::CartPole, 10).0;
        let speedup = one / ten;
        assert!(
            speedup < 8.0,
            "communication should cap small-workload speedup: {speedup:.1}x"
        );
    }
}
