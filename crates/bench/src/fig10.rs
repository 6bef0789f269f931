//! Figure 10 — technology what-ifs on Airraid-ram-v0:
//! (a, b) a 2x better network, (c) systolic-array accelerators as nodes.
//!
//! Expected shapes: better links push the single-step scaling knee from
//! ~10 to ~12 units and un-stagnate multi-step scaling; with accelerator
//! nodes (inference ~100x faster, evolution still on the host CPU),
//! communication dominates so hard that DCS cannot scale at all, DDA
//! scales to ~7 nodes and is >2.5x better, and by ~30 nodes even serial
//! wins.

use crate::output::{fmt, OutputSink};
use crate::{point, run_point};
use clan_core::{ClanTopology, InferenceMode};
use clan_envs::Workload;
use clan_hw::PlatformKind;
use clan_netsim::WifiModel;
use std::io;

const GENERATIONS: u64 = 3;

/// Mean Airraid generation time at `units` nodes of `topology`.
fn total_time(
    topology: ClanTopology,
    units: usize,
    mode: InferenceMode,
    net: WifiModel,
    platform: PlatformKind,
) -> f64 {
    let mut b = point(Workload::AirRaid, topology, units)
        .net(net)
        .platform(platform);
    if mode == InferenceMode::SingleStep {
        b = b.single_step();
    }
    run_point(b, GENERATIONS).mean_timeline.total_s()
}

/// Runs all three panels.
///
/// # Errors
///
/// Propagates output failures.
pub fn run(sink: &OutputSink) -> io::Result<()> {
    let base = WifiModel::default();
    let better = base.scaled(2.0, 2.0);
    let headers = ["units", "T-CLAN_DCS", "T-CLAN_DDA"];

    // (a, b) Better network, single- then multi-step.
    for (scales, mode, name, title) in [
        (
            &[1usize, 8, 12, 18, 40, 70][..],
            InferenceMode::SingleStep,
            "fig10a_better_net_single_step",
            "Figure 10a: halved communication cost, single-step total time (s)",
        ),
        (
            &[1, 8, 18, 40, 70],
            InferenceMode::MultiStep,
            "fig10b_better_net_multi_step",
            "Figure 10b: halved communication cost, multi-step total time (s)",
        ),
    ] {
        let pi = PlatformKind::RaspberryPi;
        let rows: Vec<Vec<String>> = scales
            .iter()
            .map(|&n| {
                vec![
                    n.to_string(),
                    fmt(total_time(ClanTopology::dcs(), n, mode, better, pi)),
                    fmt(total_time(ClanTopology::dda(), n, mode, better, pi)),
                ]
            })
            .collect();
        sink.table(name, title, &headers, &rows)?;
    }

    // (c) Systolic accelerator nodes, multi-step, stock network.
    let mut rows_c = Vec::new();
    let mut dda_best = (1usize, f64::INFINITY);
    for n in [1usize, 4, 7, 15, 30, 45, 70] {
        let at = |topology| {
            total_time(
                topology,
                n,
                InferenceMode::MultiStep,
                base,
                PlatformKind::Systolic32x32,
            )
        };
        let dcs = at(ClanTopology::dcs());
        let dda = at(ClanTopology::dda());
        if dda < dda_best.1 {
            dda_best = (n, dda);
        }
        rows_c.push(vec![n.to_string(), fmt(dcs), fmt(dda)]);
    }
    sink.table(
        "fig10c_custom_hw",
        "Figure 10c: 32x32 systolic nodes, multi-step total time (s)",
        &headers,
        &rows_c,
    )?;
    sink.note(&format!(
        "Custom HW: DDA's best scale is {} nodes (paper: ~7); beyond that communication swamps the accelerated compute.",
        dda_best.0
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn better_network_extends_scaling() {
        let base = WifiModel::default();
        let better = base.scaled(2.0, 2.0);
        let t_base = total_time(
            ClanTopology::dda(),
            40,
            InferenceMode::MultiStep,
            base,
            PlatformKind::RaspberryPi,
        );
        let t_better = total_time(
            ClanTopology::dda(),
            40,
            InferenceMode::MultiStep,
            better,
            PlatformKind::RaspberryPi,
        );
        assert!(t_better < t_base);
    }

    #[test]
    fn accelerators_make_communication_the_bottleneck() {
        // With 100x faster inference, a few accelerator nodes beat one,
        // but scaling dies quickly (paper: ~7 nodes max for DDA).
        let base = WifiModel::default();
        let t1 = total_time(
            ClanTopology::dda(),
            1,
            InferenceMode::MultiStep,
            base,
            PlatformKind::Systolic32x32,
        );
        let t4 = total_time(
            ClanTopology::dda(),
            4,
            InferenceMode::MultiStep,
            base,
            PlatformKind::Systolic32x32,
        );
        let t70 = total_time(
            ClanTopology::dda(),
            70,
            InferenceMode::MultiStep,
            base,
            PlatformKind::Systolic32x32,
        );
        assert!(t4 < t1, "small clusters still help: {t4:.2} vs {t1:.2}");
        assert!(t70 > t4, "scaling must die at large node counts");
    }
}
