//! # clan-bench — the paper's evaluation, regenerated
//!
//! One module per table/figure of the CLAN paper (ISPASS 2020). Each
//! module exposes `run(&OutputSink) -> io::Result<()>` that executes the
//! experiment, prints the same rows/series the paper plots, and writes a
//! CSV under `results/`. Every figure run is a sweep `point` built and
//! run in one place, and the one `figures` binary runs the experiments
//! listed in [`EXPERIMENTS`] — all of them with no argument, or those
//! named:
//!
//! ```text
//! cargo run -p clan-bench --release --bin figures            # everything
//! cargo run -p clan-bench --release --bin figures fig9 table4
//! ```
//!
//! Absolute times come from the calibrated platform models (`clan-hw`);
//! the claims under test are the *shapes*: who wins, by what factor, and
//! where the crossovers fall.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod output;
pub mod table4;

pub use output::OutputSink;

use clan_core::{ClanDriver, ClanDriverBuilder, ClanTopology, RunReport};
use clan_envs::Workload;
use std::io;

/// The master seed shared by every experiment (reproducibility).
pub const BENCH_SEED: u64 = 20200824;

/// The paper's population size.
pub const POPULATION: usize = 150;

/// A figure's sweep point: the driver for `agents` agents on `topology`
/// with the paper's population and [`BENCH_SEED`]. One agent is the
/// serial baseline whatever `topology` says. A figure chains its own
/// options (`single_step`, `net`, `platform`, ...) onto it.
fn point(workload: Workload, topology: ClanTopology, agents: usize) -> ClanDriverBuilder {
    let topology = if agents == 1 {
        ClanTopology::serial()
    } else {
        topology
    };
    ClanDriver::builder(workload)
        .topology(topology)
        .agents(agents)
        .population_size(POPULATION)
        .seed(BENCH_SEED)
}

/// Runs `point` for `generations` generations.
///
/// # Panics
///
/// On an invalid set-up or an orchestration error: a figure's set-up is
/// fixed, so either is a bug, not an environmental condition.
fn run_point(point: ClanDriverBuilder, generations: u64) -> RunReport {
    point
        .build()
        .expect("valid driver config")
        .run(generations)
        .expect("run")
}

/// One experiment: the name that selects it, the title logged while it
/// runs, and its entry point.
pub type Experiment = (
    &'static str,
    &'static str,
    fn(&OutputSink) -> io::Result<()>,
);

/// Every experiment, in the order `figures` runs them with no argument.
pub const EXPERIMENTS: [Experiment; 11] = [
    ("table4", "Table IV", table4::run),
    ("fig3", "Figure 3", fig3::run),
    ("fig4", "Figure 4", fig4::run),
    ("fig5", "Figure 5", fig5::run),
    ("fig6", "Figure 6", fig6::run),
    ("fig7", "Figure 7", fig7::run),
    ("fig8", "Figure 8", fig8::run),
    ("fig9", "Figure 9", fig9::run),
    ("fig10", "Figure 10", fig10::run),
    ("fig11", "Figure 11", fig11::run),
    ("ablation", "Ablations", ablation::run),
];
