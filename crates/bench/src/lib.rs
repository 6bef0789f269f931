//! # clan-bench — the paper's evaluation, regenerated
//!
//! One module per table/figure of the CLAN paper (ISPASS 2020). Each
//! module exposes `run(&OutputSink) -> io::Result<()>` that executes the
//! experiment, prints the same rows/series the paper plots, and writes a
//! CSV under `results/`. Thin binaries (`fig3` .. `fig11`, `table4`,
//! `run_all`) wrap these, so the whole evaluation reproduces with:
//!
//! ```text
//! cargo run -p clan-bench --release --bin run_all
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

/// The master seed shared by every experiment (reproducibility).
pub const BENCH_SEED: u64 = 20200824;

/// The paper's population size.
pub const POPULATION: usize = 150;
