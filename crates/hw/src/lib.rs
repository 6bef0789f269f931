//! # clan-hw — hardware platform models
//!
//! The CLAN paper runs on five platforms (Table IV): Raspberry Pi 3
//! (ARM Cortex-A53), Jetson TX2 (CPU and GPU), and an HPC box (6th-gen i7
//! CPU and GTX 1080 GPU), plus a hypothetical 32x32 systolic-array
//! accelerator for Figure 10(c) ([`PlatformKind::Systolic32x32`], a
//! throughput multiplier on the Pi host like every other platform).
//!
//! Because the paper measures cost in *genes processed* (32-bit data), a
//! platform model reduces to a calibrated genes-per-second throughput for
//! the inference block and another for the evolution blocks, plus a fixed
//! per-phase overhead. Calibration targets the paper's reported
//! per-generation magnitudes on a single Pi; every figure in the
//! reproduction then uses relative behavior only (scaling curves, shares,
//! crossover points). See `DESIGN.md` §5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod platform;

pub use energy::EnergyModel;
pub use platform::{Platform, PlatformKind};
