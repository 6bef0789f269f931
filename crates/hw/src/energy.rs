//! Per-platform power draw and energy accounting.
//!
//! The paper argues CLAN's distributed Pis win on *energy and dollar
//! cost*; this module supplies the wattage side of that claim so the
//! benches can report energy-per-generation alongside
//! price-performance-product.

use crate::platform::PlatformKind;
use serde::{Deserialize, Serialize};

/// Average active power draw of a platform, in watts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Platform being modeled.
    pub kind: PlatformKind,
    /// Average power under NEAT load, watts.
    pub active_watts: f64,
    /// Idle power, watts.
    pub idle_watts: f64,
}

impl EnergyModel {
    /// Datasheet-class power figures for each platform.
    pub fn for_kind(kind: PlatformKind) -> EnergyModel {
        let (active, idle) = match kind {
            PlatformKind::RaspberryPi => (3.7, 1.9),
            PlatformKind::JetsonCpu => (9.0, 4.0),
            PlatformKind::JetsonGpu => (15.0, 5.0),
            PlatformKind::HpcCpu => (95.0, 30.0),
            PlatformKind::HpcGpu => (250.0, 60.0),
            PlatformKind::Systolic32x32 => (5.2, 2.1),
        };
        EnergyModel {
            kind,
            active_watts: active,
            idle_watts: idle,
        }
    }

    /// Energy (joules) for `busy_s` seconds of compute and `idle_s`
    /// seconds of waiting (e.g. blocked on communication).
    pub fn energy_j(&self, busy_s: f64, idle_s: f64) -> f64 {
        self.active_watts * busy_s + self.idle_watts * idle_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pi_cluster_beats_hpc_energy_at_same_runtime() {
        // 10 Pis busy for 10 s use far less energy than an HPC GPU busy 10 s.
        let pi = EnergyModel::for_kind(PlatformKind::RaspberryPi);
        let hpc = EnergyModel::for_kind(PlatformKind::HpcGpu);
        assert!(10.0 * pi.energy_j(10.0, 0.0) < hpc.energy_j(10.0, 0.0));
    }

    #[test]
    fn idle_cheaper_than_active() {
        for kind in [
            PlatformKind::RaspberryPi,
            PlatformKind::JetsonCpu,
            PlatformKind::JetsonGpu,
            PlatformKind::HpcCpu,
            PlatformKind::HpcGpu,
            PlatformKind::Systolic32x32,
        ] {
            let m = EnergyModel::for_kind(kind);
            assert!(m.idle_watts < m.active_watts, "{kind:?}");
        }
    }

    #[test]
    fn energy_additive() {
        let m = EnergyModel::for_kind(PlatformKind::RaspberryPi);
        let e = m.energy_j(2.0, 3.0);
        assert!((e - (2.0 * 3.7 + 3.0 * 1.9)).abs() < 1e-12);
    }
}
