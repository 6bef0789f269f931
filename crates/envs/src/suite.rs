//! The paper's workload suite (§III-B): small, medium, and large tasks.

use crate::airraid::AirRaid;
use crate::alien::AlienGame;
use crate::amidar::Amidar;
use crate::atari_ram::RamMachine;
use crate::cartpole::CartPole;
use crate::lunar_lander::LunarLander;
use crate::mountain_car::MountainCar;
use crate::Environment;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Workload size class, as used throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadClass {
    /// Cartpole-v0, MountainCar-v0.
    Small,
    /// LunarLander-v2.
    Medium,
    /// Atari RAM games.
    Large,
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadClass::Small => f.write_str("small"),
            WorkloadClass::Medium => f.write_str("medium"),
            WorkloadClass::Large => f.write_str("large"),
        }
    }
}

/// The six evaluation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Workload {
    /// Cartpole-v0 (small).
    CartPole,
    /// MountainCar-v0 (small).
    MountainCar,
    /// LunarLander-v2 (medium).
    LunarLander,
    /// Airraid-ram-v0 (large).
    AirRaid,
    /// Amidar-ram-v0 (large; the paper omits it from most figures as it
    /// "performs equivalently to airraid-ram-v0").
    Amidar,
    /// Alien-ram-v0 (large).
    Alien,
}

impl Workload {
    /// All six workloads.
    pub const ALL: [Workload; 6] = [
        Workload::CartPole,
        Workload::MountainCar,
        Workload::LunarLander,
        Workload::AirRaid,
        Workload::Amidar,
        Workload::Alien,
    ];

    /// The five workloads the paper plots (Amidar omitted, §IV-B).
    pub const FIGURES: [Workload; 5] = [
        Workload::CartPole,
        Workload::MountainCar,
        Workload::LunarLander,
        Workload::AirRaid,
        Workload::Alien,
    ];

    /// Gym-style environment id.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CartPole => "Cartpole-v0",
            Workload::MountainCar => "MountainCar-v0",
            Workload::LunarLander => "LunarLander-v2",
            Workload::AirRaid => "Airraid-ram-v0",
            Workload::Amidar => "Amidar-ram-v0",
            Workload::Alien => "Alien-ram-v0",
        }
    }

    /// Size class per the paper.
    pub fn class(self) -> WorkloadClass {
        match self {
            Workload::CartPole | Workload::MountainCar => WorkloadClass::Small,
            Workload::LunarLander => WorkloadClass::Medium,
            Workload::AirRaid | Workload::Amidar | Workload::Alien => WorkloadClass::Large,
        }
    }

    /// Observation dimension (NEAT input width).
    pub fn obs_dim(self) -> usize {
        match self {
            Workload::CartPole => 4,
            Workload::MountainCar => 2,
            Workload::LunarLander => 8,
            Workload::AirRaid | Workload::Amidar | Workload::Alien => crate::RAM_BYTES,
        }
    }

    /// Number of discrete actions (NEAT output width).
    pub fn n_actions(self) -> usize {
        match self {
            Workload::CartPole => 2,
            Workload::MountainCar => 3,
            Workload::LunarLander => 4,
            Workload::AirRaid => 6,
            Workload::Amidar => 10,
            Workload::Alien => 18,
        }
    }

    /// Gym's convergence score for the task.
    pub fn solved_at(self) -> f64 {
        match self {
            Workload::CartPole => 195.0,
            Workload::MountainCar => -110.0,
            Workload::LunarLander => 200.0,
            Workload::AirRaid => 400.0,
            Workload::Amidar => 100.0,
            Workload::Alien => 500.0,
        }
    }

    /// The paper's per-episode step cap.
    pub fn max_steps(self) -> u64 {
        200
    }

    /// Instantiates the environment.
    pub fn make(self) -> Box<dyn Environment> {
        match self {
            Workload::CartPole => Box::new(CartPole::new()),
            Workload::MountainCar => Box::new(MountainCar::new()),
            Workload::LunarLander => Box::new(LunarLander::new()),
            Workload::AirRaid => Box::new(RamMachine::new(AirRaid::new())),
            Workload::Amidar => Box::new(RamMachine::new(Amidar::new())),
            Workload::Alien => Box::new(RamMachine::new(AlienGame::new())),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_matches_instances() {
        for w in Workload::ALL {
            let mut env = w.make();
            assert_eq!(env.obs_dim(), w.obs_dim(), "{w}");
            assert_eq!(env.n_actions(), w.n_actions(), "{w}");
            assert_eq!(env.name(), w.name(), "{w}");
            let obs = env.reset(1);
            assert_eq!(obs.len(), w.obs_dim(), "{w}");
        }
    }

    #[test]
    fn classes_partition_suite() {
        use WorkloadClass::*;
        assert_eq!(Workload::CartPole.class(), Small);
        assert_eq!(Workload::MountainCar.class(), Small);
        assert_eq!(Workload::LunarLander.class(), Medium);
        assert_eq!(Workload::AirRaid.class(), Large);
        assert_eq!(Workload::Amidar.class(), Large);
        assert_eq!(Workload::Alien.class(), Large);
    }

    #[test]
    fn figures_excludes_amidar_only() {
        assert_eq!(Workload::FIGURES.len(), 5);
        assert!(!Workload::FIGURES.contains(&Workload::Amidar));
    }

    #[test]
    fn every_workload_steps_for_full_cap_or_terminates() {
        for w in Workload::ALL {
            let mut env = w.make();
            env.reset(9);
            let mut steps = 0;
            for _ in 0..w.max_steps() {
                let s = env.step(0);
                steps += 1;
                if s.done {
                    break;
                }
            }
            assert!(steps > 0, "{w}");
        }
    }
}
