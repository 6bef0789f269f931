//! # clan-envs — gym-like reinforcement-learning environments
//!
//! The CLAN paper evaluates on a suite of OpenAI-gym workloads chosen for
//! size: *small* (Cartpole-v0, MountainCar-v0), *medium* (LunarLander-v2)
//! and *large* (Atari RAM games: Airraid, Amidar, Alien). This crate
//! implements the suite from scratch:
//!
//! - [`CartPole`] and [`MountainCar`] follow the canonical classic-control
//!   dynamics exactly.
//! - [`LunarLander`] is a simplified rigid-body lander implementing the
//!   paper's reward rubric (±100 land/crash, +10 per leg, −0.3 per frame
//!   of main engine, shaped approach reward) without a Box2D dependency.
//! - The Atari RAM games are **synthetic surrogates**: deterministic,
//!   seeded "RAM machine" games with the real observation width (128
//!   bytes), realistic action counts, and incremental scoring. The paper
//!   uses Atari purely as a *large workload* (big input layer ⇒ big
//!   genomes ⇒ heavy inference), which these preserve; see `DESIGN.md`.
//!
//! Every environment is deterministic given the seed passed to
//! [`Environment::reset`], which keeps distributed CLAN runs reproducible.
//!
//! ```
//! use clan_envs::{Environment, Workload};
//!
//! let mut env = Workload::CartPole.make();
//! let obs = env.reset(7);
//! assert_eq!(obs.len(), env.obs_dim());
//! let step = env.step(0);
//! assert!(step.reward > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod airraid;
pub mod alien;
pub mod amidar;
pub mod atari_ram;
pub mod cartpole;
pub mod episode;
pub mod lunar_lander;
pub mod mountain_car;
pub mod suite;

pub use atari_ram::{RamGame, RamMachine, RAM_BYTES};
pub use cartpole::CartPole;
pub use episode::{run_episode, EpisodeOutcome};
pub use lunar_lander::LunarLander;
pub use mountain_car::MountainCar;
pub use suite::{Workload, WorkloadClass};

/// Result of one environment step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Observation after the step.
    pub obs: Vec<f64>,
    /// Reward earned by the step.
    pub reward: f64,
    /// Whether the episode terminated (success or failure).
    pub done: bool,
}

/// A reinforcement-learning environment with a discrete action space.
///
/// The interface mirrors OpenAI gym's `reset`/`step` loop. Environments
/// must be deterministic given the `seed` passed to [`reset`], so that the
/// same genome evaluated on two different agents receives the same fitness
/// — a requirement for CLAN's distributed-equals-serial property.
///
/// [`reset`]: Environment::reset
pub trait Environment: Send {
    /// Dimension of the observation vector.
    fn obs_dim(&self) -> usize;

    /// Number of discrete actions.
    fn n_actions(&self) -> usize;

    /// Starts a new episode and returns the initial observation.
    fn reset(&mut self, seed: u64) -> Vec<f64>;

    /// Advances one timestep.
    ///
    /// # Panics
    ///
    /// Implementations panic if `action >= n_actions()` or if called
    /// before [`reset`](Environment::reset) / after termination.
    fn step(&mut self, action: usize) -> Step;

    /// Human-readable gym-style name (e.g. `"Cartpole-v0"`).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_is_object_safe() {
        fn takes_dyn(_e: &dyn Environment) {}
        let mut e = CartPole::new();
        e.reset(1);
        takes_dyn(&e);
    }
}
