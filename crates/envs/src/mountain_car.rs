//! MountainCar-v0: drive an underpowered car out of a valley by rocking.
//!
//! Standard gym dynamics (Moore 1990): position in `[-1.2, 0.6]`, velocity
//! clipped to `±0.07`, reward −1 per step until the flag at `0.5` is
//! reached. A *small* workload in the paper's taxonomy (2 observations,
//! 3 actions) — but a hard-exploration one, since random policies rarely
//! reach the flag within 200 steps.

use crate::{Environment, Step};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MIN_POSITION: f64 = -1.2;
const MAX_POSITION: f64 = 0.6;
const MAX_SPEED: f64 = 0.07;
const GOAL_POSITION: f64 = 0.5;
const FORCE: f64 = 0.001;
const GRAVITY: f64 = 0.0025;

/// The mountain-car environment.
#[derive(Debug, Clone, Default)]
pub struct MountainCar {
    position: f64,
    velocity: f64,
    done: bool,
    started: bool,
}

impl MountainCar {
    /// Creates an environment; call [`Environment::reset`] before stepping.
    pub fn new() -> MountainCar {
        MountainCar::default()
    }

    fn obs(&self) -> Vec<f64> {
        vec![self.position, self.velocity]
    }
}

impl Environment for MountainCar {
    fn obs_dim(&self) -> usize {
        2
    }

    fn n_actions(&self) -> usize {
        3
    }

    fn reset(&mut self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.position = rng.gen_range(-0.6..-0.4);
        self.velocity = 0.0;
        self.done = false;
        self.started = true;
        self.obs()
    }

    fn step(&mut self, action: usize) -> Step {
        assert!(self.started, "reset() must be called before step()");
        assert!(!self.done, "step() called on terminated episode");
        assert!(action < 3, "mountain-car action {action} out of range");

        self.velocity += (action as f64 - 1.0) * FORCE - (3.0 * self.position).cos() * GRAVITY;
        self.velocity = self.velocity.clamp(-MAX_SPEED, MAX_SPEED);
        self.position += self.velocity;
        self.position = self.position.clamp(MIN_POSITION, MAX_POSITION);
        if self.position <= MIN_POSITION && self.velocity < 0.0 {
            self.velocity = 0.0; // inelastic left wall, as in gym
        }
        self.done = self.position >= GOAL_POSITION;
        Step {
            obs: self.obs(),
            reward: -1.0,
            done: self.done,
        }
    }

    fn name(&self) -> &'static str {
        "MountainCar-v0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_in_valley() {
        let mut env = MountainCar::new();
        for seed in 0..20 {
            let obs = env.reset(seed);
            assert!((-0.6..-0.4).contains(&obs[0]), "{obs:?}");
            assert_eq!(obs[1], 0.0);
        }
    }

    #[test]
    fn coasting_never_escapes() {
        let mut env = MountainCar::new();
        env.reset(1);
        for _ in 0..200 {
            let s = env.step(1); // no throttle
            assert!(!s.done, "coasting must not reach the flag");
        }
    }

    #[test]
    fn full_throttle_right_alone_fails() {
        // The car is underpowered by construction: pushing right from the
        // valley floor cannot climb the hill directly.
        let mut env = MountainCar::new();
        env.reset(2);
        for _ in 0..200 {
            let s = env.step(2);
            assert!(!s.done, "direct ascent should be impossible");
        }
    }

    #[test]
    fn rocking_policy_escapes() {
        // Accelerate in the direction of motion — the canonical solution.
        let mut env = MountainCar::new();
        let mut obs = env.reset(3);
        let mut solved = false;
        for _ in 0..200 {
            let action = if obs[1] >= 0.0 { 2 } else { 0 };
            let s = env.step(action);
            obs = s.obs;
            if s.done {
                solved = true;
                break;
            }
        }
        assert!(solved, "energy-pumping policy must reach the flag");
    }

    #[test]
    fn velocity_clipped() {
        let mut env = MountainCar::new();
        let mut obs = env.reset(4);
        for _ in 0..200 {
            let action = if obs[1] >= 0.0 { 2 } else { 0 };
            let s = env.step(action);
            assert!(s.obs[1].abs() <= MAX_SPEED + 1e-12);
            obs = s.obs;
            if s.done {
                break;
            }
        }
    }

    #[test]
    fn reward_is_minus_one() {
        let mut env = MountainCar::new();
        env.reset(5);
        assert_eq!(env.step(1).reward, -1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = MountainCar::new();
        let mut b = MountainCar::new();
        assert_eq!(a.reset(9), b.reset(9));
        for _ in 0..100 {
            assert_eq!(a.step(2), b.step(2));
        }
    }
}
