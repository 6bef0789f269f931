//! Cartpole-v0: balance a pole on a cart by pushing left or right.
//!
//! Dynamics follow Barto, Sutton & Anderson (1983) exactly as OpenAI gym
//! implements them (Euler integration, `tau = 0.02 s`). The paper classes
//! this as a *small* workload: 4 observations, 2 actions, +1 reward per
//! surviving step.

use crate::{Environment, Step};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MASS_CART: f64 = 1.0;
const MASS_POLE: f64 = 0.1;
const TOTAL_MASS: f64 = MASS_CART + MASS_POLE;
const TAU: f64 = 0.02;
/// Episode ends when |x| exceeds this.
const X_THRESHOLD: f64 = 2.4;
/// Episode ends when |theta| exceeds this (12 degrees).
const THETA_THRESHOLD: f64 = 12.0 * std::f64::consts::PI / 180.0;

/// Physical parameters of the cart-pole.
///
/// The defaults are gym's constants. Changing them at runtime (e.g. a
/// longer pole, lower gravity) models the paper's Figure-1 scenario of an
/// agent meeting an environment it was not trained for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CartPoleParams {
    /// Gravitational acceleration (default 9.8).
    pub gravity: f64,
    /// Half the pole length (default 0.5, as in gym).
    pub pole_half_length: f64,
    /// Magnitude of the push applied by each action (default 10.0).
    pub force_mag: f64,
}

impl Default for CartPoleParams {
    fn default() -> Self {
        CartPoleParams {
            gravity: 9.8,
            pole_half_length: 0.5,
            force_mag: 10.0,
        }
    }
}

/// The cart-pole balancing environment.
#[derive(Debug, Clone, Default)]
pub struct CartPole {
    params: CartPoleParams,
    x: f64,
    x_dot: f64,
    theta: f64,
    theta_dot: f64,
    done: bool,
    started: bool,
}

impl CartPole {
    /// Creates an environment; call [`Environment::reset`] before stepping.
    pub fn new() -> CartPole {
        CartPole::default()
    }

    /// Creates an environment with non-standard physics.
    pub fn with_params(params: CartPoleParams) -> CartPole {
        CartPole {
            params,
            ..CartPole::default()
        }
    }

    /// The physical parameters in force.
    pub fn params(&self) -> CartPoleParams {
        self.params
    }

    fn obs(&self) -> Vec<f64> {
        vec![self.x, self.x_dot, self.theta, self.theta_dot]
    }
}

impl Environment for CartPole {
    fn obs_dim(&self) -> usize {
        4
    }

    fn n_actions(&self) -> usize {
        2
    }

    fn reset(&mut self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.x = rng.gen_range(-0.05..0.05);
        self.x_dot = rng.gen_range(-0.05..0.05);
        self.theta = rng.gen_range(-0.05..0.05);
        self.theta_dot = rng.gen_range(-0.05..0.05);
        self.done = false;
        self.started = true;
        self.obs()
    }

    fn step(&mut self, action: usize) -> Step {
        assert!(self.started, "reset() must be called before step()");
        assert!(!self.done, "step() called on terminated episode");
        assert!(action < 2, "cartpole action {action} out of range");

        let CartPoleParams {
            gravity,
            pole_half_length: length,
            force_mag,
        } = self.params;
        let pole_mass_length = MASS_POLE * length;
        let force = if action == 1 { force_mag } else { -force_mag };
        let cos_t = self.theta.cos();
        let sin_t = self.theta.sin();
        let temp =
            (force + pole_mass_length * self.theta_dot * self.theta_dot * sin_t) / TOTAL_MASS;
        let theta_acc = (gravity * sin_t - cos_t * temp)
            / (length * (4.0 / 3.0 - MASS_POLE * cos_t * cos_t / TOTAL_MASS));
        let x_acc = temp - pole_mass_length * theta_acc * cos_t / TOTAL_MASS;

        self.x += TAU * self.x_dot;
        self.x_dot += TAU * x_acc;
        self.theta += TAU * self.theta_dot;
        self.theta_dot += TAU * theta_acc;

        self.done = self.x.abs() > X_THRESHOLD || self.theta.abs() > THETA_THRESHOLD;
        Step {
            obs: self.obs(),
            reward: 1.0,
            done: self.done,
        }
    }

    fn name(&self) -> &'static str {
        "Cartpole-v0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_within_jitter_bounds() {
        let mut env = CartPole::new();
        for seed in 0..20 {
            let obs = env.reset(seed);
            assert!(obs.iter().all(|v| v.abs() < 0.05), "{obs:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = CartPole::new();
        let mut b = CartPole::new();
        assert_eq!(a.reset(42), b.reset(42));
        for _ in 0..50 {
            let sa = a.step(1);
            let sb = b.step(1);
            assert_eq!(sa, sb);
            if sa.done {
                break;
            }
        }
    }

    #[test]
    fn constant_push_eventually_fails() {
        let mut env = CartPole::new();
        env.reset(3);
        let mut steps = 0;
        loop {
            let s = env.step(1);
            steps += 1;
            if s.done {
                break;
            }
            assert!(steps < 500, "constant action should topple the pole");
        }
        assert!(steps < 200, "toppled in {steps} steps");
    }

    #[test]
    fn bang_bang_controller_survives_200_steps() {
        // The classic textbook policy: push in the direction the pole leans.
        let mut env = CartPole::new();
        let mut obs = env.reset(4);
        for _ in 0..200 {
            let action = if obs[2] + 0.5 * obs[3] > 0.0 { 1 } else { 0 };
            let s = env.step(action);
            assert!(!s.done, "bang-bang policy should balance");
            obs = s.obs;
        }
    }

    #[test]
    fn reward_is_one_per_step() {
        let mut env = CartPole::new();
        env.reset(5);
        assert_eq!(env.step(0).reward, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_action_panics() {
        let mut env = CartPole::new();
        env.reset(6);
        env.step(2);
    }

    #[test]
    #[should_panic(expected = "reset() must be called")]
    fn step_before_reset_panics() {
        CartPole::new().step(0);
    }
}
