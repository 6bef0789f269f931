//! The paper's Figure-1 closed loop: continuous learning on the edge.
//!
//! > "Each agent uses the deployed expert to perform the task at hand and
//! > continues to evaluate its fitness against a rubric ... In the event
//! > of a change of task or environment, if the fitness of the expert
//! > deteriorates below a certain threshold, the agents invoke the
//! > learning process on the edge and continue to learn a new expert
//! > until the desired fitness is achieved."
//!
//! [`ContinuousLearner`] holds the current expert genome. Each
//! [`encounter_task`](ContinuousLearner::encounter_task) call probes the
//! expert on the (possibly changed) environment; if its average fitness
//! has fallen below the threshold, a NEAT learning phase runs — warm-
//! started from mutated copies of the expert — until fitness recovers or
//! the generation budget runs out.

use crate::error::ClanError;
use clan_envs::{run_episode, Environment};
use clan_neat::population::Evaluation;
use clan_neat::rng::{derive_seed, op_rng, OpTag};
use clan_neat::{FeedForwardNetwork, Genome, GenomeId, NeatConfig, Population, Scratch};
use serde::{Deserialize, Serialize};

/// Monitoring parameters for the closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Episodes averaged when probing the expert's fitness.
    pub probe_episodes: u32,
    /// Per-episode step cap (the paper uses 200).
    pub max_steps: u64,
    /// Generation budget for each learning phase.
    pub max_learning_generations: u64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            probe_episodes: 5,
            max_steps: 200,
            max_learning_generations: 50,
        }
    }
}

/// What happened when the learner met one task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskOutcome {
    /// Environment name.
    pub task: String,
    /// Expert fitness measured on arrival (`None` when no expert was
    /// deployed yet).
    pub initial_fitness: Option<f64>,
    /// Whether the fitness monitor triggered a learning phase.
    pub triggered_learning: bool,
    /// Generations the learning phase ran (0 if not triggered).
    pub learning_generations: u64,
    /// Expert fitness after the encounter.
    pub final_fitness: f64,
    /// Whether the final expert meets the threshold.
    pub recovered: bool,
}

/// One learning phase's trace (per-generation best fitness).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearningEvent {
    /// Task that triggered learning.
    pub task: String,
    /// Best fitness per generation, in order.
    pub best_per_generation: Vec<f64>,
}

/// Closed-loop learner: deploy, monitor, re-learn.
#[derive(Debug, Clone)]
pub struct ContinuousLearner {
    cfg: NeatConfig,
    monitor: MonitorConfig,
    seed: u64,
    expert: Option<Genome>,
    events: Vec<LearningEvent>,
    encounters: u64,
}

impl ContinuousLearner {
    /// Creates a learner with no deployed expert.
    ///
    /// `cfg`'s I/O dimensions must match every environment the learner
    /// will encounter.
    pub fn new(cfg: NeatConfig, monitor: MonitorConfig, seed: u64) -> ContinuousLearner {
        ContinuousLearner {
            cfg,
            monitor,
            seed,
            expert: None,
            events: Vec::new(),
            encounters: 0,
        }
    }

    /// The currently deployed expert, if any.
    pub fn expert(&self) -> Option<&Genome> {
        self.expert.as_ref()
    }

    /// Learning phases run so far.
    pub fn events(&self) -> &[LearningEvent] {
        &self.events
    }

    /// Average fitness of the deployed expert over the configured probe
    /// episodes, or `None` when no expert exists.
    pub fn probe(&self, env: &mut dyn Environment) -> Option<f64> {
        let expert = self.expert.as_ref()?;
        let net = FeedForwardNetwork::compile(expert, &self.cfg);
        let mut scratch = Scratch::new();
        let mut total = 0.0;
        for ep in 0..self.monitor.probe_episodes {
            let seed = derive_seed(self.seed, &[0xBEEF, self.encounters, ep as u64]);
            let outcome = run_episode(env, seed, self.monitor.max_steps, |obs| {
                net.act_argmax_with(obs, &mut scratch)
            });
            total += outcome.total_reward;
        }
        Some(total / self.monitor.probe_episodes as f64)
    }

    /// Confronts the learner with a task: probe the expert, trigger a
    /// learning phase if its fitness is below `threshold`, and redeploy
    /// the best genome found.
    ///
    /// # Errors
    ///
    /// Propagates NEAT failures from the learning phase.
    pub fn encounter_task(
        &mut self,
        env: &mut dyn Environment,
        threshold: f64,
    ) -> Result<TaskOutcome, ClanError> {
        self.encounters += 1;
        let task = env.name().to_string();
        let initial_fitness = self.probe(env);
        let healthy = initial_fitness.is_some_and(|f| f >= threshold);
        if healthy {
            return Ok(TaskOutcome {
                task,
                initial_fitness,
                triggered_learning: false,
                learning_generations: 0,
                final_fitness: initial_fitness.expect("checked above"),
                recovered: true,
            });
        }

        // Learning phase: a fresh population, warm-started from the
        // expert when one exists.
        let phase_seed = derive_seed(self.seed, &[0x1EA2, self.encounters]);
        let mut pop = Population::new(self.cfg.clone(), phase_seed);
        if let Some(expert) = &self.expert {
            let ids: Vec<GenomeId> = pop.genomes().keys().copied().collect();
            let warm: Vec<Genome> = ids
                .iter()
                .enumerate()
                .map(|(i, &id)| {
                    let mut g = expert.clone();
                    g.set_id(id);
                    g.clear_fitness();
                    if i > 0 {
                        let mut rng = op_rng(phase_seed, 0, id.0, OpTag::Mutation);
                        g.mutate(&self.cfg, &mut rng);
                    }
                    g
                })
                .collect();
            pop.replace_genomes(warm);
        }

        let mut trace = Vec::new();
        let mut generations = 0;
        let mut scratch = Scratch::new();
        let max_steps = self.monitor.max_steps;
        for _ in 0..self.monitor.max_learning_generations {
            let master = pop.master_seed();
            let generation = pop.generation();
            pop.evaluate(|net, genome| {
                let seed = derive_seed(
                    master,
                    &[generation, genome.id().0, OpTag::Environment as u64],
                );
                let outcome = run_episode(env, seed, max_steps, |obs| {
                    net.act_argmax_with(obs, &mut scratch)
                });
                Evaluation {
                    fitness: outcome.total_reward,
                    activations: outcome.steps,
                }
            });
            let summary = pop.try_advance_generation(|p, plan| {
                Ok::<_, ClanError>(p.reproduce_centrally(plan))
            })?;
            generations += 1;
            trace.push(summary.best_fitness);
            if summary.best_fitness >= threshold {
                break;
            }
        }

        let best = pop
            .best_ever()
            .cloned()
            .ok_or_else(|| ClanError::InvalidSetup {
                reason: "learning phase produced no evaluated genome".into(),
            })?;
        let final_fitness = best.fitness().expect("best_ever carries fitness");
        // Redeploy only if the new expert is actually better.
        let improved = initial_fitness.is_none_or(|f| final_fitness > f);
        if improved {
            self.expert = Some(best);
        }
        self.events.push(LearningEvent {
            task: task.clone(),
            best_per_generation: trace,
        });
        Ok(TaskOutcome {
            task,
            initial_fitness,
            triggered_learning: true,
            learning_generations: generations,
            final_fitness,
            recovered: final_fitness >= threshold,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clan_envs::cartpole::{CartPole, CartPoleParams};

    fn learner(pop: usize) -> ContinuousLearner {
        let cfg = NeatConfig::builder(4, 2)
            .population_size(pop)
            .build()
            .unwrap();
        ContinuousLearner::new(
            cfg,
            MonitorConfig {
                probe_episodes: 3,
                max_steps: 200,
                max_learning_generations: 25,
            },
            7,
        )
    }

    #[test]
    fn first_encounter_always_learns() {
        let mut l = learner(48);
        let mut env = CartPole::new();
        let out = l.encounter_task(&mut env, 60.0).unwrap();
        assert!(out.triggered_learning);
        assert!(out.initial_fitness.is_none());
        assert!(l.expert().is_some());
        assert!(out.final_fitness > 0.0);
    }

    #[test]
    fn healthy_expert_skips_learning() {
        let mut l = learner(48);
        let mut env = CartPole::new();
        let first = l.encounter_task(&mut env, 50.0).unwrap();
        if first.recovered {
            // Same environment again: the expert should still be healthy.
            let second = l.encounter_task(&mut env, 50.0).unwrap();
            assert!(!second.triggered_learning, "{second:?}");
            assert_eq!(l.events().len(), 1);
        }
    }

    #[test]
    fn environment_shift_triggers_relearning() {
        let mut l = learner(48);
        let mut env = CartPole::new();
        let first = l.encounter_task(&mut env, 50.0).unwrap();
        assert!(first.triggered_learning);
        // The world changes: a much longer, heavier pole in lower gravity.
        let mut shifted = CartPole::with_params(CartPoleParams {
            gravity: 19.6,
            pole_half_length: 1.5,
            force_mag: 6.0,
        });
        let probe = l.probe(&mut shifted);
        assert!(probe.is_some());
        let out = l.encounter_task(&mut shifted, 50.0).unwrap();
        // Either the old expert generalizes (no learning) or the monitor
        // caught the degradation and re-learned; both are valid closed-
        // loop behaviours, but the learner must end deployed.
        assert!(l.expert().is_some());
        if out.triggered_learning {
            assert!(out.learning_generations > 0);
        }
    }

    #[test]
    fn probe_without_expert_is_none() {
        let l = learner(16);
        let mut env = CartPole::new();
        assert!(l.probe(&mut env).is_none());
    }

    #[test]
    fn events_record_traces() {
        let mut l = learner(32);
        let mut env = CartPole::new();
        l.encounter_task(&mut env, 1000.0).unwrap(); // unreachable threshold
        assert_eq!(l.events().len(), 1);
        assert_eq!(
            l.events()[0].best_per_generation.len(),
            25,
            "budget exhausted without convergence"
        );
    }
}
