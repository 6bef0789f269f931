//! The deployment workflow of the paper's Figure 1, end to end:
//! evolve → persist the expert → restore it on a "different device" →
//! verify identical behaviour → resume learning from a population
//! checkpoint.

use clan::envs::{run_episode, Environment, EpisodeOutcome, Workload};
use clan::neat::checkpoint::{
    genome_from_json, genome_to_json, population_from_json, population_to_json,
};
use clan::neat::population::Evaluation;
use clan::neat::{genome_to_dot, FeedForwardNetwork, NeatConfig, Population, Scratch};

/// One 200-step argmax-policy episode of `net` on `env`.
fn play(net: &FeedForwardNetwork, env: &mut dyn Environment, seed: u64) -> EpisodeOutcome {
    let mut scratch = Scratch::new();
    run_episode(env, seed, 200, |obs| net.act_argmax_with(obs, &mut scratch))
}

/// Evaluates every genome by one episode seeded with its id.
fn evaluate(pop: &mut Population, env: &mut dyn Environment) {
    pop.evaluate(|net, genome| {
        let out = play(net, env, genome.id().0);
        Evaluation {
            fitness: out.total_reward,
            activations: out.steps,
        }
    });
}

fn evolve(generations: u64) -> (NeatConfig, Population) {
    let w = Workload::CartPole;
    let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
        .population_size(48)
        .build()
        .expect("config");
    let mut pop = Population::new(cfg.clone(), 77);
    let mut env = w.make();
    for _ in 0..generations {
        evaluate(&mut pop, env.as_mut());
        pop.advance_generation();
    }
    (cfg, pop)
}

#[test]
fn deployed_expert_behaves_identically_after_restore() {
    let (cfg, pop) = evolve(6);
    let expert = pop.best_ever().expect("evolved champion");

    let json = genome_to_json(expert).expect("serialize");
    let restored = genome_from_json(&json).expect("deserialize");
    assert_eq!(*expert, restored);

    // Same behaviour on a fresh environment, step by step.
    let original_net = FeedForwardNetwork::compile(expert, &cfg);
    let restored_net = FeedForwardNetwork::compile(&restored, &cfg);
    let mut env_a = Workload::CartPole.make();
    let mut env_b = Workload::CartPole.make();
    let out_a = play(&original_net, env_a.as_mut(), 5);
    let out_b = play(&restored_net, env_b.as_mut(), 5);
    assert_eq!(out_a, out_b);
}

#[test]
fn learning_resumes_identically_from_population_checkpoint() {
    let (_, mut original) = evolve(3);
    let snapshot = population_to_json(&original).expect("serialize");
    let mut resumed = population_from_json(&snapshot).expect("deserialize");

    let mut env_a = Workload::CartPole.make();
    let mut env_b = Workload::CartPole.make();
    for _ in 0..3 {
        evaluate(&mut original, env_a.as_mut());
        original.advance_generation();
        evaluate(&mut resumed, env_b.as_mut());
        resumed.advance_generation();
    }
    assert_eq!(
        original.genomes(),
        resumed.genomes(),
        "resumed evolution must be bit-identical"
    );
}

#[test]
fn champion_exports_to_dot() {
    let (cfg, pop) = evolve(4);
    let expert = pop.best_ever().expect("champion");
    let dot = genome_to_dot(expert, &cfg);
    assert!(dot.contains("digraph"));
    assert!(dot.matches(" -> ").count() >= 1);
}
