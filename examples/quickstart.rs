//! Quickstart: evolve a CartPole controller with NEAT on one simulated
//! edge device, then inspect what the evolved network looks like.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use clan::core::{ClanDriver, ClanTopology};
use clan::envs::{run_episode, Workload};
use clan::neat::{FeedForwardNetwork, NeatConfig, Population, Scratch};

fn main() {
    // --- Level 1: the one-liner driver API. -----------------------------
    let report = ClanDriver::builder(Workload::CartPole)
        .topology(ClanTopology::serial())
        .population_size(96)
        .seed(42)
        .build()
        .expect("valid configuration")
        .run_until_solved(40)
        .expect("run");

    println!("== CLAN quickstart: {} ==", report.workload);
    println!(
        "{:>4}  {:>8}  {:>7}  {:>10}",
        "gen", "best", "species", "sim time(s)"
    );
    for g in &report.generations {
        println!(
            "{:>4}  {:>8.1}  {:>7}  {:>10.2}",
            g.generation,
            g.best_fitness,
            g.num_species,
            g.timeline.total_s()
        );
    }
    match report.solved_at_generation {
        Some(g) => println!("solved (score >= 195) at generation {g}"),
        None => println!(
            "not solved within the budget (best {:.1})",
            report.best_fitness
        ),
    }

    // --- Level 2: the raw NEAT API, for custom fitness functions. -------
    let w = Workload::CartPole;
    let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
        .population_size(96)
        .build()
        .expect("valid NEAT config");
    let mut pop = Population::new(cfg.clone(), 42);
    let mut env = w.make();
    let mut scratch = Scratch::new();
    for _ in 0..10 {
        pop.evaluate(|net, genome| {
            let outcome = run_episode(env.as_mut(), genome.id().0, 200, |obs| {
                net.act_argmax_with(obs, &mut scratch)
            });
            clan::neat::population::Evaluation {
                fitness: outcome.total_reward,
                activations: outcome.steps,
            }
        });
        pop.advance_generation();
    }
    let champion = pop.best_ever().expect("evaluated population");
    let net = FeedForwardNetwork::compile(champion, &cfg);
    let (hidden, conns) = champion.complexity(&cfg);
    println!(
        "\nchampion genome: fitness {:.1}",
        champion.fitness().unwrap()
    );
    println!("  {hidden} hidden node(s), {conns} connection gene(s)");
    println!(
        "  {} genes touched per activation",
        net.genes_per_activation()
    );
    println!(
        "  total genes processed so far: {}",
        pop.counters().cumulative().total_genes()
    );
}
