//! End-to-end learning: NEAT actually solves tasks through the full
//! CLAN stack, and the continuous-learning loop recovers from
//! environment shifts.

use clan::core::{ClanDriver, ClanTopology, ContinuousLearner, MonitorConfig};
use clan::envs::cartpole::{CartPole, CartPoleParams};
use clan::envs::Workload;
use clan::neat::{NeatConfig, Population, Scratch};

#[test]
fn neat_solves_xor() {
    // The classic NEAT benchmark: XOR needs at least one hidden node, so
    // solving it proves structural evolution works end to end.
    // NEAT solves XOR on a healthy fraction of seeds given enough
    // generations (6/24 seeds within 120 in the latest calibration scan
    // against the vendored RNG); the test pins a fast seed so it stays
    // deterministic and quick.
    let cfg = NeatConfig::builder(2, 1)
        .population_size(150)
        .build()
        .expect("config");
    let mut pop = Population::new(cfg, 5);
    let cases = [
        ([0.0, 0.0], 0.0),
        ([0.0, 1.0], 1.0),
        ([1.0, 0.0], 1.0),
        ([1.0, 1.0], 0.0),
    ];
    let mut best = f64::NEG_INFINITY;
    let mut scratch = Scratch::new();
    for _ in 0..120 {
        pop.evaluate(|net, _| {
            let mut fitness = 4.0;
            for (inputs, want) in &cases {
                let got = net.activate_into(inputs, &mut scratch)[0];
                fitness -= (got - want) * (got - want);
            }
            fitness
        });
        let summary = pop.advance_generation();
        best = best.max(summary.best_fitness);
        if best > 3.8 {
            break;
        }
    }
    assert!(best > 3.5, "XOR should be (nearly) solved, best {best:.3}");
}

#[test]
fn cartpole_solved_through_the_driver() {
    let report = ClanDriver::builder(Workload::CartPole)
        .topology(ClanTopology::dcs())
        .agents(4)
        .population_size(96)
        .seed(11)
        .build()
        .expect("config")
        .run_until_solved(30)
        .expect("run");
    assert!(
        report.solved_at_generation.is_some(),
        "CartPole should solve within 30 generations, best {:.1}",
        report.best_fitness
    );
}

#[test]
fn async_steady_state_matches_the_sync_baseline() {
    // The statistical-convergence gate for the barrier-free mode: a
    // seeded async virtual-time run must reach the same solved
    // threshold the generational baseline above clears (CartPole
    // solves at 195), within a pinned evaluation budget comparable to
    // the sync test's 30 generations x 96 genomes.
    let outcome = ClanDriver::builder(Workload::CartPole)
        .agents(4)
        .population_size(96)
        .seed(11)
        .total_evals(2400)
        .tournament_size(3)
        .build_async()
        .expect("config")
        .run()
        .expect("run");
    let report = &outcome.report;
    let stats = report.asynchronous.as_ref().expect("async stats");
    assert_eq!(stats.total_evals, 2400);
    assert!(
        report.best_fitness >= 195.0,
        "async steady-state must reach the sync solved threshold \
         within 2400 evals, best {:.1}",
        report.best_fitness
    );
    assert!(
        report.solved_at_generation.is_some(),
        "clearing the threshold must mark the run solved"
    );
}

#[test]
fn dda_also_learns_not_just_scales() {
    let report = ClanDriver::builder(Workload::CartPole)
        .topology(ClanTopology::dda())
        .agents(4)
        .population_size(96)
        .seed(12)
        .build()
        .expect("config")
        .run_until_solved(40)
        .expect("run");
    assert!(
        report.best_fitness >= 150.0,
        "clan-local evolution must still make progress, best {:.1}",
        report.best_fitness
    );
}

#[test]
fn fitness_improves_monotonically_in_trend() {
    // Not per-generation monotone (evolution is stochastic), but the
    // last-quarter mean must beat the first-quarter mean.
    let report = ClanDriver::builder(Workload::LunarLander)
        .population_size(100)
        .seed(13)
        .episodes_per_eval(2)
        .build()
        .expect("config")
        .run(16)
        .expect("run");
    let bests: Vec<f64> = report.generations.iter().map(|g| g.best_fitness).collect();
    let quarter = bests.len() / 4;
    let early: f64 = bests[..quarter].iter().sum::<f64>() / quarter as f64;
    let late: f64 = bests[bests.len() - quarter..].iter().sum::<f64>() / quarter as f64;
    assert!(
        late > early,
        "learning trend should be positive: early {early:.1} late {late:.1}"
    );
}

#[test]
fn continuous_loop_detects_shift_and_recovers() {
    let cfg = NeatConfig::builder(4, 2)
        .population_size(64)
        .build()
        .expect("config");
    let mut learner = ContinuousLearner::new(
        cfg,
        MonitorConfig {
            probe_episodes: 3,
            max_steps: 200,
            max_learning_generations: 25,
        },
        21,
    );
    let mut env = CartPole::new();
    let first = learner.encounter_task(&mut env, 100.0).expect("first task");
    assert!(first.triggered_learning, "no expert yet -> must learn");
    assert!(learner.expert().is_some());

    // A drastic physics change; if the monitor sees degradation it must
    // re-learn, and in either case the deployed expert must end healthy.
    let mut shifted = CartPole::with_params(CartPoleParams {
        gravity: 15.0,
        pole_half_length: 2.5,
        force_mag: 4.0,
    });
    let outcome = learner
        .encounter_task(&mut shifted, 100.0)
        .expect("shifted task");
    if outcome.triggered_learning {
        assert!(outcome.learning_generations >= 1);
    }
    assert!(
        outcome.final_fitness >= outcome.initial_fitness.unwrap_or(f64::NEG_INFINITY),
        "deployed expert must never get worse: {outcome:?}"
    );
}

#[test]
fn accuracy_cost_of_clans_visible_at_16() {
    // A cheap echo of Figure 7b with the bench's exact parameters:
    // speciating 16 independent clans must not beat one global
    // population. (3 seeds; the full 10-run study lives in fig7.)
    let gens_to_solve = |clans: usize, seed: u64| -> u64 {
        let topo = if clans == 1 {
            ClanTopology::serial()
        } else {
            ClanTopology::dda()
        };
        let r = ClanDriver::builder(Workload::LunarLander)
            .topology(topo)
            .agents(clans)
            .population_size(150)
            .episodes_per_eval(3)
            .seed(seed)
            .build()
            .expect("config")
            .run_until_solved(40)
            .expect("run");
        r.generations
            .iter()
            .find(|g| g.best_fitness >= 200.0)
            .map(|g| g.generation + 1)
            .unwrap_or(40)
    };
    let global: u64 = (0..3).map(|s| gens_to_solve(1, 99 + 1000 * s)).sum();
    let sixteen: u64 = (0..3).map(|s| gens_to_solve(16, 99 + 1000 * s)).sum();
    assert!(
        sixteen + 5 >= global,
        "16 clans should not be meaningfully faster: {sixteen} vs {global}"
    );
}
