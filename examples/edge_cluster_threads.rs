//! Real distributed execution: a cluster of OS threads (one per edge
//! agent) runs CLAN_DDS generations — distributed inference *and*
//! distributed reproduction — with genuine message passing, and the
//! result is bit-identical to a serial run: the order-independent RNG
//! makes CLAN's distribution correct by construction.
//!
//! (In Rust, unlike the paper's interpreted Python, reproduction costs
//! about as much wall-clock as inference, so the DDS protocol is the one
//! that parallelizes the whole generation.)
//!
//! ```text
//! cargo run --release --example edge_cluster_threads
//! ```

use clan::core::runtime::EdgeCluster;
use clan::core::transport::ClusterSpec;
use clan::core::{DdsOrchestrator, Evaluator, InferenceMode, Orchestrator};
use clan::distsim::Cluster;
use clan::envs::Workload;
use clan::hw::Platform;
use clan::neat::{NeatConfig, Population, Scratch};
use clan::netsim::WifiModel;
use std::time::Instant;

const GENERATIONS: u64 = 6;
const POP: usize = 256;

fn main() {
    // One agent per available core (capped at the paper's small-swarm
    // scale); with fewer cores than agents the demo still proves protocol
    // correctness, just not wall-clock speedup.
    let agents = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(2, 8);
    // The large Atari-class workload: 128-input genomes make inference
    // heavy enough for thread-level parallelism to pay off.
    let w = Workload::AirRaid;
    let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
        .population_size(POP)
        .build()
        .expect("valid NEAT config");

    println!(
        "== Threaded edge cluster: {agents} agents, {} ==\n",
        w.name()
    );

    // Distributed run over real threads: `DdsOrchestrator` is the
    // generational orchestrator with inference and reproduction placed
    // on the agents, so it ships both `Evaluate` and `BuildChildren`
    // frames through the cluster attached to its evaluator.
    let spec = ClusterSpec::new(w, InferenceMode::MultiStep, cfg.clone());
    let cluster = EdgeCluster::spawn_spec(agents, spec).expect("cluster spawns");
    let mut distributed = DdsOrchestrator::new(
        Population::new(cfg.clone(), 99),
        Evaluator::new(w, InferenceMode::MultiStep).with_remote(cluster),
        Cluster::homogeneous(Platform::raspberry_pi(), agents, WifiModel::default()),
    );
    let t0 = Instant::now();
    for gen in 0..GENERATIONS {
        let report = distributed.step_generation().expect("cluster step");
        println!("gen {gen}: best fitness {:.1}", report.best_fitness);
    }
    let t_dist = t0.elapsed();

    // The same evolution, serially.
    let mut serial = Population::new(cfg.clone(), 99);
    let mut env = w.make();
    let mut scratch = Scratch::new();
    let t0 = Instant::now();
    for _ in 0..GENERATIONS {
        let master = serial.master_seed();
        serial.evaluate(|net, genome| {
            let seed = clan::core::Evaluator::episode_seed(
                master,
                genome.content_hash(),
                1,
                InferenceMode::MultiStep,
            );
            let outcome = clan::envs::run_episode(env.as_mut(), seed, 200, |obs| {
                net.act_argmax_with(obs, &mut scratch)
            });
            clan::neat::population::Evaluation {
                fitness: outcome.total_reward,
                activations: outcome.steps,
            }
        });
        serial.advance_generation();
    }
    let t_serial = t0.elapsed();

    let identical = serial.genomes() == distributed.population().genomes();
    println!("\nserial wall-clock:      {t_serial:?}");
    println!("distributed wall-clock: {t_dist:?} ({agents} threads)");
    println!(
        "speedup: {:.2}x",
        t_serial.as_secs_f64() / t_dist.as_secs_f64()
    );
    println!("populations bit-identical after {GENERATIONS} generations: {identical}");
    assert!(identical, "order-independent RNG must make these equal");
}
