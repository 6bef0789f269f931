//! Criterion benchmarks of one full CLAN generation under each
//! configuration (real compute; simulated cluster time is free).

use clan_core::{ClanDriver, ClanTopology};
use clan_envs::Workload;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("clan_generation_pop48");
    for (name, topo, agents) in [
        ("serial", ClanTopology::serial(), 1usize),
        ("dcs", ClanTopology::dcs(), 4),
        ("dds", ClanTopology::dds(), 4),
        ("dda", ClanTopology::dda(), 4),
    ] {
        group.bench_function(BenchmarkId::new("cartpole", name), |b| {
            b.iter(|| {
                let report = ClanDriver::builder(Workload::CartPole)
                    .topology(topo)
                    .agents(agents)
                    .population_size(48)
                    .seed(7)
                    .build()
                    .expect("valid config")
                    .run(1)
                    .expect("run");
                black_box(report.best_fitness)
            })
        });
    }
    group.finish();
}

fn bench_eval_thread_scaling(c: &mut Criterion) {
    use clan_core::{EngineOptions, Evaluator, InferenceMode, Orchestrator, SerialOrchestrator};
    use clan_distsim::Cluster;
    use clan_hw::Platform;
    use clan_neat::{NeatConfig, Population};
    use clan_netsim::WifiModel;

    // Full-generation throughput at 1/2/4/8 evaluation threads: the
    // trajectories are bit-identical (the `threads-N` rows of
    // tests/determinism_matrix.rs), so this measures pure wall-clock
    // scaling of the Inference block. The orchestrator (and with it every
    // thread's environment and scratch buffers) is built *outside* the
    // timed loop; the scoped threads themselves are spawned and joined
    // once per generation, which is part of what a generation costs.
    let w = Workload::CartPole;
    let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
        .population_size(96)
        .build()
        .unwrap();
    let mut group = c.benchmark_group("generation_pop96_threads");
    for threads in [1usize, 2, 4, 8] {
        let mut orchestrator = SerialOrchestrator::new(
            Population::new(cfg.clone(), 7),
            Evaluator::with_options(
                w,
                InferenceMode::MultiStep,
                1,
                threads,
                EngineOptions::default(),
            ),
            Cluster::homogeneous(Platform::raspberry_pi(), 1, WifiModel::default()),
        );
        group.bench_function(BenchmarkId::new("cartpole", threads), |b| {
            b.iter(|| {
                let report = orchestrator.step_generation().expect("generation");
                black_box(report.best_fitness)
            })
        });
    }
    group.finish();
}

fn bench_threaded_runtime(c: &mut Criterion) {
    use clan_core::runtime::{AgentSource, EdgeCluster};
    use clan_core::transport::ClusterSpec;
    use clan_core::{DcsOrchestrator, Evaluator, InferenceMode, Orchestrator};
    use clan_distsim::Cluster;
    use clan_hw::Platform;
    use clan_neat::{NeatConfig, Population};
    use clan_netsim::WifiModel;

    let w = Workload::CartPole;
    let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
        .population_size(48)
        .build()
        .unwrap();
    let spec = ClusterSpec::new(w, InferenceMode::MultiStep, cfg.clone());
    let cluster = EdgeCluster::from_source(4, spec, AgentSource::Threads).expect("cluster spawns");
    let mut orchestrator = DcsOrchestrator::new(
        Population::new(cfg, 11),
        Evaluator::new(w, InferenceMode::MultiStep).with_remote(cluster),
        Cluster::homogeneous(Platform::raspberry_pi(), 4, WifiModel::default()),
    );
    c.bench_function("threaded_dcs_generation_pop48", |b| {
        b.iter(|| {
            let report = orchestrator.step_generation().expect("step");
            black_box(report.best_fitness)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_generation, bench_eval_thread_scaling, bench_threaded_runtime
}
criterion_main!(benches);
