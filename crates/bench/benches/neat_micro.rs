//! Criterion microbenchmarks of the NEAT primitives: the per-gene costs
//! that the CLAN cost model abstracts as genes/second.

use clan_core::transport::{decode, encode, WireMessage};
use clan_neat::{FeedForwardNetwork, Genome, GenomeId, NeatConfig, Population, Scratch};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg(inputs: usize, outputs: usize) -> NeatConfig {
    NeatConfig::builder(inputs, outputs).build().unwrap()
}

fn evolved_genome(cfg: &NeatConfig, seed: u64, mutations: u32) -> Genome {
    let mut g = Genome::new_initial(cfg, GenomeId(0), &mut StdRng::seed_from_u64(seed));
    let mut rng = StdRng::seed_from_u64(seed + 1);
    for _ in 0..mutations {
        g.mutate(cfg, &mut rng);
    }
    g
}

fn bench_network_activation(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_activation");
    for (name, inputs, outputs) in [("cartpole", 4, 2), ("lander", 8, 4), ("atari", 128, 18)] {
        let cfg = cfg(inputs, outputs);
        let genome = evolved_genome(&cfg, 7, 30);
        let net = FeedForwardNetwork::compile(&genome, &cfg);
        let obs = vec![0.5; inputs];
        group.bench_function(BenchmarkId::new("activate_into", name), |b| {
            let mut scratch = Scratch::new();
            b.iter(|| black_box(net.activate_into(black_box(&obs), &mut scratch)[0]))
        });
    }
    // The shape the benchmark's Atari workloads run: a freshly seeded
    // 128x18 genome, every input connected to every output.
    let cfg = cfg(128, 18);
    let net = FeedForwardNetwork::compile(&evolved_genome(&cfg, 7, 0), &cfg);
    let obs: Vec<f64> = (0..128).map(|i| f64::from(i % 7) / 7.0).collect();
    group.bench_function(BenchmarkId::new("activate_into", "atari_fresh"), |b| {
        let mut scratch = Scratch::new();
        b.iter(|| black_box(net.activate_into(black_box(&obs), &mut scratch)[0]))
    });
    group.finish();
}

fn bench_genome_ops(c: &mut Criterion) {
    let cfg = cfg(128, 18);
    let a = evolved_genome(&cfg, 1, 30);
    let b2 = evolved_genome(&cfg, 2, 30);
    let mut group = c.benchmark_group("genome_ops");
    group.bench_function("distance_atari", |b| {
        b.iter(|| black_box(a.distance(black_box(&b2), &cfg)))
    });
    group.bench_function("crossover_atari", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(Genome::crossover(&a, &b2, GenomeId(9), &mut rng)))
    });
    group.bench_function("compile_atari", |b| {
        b.iter(|| black_box(FeedForwardNetwork::compile(&a, &cfg)))
    });
    // What a generation pays per genome outside the operators: one copy
    // (and one drop) per elite and per scattered genome, one hash per
    // cache lookup, one encode and one decode per trip over the wire.
    group.bench_function("clone_atari", |b| b.iter(|| black_box(a.clone())));
    group.bench_function("content_hash_atari", |b| {
        b.iter(|| black_box(a.content_hash()))
    });
    let message = WireMessage::Children(vec![a.clone()]);
    let frame = encode(&message);
    group.bench_function("codec_encode_atari", |b| {
        b.iter(|| black_box(encode(black_box(&message))))
    });
    group.bench_function("codec_decode_atari", |b| {
        b.iter(|| black_box(decode(black_box(&frame)).expect("a frame this build encoded")))
    });
    // Seeding: what every run, DDA clan, learning phase and extinction
    // pays before its first evaluation — one genome, then 150.
    group.bench_function("new_initial_atari", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| black_box(Genome::new_initial(&cfg, GenomeId(0), &mut rng)))
    });
    let pop_cfg = NeatConfig::builder(128, 18)
        .population_size(150)
        .build()
        .unwrap();
    group.bench_function("population_new_atari", |b| {
        b.iter(|| black_box(Population::new(pop_cfg.clone(), 5)))
    });
    group.bench_function("mutate_atari", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter_batched(
            || a.clone(),
            |mut g| {
                g.mutate(&cfg, &mut rng);
                black_box(g)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_speciation(c: &mut Criterion) {
    // Speciation + planning + reproduction at the paper's population size.
    let cfg = NeatConfig::builder(8, 4)
        .population_size(150)
        .build()
        .unwrap();
    c.bench_function("full_evolution_phase_pop150", |b| {
        b.iter_batched(
            || {
                let mut pop = Population::new(cfg.clone(), 5);
                pop.evaluate(|_, g| (g.id().0 % 17) as f64);
                pop
            },
            |mut pop| {
                pop.advance_generation();
                black_box(pop.generation())
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_network_activation, bench_genome_ops, bench_speciation
}
criterion_main!(benches);
