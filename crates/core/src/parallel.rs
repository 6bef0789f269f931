//! Deterministic parallel evaluation engine: the paper's headline
//! speedup — scaling the Inference block across parallel workers —
//! realized with a persistent `std::thread` pool on one host.
//!
//! # Determinism contract
//!
//! A genome's evaluation depends only on `(genome content,
//! master_seed)`: the episode seed is derived exactly as
//! [`Evaluator::episode_seed`] derives it on the serial path, every
//! worker owns a private [`Environment`](clan_envs::Environment) reset from that seed, and
//! results are merged back in genome-id order. Fitness, `CostCounters`,
//! and therefore the entire downstream evolutionary trajectory are
//! bit-identical to a serial run at any thread count — asserted by
//! `tests/equivalence.rs`.
//!
//! Workers mirror the message-passing idiom of
//! [`runtime::EdgeCluster`](crate::runtime::EdgeCluster): one OS thread
//! per worker, `mpsc` channels, shards scattered and gathered per
//! generation. Each worker holds its own environment instance and
//! [`Scratch`](clan_neat::Scratch) buffers (inside its [`Evaluator`]), so the per-step hot
//! loop performs no heap allocation and no cross-thread synchronization.
//! Genomes are cloned into the shard messages — deliberate: a persistent
//! pool owns its inputs (no lifetime coupling to the population), and
//! the clone mirrors the genome transfer a real CLAN deployment performs
//! anyway; episode rollouts dominate the clone cost on every workload
//! bigger than a dying CartPole genome.

use crate::evaluator::{EngineOptions, Evaluator, InferenceMode};
use clan_envs::Workload;
use clan_neat::population::Evaluation;
use clan_neat::{Genome, GenomeId, NeatConfig, Population};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One genome's evaluation plus the compiled network's per-activation
/// gene cost (needed for the paper's inference accounting).
pub type GenomeEvaluation = (GenomeId, Evaluation, u64);

struct EvaluateJob {
    genomes: Vec<Genome>,
    /// Shared, not cloned per worker: the config is invariant across a
    /// generation (only the I/O dimensions matter for compilation).
    cfg: Arc<NeatConfig>,
    generation: u64,
    master_seed: u64,
}

enum Request {
    Evaluate(Box<EvaluateJob>),
    Shutdown,
}

struct Worker {
    tx: Sender<Request>,
    rx: Receiver<Vec<GenomeEvaluation>>,
    handle: Option<JoinHandle<()>>,
}

/// A persistent pool of evaluation workers.
///
/// Spawned once and reused across generations (thread startup is not
/// paid per generation). Dropping the pool shuts the workers down.
pub struct ParallelEvaluator {
    workers: Vec<Worker>,
    workload: Workload,
    mode: InferenceMode,
    episodes: u32,
    options: EngineOptions,
}

impl std::fmt::Debug for ParallelEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelEvaluator")
            .field("threads", &self.workers.len())
            .field("workload", &self.workload)
            .field("mode", &self.mode)
            .field("episodes", &self.episodes)
            .field("options", &self.options)
            .finish()
    }
}

impl ParallelEvaluator {
    /// Spawns `threads` persistent evaluation workers for `workload`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn spawn(
        workload: Workload,
        mode: InferenceMode,
        episodes: u32,
        threads: usize,
    ) -> ParallelEvaluator {
        // Workers never cache: their coordinator filters cache hits
        // before sharding, so every genome they see is a miss.
        ParallelEvaluator::spawn_with(
            workload,
            mode,
            episodes,
            threads,
            EngineOptions {
                cache: false,
                ..EngineOptions::default()
            },
        )
    }

    /// [`spawn`](Self::spawn) with explicit per-worker [`EngineOptions`]
    /// (batching tier and caching policy inside each worker).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn spawn_with(
        workload: Workload,
        mode: InferenceMode,
        episodes: u32,
        threads: usize,
        options: EngineOptions,
    ) -> ParallelEvaluator {
        assert!(
            threads > 0,
            "a parallel evaluator needs at least one thread"
        );
        let workers = (0..threads)
            .map(|i| {
                let (req_tx, req_rx) = channel::<Request>();
                let (resp_tx, resp_rx) = channel::<Vec<GenomeEvaluation>>();
                let handle = std::thread::Builder::new()
                    .name(format!("clan-eval-{i}"))
                    .spawn(move || worker_loop(req_rx, resp_tx, workload, mode, episodes, options))
                    .expect("spawning evaluation worker");
                Worker {
                    tx: req_tx,
                    rx: resp_rx,
                    handle: Some(handle),
                }
            })
            .collect();
        ParallelEvaluator {
            workers,
            workload,
            mode,
            episodes,
            options,
        }
    }

    /// Number of worker threads.
    pub fn n_threads(&self) -> usize {
        self.workers.len()
    }

    /// The workload workers evaluate on.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Evaluates every genome of `pop` across the pool and returns the
    /// results in genome-id order (episodes seeded exactly as the serial
    /// path seeds them). Does **not** touch the population's fitness or
    /// counters — callers apply the batch so cost accounting happens in
    /// one deterministic place.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread died (only possible if an evaluation
    /// itself panicked).
    pub fn evaluate_population(&self, pop: &Population) -> Vec<GenomeEvaluation> {
        let genomes: Vec<Genome> = pop.genomes().values().cloned().collect();
        let results =
            self.evaluate_genomes(genomes, pop.config(), pop.master_seed(), pop.generation());
        debug_assert!(results.windows(2).all(|w| w[0].0 < w[1].0));
        results
    }

    /// Evaluates an explicit genome list across the pool (contiguous
    /// shards in input order, gathered back in worker order), returning
    /// results in input order. This is the subset entry point the cache
    /// filter uses: the coordinator ships only cache misses.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread died (only possible if an evaluation
    /// itself panicked).
    pub fn evaluate_genomes(
        &self,
        genomes: Vec<Genome>,
        cfg: &NeatConfig,
        master_seed: u64,
        generation: u64,
    ) -> Vec<GenomeEvaluation> {
        let total = genomes.len();
        if total == 0 {
            return Vec::new();
        }
        let cfg = Arc::new(cfg.clone());
        let shard_len = total.div_ceil(self.workers.len()).max(1);
        // Scatter contiguous input-ordered shards...
        let mut sent = 0usize;
        let mut genomes = genomes;
        let mut shards: Vec<Vec<Genome>> = Vec::with_capacity(self.workers.len());
        while !genomes.is_empty() {
            let rest = genomes.split_off(shard_len.min(genomes.len()));
            shards.push(std::mem::replace(&mut genomes, rest));
        }
        for (worker, shard) in self.workers.iter().zip(shards) {
            worker
                .tx
                .send(Request::Evaluate(Box::new(EvaluateJob {
                    genomes: shard,
                    cfg: Arc::clone(&cfg),
                    generation,
                    master_seed,
                })))
                .expect("evaluation worker disconnected");
            sent += 1;
        }
        // ...and gather in worker order, which concatenates back to
        // input order.
        let mut results: Vec<GenomeEvaluation> = Vec::with_capacity(total);
        for worker in self.workers.iter().take(sent) {
            results.extend(worker.rx.recv().expect("evaluation worker disconnected"));
        }
        results
    }

    fn shutdown_inner(&mut self) {
        for w in &self.workers {
            let _ = w.tx.send(Request::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
        self.workers.clear();
    }
}

impl Drop for ParallelEvaluator {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(
    rx: Receiver<Request>,
    tx: Sender<Vec<GenomeEvaluation>>,
    workload: Workload,
    mode: InferenceMode,
    episodes: u32,
    options: EngineOptions,
) {
    // Each worker owns one Evaluator: a private environment instance plus
    // private Scratch buffers — the zero-allocation, zero-contention
    // steady state.
    let mut evaluator = Evaluator::with_options(workload, mode, episodes, 1, options);
    while let Ok(req) = rx.recv() {
        match req {
            Request::Evaluate(job) => {
                let results = evaluator.evaluate_genomes(
                    &job.genomes,
                    &job.cfg,
                    job.master_seed,
                    job.generation,
                );
                if tx.send(results).is_err() {
                    return;
                }
            }
            Request::Shutdown => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clan_neat::FeedForwardNetwork;

    fn pop_for(w: Workload, n: usize, seed: u64) -> Population {
        let cfg = clan_neat::NeatConfig::builder(w.obs_dim(), w.n_actions())
            .population_size(n)
            .build()
            .unwrap();
        Population::new(cfg, seed)
    }

    fn pop(n: usize, seed: u64) -> Population {
        pop_for(Workload::CartPole, n, seed)
    }

    #[test]
    fn pool_results_match_serial_evaluator() {
        let pop = pop(17, 3);
        let pool = ParallelEvaluator::spawn(Workload::CartPole, InferenceMode::MultiStep, 1, 4);
        let parallel = pool.evaluate_population(&pop);

        let mut serial_eval = Evaluator::new(Workload::CartPole, InferenceMode::MultiStep);
        let serial: Vec<GenomeEvaluation> = pop
            .genomes()
            .values()
            .map(|g| {
                let net = FeedForwardNetwork::compile(g, pop.config());
                let seed = serial_eval.seed_for(pop.master_seed(), g);
                (
                    g.id(),
                    serial_eval.evaluate(&net, seed),
                    net.genes_per_activation(),
                )
            })
            .collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn results_arrive_in_genome_id_order() {
        let pop = pop(23, 4);
        let pool = ParallelEvaluator::spawn(Workload::CartPole, InferenceMode::MultiStep, 1, 5);
        let results = pool.evaluate_population(&pop);
        assert_eq!(results.len(), 23);
        assert!(results.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn more_threads_than_genomes_is_fine() {
        let pop = pop(3, 5);
        let pool = ParallelEvaluator::spawn(Workload::CartPole, InferenceMode::SingleStep, 1, 8);
        let results = pool.evaluate_population(&pop);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|&(_, e, _)| e.activations == 1));
    }

    #[test]
    fn multi_episode_pools_match_serial_too() {
        let pop = pop_for(Workload::MountainCar, 9, 6);
        let pool = ParallelEvaluator::spawn(Workload::MountainCar, InferenceMode::MultiStep, 3, 2);
        let parallel = pool.evaluate_population(&pop);
        let mut serial_eval =
            Evaluator::with_episodes(Workload::MountainCar, InferenceMode::MultiStep, 3);
        for (id, eval, _) in parallel {
            let g = pop.genome(id).unwrap();
            let net = FeedForwardNetwork::compile(g, pop.config());
            let seed = serial_eval.seed_for(pop.master_seed(), g);
            assert_eq!(eval, serial_eval.evaluate(&net, seed));
        }
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let pool = ParallelEvaluator::spawn(Workload::CartPole, InferenceMode::SingleStep, 1, 2);
        assert_eq!(pool.n_threads(), 2);
        drop(pool); // must not hang or panic
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        ParallelEvaluator::spawn(Workload::CartPole, InferenceMode::MultiStep, 1, 0);
    }
}
