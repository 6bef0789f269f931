//! Genome evaluation on workloads: the Inference block.
//!
//! Every CLAN configuration evaluates genomes the same way — compile the
//! genome, drive the environment with the argmax policy, accumulate
//! reward for up to 200 timesteps (the paper's cap). Figures 8–10 also
//! use a *single-step* mode that activates each genome once per
//! generation, modeling deployments (e.g. robotics) where repeated
//! multi-step rollouts per generation are unavailable (§IV-D).

use crate::runtime::EdgeCluster;
use crate::transport::WireEvaluation;
use clan_envs::{run_episode, Environment, Workload};
use clan_neat::cache::CachedEvaluation;
use clan_neat::fanout::fan_out;
use clan_neat::population::Evaluation;
use clan_neat::rng::{derive_seed, OpTag};
use clan_neat::{
    FeedForwardNetwork, FitnessCache, Genome, GenomeId, NeatConfig, NeatError, Population, Scratch,
};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// How many environment steps each genome gets per generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InferenceMode {
    /// Full episodes capped at the workload's step limit (paper default).
    MultiStep,
    /// One activation per genome per generation (§IV-D's stress mode).
    SingleStep,
}

impl InferenceMode {
    /// The step cap this mode imposes for `workload`.
    pub fn max_steps(self, workload: Workload) -> u64 {
        match self {
            InferenceMode::MultiStep => workload.max_steps(),
            InferenceMode::SingleStep => 1,
        }
    }

    /// Stable tag folded into episode seeds so the two modes never share
    /// an episode stream for the same genome content.
    pub(crate) fn seed_tag(self) -> u64 {
        match self {
            InferenceMode::MultiStep => 0,
            InferenceMode::SingleStep => 1,
        }
    }
}

/// Tuning knobs for the evaluation engine: the content-addressed
/// fitness cache, on by default, which changes no evaluated bit — only
/// how fast the identical result is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EngineOptions {
    /// Lanes of the SoA bank the benchmark's `batch.activate_ns_per_lane`
    /// probe builds. The engine does not read it: every genome runs
    /// through [`FeedForwardNetwork::activate_into`].
    pub batch_lanes: usize,
    /// Whether to memoize evaluations by `(master_seed, content hash)`,
    /// so elites and unmutated survivors skip re-evaluation entirely.
    pub cache: bool,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            batch_lanes: 32,
            cache: true,
        }
    }
}

/// The one hit/miss/insert sequence of the content-addressed fitness
/// cache, shared by every surface that fields lookups (the local
/// evaluator and the coordinator side of an [`EdgeCluster`]):
/// [`split`](CacheFilter::split) serves the hits and
/// hands back the misses, the caller evaluates those however it likes,
/// and [`merge`](CacheFilter::merge) memoizes the fresh results and
/// restores input order. With no cache every genome is a miss and
/// nothing is memoized.
pub(crate) struct CacheFilter {
    /// One slot per submitted genome, filled for hits.
    out: Vec<Option<WireEvaluation>>,
    /// `(input index, content hash)` of each miss, in input order.
    misses: Vec<(usize, u64)>,
}

impl CacheFilter {
    /// Looks every genome up under `(master_seed, content hash)`, in
    /// input order; returns the filter holding the hits plus the missed
    /// genomes, hash first (episode seeds derive from it), in input order.
    pub(crate) fn split<'g>(
        mut cache: Option<&mut FitnessCache>,
        master_seed: u64,
        hashed: impl IntoIterator<Item = (u64, &'g Genome)>,
    ) -> (CacheFilter, Vec<(u64, &'g Genome)>) {
        let mut filter = CacheFilter {
            out: Vec::new(),
            misses: Vec::new(),
        };
        let mut missed = Vec::new();
        for (i, (hash, g)) in hashed.into_iter().enumerate() {
            let hit = cache
                .as_mut()
                .and_then(|c| c.lookup(master_seed, hash))
                .map(|c| (g.id(), c.evaluation, c.genes_per_activation));
            if hit.is_none() {
                filter.misses.push((i, hash));
                missed.push((hash, g));
            }
            filter.out.push(hit);
        }
        (filter, missed)
    }

    /// [`split`](CacheFilter::split) for a whole population: the content
    /// hashes come from all the caller's cores ([`fan_out`]), the lookups run
    /// serially in id order — hits, misses, cache window as in a serial pass.
    pub(crate) fn split_population<'g>(
        cache: Option<&mut FitnessCache>,
        pop: &'g Population,
    ) -> (CacheFilter, Vec<(u64, &'g Genome)>) {
        let genomes: Vec<&Genome> = pop.genomes().values().collect();
        let genes = genomes.iter().map(|g| g.num_genes()).sum();
        let hashes = fan_out(&genomes, genes, |g| g.content_hash());
        CacheFilter::split(cache, pop.master_seed(), hashes.into_iter().zip(genomes))
    }

    /// Memoizes `fresh` — the misses' evaluations, in the order
    /// [`split`](CacheFilter::split) returned them — and returns every
    /// submitted genome's evaluation in input order.
    pub(crate) fn merge(
        mut self,
        mut cache: Option<&mut FitnessCache>,
        master_seed: u64,
        fresh: Vec<WireEvaluation>,
    ) -> Vec<WireEvaluation> {
        debug_assert_eq!(fresh.len(), self.misses.len());
        for (&(i, hash), result) in self.misses.iter().zip(fresh) {
            if let Some(c) = cache.as_mut() {
                c.insert(
                    master_seed,
                    hash,
                    CachedEvaluation {
                        evaluation: result.1,
                        genes_per_activation: result.2,
                    },
                );
            }
            self.out[i] = Some(result);
        }
        self.out
            .into_iter()
            .map(|o| o.expect("every genome is a hit or an evaluated miss"))
            .collect()
    }
}

/// What one thread needs to run episodes: the episode plan, an
/// environment and the [`Scratch`] buffers (no heap allocation per
/// step). No cache — the [`Evaluator`] serves the hits before an engine
/// sees a genome.
struct Engine {
    workload: Workload,
    mode: InferenceMode,
    episodes: u32,
    env: Box<dyn Environment>,
    scratch: Scratch,
}

/// Evaluates genomes on one workload: the content-addressed fitness
/// cache in front of one engine per evaluation thread.
///
/// Constructed with several threads by
/// [`with_options`](Evaluator::with_options) (a driver with no agents
/// asks for the cores its population's genes repay), the orchestrators'
/// partitioned evaluation runs each generation's cache misses on that
/// many scoped threads (the caller's included), still bit-identical to
/// the one-thread path.
///
/// Attached to an [`EdgeCluster`] with
/// [`with_remote`](Evaluator::with_remote), the evaluator instead ships
/// genomes to real agents (threads, loopback TCP sockets, or remote
/// devices) and replays the results locally — still bit-identical,
/// because episode seeds derive from `(master_seed, genome content
/// hash)` no matter where inference runs.
pub struct Evaluator {
    /// The calling thread's engine.
    engine: Engine,
    /// One more engine per extra evaluation thread.
    extra: Vec<Engine>,
    cache: Option<FitnessCache>,
    remote: Option<EdgeCluster>,
    /// Telemetry handle (no-op unless the driver installs a live one);
    /// shared with the attached cluster so runtime timing events land
    /// in the same stream as the orchestrators' logical events.
    tracer: crate::telemetry::Tracer,
}

impl std::fmt::Debug for Evaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator")
            .field("workload", &self.engine.workload)
            .field("mode", &self.engine.mode)
            .field("threads", &(1 + self.extra.len()))
            .finish_non_exhaustive()
    }
}

impl Evaluator {
    /// Creates an evaluator for `workload` in `mode`, scoring each genome
    /// on a single episode.
    pub fn new(workload: Workload, mode: InferenceMode) -> Evaluator {
        Evaluator::with_episodes(workload, mode, 1)
    }

    /// Creates an evaluator that scores each genome as the *mean* over
    /// `episodes` episodes (distinct seeds). Averaging removes
    /// single-episode luck, which matters for convergence studies like
    /// the paper's Figure 7(b).
    ///
    /// # Panics
    ///
    /// Panics if `episodes` is zero.
    pub fn with_episodes(workload: Workload, mode: InferenceMode, episodes: u32) -> Evaluator {
        Evaluator::with_options(workload, mode, episodes, 1, EngineOptions::default())
    }

    /// The general constructor: episodes, evaluation threads, and
    /// explicit [`EngineOptions`]. Caching changes wall-clock only —
    /// results are bit-identical with it on or off.
    ///
    /// # Panics
    ///
    /// Panics if `episodes` is zero.
    pub fn with_options(
        workload: Workload,
        mode: InferenceMode,
        episodes: u32,
        threads: usize,
        options: EngineOptions,
    ) -> Evaluator {
        assert!(episodes > 0, "an evaluation needs at least one episode");
        let engine = || Engine {
            workload,
            mode,
            episodes,
            env: workload.make(),
            scratch: Scratch::new(),
        };
        Evaluator {
            engine: engine(),
            extra: (1..threads).map(|_| engine()).collect(),
            cache: options.cache.then(FitnessCache::new),
            remote: None,
            tracer: crate::telemetry::Tracer::default(),
        }
    }

    /// Attaches a real agent cluster: all partitioned evaluation runs
    /// over its transport instead of locally. Results stay bit-identical
    /// to the serial path — only where the episodes execute changes.
    ///
    /// A remote cluster takes precedence over local evaluation threads.
    pub fn with_remote(mut self, cluster: EdgeCluster) -> Evaluator {
        self.attach(cluster);
        self
    }

    /// [`with_remote`](Self::with_remote) in place, sharing the installed
    /// tracer with `cluster`.
    pub(crate) fn attach(&mut self, mut cluster: EdgeCluster) {
        if self.tracer.is_enabled() {
            cluster.set_tracer(self.tracer.clone());
        }
        self.remote = Some(cluster);
    }

    /// Installs a telemetry handle, sharing it with the attached
    /// cluster (present or future) so runtime timing events join the
    /// same stream. The default handle is disabled and records nothing.
    pub fn set_tracer(&mut self, tracer: crate::telemetry::Tracer) {
        self.tracer = tracer.clone();
        if let Some(c) = self.remote.as_mut() {
            c.set_tracer(tracer);
        }
    }

    /// The installed telemetry handle (disabled by default).
    pub fn tracer(&self) -> &crate::telemetry::Tracer {
        &self.tracer
    }

    /// Mutable access to the attached agent cluster: how the
    /// orchestrators scatter work over it, and the hook for elastic
    /// operations between generations (admitting a new agent, reviving
    /// a dead slot, inspecting membership).
    pub fn remote_cluster_mut(&mut self) -> Option<&mut EdgeCluster> {
        self.remote.as_mut()
    }

    /// The attached cluster's transport ledger (measured wire traffic),
    /// when a cluster is attached.
    pub fn remote_ledger(&self) -> Option<&clan_netsim::CommLedger> {
        self.remote.as_ref().map(EdgeCluster::ledger)
    }

    /// The attached cluster's measured scatter/gather timing, when a
    /// cluster is attached.
    pub fn remote_gather_stats(&self) -> Option<crate::runtime::GatherStats> {
        self.remote.as_ref().map(EdgeCluster::gather_stats)
    }

    /// The attached cluster's churn-recovery accounting, when a cluster
    /// is attached.
    pub fn remote_recovery_stats(&self) -> Option<crate::membership::RecoveryStats> {
        self.remote.as_ref().map(EdgeCluster::recovery_stats)
    }

    /// The attached cluster's per-agent rows (health, traffic, work,
    /// failures); empty without a cluster.
    pub fn remote_agent_stats(&self) -> &[crate::membership::AgentStats] {
        self.remote.as_ref().map_or(&[], EdgeCluster::agents)
    }

    /// Agents in the attached cluster (0 = local evaluation).
    pub fn remote_agents(&self) -> usize {
        self.remote.as_ref().map_or(0, EdgeCluster::n_agents)
    }

    /// Episodes averaged per evaluation.
    pub fn episodes(&self) -> u32 {
        self.engine.episodes
    }

    /// The workload being evaluated.
    pub fn workload(&self) -> Workload {
        self.engine.workload
    }

    /// The inference mode in force.
    pub fn mode(&self) -> InferenceMode {
        self.engine.mode
    }

    /// Deterministic episode seed for a genome: derived from the run's
    /// master seed, the genome's *content* hash, and the episode plan
    /// (episode count + inference mode) — never from the genome's id,
    /// its generation, or where it is evaluated.
    ///
    /// Content-based seeding is what makes the fitness cache sound by
    /// construction: identical genome content always replays identical
    /// episodes, so a cached fitness is bit-identical to a fresh run —
    /// including for elites re-submitted in later generations under new
    /// ids. The episode plan is folded in so `MultiStep`/`SingleStep`
    /// runs (or different episode counts) never share a stream.
    pub fn episode_seed(
        master_seed: u64,
        content_hash: u64,
        episodes: u32,
        mode: InferenceMode,
    ) -> u64 {
        derive_seed(
            master_seed,
            &[
                content_hash,
                episodes as u64,
                mode.seed_tag(),
                OpTag::Environment as u64,
            ],
        )
    }

    /// Evaluates a batch of genomes exactly as the serial path would:
    /// consult the fitness cache, compile the misses, derive each episode
    /// seed from `(master_seed, content_hash, episode plan)`, run the
    /// episodes, and report the compiled network's per-activation gene
    /// cost. Every evaluation thread and every agent session runs the
    /// same uncached core, so the determinism contract lives in one piece
    /// of code. Results come back in input order.
    ///
    /// `generation` is unused (seeds are content-based); it stays in the
    /// signature because the wire protocol carries it.
    pub fn evaluate_genomes(
        &mut self,
        genomes: &[Genome],
        cfg: &NeatConfig,
        master_seed: u64,
        generation: u64,
    ) -> Vec<(GenomeId, Evaluation, u64)> {
        let _ = generation;
        let hashed = genomes.iter().map(|g| (g.content_hash(), g));
        let (filter, misses) = CacheFilter::split(self.cache.as_mut(), master_seed, hashed);
        let fresh = self
            .evaluate_uncached(misses.into_iter(), cfg, master_seed)
            .unwrap_or_else(|e| panic!("genome invariant broken: {e}"));
        filter.merge(self.cache.as_mut(), master_seed, fresh)
    }

    /// [`Engine::evaluate_uncached`] on the calling thread — an agent
    /// session's whole evaluation.
    pub(crate) fn evaluate_uncached<G: Borrow<Genome>>(
        &mut self,
        genomes: impl Iterator<Item = (u64, G)>,
        cfg: &NeatConfig,
        master_seed: u64,
    ) -> Result<Vec<WireEvaluation>, NeatError> {
        self.engine.evaluate_uncached(genomes, cfg, master_seed)
    }

    /// Evaluates the whole population locally, cache hits served first:
    /// the misses — borrowed, never cloned — run as contiguous id-ordered
    /// chunks, one per engine on scoped threads (the caller takes the
    /// first), and concatenate back in genome-id order. A spare engine
    /// stays idle rather than spawn a thread with no miss of its own.
    pub(crate) fn evaluate_population_local(&mut self, pop: &Population) -> Vec<WireEvaluation> {
        let master_seed = pop.master_seed();
        let (filter, misses) = CacheFilter::split_population(self.cache.as_mut(), pop);
        let spawn = self.extra.len().min(misses.len().saturating_sub(1));
        let mut chunks = misses.chunks(misses.len().div_ceil(1 + spawn).max(1));
        let own = chunks.next().unwrap_or_default();
        let fresh = std::thread::scope(|s| {
            let run = |engine: &mut Engine, chunk: &[(u64, &Genome)]| {
                engine
                    .evaluate_uncached(chunk.iter().copied(), pop.config(), master_seed)
                    .unwrap_or_else(|e| panic!("genome invariant broken: {e}"))
            };
            let spawned: Vec<_> = chunks
                .zip(&mut self.extra)
                .map(|(chunk, engine)| s.spawn(move || run(engine, chunk)))
                .collect();
            let mut out = run(&mut self.engine, own);
            for worker in spawned {
                match worker.join() {
                    Ok(part) => out.extend(part),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            out
        });
        filter.merge(self.cache.as_mut(), master_seed, fresh)
    }

    /// Drains and returns this generation's fitness-cache `(hits,
    /// lookups)` window, summed over the local cache and the attached
    /// agent cluster's coordinator-side cache (if any).
    pub fn take_cache_window(&mut self) -> (u64, u64) {
        let (mut hits, mut lookups) = self
            .cache
            .as_mut()
            .map_or((0, 0), FitnessCache::take_window);
        if let Some(cluster) = self.remote.as_mut() {
            let (h, l) = cluster.take_cache_window();
            hits += h;
            lookups += l;
        }
        (hits, lookups)
    }

    /// Runs the configured number of episodes and returns the mean
    /// fitness with the summed activation count.
    pub fn evaluate(&mut self, net: &FeedForwardNetwork, episode_seed: u64) -> Evaluation {
        self.engine.evaluate(net, episode_seed)
    }
}

impl Engine {
    /// Compiles (once — the only compilation a genome gets) and runs
    /// `genomes` (content hashes alongside); results in input order. An
    /// owned genome — an agent session's — is dropped as soon as it is
    /// compiled, so a request never sits in memory beside its networks.
    ///
    /// # Errors
    ///
    /// [`NeatError::InvalidGenome`] from
    /// [`FeedForwardNetwork::try_compile`], before any episode runs.
    fn evaluate_uncached<G: Borrow<Genome>>(
        &mut self,
        genomes: impl Iterator<Item = (u64, G)>,
        cfg: &NeatConfig,
        master_seed: u64,
    ) -> Result<Vec<WireEvaluation>, NeatError> {
        let (mut ids, mut nets, mut seeds) = (Vec::new(), Vec::new(), Vec::new());
        let (episodes, mode) = (self.episodes, self.mode);
        for (hash, g) in genomes {
            nets.push(FeedForwardNetwork::try_compile(g.borrow(), cfg)?);
            seeds.push(Evaluator::episode_seed(master_seed, hash, episodes, mode));
            ids.push(g.borrow().id());
        }
        let evals = self.run_misses(&nets, &seeds);
        Ok(ids
            .into_iter()
            .zip(evals)
            .zip(&nets)
            .map(|((id, eval), net)| (id, eval, net.genes_per_activation()))
            .collect())
    }

    /// Runs every network's episodes, one network after another, each
    /// step through [`FeedForwardNetwork::activate_into`]; returns
    /// evaluations in `nets` order.
    fn run_misses(&mut self, nets: &[FeedForwardNetwork], seeds: &[u64]) -> Vec<Evaluation> {
        nets.iter()
            .zip(seeds)
            .map(|(net, &seed)| self.evaluate(net, seed))
            .collect()
    }

    /// Runs the configured number of episodes and returns the mean
    /// fitness with the summed activation count.
    fn evaluate(&mut self, net: &FeedForwardNetwork, episode_seed: u64) -> Evaluation {
        let max_steps = self.mode.max_steps(self.workload);
        let mut total_reward = 0.0;
        let mut activations = 0;
        let episodes = self.episodes;
        // Split borrows: the policy closure reuses this engine's
        // scratch buffers while the environment steps — zero allocations
        // per timestep.
        let Engine { env, scratch, .. } = self;
        for ep in 0..episodes {
            let seed = if episodes == 1 {
                episode_seed
            } else {
                derive_seed(episode_seed, &[ep as u64])
            };
            let outcome = run_episode(env.as_mut(), seed, max_steps, |obs| {
                net.act_argmax_with(obs, scratch)
            });
            total_reward += outcome.total_reward;
            activations += outcome.steps;
        }
        Evaluation {
            fitness: total_reward / episodes as f64,
            activations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clan_neat::{Genome, NeatConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net_for(workload: Workload, seed: u64) -> (NeatConfig, FeedForwardNetwork) {
        let cfg = NeatConfig::builder(workload.obs_dim(), workload.n_actions())
            .build()
            .unwrap();
        let g = Genome::new_initial(&cfg, GenomeId(0), &mut StdRng::seed_from_u64(seed));
        let net = FeedForwardNetwork::compile(&g, &cfg);
        (cfg, net)
    }

    #[test]
    fn multi_step_runs_up_to_cap() {
        let (_, net) = net_for(Workload::CartPole, 1);
        let mut ev = Evaluator::new(Workload::CartPole, InferenceMode::MultiStep);
        let e = ev.evaluate(&net, 42);
        assert!(e.activations >= 1 && e.activations <= 200);
        assert_eq!(e.fitness, e.activations as f64);
    }

    #[test]
    fn single_step_is_one_activation() {
        let (_, net) = net_for(Workload::AirRaid, 2);
        let mut ev = Evaluator::new(Workload::AirRaid, InferenceMode::SingleStep);
        let e = ev.evaluate(&net, 42);
        assert_eq!(e.activations, 1);
    }

    #[test]
    fn same_seed_same_outcome() {
        let (_, net) = net_for(Workload::LunarLander, 3);
        let mut a = Evaluator::new(Workload::LunarLander, InferenceMode::MultiStep);
        let mut b = Evaluator::new(Workload::LunarLander, InferenceMode::MultiStep);
        assert_eq!(a.evaluate(&net, 7), b.evaluate(&net, 7));
    }

    #[test]
    fn episode_seed_varies_by_content_and_plan() {
        let base = Evaluator::episode_seed(1, 0xA, 1, InferenceMode::MultiStep);
        // Different genome content, master seed, episode count, or mode
        // each select a distinct episode stream...
        assert_ne!(
            base,
            Evaluator::episode_seed(1, 0xB, 1, InferenceMode::MultiStep)
        );
        assert_ne!(
            base,
            Evaluator::episode_seed(2, 0xA, 1, InferenceMode::MultiStep)
        );
        assert_ne!(
            base,
            Evaluator::episode_seed(1, 0xA, 3, InferenceMode::MultiStep)
        );
        assert_ne!(
            base,
            Evaluator::episode_seed(1, 0xA, 1, InferenceMode::SingleStep)
        );
        // ...and the derivation is stable: same content, same episodes,
        // regardless of generation or genome id (neither is an input).
        assert_eq!(
            base,
            Evaluator::episode_seed(1, 0xA, 1, InferenceMode::MultiStep)
        );
    }

    #[test]
    fn cache_hits_are_bit_identical_and_counted() {
        let workload = Workload::CartPole;
        let cfg = NeatConfig::builder(workload.obs_dim(), workload.n_actions())
            .build()
            .unwrap();
        let genomes: Vec<Genome> = (0..6)
            .map(|s| Genome::new_initial(&cfg, GenomeId(s), &mut StdRng::seed_from_u64(s)))
            .collect();
        let mut ev = Evaluator::with_options(
            workload,
            InferenceMode::MultiStep,
            1,
            1,
            EngineOptions::default(),
        );
        let first = ev.evaluate_genomes(&genomes, &cfg, 7, 0);
        assert_eq!(ev.take_cache_window(), (0, 6), "first pass all misses");
        // Re-submit the same content under fresh ids (the elite case):
        // all hits, results identical modulo the new ids.
        let relabeled: Vec<Genome> = genomes
            .iter()
            .map(|g| {
                let mut c = g.clone();
                c.set_id(GenomeId(g.id().0 + 100));
                c
            })
            .collect();
        let second = ev.evaluate_genomes(&relabeled, &cfg, 7, 3);
        assert_eq!(ev.take_cache_window(), (6, 6), "second pass all hits");
        for ((_, e1, g1), (_, e2, g2)) in first.iter().zip(second.iter()) {
            assert_eq!(e1, e2, "cached evaluation must be bit-identical");
            assert_eq!(g1, g2);
        }
        // A different master seed must not hit.
        ev.evaluate_genomes(&genomes, &cfg, 8, 0);
        assert_eq!(ev.take_cache_window().0, 0, "other master seed misses");
    }

    #[test]
    fn cache_on_and_off_agree() {
        let workload = Workload::MountainCar;
        let cfg = NeatConfig::builder(workload.obs_dim(), workload.n_actions())
            .build()
            .unwrap();
        let genomes: Vec<Genome> = (0..5)
            .map(|s| Genome::new_initial(&cfg, GenomeId(s), &mut StdRng::seed_from_u64(9 + s)))
            .collect();
        let run = |options: EngineOptions| {
            let mut ev = Evaluator::with_options(workload, InferenceMode::MultiStep, 2, 1, options);
            let once = ev.evaluate_genomes(&genomes, &cfg, 5, 0);
            let twice = ev.evaluate_genomes(&genomes, &cfg, 5, 1);
            (once, twice)
        };
        let off = run(EngineOptions {
            cache: false,
            ..EngineOptions::default()
        });
        assert_eq!(off, run(EngineOptions::default()));
    }

    #[test]
    fn extra_threads_change_nothing_at_any_episode_plan_or_chunking() {
        // The matrix's `threads-N` rows run one episode per genome; here
        // several episodes, and more threads than genomes (one-genome
        // chunks, idle engines), cache off so every pass evaluates.
        let workload = Workload::MountainCar;
        let cfg = NeatConfig::builder(workload.obs_dim(), workload.n_actions())
            .population_size(5)
            .build()
            .unwrap();
        let pop = Population::new(cfg, 6);
        let uncached = EngineOptions {
            cache: false,
            ..EngineOptions::default()
        };
        let on = |threads| {
            let mut ev =
                Evaluator::with_options(workload, InferenceMode::MultiStep, 3, threads, uncached);
            assert_eq!(1 + ev.extra.len(), threads.max(1));
            (
                ev.evaluate_population_local(&pop),
                ev.evaluate_population_local(&pop),
            )
        };
        let serial = on(1);
        assert_eq!(serial.0, serial.1);
        assert!(serial
            .0
            .iter()
            .map(|r| r.0)
            .eq(pop.genomes().keys().copied()));
        for threads in [0, 2, 3, 8] {
            assert_eq!(on(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn evaluator_reusable_across_genomes() {
        let mut ev = Evaluator::new(Workload::MountainCar, InferenceMode::MultiStep);
        for seed in 0..5 {
            let (_, net) = net_for(Workload::MountainCar, seed);
            let e = ev.evaluate(&net, seed);
            assert!(e.fitness <= 0.0, "mountain car rewards are negative");
        }
    }

    #[test]
    fn multi_episode_mean_and_summed_activations() {
        let (_, net) = net_for(Workload::CartPole, 4);
        let mut one = Evaluator::with_episodes(Workload::CartPole, InferenceMode::MultiStep, 1);
        let mut three = Evaluator::with_episodes(Workload::CartPole, InferenceMode::MultiStep, 3);
        let e1 = one.evaluate(&net, 7);
        let e3 = three.evaluate(&net, 7);
        assert!(
            e3.activations >= e1.activations,
            "episodes accumulate steps"
        );
        // Mean fitness for CartPole equals mean episode length.
        assert!((e3.fitness * 3.0 - e3.activations as f64).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one episode")]
    fn zero_episodes_rejected() {
        Evaluator::with_episodes(Workload::CartPole, InferenceMode::MultiStep, 0);
    }
}
