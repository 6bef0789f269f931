//! Async steady-state evolution: barrier-free dispatch-on-completion,
//! with a virtual-time determinism contract.
//!
//! Every other orchestrator in this crate is generation-synchronous — a
//! gather barrier ends each round, so the tail agent (or a
//! retransmission burst, or a churn retry) stalls the whole population.
//! [`AsyncOrchestrator`] removes the barrier, following the CLAN paper's
//! asynchronous argument: agents stream `(genome, fitness)` results
//! continuously, and each arrival immediately triggers one steady-state
//! reproduction event ([`clan_neat::steady_state`]) — tournament
//! selection plus insert-replace-worst, no generations.
//!
//! # The reproducibility contract
//!
//! Removing the barrier breaks bit-identity to the serial run *by
//! design*: the population trajectory now depends on arrival order. The
//! mode therefore carries its own, different contract:
//!
//! - **Per-genome results stay deterministic.** Episode seeds derive
//!   from genome content, so any agent at any time scores a given
//!   genome identically.
//! - **Virtual time makes whole runs reproducible.** Under
//!   [`AsyncOrchestrator::run_virtual`], agent service times come from a
//!   seeded [`LatencySchedule`] and a single-threaded event loop orders
//!   completions by `(virtual time, agent, dispatch)`. Two runs with the
//!   same `(master seed, schedule)` produce identical populations and
//!   byte-identical logical traces
//!   ([`RunTrace::logical_text`](crate::telemetry::RunTrace::logical_text))
//!   — the diffable artifact CI enforces — fingerprinted by
//!   [`AsyncStats::event_log_hash`] whether or not tracing is on.
//! - **Real transports trade determinism for throughput.**
//!   [`AsyncOrchestrator::run_streamed`] drives
//!   [`EdgeCluster::evaluate_stream`](crate::runtime::EdgeCluster::evaluate_stream)
//!   over channel/TCP/UDP links; arrival order is whatever the wire
//!   delivers, and the run is characterized statistically (convergence
//!   tests) rather than bit-for-bit.
//!
//! The scheduling win is measured, not assumed: [`AsyncStats`] records
//! makespan, summed busy time, and the wasted idle (`agents x makespan -
//! busy`) that the sync barrier would have burned waiting on stragglers
//! — `clan-trace analyze` reports the same totals from a `--trace` file.

use crate::error::ClanError;
use crate::evaluator::Evaluator;
use crate::runtime::{StreamCompletion, StreamStats};
use crate::telemetry::EventKind;
use clan_neat::rng::{derive_seed, splitmix64, OpTag};
use clan_neat::steady_state::{steady_state_insert, InsertReport};
use clan_neat::{Genome, GenomeId, Population};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Seeded per-agent service times for the virtual-time simulation: agent
/// `a`'s `k`-th evaluation takes `base_us[a]` microseconds, scaled by a
/// multiplicative jitter of up to `jitter_pct` percent drawn from
/// `derive_seed(seed, [a, k, OpTag::Latency])`. Fixing `(seed, bases,
/// jitter)` fixes every service time in the run — the "latency schedule"
/// half of the async mode's reproducibility contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencySchedule {
    seed: u64,
    base_us: Vec<u64>,
    jitter_pct: u32,
}

impl LatencySchedule {
    /// Creates a schedule from per-agent base service times
    /// (microseconds).
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] if `base_us` is empty, any base is
    /// zero, or `jitter_pct > 90` (service times must stay positive).
    pub fn new(
        seed: u64,
        base_us: Vec<u64>,
        jitter_pct: u32,
    ) -> Result<LatencySchedule, ClanError> {
        if base_us.is_empty() {
            return Err(ClanError::InvalidSetup {
                reason: "a latency schedule needs at least one agent".into(),
            });
        }
        if base_us.contains(&0) {
            return Err(ClanError::InvalidSetup {
                reason: "latency schedule base times must be positive".into(),
            });
        }
        if jitter_pct > 90 {
            return Err(ClanError::InvalidSetup {
                reason: format!("jitter {jitter_pct}% leaves no positive service time"),
            });
        }
        Ok(LatencySchedule {
            seed,
            base_us,
            jitter_pct,
        })
    }

    /// A homogeneous schedule: `agents` identical base times.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn uniform(
        seed: u64,
        agents: usize,
        base_us: u64,
        jitter_pct: u32,
    ) -> Result<LatencySchedule, ClanError> {
        LatencySchedule::new(seed, vec![base_us; agents], jitter_pct)
    }

    /// Number of simulated agents.
    pub fn n_agents(&self) -> usize {
        self.base_us.len()
    }

    /// Service time (microseconds) of agent `agent`'s `k`-th
    /// evaluation. Pure in `(self, agent, k)`.
    pub fn service_us(&self, agent: usize, k: u64) -> u64 {
        let base = self.base_us[agent];
        if self.jitter_pct == 0 {
            return base.max(1);
        }
        let draw = derive_seed(self.seed, &[agent as u64, k, OpTag::Latency as u64]);
        let span = 2 * i128::from(self.jitter_pct) + 1;
        let pct = (draw % span as u64) as i128 - i128::from(self.jitter_pct);
        let scaled = i128::from(base) * (100 + pct) / 100;
        scaled.max(1) as u64
    }

    /// Human-readable form, e.g. `5000,20000us ±10%`.
    pub fn describe(&self) -> String {
        let bases: Vec<String> = self.base_us.iter().map(u64::to_string).collect();
        format!("{}us ±{}%", bases.join(","), self.jitter_pct)
    }
}

/// Seed of the completion fold behind [`AsyncStats::event_log_hash`].
const EVENT_LOG_HASH_SEED: u64 = 0x00A5_15C0_0000_0001;

/// Folds one completion into the running event-log hash: its sequence
/// number, virtual completion time (0 for streamed runs, whose ordering
/// is wall-clock), agent slot, genome, bit-exact fitness, and the
/// steady-state insertion it triggered. The trace's logical
/// `Completion` events carry exactly these fields, so the fold is
/// reproducible from a `--trace` file.
fn fold_completion(
    h: u64,
    seq: u64,
    vtime_us: u64,
    agent: usize,
    genome: GenomeId,
    fitness_bits: u64,
    insert: Option<&InsertReport>,
) -> u64 {
    let mut h = splitmix64(h ^ seq);
    h = splitmix64(h ^ vtime_us);
    h = splitmix64(h ^ agent as u64);
    h = splitmix64(h ^ genome.0);
    h = splitmix64(h ^ fitness_bits);
    match insert {
        Some(r) => {
            h = splitmix64(h ^ r.child.0);
            h = splitmix64(h ^ r.evicted.0);
            h = splitmix64(h ^ r.parent1.0);
            splitmix64(h ^ r.parent2.0)
        }
        None => splitmix64(h),
    }
}

/// Measured outcome of an async steady-state run, reported on
/// [`RunReport`](crate::report::RunReport).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncStats {
    /// Evaluations dispatched and completed (the `--total-evals` budget).
    pub total_evals: u64,
    /// Tournament size used for parent selection.
    pub tournament_size: usize,
    /// Agents the run streamed over (simulated or real).
    pub agents: usize,
    /// Whether this was a virtual-time (deterministic) run.
    pub virtual_time: bool,
    /// Wall-clock (streamed) or virtual (simulated) makespan, seconds.
    pub makespan_s: f64,
    /// Summed per-agent busy seconds.
    pub busy_s: f64,
    /// `agents x makespan - busy`: idle capacity the barrier-free loop
    /// failed to use. The sync gather's equivalent is what async mode
    /// exists to recover.
    pub wasted_idle_s: f64,
    /// Completed evaluations per second of makespan.
    pub evals_per_s: f64,
    /// Steady-state insertions performed (completions that triggered
    /// reproduction).
    pub insertions: u64,
    /// Completions that improved the best-ever fitness.
    pub best_improvements: u64,
    /// Evaluations re-dispatched after an agent died mid-flight
    /// (streamed runs only).
    pub redispatches: u64,
    /// splitmix64 fold over every completion, in completion order —
    /// two identical virtual-time runs must agree on this.
    pub event_log_hash: u64,
    /// Best-ever fitness at the end of the run.
    pub best_fitness: f64,
}

/// Mutable state of one steady-state reproduction loop, shared by the
/// virtual-time and streamed drivers: the tournament size plus the
/// running insertion / best-improvement counters.
struct SteadyStateLoop {
    tournament_size: usize,
    insertions: u64,
    best_improvements: u64,
}

impl SteadyStateLoop {
    fn new(tournament_size: usize) -> SteadyStateLoop {
        SteadyStateLoop {
            tournament_size,
            insertions: 0,
            best_improvements: 0,
        }
    }

    /// Applies one completed evaluation to the population (fitness,
    /// cost accounting, best-ever tracking) and — while the eval budget
    /// allows — performs the steady-state insertion it triggers.
    /// Returns the insertion record and the next genome to dispatch.
    fn absorb(
        &mut self,
        pop: &mut Population,
        genome: GenomeId,
        fitness: f64,
        inference_genes: u64,
        reproduce: bool,
    ) -> (Option<InsertReport>, Option<GenomeId>) {
        pop.counters_mut().record_inference(inference_genes);
        pop.counters_mut().record_episode();
        pop.set_fitness(genome, fitness)
            .expect("in-flight genomes are never evicted");
        if pop.note_best_ever() {
            self.best_improvements += 1;
        }
        if !reproduce {
            return (None, None);
        }
        let report = steady_state_insert(pop, self.tournament_size, self.insertions);
        if let Some(r) = &report {
            self.insertions += 1;
            (report, Some(r.child))
        } else {
            (None, None)
        }
    }
}

/// The barrier-free coordinator: owns the population and evaluator and
/// drives the steady-state loop to a fixed evaluation budget, either
/// under virtual time ([`run_virtual`](Self::run_virtual)) or over a
/// real agent cluster ([`run_streamed`](Self::run_streamed)).
#[derive(Debug)]
pub struct AsyncOrchestrator {
    pop: Population,
    evaluator: Evaluator,
    total_evals: u64,
    tournament_size: usize,
    stats: Option<AsyncStats>,
    stream: Option<StreamStats>,
}

impl AsyncOrchestrator {
    /// Creates the coordinator.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] if `tournament_size` is zero or
    /// `total_evals` cannot cover even the initial population (the
    /// steady-state loop only starts once the bootstrap wave is paid
    /// for).
    pub fn new(
        pop: Population,
        evaluator: Evaluator,
        total_evals: u64,
        tournament_size: usize,
    ) -> Result<AsyncOrchestrator, ClanError> {
        if tournament_size == 0 {
            return Err(ClanError::InvalidSetup {
                reason: "tournament size must be at least 1".into(),
            });
        }
        if total_evals < pop.len() as u64 {
            return Err(ClanError::InvalidSetup {
                reason: format!(
                    "total evals {} cannot cover the initial population of {}",
                    total_evals,
                    pop.len()
                ),
            });
        }
        Ok(AsyncOrchestrator {
            pop,
            evaluator,
            total_evals,
            tournament_size,
            stats: None,
            stream: None,
        })
    }

    /// The population (final state after a run).
    pub fn population(&self) -> &Population {
        &self.pop
    }

    /// The evaluator (e.g. to inspect the attached cluster after a
    /// streamed run).
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// The last run's measured stats, once a run has finished.
    pub fn stats(&self) -> Option<&AsyncStats> {
        self.stats.as_ref()
    }

    /// The last streamed run's per-agent transport stats (`None` for
    /// virtual-time runs, which have no real cluster).
    pub fn stream_stats(&self) -> Option<&StreamStats> {
        self.stream.as_ref()
    }

    /// Consumes the coordinator, yielding the evolved population and
    /// the evaluator.
    pub fn into_parts(self) -> (Population, Evaluator) {
        (self.pop, self.evaluator)
    }

    /// Installs a telemetry tracer. Virtual-time runs record logical
    /// dispatch/completion events (deterministic per `(seed,
    /// schedule)`); streamed runs record wall-clock annotations only.
    pub fn install_tracer(&mut self, tracer: crate::telemetry::Tracer) {
        self.evaluator.set_tracer(tracer);
    }

    /// Runs the steady-state loop under deterministic virtual time:
    /// evaluation is local, agents exist only as [`LatencySchedule`]
    /// service times, and completions are ordered by a priority queue
    /// over `(virtual time, agent, dispatch)`. Exactly reproducible for
    /// a fixed `(master seed, schedule)`.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] if the schedule has no agents or at
    /// least as many agents as the population has genomes (the
    /// steady-state loop needs evaluated members to select from while a
    /// wave is in flight).
    pub fn run_virtual(&mut self, schedule: &LatencySchedule) -> Result<(), ClanError> {
        let agents = schedule.n_agents();
        if agents >= self.pop.len() {
            return Err(ClanError::InvalidSetup {
                reason: format!(
                    "{} simulated agents need a population larger than {}",
                    agents,
                    self.pop.len()
                ),
            });
        }
        let cfg = self.pop.config().clone();
        let master_seed = self.pop.master_seed();
        self.stream = None;
        let mut completions = 0u64;
        let mut event_log_hash = EVENT_LOG_HASH_SEED;
        let tracer = self.evaluator.tracer().clone();
        let mut queue: VecDeque<GenomeId> = self.pop.genomes().keys().copied().collect();
        // Min-heap of in-flight work: (completion time, agent, dispatch
        // sequence, genome). The tuple order is the tie-break rule.
        let mut in_flight: BinaryHeap<Reverse<(u64, usize, u64, GenomeId)>> = BinaryHeap::new();
        let mut per_agent_k = vec![0u64; agents];
        let mut busy_us = vec![0u64; agents];
        // One eval in flight per agent, so a scalar dispatch time per
        // agent suffices to compute completion spans.
        let mut dispatched_at = vec![0u64; agents];
        let mut dispatched = 0u64;
        let mut loop_state = SteadyStateLoop::new(self.tournament_size);
        let mut makespan_us = 0u64;
        let dispatch = |agent: usize,
                        now_us: u64,
                        genome: GenomeId,
                        per_agent_k: &mut [u64],
                        busy_us: &mut [u64],
                        dispatched_at: &mut [u64],
                        in_flight: &mut BinaryHeap<Reverse<(u64, usize, u64, GenomeId)>>,
                        dispatched: &mut u64| {
            let service = schedule.service_us(agent, per_agent_k[agent]);
            per_agent_k[agent] += 1;
            busy_us[agent] += service;
            dispatched_at[agent] = now_us;
            // Logical: dispatch order and virtual times are pure in
            // (seed, schedule), the async determinism contract.
            tracer.logical(EventKind::Dispatch, |ev| {
                ev.vtime_us = Some(now_us);
                ev.agent = Some(agent as u64);
                ev.genome = Some(genome.0);
            });
            in_flight.push(Reverse((now_us + service, agent, *dispatched, genome)));
            *dispatched += 1;
        };
        for agent in 0..agents {
            if dispatched >= self.total_evals {
                break;
            }
            let Some(genome) = queue.pop_front() else {
                break;
            };
            dispatch(
                agent,
                0,
                genome,
                &mut per_agent_k,
                &mut busy_us,
                &mut dispatched_at,
                &mut in_flight,
                &mut dispatched,
            );
        }
        while let Some(Reverse((now_us, agent, _dseq, genome))) = in_flight.pop() {
            makespan_us = makespan_us.max(now_us);
            let g = self.pop.genome(genome).expect("in flight").clone();
            let (_, eval, gpa) = self.evaluator.evaluate_genomes(&[g], &cfg, master_seed, 0)[0];
            let budget_left = dispatched < self.total_evals;
            let (insert, next) =
                if let Some(queued) = budget_left.then(|| queue.pop_front()).flatten() {
                    // Bootstrap phase: the initial population is still being
                    // dispatched; reproduction starts once it drains.
                    loop_state.absorb(
                        &mut self.pop,
                        genome,
                        eval.fitness,
                        eval.activations * gpa,
                        false,
                    );
                    (None, Some(queued))
                } else {
                    loop_state.absorb(
                        &mut self.pop,
                        genome,
                        eval.fitness,
                        eval.activations * gpa,
                        budget_left,
                    )
                };
            // Logical completion: every field the event-log hash folds,
            // plus the deterministic service-time span.
            tracer.logical(EventKind::Completion, |ev| {
                ev.aseq = Some(completions);
                ev.vtime_us = Some(now_us);
                ev.agent = Some(agent as u64);
                ev.genome = Some(genome.0);
                ev.fitness_bits = Some(eval.fitness.to_bits());
                ev.dur_us = Some(now_us - dispatched_at[agent]);
                if let Some(r) = &insert {
                    ev.child = Some(r.child.0);
                    ev.evicted = Some(r.evicted.0);
                    ev.p1 = Some(r.parent1.0);
                    ev.p2 = Some(r.parent2.0);
                }
            });
            event_log_hash = fold_completion(
                event_log_hash,
                completions,
                now_us,
                agent,
                genome,
                eval.fitness.to_bits(),
                insert.as_ref(),
            );
            completions += 1;
            if let Some(next) = next {
                dispatch(
                    agent,
                    now_us,
                    next,
                    &mut per_agent_k,
                    &mut busy_us,
                    &mut dispatched_at,
                    &mut in_flight,
                    &mut dispatched,
                );
            }
        }
        let makespan_s = makespan_us as f64 / 1e6;
        let busy_s = busy_us.iter().sum::<u64>() as f64 / 1e6;
        self.stats = Some(AsyncStats {
            total_evals: dispatched,
            tournament_size: self.tournament_size,
            agents,
            virtual_time: true,
            makespan_s,
            busy_s,
            wasted_idle_s: (agents as f64 * makespan_s - busy_s).max(0.0),
            evals_per_s: if makespan_s > 0.0 {
                completions as f64 / makespan_s
            } else {
                0.0
            },
            insertions: loop_state.insertions,
            best_improvements: loop_state.best_improvements,
            redispatches: 0,
            event_log_hash,
            best_fitness: self
                .pop
                .best_ever()
                .and_then(Genome::fitness)
                .unwrap_or(f64::NEG_INFINITY),
        });
        Ok(())
    }

    /// Runs the steady-state loop over the evaluator's attached agent
    /// cluster, streaming one-genome `Evaluate` frames with
    /// dispatch-on-completion
    /// ([`EdgeCluster::evaluate_stream`](crate::runtime::EdgeCluster::evaluate_stream)).
    /// Arrival order — and therefore the population trajectory — is
    /// wall-clock nondeterministic; per-genome fitness values are still
    /// content-deterministic.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] without an attached cluster or with
    /// at least as many agents as genomes, plus anything
    /// `evaluate_stream` reports (protocol violations, cluster drained
    /// below the recovery floor).
    pub fn run_streamed(&mut self) -> Result<(), ClanError> {
        let master_seed = self.pop.master_seed();
        let total_evals = self.total_evals;
        let tournament_size = self.tournament_size;
        let agents = self.evaluator.remote_agents();
        if agents == 0 {
            return Err(ClanError::InvalidSetup {
                reason: "streamed async mode needs an attached agent cluster".into(),
            });
        }
        if agents >= self.pop.len() {
            return Err(ClanError::InvalidSetup {
                reason: format!(
                    "{} agents need a population larger than {}",
                    agents,
                    self.pop.len()
                ),
            });
        }
        let AsyncOrchestrator { pop, evaluator, .. } = self;
        let mut completions = 0u64;
        let mut event_log_hash = EVENT_LOG_HASH_SEED;
        let initial: Vec<Genome> = pop.genomes().values().cloned().collect();
        let mut dispatched = initial.len() as u64;
        let mut loop_state = SteadyStateLoop::new(tournament_size);
        // Streamed arrival order is wall-clock nondeterministic, so
        // insertions are recorded as Timing annotations (the cluster's
        // evaluate_stream already records the per-completion spans).
        let tracer = evaluator.tracer().clone();
        let cluster = evaluator.remote_cluster_mut().expect("remote_agents > 0");
        let stream =
            cluster.evaluate_stream(master_seed, initial, &mut |c: &StreamCompletion| {
                let reproduce = dispatched < total_evals;
                let (insert, next) = loop_state.absorb(
                    pop,
                    c.genome,
                    c.evaluation.fitness,
                    c.evaluation.activations * c.genes_per_activation,
                    reproduce,
                );
                if next.is_some() {
                    dispatched += 1;
                }
                if let Some(r) = &insert {
                    tracer.timing(EventKind::Insertion, |ev| {
                        ev.agent = Some(c.agent as u64);
                        ev.genome = Some(c.genome.0);
                        ev.child = Some(r.child.0);
                        ev.evicted = Some(r.evicted.0);
                        ev.p1 = Some(r.parent1.0);
                        ev.p2 = Some(r.parent2.0);
                    });
                }
                event_log_hash = fold_completion(
                    event_log_hash,
                    completions,
                    0,
                    c.agent,
                    c.genome,
                    c.evaluation.fitness.to_bits(),
                    insert.as_ref(),
                );
                completions += 1;
                next.map(|id| pop.genome(id).expect("just inserted").clone())
            })?;
        self.stats = Some(AsyncStats {
            total_evals: dispatched,
            tournament_size,
            agents,
            virtual_time: false,
            makespan_s: stream.makespan_s,
            busy_s: stream.busy_s,
            wasted_idle_s: stream.wasted_idle_s(agents),
            evals_per_s: if stream.makespan_s > 0.0 {
                stream.completions as f64 / stream.makespan_s
            } else {
                0.0
            },
            insertions: loop_state.insertions,
            best_improvements: loop_state.best_improvements,
            redispatches: stream.redispatches,
            event_log_hash,
            best_fitness: self
                .pop
                .best_ever()
                .and_then(Genome::fitness)
                .unwrap_or(f64::NEG_INFINITY),
        });
        self.stream = Some(stream);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::InferenceMode;
    use crate::runtime::EdgeCluster;
    use crate::transport::ClusterSpec;
    use clan_envs::Workload;
    use clan_neat::NeatConfig;

    fn pop(n: usize, seed: u64) -> Population {
        let w = Workload::CartPole;
        let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
            .population_size(n)
            .build()
            .unwrap();
        Population::new(cfg, seed)
    }

    fn orchestrator(n: usize, seed: u64, total: u64) -> AsyncOrchestrator {
        let evaluator = Evaluator::new(Workload::CartPole, InferenceMode::MultiStep);
        AsyncOrchestrator::new(pop(n, seed), evaluator, total, 3).unwrap()
    }

    #[test]
    fn virtual_run_reaches_budget_and_conserves_population() {
        let mut orch = orchestrator(12, 7, 40);
        let schedule = LatencySchedule::new(7, vec![2000, 8000, 2000], 10).unwrap();
        orch.run_virtual(&schedule).unwrap();
        let stats = orch.stats().unwrap().clone();
        assert_eq!(stats.total_evals, 40);
        assert_eq!(orch.population().len(), 12);
        assert!(stats.makespan_s > 0.0);
        assert!(stats.busy_s > 0.0);
        assert!(orch.population().best_ever().is_some());
    }

    #[test]
    fn virtual_runs_replay_byte_identical() {
        let run = || {
            let mut orch = orchestrator(10, 21, 35);
            let schedule = LatencySchedule::new(5, vec![1000, 4000], 25).unwrap();
            orch.run_virtual(&schedule).unwrap();
            (
                orch.population().genomes().clone(),
                orch.stats().unwrap().clone(),
            )
        };
        let (genomes_a, stats_a) = run();
        let (genomes_b, stats_b) = run();
        assert_eq!(genomes_a, genomes_b);
        assert_eq!(stats_a, stats_b);
        assert_ne!(stats_a.event_log_hash, EVENT_LOG_HASH_SEED);
    }

    #[test]
    fn different_schedules_diverge() {
        let run = |sched_seed: u64| {
            let mut orch = orchestrator(10, 21, 35);
            let schedule = LatencySchedule::new(sched_seed, vec![1000, 4000], 25).unwrap();
            orch.run_virtual(&schedule).unwrap();
            orch.stats().unwrap().event_log_hash
        };
        // Same master seed, different latency schedule: the trajectory
        // may differ (that is the point of logging the schedule).
        // Hashes are overwhelmingly likely to differ; equality would
        // mean the arrival order never changed, which the skewed bases
        // make practically impossible.
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn budget_below_population_is_rejected() {
        let evaluator = Evaluator::new(Workload::CartPole, InferenceMode::MultiStep);
        assert!(AsyncOrchestrator::new(pop(10, 1), evaluator, 5, 3).is_err());
    }

    #[test]
    fn streamed_run_matches_budget_over_channel_cluster() {
        let population = pop(10, 9);
        let spec = ClusterSpec::new(
            Workload::CartPole,
            InferenceMode::MultiStep,
            population.config().clone(),
        );
        let cluster = EdgeCluster::spawn_spec(3, spec).unwrap();
        let evaluator =
            Evaluator::new(Workload::CartPole, InferenceMode::MultiStep).with_remote(cluster);
        let mut orch = AsyncOrchestrator::new(population, evaluator, 30, 3).unwrap();
        orch.run_streamed().unwrap();
        let stats = orch.stats().unwrap();
        assert_eq!(stats.total_evals, 30);
        assert_eq!(orch.stream_stats().unwrap().completions, 30);
        assert_eq!(orch.population().len(), 10);
        assert!(!stats.virtual_time);
        assert!(stats.best_fitness > f64::NEG_INFINITY);
    }
}
