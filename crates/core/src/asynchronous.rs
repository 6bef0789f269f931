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
//! # One loop, two schedulers
//!
//! There is one steady-state loop (the private `SteadyStateLoop`): its
//! completion handler records the evaluation
//! ([`Population::record_evaluation`]), decides what the freed agent
//! runs next, traces and hashes the event. What differs between
//! [`run_virtual`](AsyncOrchestrator::run_virtual) and
//! [`run_streamed`](AsyncOrchestrator::run_streamed) is only the
//! scheduler the handler is plugged into — a seeded virtual clock, or
//! [`EdgeCluster::evaluate_stream`](crate::runtime::EdgeCluster::evaluate_stream)
//! over real links; both take `(initial genomes, on_complete)` and hand
//! back the stream's [`GatherStats`] — and fill one [`AgentStats`] row per
//! agent, the simulated ones' kept here, the live ones' by the cluster.
//!
//! **The in-flight window.** Neither scheduler lets an agent wait on
//! the coordinator: every agent keeps [`STREAM_WINDOW`] genomes in
//! flight, so its next request is already there while it evaluates and
//! the turnaround (reply, tournament, insertion, encode, request) is
//! hidden whenever a round trip is no longer than an evaluation. Two is
//! the smallest depth that does this, and a constant: sizing it from
//! round trip against service time needs agents that report their
//! service time. Under virtual time an agent queues up to
//! [`STREAM_WINDOW`] genomes and serves them first-in first-out, its
//! `k`-th evaluation starting at `max(dispatch time, finish of its
//! k−1-th)` and taking [`LatencySchedule::service_us`]`(agent, k)`.
//!
//! **The bootstrap rule.** Founders first: the opening wave is
//! `STREAM_WINDOW × agents` founders dealt round-robin, and while a
//! founding genome is still waiting, a freed window slot takes it and
//! nothing is bred. Reproduction starts with the first completion that
//! finds the founder queue empty, so every tournament draws from at
//! least `population − agents × STREAM_WINDOW` evaluated genomes.
//! Breeding from the second arrival instead (as the live run once did)
//! queues each child behind the founders while every insertion evicts
//! the only evaluated non-champion: the evaluated set stays at size one
//! for the whole run and "steady-state NEAT" degenerates into a (1+1)
//! hill-climber behind a population-deep delay line.
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
//!   completions by `(finish time, agent, dispatch)`. Two runs with the
//!   same `(master seed, schedule)` produce identical populations and
//!   byte-identical logical traces
//!   ([`RunTrace::logical_text`](crate::telemetry::RunTrace::logical_text))
//!   — the diffable artifact CI enforces — fingerprinted by
//!   [`AsyncStats::event_log_hash`] whether or not tracing is on.
//! - **Real transports trade determinism for throughput.**
//!   [`AsyncOrchestrator::run_streamed`] runs the same loop over
//!   channel/TCP/UDP links; arrival order is whatever the wire delivers,
//!   and the run is characterized statistically (convergence tests)
//!   rather than bit-for-bit. With a single agent arrival order *is*
//!   dispatch order, and the live run reproduces its virtual-time twin
//!   exactly (`tests/async_steady_state.rs`).
//!
//! The scheduling win is measured, not assumed: [`AsyncStats`] records
//! makespan, summed busy time, and the wasted idle (`agents x makespan -
//! busy`) that the sync barrier would have burned waiting on stragglers
//! — `clan-trace analyze` reports the same totals from a `--trace` file.

use crate::error::ClanError;
use crate::evaluator::Evaluator;
use crate::membership::AgentStats;
use crate::runtime::{GatherStats, StreamCompletion, STREAM_WINDOW};
use crate::telemetry::{EventKind, TraceEvent, Tracer};
use clan_neat::rng::{derive_seed, splitmix64, OpTag};
use clan_neat::steady_state::{steady_state_insert, InsertReport};
use clan_neat::{Genome, GenomeId, NeatConfig, Population};
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

/// A completion's reading of the virtual clock, `(vclock_us, service_us)`;
/// `None` on a live cluster, whose timing is wall-clock and recorded by
/// the cluster itself.
type VirtualSpan = Option<(u64, u64)>;

/// The steady-state loop: everything that happens when an evaluation
/// completes, identical under both schedulers.
struct SteadyStateLoop<'p> {
    pop: &'p mut Population,
    tracer: Tracer,
    /// Founding genomes not yet handed to an agent.
    founders: VecDeque<GenomeId>,
    total_evals: u64,
    tournament_size: usize,
    dispatched: u64,
    completions: u64,
    insertions: u64,
    best_improvements: u64,
    event_log_hash: u64,
}

impl SteadyStateLoop<'_> {
    /// The opening wave: a full window of founders per agent.
    fn first_wave(&mut self, agents: usize) -> Vec<Genome> {
        let wave: Vec<GenomeId> = self.founders.drain(..agents * STREAM_WINDOW).collect();
        self.dispatched = wave.len() as u64;
        wave.iter().map(|id| self.resident(*id)).collect()
    }

    fn resident(&self, id: GenomeId) -> Genome {
        self.pop
            .genome(id)
            .expect("dispatched genomes are unevaluated, so never evicted")
            .clone()
    }

    /// Absorbs one completed evaluation and returns what the freed agent
    /// evaluates next (`None` once the eval budget is dispatched).
    fn on_complete(&mut self, c: &StreamCompletion, vtime: VirtualSpan) -> Option<Genome> {
        let improved = self
            .pop
            .record_evaluation(c.genome, c.evaluation, c.genes_per_activation)
            .expect("in-flight genomes are never evicted");
        self.best_improvements += u64::from(improved);
        let mut insert = None;
        let next = if self.dispatched >= self.total_evals {
            None
        } else if let Some(founder) = self.founders.pop_front() {
            // The bootstrap rule (module docs): founders first, no
            // reproduction while one is still queued.
            Some(founder)
        } else {
            insert = steady_state_insert(self.pop, self.tournament_size, self.insertions);
            insert.map(|r| r.child)
        };
        self.insertions += u64::from(insert.is_some());
        self.dispatched += u64::from(next.is_some());
        let fitness_bits = c.evaluation.fitness.to_bits();
        let trace_insert = |ev: &mut TraceEvent| {
            ev.agent = Some(c.agent as u64);
            ev.genome = Some(c.genome.0);
            if let Some(r) = &insert {
                ev.child = Some(r.child.0);
                ev.evicted = Some(r.evicted.0);
                ev.p1 = Some(r.parent1.0);
                ev.p2 = Some(r.parent2.0);
            }
        };
        match vtime {
            // Logical: every field the event-log hash folds, plus the
            // deterministic service-time span.
            Some((vclock_us, service_us)) => self.tracer.logical(EventKind::Completion, |ev| {
                ev.aseq = Some(self.completions);
                ev.vtime_us = Some(vclock_us);
                ev.fitness_bits = Some(fitness_bits);
                ev.dur_us = Some(service_us);
                trace_insert(ev);
            }),
            // Live arrival order is wall-clock nondeterministic, so an
            // insertion is a Timing annotation (the cluster already
            // recorded the completion's span).
            None if insert.is_some() => self.tracer.timing(EventKind::Insertion, trace_insert),
            None => {}
        }
        self.event_log_hash = fold_completion(
            self.event_log_hash,
            self.completions,
            vtime.map_or(0, |(vclock_us, _)| vclock_us),
            c.agent,
            c.genome,
            fitness_bits,
            insert.as_ref(),
        );
        self.completions += 1;
        next.map(|id| self.resident(id))
    }
}

/// The virtual-time scheduler, with
/// [`EdgeCluster::evaluate_stream`](crate::runtime::EdgeCluster::evaluate_stream)'s
/// contract and window: feeds `initial` and whatever `on_complete`
/// returns to the agent with the shortest queue (up to [`STREAM_WINDOW`]
/// each, served first-in first-out) until nothing is in flight. Agents
/// exist only as `schedule` service times; evaluation is local, and
/// completions are ordered by `(finish time, agent, dispatch)`. The
/// returned stats, and each simulated agent's row, are in virtual
/// seconds, one round.
fn virtual_stream(
    schedule: &LatencySchedule,
    evaluator: &mut Evaluator,
    cfg: &NeatConfig,
    master_seed: u64,
    initial: Vec<Genome>,
    on_complete: &mut dyn FnMut(&StreamCompletion, VirtualSpan) -> Option<Genome>,
) -> (GatherStats, Vec<AgentStats>) {
    let agents = schedule.n_agents();
    let tracer = evaluator.tracer().clone();
    let mut pending: VecDeque<Genome> = initial.into();
    // Min-heap of in-flight work: (finish time, agent, dispatch
    // sequence). The tuple order is the tie-break rule.
    let mut in_flight: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
    // What each agent has queued, oldest first, with its service time.
    let mut queued: Vec<VecDeque<(Genome, u64)>> = vec![VecDeque::new(); agents];
    // When each agent finishes the last evaluation queued on it.
    let mut free_at_us = vec![0u64; agents];
    let mut busy_us = vec![0u64; agents];
    let mut completed = vec![0u64; agents];
    let mut dispatched = 0u64;
    let mut vclock_us = 0u64;
    loop {
        // Each pending genome goes to the agent with the shortest queue
        // (lowest slot on a tie: the opening wave goes out round-robin).
        while let Some(agent) = (0..agents)
            .filter(|&a| queued[a].len() < STREAM_WINDOW)
            .min_by_key(|&a| queued[a].len())
        {
            let Some(genome) = pending.pop_front() else {
                break;
            };
            let k = completed[agent] + queued[agent].len() as u64;
            let service_us = schedule.service_us(agent, k);
            // Logical: dispatch order and virtual times are pure in
            // (seed, schedule), the async determinism contract.
            tracer.logical(EventKind::Dispatch, |ev| {
                ev.vtime_us = Some(vclock_us);
                ev.agent = Some(agent as u64);
                ev.genome = Some(genome.id().0);
            });
            free_at_us[agent] = free_at_us[agent].max(vclock_us) + service_us;
            in_flight.push(Reverse((free_at_us[agent], agent, dispatched)));
            queued[agent].push_back((genome, service_us));
            dispatched += 1;
        }
        let Some(Reverse((done_us, agent, _))) = in_flight.pop() else {
            break;
        };
        vclock_us = done_us;
        let (genome, service_us) = queued[agent].pop_front().expect("agent was busy");
        let (id, evaluation, genes_per_activation) =
            evaluator.evaluate_genomes(&[genome], cfg, master_seed, 0)[0];
        busy_us[agent] += service_us;
        completed[agent] += 1;
        let completion = StreamCompletion {
            agent,
            genome: id,
            evaluation,
            genes_per_activation,
        };
        pending.extend(on_complete(&completion, Some((vclock_us, service_us))));
    }
    let stats = GatherStats {
        gathers: 1,
        makespan_s: vclock_us as f64 / 1e6,
        busy_s: busy_us.iter().sum::<u64>() as f64 / 1e6,
    };
    let rows = busy_us
        .iter()
        .zip(completed)
        .map(|(&us, items)| AgentStats {
            items,
            busy_s: us as f64 / 1e6,
            ..AgentStats::default()
        })
        .collect();
    (stats, rows)
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
    /// The simulated agents' rows after a virtual-time run (empty
    /// otherwise: a live cluster keeps its own).
    simulated: Vec<AgentStats>,
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
            simulated: Vec::new(),
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

    /// One row per agent of the last run: the simulated agents' after a
    /// virtual-time run (virtual seconds), the attached cluster's
    /// otherwise.
    pub fn agent_stats(&self) -> Vec<AgentStats> {
        if self.simulated.is_empty() {
            self.evaluator.remote_agent_stats().to_vec()
        } else {
            self.simulated.clone()
        }
    }

    /// Consumes the coordinator, yielding the evolved population and
    /// the evaluator.
    pub fn into_parts(self) -> (Population, Evaluator) {
        (self.pop, self.evaluator)
    }

    /// Installs a telemetry tracer. Virtual-time runs record logical
    /// dispatch/completion events (deterministic per `(seed,
    /// schedule)`); streamed runs record wall-clock annotations only.
    pub fn install_tracer(&mut self, tracer: Tracer) {
        self.evaluator.set_tracer(tracer);
    }

    /// Runs the steady-state loop under deterministic virtual time:
    /// evaluation is local, agents exist only as [`LatencySchedule`]
    /// service times. Exactly reproducible for a fixed `(master seed,
    /// schedule)`.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] if `agents × STREAM_WINDOW >=
    /// population` (the steady-state loop needs evaluated members to
    /// select from while a wave is in flight).
    pub fn run_virtual(&mut self, schedule: &LatencySchedule) -> Result<(), ClanError> {
        self.run(Some(schedule))
    }

    /// Runs the steady-state loop over the evaluator's attached agent
    /// cluster, streaming one-genome `Evaluate` frames with
    /// dispatch-on-completion, [`STREAM_WINDOW`] in flight per link
    /// ([`EdgeCluster::evaluate_stream`](crate::runtime::EdgeCluster::evaluate_stream)).
    /// Arrival order — and therefore the population trajectory — is
    /// wall-clock nondeterministic; per-genome fitness values are still
    /// content-deterministic.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] without an attached cluster or with
    /// `agents × STREAM_WINDOW >= population`, plus anything
    /// `evaluate_stream` reports (protocol violations, cluster drained
    /// below the recovery floor).
    pub fn run_streamed(&mut self) -> Result<(), ClanError> {
        self.run(None)
    }

    /// The one run: the steady-state loop plugged into the virtual-time
    /// scheduler (`Some(schedule)`) or the attached cluster's stream.
    fn run(&mut self, schedule: Option<&LatencySchedule>) -> Result<(), ClanError> {
        let agents = schedule.map_or(self.evaluator.remote_agents(), LatencySchedule::n_agents);
        if agents == 0 {
            return Err(ClanError::InvalidSetup {
                reason: "streamed async mode needs an attached agent cluster".into(),
            });
        }
        if agents * STREAM_WINDOW >= self.pop.len() {
            return Err(ClanError::InvalidSetup {
                reason: format!(
                    "{agents} agent(s) x {STREAM_WINDOW} in flight need a population larger than {}",
                    self.pop.len()
                ),
            });
        }
        let cfg = self.pop.config().clone();
        let master_seed = self.pop.master_seed();
        let mut state = SteadyStateLoop {
            tracer: self.evaluator.tracer().clone(),
            founders: self.pop.genomes().keys().copied().collect(),
            pop: &mut self.pop,
            total_evals: self.total_evals,
            tournament_size: self.tournament_size,
            dispatched: 0,
            completions: 0,
            insertions: 0,
            best_improvements: 0,
            event_log_hash: EVENT_LOG_HASH_SEED,
        };
        let initial = state.first_wave(agents);
        let (stream, redispatches) = match schedule {
            Some(schedule) => {
                let (stream, rows) = virtual_stream(
                    schedule,
                    &mut self.evaluator,
                    &cfg,
                    master_seed,
                    initial,
                    &mut |c, vtime| state.on_complete(c, vtime),
                );
                self.simulated = rows;
                (stream, 0)
            }
            None => {
                let cluster = self
                    .evaluator
                    .remote_cluster_mut()
                    .expect("remote_agents > 0");
                self.simulated.clear();
                let requeued = cluster.recovery_stats().reassigned_items;
                let stream = cluster
                    .evaluate_stream(master_seed, initial, &mut |c| state.on_complete(c, None))?;
                (stream, cluster.recovery_stats().reassigned_items - requeued)
            }
        };
        self.stats = Some(AsyncStats {
            total_evals: state.dispatched,
            tournament_size: self.tournament_size,
            agents,
            virtual_time: schedule.is_some(),
            makespan_s: stream.makespan_s,
            busy_s: stream.busy_s,
            wasted_idle_s: (agents as f64 * stream.makespan_s - stream.busy_s).max(0.0),
            evals_per_s: if stream.makespan_s > 0.0 {
                state.completions as f64 / stream.makespan_s
            } else {
                0.0
            },
            insertions: state.insertions,
            best_improvements: state.best_improvements,
            redispatches,
            event_log_hash: state.event_log_hash,
            best_fitness: self
                .pop
                .best_ever()
                .and_then(Genome::fitness)
                .unwrap_or(f64::NEG_INFINITY),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::InferenceMode;
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
    fn a_window_queues_behind_the_agents_previous_evaluation() {
        // Jitter-free, so every virtual time below is computed by hand:
        // agent 0 serves in 1 000 us, agent 1 in 4 000 us, the first
        // wave is two founders each, and a completion's next genome
        // queues on the agent that completed (the only one with room).
        let mut orch = orchestrator(8, 5, 14);
        let tracer = Tracer::new();
        orch.install_tracer(tracer.clone());
        let schedule = LatencySchedule::new(0, vec![1_000, 4_000], 0).unwrap();
        orch.run_virtual(&schedule).unwrap();
        let events = tracer.finish().unwrap().events;
        let of_kind = |kind: EventKind| -> Vec<(u64, u64, u64)> {
            events
                .iter()
                .filter(|ev| ev.kind == kind)
                .map(|ev| (ev.vtime_us.unwrap(), ev.agent.unwrap(), ev.genome.unwrap()))
                .collect()
        };
        let dispatches = of_kind(EventKind::Dispatch);
        let completions = of_kind(EventKind::Completion);
        let founders: Vec<u64> = dispatches.iter().take(8).map(|d| d.2).collect();
        let times = |evs: &[(u64, u64, u64)], n: usize| -> Vec<(u64, u64)> {
            evs.iter().take(n).map(|e| (e.0, e.1)).collect()
        };
        assert_eq!(
            times(&dispatches, 9),
            [
                // The opening wave, round-robin.
                (0, 0),
                (0, 1),
                (0, 0),
                (0, 1),
                // Each goes to the shortest queue: the completer's.
                (1_000, 0),
                (2_000, 0),
                (3_000, 0),
                (4_000, 0),
                (4_000, 1),
            ]
        );
        assert_eq!(
            times(&completions, 10),
            [
                (1_000, 0),
                (2_000, 0),
                (3_000, 0),
                // A tie goes to the lower slot.
                (4_000, 0),
                (4_000, 1),
                (5_000, 0),
                (6_000, 0),
                (7_000, 0),
                (8_000, 0),
                // Agent 1's second founder waited out its first: 8 000,
                // not 4 000 plus a turnaround.
                (8_000, 1),
            ]
        );
        assert_eq!(completions[9].2, founders[3]);
        // Spans on one agent never overlap ...
        let mut free_at = [0u64; 2];
        for ev in events.iter().filter(|ev| ev.kind == EventKind::Completion) {
            let (agent, finish) = (ev.agent.unwrap() as usize, ev.vtime_us.unwrap());
            let start = finish - ev.dur_us.unwrap();
            assert!(start >= free_at[agent], "agent {agent} overlaps at {start}");
            free_at[agent] = finish;
        }
        // ... so busy time fits the capacity with nothing clamped.
        let stats = orch.stats().unwrap();
        let rows = orch.agent_stats();
        assert_eq!(rows.iter().map(|a| a.items).sum::<u64>(), 14);
        assert!(stats.busy_s <= 2.0 * stats.makespan_s);
        assert!(rows.iter().all(|a| a.busy_s <= stats.makespan_s));
    }

    #[test]
    fn live_spans_fit_the_capacity_unclamped() {
        let w = Workload::CartPole;
        let population = pop(12, 3);
        let spec = crate::transport::ClusterSpec::new(
            w,
            InferenceMode::MultiStep,
            population.config().clone(),
        );
        let cluster =
            crate::runtime::EdgeCluster::from_source(2, spec, crate::runtime::AgentSource::Threads)
                .unwrap();
        let evaluator = Evaluator::new(w, InferenceMode::MultiStep).with_remote(cluster);
        let mut orch = AsyncOrchestrator::new(population, evaluator, 80, 3).unwrap();
        orch.run_streamed().unwrap();
        let stats = orch.stats().unwrap();
        let rows = orch.agent_stats();
        assert_eq!(rows.iter().map(|a| a.items).sum::<u64>(), 80);
        // Request-to-reply spans would sum to about twice the makespan
        // with two requests outstanding per link.
        assert!(stats.busy_s <= 2.0 * stats.makespan_s);
        assert!(rows.iter().all(|a| a.busy_s <= stats.makespan_s));
    }

    #[test]
    fn agents_whose_windows_hold_the_population_are_rejected_by_both_guards() {
        // 4 agents x STREAM_WINDOW == 8: the first wave would leave no
        // founder behind and no evaluated genome to select from.
        assert_eq!(4 * STREAM_WINDOW, 8);
        let schedule = LatencySchedule::new(1, vec![1_000; 4], 0).unwrap();
        assert!(matches!(
            orchestrator(8, 1, 20).run_virtual(&schedule),
            Err(ClanError::InvalidSetup { .. })
        ));
        let built = crate::driver::ClanDriver::builder(Workload::CartPole)
            .agents(4)
            .population_size(8)
            .build_async();
        assert!(matches!(built, Err(ClanError::InvalidSetup { .. })));
        assert!(orchestrator(9, 1, 20).run_virtual(&schedule).is_ok());
    }

    #[test]
    fn budget_below_population_is_rejected() {
        let evaluator = Evaluator::new(Workload::CartPole, InferenceMode::MultiStep);
        assert!(AsyncOrchestrator::new(pop(10, 1), evaluator, 5, 3).is_err());
    }
}
