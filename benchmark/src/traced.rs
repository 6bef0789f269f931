//! The traced pass: per-layer metrics taken from outside the program.
//!
//! Each NEAT seed of a generational workload is evolved by three lanes
//! over the same work as one end-to-end repetition:
//!
//! - **driver** — `DcsOrchestrator::step_generation` timed per call,
//!   tracing off: the generation time every layer share is a share *of*;
//! - **telemetry** — the same with a live `Tracer` installed: what a
//!   production `--trace` run pays;
//! - **hand-driven** — the generation driven from public calls
//!   (`EdgeCluster::evaluate_collect` → `speciate` → `plan_generation`
//!   → `reproduce_centrally` → `install_next_generation`) with a span
//!   around each, `GatherStats`/ledger read at the same boundaries, and
//!   the out-of-band probes every k-th generation.
//!
//! All three evolve the same NEAT seeds, so their trajectories must be
//! bit-identical; that, and an in-process serial run, is the correctness
//! gate of this pass. The stream workload has no generations to drive:
//! its pass wraps `run_streamed` and probes one genome per frame.

use crate::measure::{check_stream_counts, Trajectory};
use crate::probes::{self, Echo};
use crate::report::{MetricValue, Ops, Outcome};
use crate::spans::SpanLog;
use crate::spec::PER_LAYER;
use crate::stats::{has_tail, median, percentile, Summary};
use crate::workloads::{
    Inputs, Shape, Wire, WorkloadDef, AGENTS, POPULATION, SERIAL_CHECK_GENERATIONS,
};
use clan_core::{
    AsyncOrchestrator, AsyncStats, ClanError, DcsOrchestrator, EdgeCluster, EngineOptions,
    Evaluator, Orchestrator, SerialOrchestrator, Tracer,
};
use clan_distsim::Cluster;
use clan_hw::{Platform, PlatformKind};
use clan_neat::{Genome, NeatError, Population};
use clan_netsim::WifiModel;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The driver's default tournament size for async steady-state runs.
const TOURNAMENT_SIZE: usize = 3;
/// Genomes the stream probes time one at a time.
const STREAM_PROBE_GENOMES: usize = 32;
/// Insertions the steady-state probe times.
const INSERT_PROBE_EVENTS: u64 = 200;

/// What the traced pass hands back besides the metrics.
#[derive(Debug)]
pub struct Traced {
    /// Metrics and operation tally.
    pub outcome: Outcome,
    /// The hand-driven pass's spans.
    pub spans: SpanLog,
    /// `(layer, p50 ms, share of driver.gen_ms_p50 in %)` rows.
    pub shares: Vec<(&'static str, f64, f64)>,
    /// Caveats on how to read this pass's numbers.
    pub notes: Vec<String>,
}

/// One NEAT seed's evolution as a pass observed it: what the passes
/// must agree on, bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct SeedRun {
    neat_seed: u64,
    trajectory: Trajectory,
    /// Content hash of the best genome seen so far, after each
    /// generation.
    champions: Vec<Option<u64>>,
}

impl SeedRun {
    fn new(neat_seed: u64) -> SeedRun {
        SeedRun {
            neat_seed,
            trajectory: Vec::new(),
            champions: Vec::new(),
        }
    }
}

/// Named sample vectors; a metric with no samples reads 0.
#[derive(Debug, Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, vec![value]);
    }
}

/// The analytic cluster model every orchestrator carries alongside the
/// real one (the driver's defaults: Raspberry Pis on the measured WiFi).
fn simulated_cluster(agents: usize) -> Cluster {
    Cluster::homogeneous(
        Platform::new(PlatformKind::RaspberryPi),
        agents,
        WifiModel::default(),
    )
}

/// Whether another round the length of the ones so far still fits in
/// the pass's `seconds`: the traced pass's rounds are long (three lanes
/// of a whole repetition), so one that would overrun is not started.
fn another_round_fits(start: Instant, rounds: u64, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    rounds == 0 || elapsed + elapsed / rounds as f64 <= seconds
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole * 100.0
    }
}

/// Tracks the best genome the way every orchestrator's `track_best`
/// does: replaced only by a strictly higher fitness.
#[derive(Debug, Default)]
struct Champion(Option<(f64, u64)>);

impl Champion {
    fn observe(&mut self, best: Option<&Genome>) {
        if let Some((g, f)) = best.and_then(|g| Some((g, g.fitness()?))) {
            if self.0.is_none_or(|(cur, _)| f > cur) {
                self.0 = Some((f, g.content_hash()));
            }
        }
    }

    fn hash(&self) -> Option<u64> {
        self.0.map(|(_, h)| h)
    }
}

/// Records one codec round trip of a frame carrying `genomes` genomes.
fn push_codec(s: &mut Samples, codec: &probes::CodecSample, genomes: usize) {
    let n = genomes as f64;
    s.push("codec.encode_us_per_genome", codec.encode_s * 1e6 / n);
    s.push("codec.decode_us_per_genome", codec.decode_s * 1e6 / n);
    s.push("codec.bytes_per_genome", codec.frame.len() as f64 / n);
    s.push("codec.framing_overhead_x", codec.framing_overhead());
}

/// Echoes `frame` over the standalone transport pair and records it.
fn push_echo(s: &mut Samples, echo: &mut Echo, frame: &[u8]) -> Result<(), ClanError> {
    let rtt_s = echo.round_trip(frame)?;
    s.push("transport.frame_rtt_ms", rtt_s * 1e3);
    // The frame crosses the link twice per round trip.
    s.push(
        "transport.mib_per_s",
        2.0 * frame.len() as f64 / rtt_s / (1 << 20) as f64,
    );
    s.push(
        "transport.datagrams_per_frame",
        echo.datagrams_per_frame(frame.len()) as f64,
    );
    Ok(())
}

/// An orchestrator stepped one generation at a time, each
/// `step_generation` timed from outside.
struct OrchLane<O: Orchestrator> {
    orch: O,
    tracer: Option<Tracer>,
    run: SeedRun,
}

impl<O: Orchestrator> OrchLane<O> {
    fn new(mut orch: O, neat_seed: u64, traced: bool) -> OrchLane<O> {
        let tracer = traced.then(Tracer::new);
        if let Some(t) = &tracer {
            orch.install_tracer(t.clone());
        }
        OrchLane {
            orch,
            tracer,
            run: SeedRun::new(neat_seed),
        }
    }

    /// Steps one generation; returns its wall in ms and best fitness.
    fn step(&mut self) -> Result<(f64, f64), ClanError> {
        let t = Instant::now();
        let report = self.orch.step_generation()?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.run
            .trajectory
            .push((report.best_fitness.to_bits(), report.num_species));
        let champion = self.orch.best_ever().map(Genome::content_hash);
        self.run.champions.push(champion);
        Ok((ms, report.best_fitness))
    }

    /// The run as observed, and the trace events recorded (0 untraced).
    fn finish(self) -> (SeedRun, u64) {
        let events = self
            .tracer
            .and_then(|t| t.finish())
            .map_or(0, |t| t.events.len() as u64);
        (self.run, events)
    }
}

fn dcs_lane(
    def: &WorkloadDef,
    inputs: &Inputs,
    neat_seed: u64,
    traced: bool,
) -> Result<OrchLane<DcsOrchestrator>, ClanError> {
    let orch = DcsOrchestrator::new(
        Population::new(def.neat_config(), neat_seed),
        def.coordinator_evaluator(def.spawn_cluster(inputs)?),
        simulated_cluster(AGENTS),
    );
    Ok(OrchLane::new(orch, neat_seed, traced))
}

/// The bit-identity reference: an in-process `SerialOrchestrator`
/// stepped for `generations`.
fn serial_reference(
    def: &WorkloadDef,
    neat_seed: u64,
    generations: usize,
) -> Result<SeedRun, ClanError> {
    let orch = SerialOrchestrator::new(
        Population::new(def.neat_config(), neat_seed),
        def.evaluator(EngineOptions::default()),
        simulated_cluster(1),
    );
    let mut lane = OrchLane::new(orch, neat_seed, false);
    for _ in 0..generations {
        lane.step()?;
    }
    Ok(lane.finish().0)
}

/// One NEAT seed's hand-driven evolution: its own cluster, population
/// and echo pair.
struct HandLane {
    cluster: EdgeCluster,
    pop: Population,
    /// Mirror of the cluster's fitness cache: content hashes already
    /// evaluated under this master seed are served coordinator-side and
    /// never scattered.
    cached: BTreeSet<u64>,
    champion: Champion,
    run: SeedRun,
    /// Opened at the first probe, so the far end's idle deadline only
    /// ever spans the gap between two probes.
    echo: Option<Echo>,
}

impl HandLane {
    fn new(def: &WorkloadDef, inputs: &Inputs, neat_seed: u64) -> Result<HandLane, ClanError> {
        Ok(HandLane {
            cluster: def.spawn_cluster(inputs)?,
            pop: Population::new(def.neat_config(), neat_seed),
            cached: BTreeSet::new(),
            champion: Champion::default(),
            run: SeedRun::new(neat_seed),
            echo: None,
        })
    }
}

/// What the hand-driven pass accumulates over every seed and round.
struct HandDriven<'a> {
    def: &'a WorkloadDef,
    inputs: &'a Inputs,
    log: SpanLog,
    samples: Samples,
    agent: Evaluator,
    /// Identifier shared by the spans of one generation.
    next_generation_id: u64,
    cache_hits: u64,
    cache_lookups: u64,
    activations: u64,
    evals: u64,
    wire_bytes: u64,
    retrans_bytes: u64,
    link_failures: u64,
    makespan_s: f64,
    busy_s: f64,
    /// Σ local-evaluator ms and Σ generation ms over probed generations.
    probed_eval_ms: f64,
    probed_generation_ms: f64,
    codec_mismatches: u64,
    last_population: Option<Population>,
}

impl<'a> HandDriven<'a> {
    fn new(def: &'a WorkloadDef, inputs: &'a Inputs) -> HandDriven<'a> {
        HandDriven {
            def,
            inputs,
            log: SpanLog::new(),
            samples: Samples::default(),
            agent: def.agent_evaluator(),
            next_generation_id: 0,
            cache_hits: 0,
            cache_lookups: 0,
            activations: 0,
            evals: 0,
            wire_bytes: 0,
            retrans_bytes: 0,
            link_failures: 0,
            makespan_s: 0.0,
            busy_s: 0.0,
            probed_eval_ms: 0.0,
            probed_generation_ms: 0.0,
            codec_mismatches: 0,
            last_population: None,
        }
    }

    /// Out-of-band probes on `chunk`, the largest share of the genomes
    /// about to be scattered that one agent gets. Returns the local
    /// evaluator's wall for it, ms.
    fn probe(&mut self, lane: &mut HandLane, chunk: &[Genome]) -> Result<Option<f64>, ClanError> {
        if chunk.is_empty() {
            return Ok(None);
        }
        let pop = &lane.pop;
        let n = chunk.len() as f64;
        let span = self.log.enter("bench.probe", self.next_generation_id);
        let codec = probes::codec(chunk, pop.generation(), pop.master_seed());
        self.codec_mismatches += u64::from(!codec.round_trips);
        let s = &mut self.samples;
        push_codec(s, &codec, chunk.len());
        let compile_s = probes::compile(chunk, pop.config());
        s.push("network.compile_us_per_genome", compile_s * 1e6 / n);
        let (eval_s, _) = probes::evaluate(
            &mut self.agent,
            chunk,
            pop.config(),
            pop.master_seed(),
            pop.generation(),
        );
        s.push("evaluator.eval_us_per_genome", eval_s * 1e6 / n);
        let echo = match &mut lane.echo {
            Some(echo) => echo,
            none => none.insert(Echo::for_workload(self.def, self.inputs)?),
        };
        push_echo(s, echo, &codec.frame)?;
        self.log.exit(span);
        Ok(Some(eval_s * 1e3))
    }

    /// One generation from public calls, a span around each; returns
    /// the generation's best fitness.
    fn step(&mut self, lane: &mut HandLane, g: u64) -> Result<f64, ClanError> {
        let def = self.def;
        let id = self.next_generation_id;
        let hashes: Vec<u64> = lane
            .pop
            .genomes()
            .values()
            .map(Genome::content_hash)
            .collect();
        let probed_eval_ms = if def.probe_every > 0 && g.is_multiple_of(def.probe_every) {
            // Cache hits are served coordinator-side; the misses are
            // split evenly, so the first agent's chunk is the largest.
            let is_miss = |h: &&u64| !lane.cached.contains(*h);
            let largest_chunk = hashes.iter().filter(is_miss).count().div_ceil(AGENTS);
            let chunk: Vec<Genome> = lane
                .pop
                .genomes()
                .values()
                .zip(&hashes)
                .filter(|(_, h)| is_miss(h))
                .take(largest_chunk)
                .map(|(g, _)| g.clone())
                .collect();
            self.probe(lane, &chunk)?
        } else {
            None
        };
        lane.cached.extend(hashes);
        let HandLane { cluster, pop, .. } = lane;

        let generation = self.log.enter("driver.generation", id);
        let before = cluster.gather_stats();
        let span = self.log.enter("runtime.gather", id);
        let results = cluster.evaluate_collect(pop)?;
        for &(genome, eval, _) in &results {
            pop.set_fitness(genome, eval.fitness)?;
        }
        let gather_ms = self.log.exit(span);
        let after = cluster.gather_stats();

        let best = pop.best();
        let best_fitness =
            best.and_then(Genome::fitness)
                .ok_or_else(|| ClanError::InvalidSetup {
                    reason: "gather returned no fitness".into(),
                })?;
        lane.champion.observe(best);

        let span = self.log.enter("species.speciate", id);
        let speciation = pop.speciate();
        let speciate_ms = self.log.exit(span);
        let span = self.log.enter("reproduction.plan", id);
        let plan = pop.plan_generation();
        let plan_ms = self.log.exit(span);
        let (species, reproduce_ms, install_ms) = match plan {
            Ok(plan) => {
                let span = self.log.enter("reproduction.reproduce", id);
                let children = pop.reproduce_centrally(&plan);
                let reproduce_ms = self.log.exit(span);
                let span = self.log.enter("reproduction.install", id);
                pop.install_next_generation(children);
                (speciation.species_count, reproduce_ms, self.log.exit(span))
            }
            // As the orchestrators' central evolution does.
            Err(NeatError::Extinction) if pop.config().reset_on_extinction => {
                pop.reset_population();
                (0, 0.0, 0.0)
            }
            Err(e) => return Err(e.into()),
        };
        let generation_ms = self.log.exit(generation);
        self.next_generation_id += 1;

        self.evals += results.len() as u64;
        self.activations += results.iter().map(|r| r.1.activations).sum::<u64>();
        let (hits, lookups) = cluster.take_cache_window();
        self.cache_hits += hits;
        self.cache_lookups += lookups;
        self.makespan_s += after.makespan_s - before.makespan_s;
        self.busy_s += after.busy_s - before.busy_s;
        let s = &mut self.samples;
        s.push("runtime.gather_ms_p50", gather_ms);
        s.push("runtime.busy_ms_p50", (after.busy_s - before.busy_s) * 1e3);
        s.push("species.speciate_ms", speciate_ms);
        s.push("reproduction.plan_ms", plan_ms);
        s.push("reproduction.reproduce_ms", reproduce_ms);
        s.push("reproduction.install_ms", install_ms);
        s.push("hand.generation_ms", generation_ms);
        s.push(
            "hand.layers_ms",
            gather_ms + speciate_ms + plan_ms + reproduce_ms + install_ms,
        );
        if let Some(eval_ms) = probed_eval_ms {
            s.push("runtime.wire_overhead_ms", gather_ms - eval_ms);
            self.probed_eval_ms += eval_ms;
            self.probed_generation_ms += generation_ms;
        }
        lane.run.trajectory.push((best_fitness.to_bits(), species));
        lane.run.champions.push(lane.champion.hash());
        Ok(best_fitness)
    }

    /// Reads the lane's cluster-lifetime counters and shuts it down.
    fn finish(&mut self, lane: HandLane) -> SeedRun {
        let ledger = lane.cluster.ledger();
        self.wire_bytes += ledger.total_wire_bytes();
        self.retrans_bytes += ledger.total_retrans_bytes();
        self.link_failures += lane.cluster.recovery_stats().failures;
        if let Some(echo) = lane.echo {
            echo.close();
        }
        self.last_population = Some(lane.pop);
        lane.run
    }
}

/// The three observers of one seed's evolution.
#[derive(Debug, Clone, Copy)]
enum Lane {
    /// `DcsOrchestrator::step_generation`, tracing off.
    Driver,
    /// The same with a live `Tracer`.
    Telemetry,
    /// The generation driven from public calls, a span around each.
    Hand,
}

/// The traced pass of a generational or solve workload.
fn generational(
    def: &'static WorkloadDef,
    shape: Shape,
    inputs: &Inputs,
    seconds: f64,
    ops: &mut Ops,
) -> Result<(Samples, SpanLog), ClanError> {
    let (generations, solve) = match shape {
        Shape::Solve { cap, .. } => (cap, true),
        Shape::Generations { generations, .. } => (generations, false),
        Shape::Stream { .. } => unreachable!("the stream has its own pass"),
    };
    // On TCP the lanes of a seed advance in lockstep, one generation each
    // in turn, so a drift in the host's speed falls on all three alike.
    // A timer-driven ARQ behaves differently when its links sit idle
    // between generations (retransmissions settle in the gaps), so the
    // UDP lanes run one after the other, back to back as a driver run is.
    let schedule: &[&[Lane]] = match def.wire {
        Wire::Tcp => &[&[Lane::Driver, Lane::Telemetry, Lane::Hand]],
        Wire::Udp { .. } => &[&[Lane::Driver], &[Lane::Telemetry], &[Lane::Hand]],
    };
    let start = Instant::now();
    let mut driver_ms = Vec::new();
    let mut telemetry_ms = Vec::new();
    let mut events = 0;
    let mut hand = HandDriven::new(def, inputs);
    let mut gens_to_solve = 0;
    let mut rounds = 0u64;
    while another_round_fits(start, rounds, seconds) {
        for (i, neat_seed) in shape.neat_seeds(inputs).into_iter().enumerate() {
            let mut driver = dcs_lane(def, inputs, neat_seed, false)?;
            let mut telemetry = dcs_lane(def, inputs, neat_seed, true)?;
            let mut by_hand = HandLane::new(def, inputs, neat_seed)?;
            for group in schedule {
                for g in 0..generations {
                    let mut best = f64::NEG_INFINITY;
                    for lane in *group {
                        best = match lane {
                            Lane::Driver => {
                                let (ms, fitness) = driver.step()?;
                                driver_ms.push(ms);
                                fitness
                            }
                            Lane::Telemetry => {
                                let (ms, fitness) = telemetry.step()?;
                                telemetry_ms.push(ms);
                                fitness
                            }
                            Lane::Hand => hand.step(&mut by_hand, g)?,
                        };
                    }
                    if solve && best >= def.env.solved_at() {
                        break;
                    }
                }
            }
            let (driver, _) = driver.finish();
            let (telemetry, e) = telemetry.finish();
            let by_hand = hand.finish(by_hand);
            events += e;
            let what = format!("{} seed {neat_seed}", def.name);
            ops.check(driver == telemetry, || {
                format!("{what}: a live tracer changed the evolution")
            });
            ops.check(driver == by_hand, || {
                format!("{what}: the hand-driven generations evolved differently from the driver's")
            });
            if rounds > 0 {
                continue;
            }
            gens_to_solve += driver.trajectory.len();
            if solve {
                let best = driver
                    .trajectory
                    .last()
                    .map(|(bits, _)| f64::from_bits(*bits));
                ops.check(best.is_some_and(|b| b >= def.env.solved_at()), || {
                    format!("{what}: unsolved after {generations} generations")
                });
            }
            if i == 0 {
                let checked = driver
                    .trajectory
                    .len()
                    .min(SERIAL_CHECK_GENERATIONS as usize);
                let serial = serial_reference(def, neat_seed, checked);
                if let Some(serial) = ops.attempt(&format!("{what} serial reference"), serial) {
                    ops.check(
                        serial.trajectory[..] == driver.trajectory[..checked]
                            && serial.champions[..] == driver.champions[..checked],
                        || format!("{what}: cluster run diverges from serial within {checked} generations"),
                    );
                }
            }
        }
        rounds += 1;
    }
    ops.check(hand.codec_mismatches == 0, || {
        format!(
            "{}: {} probed frame(s) did not decode to the message encoded",
            def.name, hand.codec_mismatches
        )
    });

    let driver_total: f64 = driver_ms.iter().sum();
    let telemetry_total: f64 = telemetry_ms.iter().sum();
    let s = &mut hand.samples;
    let layers_total = s.sum("hand.layers_ms");
    let hand_total = s.sum("hand.generation_ms");
    let evolution_total = s.sum("species.speciate_ms")
        + s.sum("reproduction.plan_ms")
        + s.sum("reproduction.reproduce_ms")
        + s.sum("reproduction.install_ms");
    // Sample i of every lane is the same generation of the same seed.
    let self_ms: Vec<f64> = driver_ms
        .iter()
        .zip(s.get("hand.layers_ms"))
        .map(|(d, l)| d - l)
        .collect();
    s.set("driver.self_ms", median(&self_ms));
    s.set("driver.gen_ms_p90", percentile(&driver_ms, 90.0));
    s.set(
        "telemetry.events_per_gen",
        events as f64 / driver_ms.len().max(1) as f64,
    );
    s.0.insert("driver.gen_ms_p50", driver_ms);
    if solve {
        s.set("driver.gens_to_solve", gens_to_solve as f64);
    }
    s.set(
        "telemetry.overhead_pct",
        pct(telemetry_total - driver_total, driver_total),
    );
    s.set(
        "budget.residual_pct",
        pct((driver_total - layers_total).abs(), driver_total),
    );
    s.set(
        "bench.span_overhead_pct",
        pct(hand_total - driver_total, driver_total),
    );
    s.set(
        "evaluator.share_of_gen_pct",
        pct(hand.probed_eval_ms, hand.probed_generation_ms),
    );
    s.set(
        "evolution.share_of_gen_pct",
        pct(evolution_total, hand_total),
    );
    s.set(
        "cache.hit_rate",
        hand.cache_hits as f64 / hand.cache_lookups.max(1) as f64,
    );
    s.set(
        "envs.steps_per_eval",
        hand.activations as f64 / hand.evals.max(1) as f64,
    );
    s.set(
        "transport.retrans_bytes_ratio",
        hand.retrans_bytes as f64 / hand.wire_bytes.max(1) as f64,
    );
    s.set("transport.link_failures", hand.link_failures as f64);
    s.set(
        "runtime.idle_share",
        1.0 - hand.busy_s / (AGENTS as f64 * hand.makespan_s).max(f64::MIN_POSITIVE),
    );
    if let Some(mut pop) = hand.last_population.take() {
        // The last generation's children have not been evaluated.
        probes::fill_fitness(&mut pop, &mut hand.agent);
        population_probes(def, &pop, inputs, s);
    }
    Ok((hand.samples, hand.log))
}

/// The once-per-workload probes on the final, fully evaluated
/// population: the kernels, and what a steady-state insertion into it
/// costs (on the generational workloads, the road not taken).
fn population_probes(def: &WorkloadDef, pop: &Population, inputs: &Inputs, s: &mut Samples) {
    s.set(
        "steady_state.insert_us",
        probes::steady_state_insert(pop, TOURNAMENT_SIZE, INSERT_PROBE_EVENTS) * 1e6,
    );
    let k = probes::kernels(
        def,
        pop,
        EngineOptions::default().batch_lanes,
        inputs.probe_seed,
    );
    s.set("network.activate_ns", k.activate_ns);
    s.set("network.genes_per_activation", k.genes_per_activation);
    s.set("batch.activate_ns_per_lane", k.batch_ns_per_lane);
    s.set("envs.step_ns", k.env_step_ns);
}

/// One streamed async run through the orchestrator's public surface.
struct StreamRun {
    wall_s: f64,
    stats: AsyncStats,
    events: u64,
    wire_bytes: u64,
    retrans_bytes: u64,
    link_failures: u64,
    population: Population,
}

fn stream_run(
    def: &WorkloadDef,
    evals: u64,
    neat_seed: u64,
    inputs: &Inputs,
    traced: bool,
    log: &mut SpanLog,
) -> Result<StreamRun, ClanError> {
    let cluster = def.spawn_cluster(inputs)?;
    let mut orch = AsyncOrchestrator::new(
        Population::new(def.neat_config(), neat_seed),
        def.coordinator_evaluator(cluster),
        evals,
        TOURNAMENT_SIZE,
    )?;
    let tracer = traced.then(Tracer::new);
    if let Some(t) = &tracer {
        orch.install_tracer(t.clone());
    }
    let span = log.enter(
        if traced {
            "telemetry.run_streamed"
        } else {
            "driver.run_streamed"
        },
        0,
    );
    orch.run_streamed()?;
    let wall_s = log.exit(span) / 1e3;
    let stats = orch
        .stats()
        .cloned()
        .ok_or_else(|| ClanError::InvalidSetup {
            reason: "streamed run recorded no stats".into(),
        })?;
    let events = tracer
        .and_then(|t| t.finish())
        .map_or(0, |t| t.events.len() as u64);
    let ledger = orch.evaluator().remote_ledger();
    let wire_bytes = ledger.map_or(0, |l| l.total_wire_bytes());
    let retrans_bytes = ledger.map_or(0, |l| l.total_retrans_bytes());
    let link_failures = orch
        .evaluator()
        .remote_recovery_stats()
        .map_or(0, |r| r.failures);
    let (population, _evaluator) = orch.into_parts();
    Ok(StreamRun {
        wall_s,
        stats,
        events,
        wire_bytes,
        retrans_bytes,
        link_failures,
        population,
    })
}

/// The traced pass of the stream workload: `run_streamed` wrapped in a
/// span, `AsyncStats` read afterwards, probes on the final population
/// one genome per frame (as the stream sends them).
fn stream(
    def: &'static WorkloadDef,
    shape: Shape,
    evals: u64,
    inputs: &Inputs,
    seconds: f64,
    ops: &mut Ops,
) -> Result<(Samples, SpanLog), ClanError> {
    let start = Instant::now();
    let mut log = SpanLog::new();
    let mut s = Samples::default();
    let (mut plain_s, mut traced_s, mut events, mut runs) = (0.0, 0.0, 0, 0u64);
    let mut rounds = 0u64;
    let mut last = None;
    while another_round_fits(start, rounds, seconds) {
        // Untraced and traced runs of a seed back to back, so a drift in
        // the host's speed falls on both.
        for neat_seed in shape.neat_seeds(inputs) {
            let plain = stream_run(def, evals, neat_seed, inputs, false, &mut log)?;
            let traced = stream_run(def, evals, neat_seed, inputs, true, &mut log)?;
            for (pass, run) in [("driver", &plain), ("telemetry", &traced)] {
                let what = format!("{} seed {neat_seed} {pass} pass", def.name);
                check_stream_counts(ops, &what, evals, &run.stats);
            }
            // The stream has no generations: its per-generation figures
            // are per POPULATION evaluations.
            let generations = plain.stats.total_evals as f64 / POPULATION as f64;
            let per_generation_ms = |seconds: f64| seconds * 1e3 / generations;
            s.push("driver.gen_ms_p50", per_generation_ms(plain.wall_s));
            s.push(
                "runtime.gather_ms_p50",
                per_generation_ms(plain.stats.makespan_s),
            );
            s.push("runtime.busy_ms_p50", per_generation_ms(plain.stats.busy_s));
            // Bootstrap, worker start and join around the dispatch loop.
            s.push(
                "driver.self_ms",
                per_generation_ms(plain.wall_s - plain.stats.makespan_s),
            );
            s.push(
                "runtime.stream_wasted_idle_share",
                plain.stats.wasted_idle_s / (AGENTS as f64 * plain.stats.makespan_s),
            );
            s.push("runtime.redispatches", plain.stats.redispatches as f64);
            s.push(
                "transport.retrans_bytes_ratio",
                plain.retrans_bytes as f64 / plain.wire_bytes.max(1) as f64,
            );
            s.push("transport.link_failures", plain.link_failures as f64);
            // Share of run_streamed's wall outside the dispatch loop's
            // own makespan (bootstrap, worker start and join).
            s.push(
                "budget.residual_pct",
                pct((plain.wall_s - plain.stats.makespan_s).abs(), plain.wall_s),
            );
            plain_s += plain.wall_s;
            traced_s += traced.wall_s;
            events += traced.events;
            runs += 1;
            last = Some(plain);
        }
        rounds += 1;
    }
    let last = last.expect("at least one run completed");
    let generations = runs as f64 * evals as f64 / POPULATION as f64;
    s.set("telemetry.overhead_pct", pct(traced_s - plain_s, plain_s));
    s.set("telemetry.events_per_gen", events as f64 / generations);
    s.set(
        "driver.gen_ms_p90",
        percentile(s.get("driver.gen_ms_p50"), 90.0),
    );

    let mut agent = def.agent_evaluator();
    let mut pop = last.population;
    // The children inserted last were still in flight when the budget
    // ran out.
    probes::fill_fitness(&mut pop, &mut agent);
    let span = log.enter("bench.probe", 0);
    let mut echo = Echo::for_workload(def, inputs)?;
    let mut mismatches = 0u64;
    let (mut eval_s, mut activations) = (0.0, 0u64);
    let probed: Vec<Genome> = pop
        .genomes()
        .values()
        .take(STREAM_PROBE_GENOMES)
        .cloned()
        .collect();
    for g in &probed {
        let codec = probes::codec(std::slice::from_ref(g), pop.generation(), pop.master_seed());
        mismatches += u64::from(!codec.round_trips);
        push_codec(&mut s, &codec, 1);
        push_echo(&mut s, &mut echo, &codec.frame)?;
        let (t, a) = probes::evaluate(
            &mut agent,
            std::slice::from_ref(g),
            pop.config(),
            pop.master_seed(),
            pop.generation(),
        );
        s.push("evaluator.eval_us_per_genome", t * 1e6);
        eval_s += t;
        activations += a;
    }
    echo.close();
    ops.check(mismatches == 0, || {
        format!(
            "{}: {mismatches} probed frame(s) did not decode to the message encoded",
            def.name
        )
    });
    s.set(
        "network.compile_us_per_genome",
        probes::compile(&probed, pop.config()) * 1e6 / probed.len().max(1) as f64,
    );
    s.set(
        "envs.steps_per_eval",
        activations as f64 / probed.len().max(1) as f64,
    );
    // The central evolution step the steady-state insertions replace.
    if let Some(e) = probes::evolution(&pop) {
        s.set("species.speciate_ms", e.speciate_s * 1e3);
        s.set("reproduction.plan_ms", e.plan_s * 1e3);
        s.set("reproduction.reproduce_ms", e.reproduce_s * 1e3);
        s.set("reproduction.install_ms", e.install_s * 1e3);
    }
    // Both agents evaluate concurrently, so a generation-equivalent of
    // POPULATION evaluations keeps each busy for POPULATION / AGENTS.
    let eval_ms_per_generation =
        eval_s * 1e3 / probed.len().max(1) as f64 * POPULATION as f64 / AGENTS as f64;
    s.set(
        "evaluator.share_of_gen_pct",
        pct(eval_ms_per_generation, median(s.get("driver.gen_ms_p50"))),
    );
    s.set(
        "runtime.wire_overhead_ms",
        median(s.get("runtime.gather_ms_p50")) - eval_ms_per_generation,
    );
    population_probes(def, &pop, inputs, &mut s);
    log.exit(span);
    Ok((s, log))
}

/// The `--trace 1` pass of one workload.
pub fn per_layer(def: &'static WorkloadDef, seed: u64, seconds: f64, smoke: bool) -> Traced {
    let inputs = Inputs::from_seed(seed);
    let shape = def.shape(smoke);
    let mut ops = Ops::default();
    let pass = match shape {
        Shape::Stream { evals, .. } => stream(def, shape, evals, &inputs, seconds, &mut ops),
        _ => generational(def, shape, &inputs, seconds, &mut ops),
    };
    let (samples, spans) = ops
        .attempt(&format!("{} traced pass", def.name), pass)
        .unwrap_or_default();

    let metrics: Vec<MetricValue> = PER_LAYER
        .iter()
        .map(|def| MetricValue {
            def,
            summary: Summary::of(samples.get(def.name)).unwrap_or(Summary::ZERO),
        })
        .collect();

    let p50 = |name: &str| median(samples.get(name));
    let generation_ms = p50("driver.gen_ms_p50");
    // Only what the workload's own generation is made of: the stream's
    // evolution figures are out-of-band probes, not a share of anything.
    let on_path: &[&'static str] = match shape {
        Shape::Stream { .. } => &[
            "runtime.gather_ms_p50",
            "runtime.wire_overhead_ms",
            "driver.self_ms",
        ],
        Shape::Solve { .. } | Shape::Generations { .. } => &[
            "runtime.gather_ms_p50",
            "runtime.wire_overhead_ms",
            "species.speciate_ms",
            "reproduction.plan_ms",
            "reproduction.reproduce_ms",
            "reproduction.install_ms",
            "driver.self_ms",
        ],
    };
    let shares = on_path
        .iter()
        .map(|&name| (name, p50(name), pct(p50(name), generation_ms)))
        .collect();

    let generation_samples = samples.get("driver.gen_ms_p50").len();
    let mut notes = Vec::new();
    if !has_tail(generation_samples, 90.0) {
        notes.push(format!(
            "driver.gen_ms_p90 is indicative only: fewer than ten of its {generation_samples} \
             generation samples lie beyond it"
        ));
    }

    Traced {
        outcome: Outcome {
            workload: def.name,
            traced: true,
            repetitions: 1,
            ops,
            metrics,
        },
        spans,
        shares,
        notes,
    }
}
