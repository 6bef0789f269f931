//! Property-based pins for the async steady-state mode: the two
//! insert-replace invariants (size conservation, champion protection)
//! and the virtual-time reproducibility contract over *arbitrary*
//! seeded latency schedules — not just the hand-picked ones the unit
//! tests use. Plus the live-vs-virtual pins: the streamed run is the
//! same loop as its virtual-time twin, bootstrap rule included, and it
//! keeps its books when a link dies with a full window outstanding or
//! runs two frames deep over a lossy datagram link.

use clan::core::runtime::AgentSource;
use clan::core::transport::agent::serve_session;
use clan::core::transport::{channel_pair, ChannelTransport, FaultConfig, UdpConfig};
use clan::core::{
    AsyncOrchestrator, ClanError, ClusterSpec, EdgeCluster, Evaluator, EventKind, InferenceMode,
    LatencySchedule, LinkHealth, RecoveryPolicy, TraceEvent, Tracer, Transport, STREAM_WINDOW,
};
use clan::envs::Workload;
use clan::neat::rng::{derive_seed, OpTag};
use clan::neat::steady_state::steady_state_insert;
use clan::neat::{GenomeId, NeatConfig, Population};
use proptest::prelude::*;

/// A population with every member evaluated to a fitness drawn from a
/// seeded stream (so champions land on arbitrary ids, not just id 0).
fn evaluated_pop(n: usize, seed: u64) -> Population {
    let cfg = NeatConfig::builder(2, 1)
        .population_size(n)
        .build()
        .expect("config");
    let mut pop = Population::new(cfg, seed);
    let ids: Vec<GenomeId> = pop.genomes().keys().copied().collect();
    for (i, id) in ids.iter().enumerate() {
        let f = (derive_seed(seed, &[i as u64, OpTag::Tournament as u64]) % 1000) as f64;
        pop.set_fitness(*id, f).expect("resident");
    }
    pop
}

/// Current champion: the max-fitness evaluated member, ties toward the
/// lower id (the same rule `Population::best` uses).
fn champion(pop: &Population) -> (GenomeId, f64) {
    pop.genomes()
        .iter()
        .filter_map(|(id, g)| g.fitness().map(|f| (*id, f)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(b.0.cmp(&a.0)))
        .expect("at least one evaluated member")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ---------------- steady-state insert invariants ----------------

    #[test]
    fn insert_conserves_size_and_never_evicts_the_champion(
        seed in any::<u64>(),
        n in 4usize..14,
        tournament in 1usize..6,
        events in 1u64..30,
    ) {
        let mut pop = evaluated_pop(n, seed);
        let mut floor = champion(&pop).1;
        for e in 0..events {
            let (champ_id, champ_fit) = champion(&pop);
            let report = steady_state_insert(&mut pop, tournament, e)
                .expect("a fully evaluated population always has a victim");
            // Size conservation: one in, one out, every single event.
            prop_assert_eq!(pop.len(), n);
            // Champion protection: the best genome is never the victim,
            // stays resident, and keeps its fitness bit-for-bit.
            prop_assert_ne!(report.evicted, champ_id);
            let still = pop.genome(champ_id).expect("champion survives");
            prop_assert_eq!(still.fitness(), Some(champ_fit));
            // Therefore the resident max fitness never regresses.
            prop_assert!(champion(&pop).1 >= floor);
            floor = champion(&pop).1;
            // The child arrives unevaluated; score it (seeded, so some
            // children dethrone the champion and rotate the protected id)
            // to model the completion that would trigger the next event.
            let f = (derive_seed(seed ^ 0xA5, &[e, report.child.0]) % 1500) as f64;
            pop.set_fitness(report.child, f).expect("child resident");
        }
    }

    #[test]
    fn insert_replays_bit_identically_for_any_seed(
        seed in any::<u64>(),
        n in 4usize..12,
        tournament in 1usize..6,
        event in any::<u64>(),
    ) {
        let mut a = evaluated_pop(n, seed);
        let mut b = evaluated_pop(n, seed);
        let ra = steady_state_insert(&mut a, tournament, event).expect("victim");
        let rb = steady_state_insert(&mut b, tournament, event).expect("victim");
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(
            a.genome(ra.child).expect("resident").content_hash(),
            b.genome(rb.child).expect("resident").content_hash()
        );
    }

    // ---------------- virtual-time reproducibility ----------------

    #[test]
    fn virtual_replay_is_deterministic_for_any_schedule(
        master in any::<u64>(),
        sched_seed in any::<u64>(),
        bases in proptest::collection::vec(1u64..20_000, 1..4),
        jitter in 0u32..91,
        extra_evals in 0u64..20,
    ) {
        let w = Workload::CartPole;
        let n = bases.len() * STREAM_WINDOW + 2;
        let total = n as u64 + extra_evals;
        let schedule = LatencySchedule::new(sched_seed, bases.clone(), jitter)
            .expect("positive bases, jitter <= 90");
        let run = || {
            let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
                .population_size(n)
                .build()
                .expect("config");
            let evaluator = Evaluator::new(w, InferenceMode::MultiStep);
            let mut orch =
                AsyncOrchestrator::new(Population::new(cfg, master), evaluator, total, 3)
                    .expect("budget covers the population");
            let tracer = Tracer::new();
            orch.install_tracer(tracer.clone());
            orch.run_virtual(&schedule).expect("virtual run");
            let stats = orch.stats().expect("run finished").clone();
            let trace = tracer.finish().expect("live tracer records");
            (trace.logical_text(), stats)
        };
        let (log_a, stats_a) = run();
        let (log_b, stats_b) = run();
        // The whole contract: same (seed, schedule) => byte-identical
        // logical traces, same hash, same final best fitness.
        prop_assert_eq!(&log_a, &log_b);
        prop_assert_eq!(stats_a.event_log_hash, stats_b.event_log_hash);
        prop_assert_eq!(stats_a.best_fitness.to_bits(), stats_b.best_fitness.to_bits());
        prop_assert_eq!(stats_a.total_evals, total);
        let completions = log_a.lines().filter(|l| l.contains(" k=async ")).count();
        prop_assert_eq!(completions as u64, total);
    }

    #[test]
    fn service_times_are_pure_and_jitter_bounded(
        sched_seed in any::<u64>(),
        base in 1u64..1_000_000,
        jitter in 0u32..91,
        agent in 0usize..4,
        k in any::<u64>(),
    ) {
        let s = LatencySchedule::new(sched_seed, vec![base; 4], jitter).expect("valid");
        let t = s.service_us(agent, k);
        prop_assert_eq!(t, s.service_us(agent, k), "pure in (agent, k)");
        prop_assert!(t >= 1);
        let lo = base as i128 * (100 - i128::from(jitter)) / 100;
        let hi = base as i128 * (100 + i128::from(jitter)) / 100;
        prop_assert!((t as i128) >= lo.max(1) && (t as i128) <= hi,
            "service {t} outside ±{jitter}% of {base}");
    }
}

// ---------------- the live run is the virtual run's twin ----------------

fn cartpole_cfg(population: usize) -> NeatConfig {
    let w = Workload::CartPole;
    NeatConfig::builder(w.obs_dim(), w.n_actions())
        .population_size(population)
        .build()
        .expect("config")
}

fn cartpole_spec(population: usize) -> ClusterSpec {
    ClusterSpec::new(
        Workload::CartPole,
        InferenceMode::MultiStep,
        cartpole_cfg(population),
    )
}

/// A traced CartPole steady-state coordinator, streaming over `cluster`
/// when there is one.
fn traced_orchestrator(
    population: usize,
    total_evals: u64,
    seed: u64,
    cluster: Option<EdgeCluster>,
) -> (AsyncOrchestrator, Tracer) {
    let mut evaluator = Evaluator::new(Workload::CartPole, InferenceMode::MultiStep);
    if let Some(cluster) = cluster {
        evaluator = evaluator.with_remote(cluster);
    }
    let pop = Population::new(cartpole_cfg(population), seed);
    let mut orch = AsyncOrchestrator::new(pop, evaluator, total_evals, 3)
        .expect("budget covers the population");
    let tracer = Tracer::new();
    orch.install_tracer(tracer.clone());
    (orch, tracer)
}

/// One traced CartPole steady-state run: `live` streams over that many
/// in-process channel agents, otherwise `agents` are simulated by a
/// virtual-time schedule. Returns the coordinator and the run's events.
fn traced_run(
    population: usize,
    agents: usize,
    total_evals: u64,
    seed: u64,
    live: bool,
) -> (AsyncOrchestrator, Vec<TraceEvent>) {
    let cluster = live.then(|| {
        EdgeCluster::from_source(agents, cartpole_spec(population), AgentSource::Threads)
            .expect("cluster")
    });
    let (mut orch, tracer) = traced_orchestrator(population, total_evals, seed, cluster);
    if live {
        orch.run_streamed().expect("streamed run");
    } else {
        let schedule = LatencySchedule::new(seed, vec![1_000; agents], 20).expect("schedule");
        orch.run_virtual(&schedule).expect("virtual run");
    }
    (orch, tracer.finish().expect("live tracer records").events)
}

/// The `(child, evicted, p1, p2)` of every insertion, in order — carried
/// by logical `Completion` events under virtual time and by `Insertion`
/// annotations on a live cluster.
fn insertions(events: &[TraceEvent]) -> Vec<[u64; 4]> {
    events
        .iter()
        .filter_map(|ev| Some([ev.child?, ev.evicted?, ev.p1?, ev.p2?]))
        .collect()
}

#[test]
fn one_agent_live_run_replays_its_virtual_twin_exactly() {
    // With exactly one agent, arrival order *is* dispatch order, so the
    // nondeterministic half of the live contract vanishes and the two
    // schedulers must drive the one loop through the same trajectory.
    let (population, evals, seed) = (12, 60, 11);
    let (live, live_events) = traced_run(population, 1, evals, seed, true);
    let (virt, virt_events) = traced_run(population, 1, evals, seed, false);
    let inserted = insertions(&live_events);
    assert_eq!(inserted.len() as u64, evals - population as u64);
    assert_eq!(inserted, insertions(&virt_events));
    assert_eq!(live.population().genomes(), virt.population().genomes());
    assert_eq!(live.population().best_ever(), virt.population().best_ever());
    let (live, virt) = (live.stats().expect("ran"), virt.stats().expect("ran"));
    assert_eq!(live.insertions, virt.insertions);
    assert_eq!(live.best_improvements, virt.best_improvements);
    assert_eq!(live.best_fitness.to_bits(), virt.best_fitness.to_bits());
}

#[test]
fn live_run_bootstraps_before_it_reproduces() {
    // Replays a 2-agent live run from its own trace. The founders go out
    // first, so nothing is inserted until all but the last full windows
    // of them (`population - agents x STREAM_WINDOW`) have reported, and
    // from then on tournaments always draw from a nearly full evaluated
    // set (a child bred on the 2nd arrival used to keep that set at size
    // one for the whole run).
    let (population, agents, evals) = (30usize, 2usize, 200u64);
    let (orch, events) = traced_run(population, agents, evals, 5, true);
    let mut evaluated = std::collections::BTreeSet::new();
    let mut inserted = 0u64;
    for ev in &events {
        match ev.kind {
            EventKind::Completion => {
                evaluated.insert(ev.genome.expect("completions name their genome"));
            }
            EventKind::Insertion => {
                if inserted == 0 {
                    assert!(
                        evaluated.len() >= population - agents * STREAM_WINDOW,
                        "first insertion after only {} completions",
                        evaluated.len()
                    );
                }
                assert!(evaluated.remove(&ev.evicted.expect("insertions name their victim")));
                inserted += 1;
                assert!(
                    evaluated.len() >= population - agents * STREAM_WINDOW - 1,
                    "insertion {inserted} left {} evaluated genomes",
                    evaluated.len()
                );
            }
            _ => {}
        }
    }
    assert_eq!(inserted, evals - population as u64);
    let stats = orch.stats().expect("ran");
    assert_eq!((stats.insertions, stats.total_evals), (inserted, evals));
    assert!(!stats.virtual_time && stats.best_fitness > f64::NEG_INFINITY);
    let stream = orch.stream_stats().expect("streamed");
    assert_eq!(stream.per_agent_items.iter().sum::<u64>(), evals);
    assert_eq!(orch.population().len(), population);
}

/// The slot [`cluster_with_a_dying_link`] puts behind a [`DyingLink`].
const DYING_SLOT: usize = 1;

/// A coordinator-side link that dies the way an unplugged device does:
/// after `replies_left` replies every `recv_frame` is a transport error.
struct DyingLink {
    inner: ChannelTransport,
    replies_left: usize,
}

impl Transport for DyingLink {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), ClanError> {
        self.inner.send_frame(frame)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, ClanError> {
        if self.replies_left == 0 {
            return Err(ClanError::Transport {
                peer: self.peer(),
                reason: "injected link death".into(),
            });
        }
        self.replies_left -= 1;
        self.inner.recv_frame()
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

/// Three channel agents, slot `DYING_SLOT` behind a [`DyingLink`] that
/// delivers `replies` evaluations first.
fn cluster_with_a_dying_link(population: usize, replies: usize) -> EdgeCluster {
    let transports = (0..3)
        .map(|slot| {
            let (coordinator, mut agent) = channel_pair();
            std::thread::spawn(move || {
                let _ = serve_session(&mut agent);
            });
            if slot == DYING_SLOT {
                Box::new(DyingLink {
                    inner: coordinator,
                    replies_left: replies,
                }) as Box<dyn Transport>
            } else {
                Box::new(coordinator)
            }
        })
        .collect();
    EdgeCluster::connect_transports(transports, cartpole_spec(population)).expect("cluster")
}

#[test]
fn live_run_redispatches_every_outstanding_genome_of_a_dead_link() {
    // The link dies in steady state (the bootstrap is over after
    // `population - 3 x STREAM_WINDOW` completions, about six a link)
    // with a full window outstanding; the survivors must finish the
    // budget with every lost genome evaluated exactly once.
    let (population, evals, replies) = (24usize, 150u64, 15usize);
    let cluster = cluster_with_a_dying_link(population, replies);
    let (mut orch, tracer) = traced_orchestrator(population, evals, 17, Some(cluster));
    orch.run_streamed().expect("two survivors finish the run");
    let events = tracer.finish().expect("live tracer records").events;

    let stats = orch.stats().expect("ran");
    assert_eq!(stats.total_evals, evals);
    assert_eq!(stats.insertions, evals - population as u64);
    assert!(
        (1..=STREAM_WINDOW as u64).contains(&stats.redispatches),
        "{} redispatches for one dead link",
        stats.redispatches
    );
    let stream = orch.stream_stats().expect("streamed");
    assert_eq!(stream.per_agent_items.iter().sum::<u64>(), evals);
    assert_eq!(stream.per_agent_items[DYING_SLOT], replies as u64);

    // Every genome completes once, and never on the dead slot after its
    // failure was seen.
    let mut completed = std::collections::BTreeSet::new();
    let mut dead = false;
    for ev in &events {
        match ev.kind {
            EventKind::AgentFailure => {
                assert_eq!(ev.agent, Some(DYING_SLOT as u64));
                dead = true;
            }
            EventKind::Completion => {
                let genome = ev.genome.expect("completions name their genome");
                assert!(completed.insert(genome), "genome {genome} completed twice");
                assert!(!(dead && ev.agent == Some(DYING_SLOT as u64)));
            }
            _ => {}
        }
    }
    assert!(dead, "the failure is traced");
    assert_eq!(completed.len() as u64, evals);

    let membership = orch.evaluator().remote_membership().expect("cluster");
    let lost = &membership[DYING_SLOT];
    assert_eq!((lost.health, lost.failures), (LinkHealth::Suspected, 1));
    assert!(lost
        .last_error
        .as_ref()
        .is_some_and(|e| e.contains("injected link death")));
    assert!(membership
        .iter()
        .enumerate()
        .all(|(slot, m)| slot == DYING_SLOT || m.failures == 0));

    // The same death under a floor of three live agents: the survivors
    // read the replies they are still owed and the run ends typed
    // instead of hanging.
    let mut cluster = cluster_with_a_dying_link(population, replies);
    cluster.set_recovery_policy(RecoveryPolicy::default().with_min_agents(3));
    let (mut orch, _tracer) = traced_orchestrator(population, evals, 17, Some(cluster));
    match orch.run_streamed() {
        Err(ClanError::Degraded { live, required }) => assert_eq!((live, required), (2, 3)),
        other => panic!("expected Degraded, got {other:?}"),
    }
}

#[test]
fn live_run_over_lossy_udp_keeps_two_frames_in_flight() {
    // Two request frames outstanding on one agent session over the
    // reliable-datagram transport, with seeded loss under the ARQ: the
    // window must cost retransmissions only, never a genome.
    let (population, evals) = (24usize, 120u64);
    let udp = UdpConfig::default()
        .with_retransmit_interval_s(0.01)
        .with_idle_timeout_s(10.0)
        .with_faults(FaultConfig::loss(0.05).with_seed(23));
    let cluster = EdgeCluster::spawn_local_udp_cfg(2, cartpole_spec(population), udp)
        .expect("loopback UDP cluster binds");
    let (mut orch, tracer) = traced_orchestrator(population, evals, 29, Some(cluster));
    orch.run_streamed().expect("streamed run over lossy UDP");
    let stats = orch.stats().expect("ran");
    assert_eq!((stats.total_evals, stats.redispatches), (evals, 0));
    assert_eq!(stats.insertions, evals - population as u64);
    let stream = orch.stream_stats().expect("streamed");
    assert_eq!(stream.per_agent_items.iter().sum::<u64>(), evals);
    assert!(stream.per_agent_items.iter().all(|&n| n > 0));
    let events = tracer.finish().expect("live tracer records").events;
    let completed: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|ev| ev.kind == EventKind::Completion)
        .map(|ev| ev.genome.expect("completions name their genome"))
        .collect();
    assert_eq!(completed.len() as u64, evals);
}
