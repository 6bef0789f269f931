//! The determinism harness and matrix: *condition × topology × agent
//! count is bit-identical to serial per seed*, stated once.
//!
//! One NEAT config, the four topologies, one orchestrator builder, one
//! [`run`], one comparison. A [`MATRIX`] row is a **condition** — where
//! and how inference runs (host threads, TCP/UDP agents, loss, a slow
//! agent, churn, engine tiers) — and [`check`] runs it on
//! every workload × topology × agent count it lists against the same
//! topology evaluated locally on one thread: same generation reports
//! (fitness, species, cost counters, modeled timelines), same best-ever
//! genome, same Logical-channel trace hash. A live subject's per-agent
//! rows must also sum to its cluster's totals. A failure names its cell.
//!
//! Adding a determinism condition is one [`Condition`] arm, one row and a
//! one-line `#[test]` in `tests/determinism_matrix.rs`; rows that predate
//! the matrix keep their `#[test]` in the `tests/*_equivalence.rs` file
//! that always held it, beside that condition's own assertions.
#![allow(dead_code)] // every test binary uses its own subset

use clan::core::runtime::{AgentSource, EdgeCluster};
use clan::core::transport::agent::serve_session;
use clan::core::transport::{
    channel_pair, ChurnSchedule, ClusterSpec, DelayTransport, FaultConfig, Transport, UdpConfig,
};
use clan::core::{
    orchestrator_for, AgentStats, ClanTopology, EngineOptions, Evaluator, GenerationReport,
    InferenceMode, Orchestrator, Tracer,
};
use clan::distsim::Cluster;
use clan::envs::Workload;
use clan::hw::Platform;
use clan::neat::{Genome, NeatConfig, Population};
use clan::netsim::WifiModel;
use std::time::Duration;

pub const POP: usize = 20;
pub const SIM_AGENTS: usize = 4;
pub const GENERATIONS: usize = 4;
pub const SEED: u64 = 13;
pub const LOSS: f64 = 0.2;

pub fn neat_cfg(w: Workload) -> NeatConfig {
    NeatConfig::builder(w.obs_dim(), w.n_actions())
        .population_size(POP)
        .build()
        .expect("valid config")
}

/// The four paper configurations.
pub fn topologies() -> [ClanTopology; 4] {
    [
        ClanTopology::serial(),
        ClanTopology::dcs(),
        ClanTopology::dds(),
        ClanTopology::dda(),
    ]
}

pub fn spec(w: Workload, mode: InferenceMode) -> ClusterSpec {
    ClusterSpec::new(w, mode, neat_cfg(w))
}

/// The reference engine: this thread, default options.
pub fn local_evaluator(w: Workload, mode: InferenceMode) -> Evaluator {
    Evaluator::new(w, mode)
}

pub fn sim_cluster(agents: usize) -> Cluster {
    Cluster::homogeneous(Platform::raspberry_pi(), agents, WifiModel::default())
}

/// `topology`'s orchestrator around `evaluator`, traced, over a
/// simulated cluster of `sim_agents` devices (Serial always has one).
pub fn orchestrator_seeded(
    topology: ClanTopology,
    sim_agents: usize,
    mut evaluator: Evaluator,
    seed: u64,
) -> Box<dyn Orchestrator> {
    let agents = if topology == ClanTopology::serial() {
        1
    } else {
        sim_agents
    };
    evaluator.set_tracer(Tracer::new());
    let cfg = neat_cfg(evaluator.workload());
    orchestrator_for(topology, cfg, seed, evaluator, sim_cluster(agents))
        .expect("clans large enough")
}

pub fn orchestrator(
    topology: ClanTopology,
    sim_agents: usize,
    evaluator: Evaluator,
) -> Box<dyn Orchestrator> {
    orchestrator_seeded(topology, sim_agents, evaluator, SEED)
}

/// What a run evolved: everything the determinism contract covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub reports: Vec<GenerationReport>,
    pub best: Genome,
    /// Hash of the Logical trace channel (`None` for an untraced run).
    pub logical: Option<u64>,
}

/// Steps `o` through `generations` generations and drains its trace.
pub fn run(o: &mut dyn Orchestrator, generations: usize) -> Run {
    let reports = (0..generations)
        .map(|_| o.step_generation().expect("generation steps"))
        .collect();
    Run {
        reports,
        best: o.best_ever().expect("evaluated runs have a best").clone(),
        logical: o.evaluator().tracer().finish().map(|t| t.logical_hash()),
    }
}

/// The matrix's one comparison: the first thing `subject` evolved
/// differently from `reference`, named with the `cell` it happened in.
pub fn compare(cell: &str, reference: &Run, subject: &Run) -> Result<(), String> {
    let (r, s) = (&reference.reports, &subject.reports);
    let what = if r.len() != s.len() {
        format!("{} generations vs the reference's {}", s.len(), r.len())
    } else if let Some((a, b)) = r.iter().zip(s).find(|(a, b)| a != b) {
        let generation = a.generation;
        format!("generation {generation} diverged: {b:?} vs the reference's {a:?}")
    } else if reference.best != subject.best {
        "best-ever genome diverged".to_string()
    } else if reference.logical != subject.logical {
        // A lost tracer (`None` against `Some`) is a mismatch too.
        let (a, b) = (reference.logical, subject.logical);
        format!("Logical trace hash {b:X?} vs the reference's {a:X?}")
    } else {
        return Ok(());
    };
    Err(format!("determinism matrix: {cell}: {what}"))
}

/// A live subject's per-agent rows sum to its cluster's totals: wire
/// bytes, messages and retransmitted bytes to the ledger's, busy time to
/// the gather's (within 1e-9 relative). Local evaluators have no rows.
fn check_rows_sum_to_the_totals(cell: &str, evaluator: &Evaluator) {
    let (Some(ledger), Some(gather)) = (evaluator.remote_ledger(), evaluator.remote_gather_stats())
    else {
        return;
    };
    let rows = evaluator.remote_agent_stats();
    let sum = |f: fn(&AgentStats) -> u64| rows.iter().map(f).sum::<u64>();
    let totals = [
        (
            "wire_bytes",
            sum(|a| a.wire_bytes),
            ledger.total_wire_bytes(),
        ),
        ("messages", sum(|a| a.messages), ledger.total_messages()),
        (
            "retrans_bytes",
            sum(|a| a.retrans_bytes),
            ledger.total_retrans_bytes(),
        ),
    ];
    for (what, rows, total) in totals {
        assert_eq!(
            rows, total,
            "determinism matrix: {cell}: rows' {what} vs the total"
        );
    }
    let busy: f64 = rows.iter().map(|a| a.busy_s).sum();
    assert!(
        (busy - gather.busy_s).abs() <= 1e-9 * gather.busy_s,
        "determinism matrix: {cell}: rows' busy_s {busy} vs the gather's {}",
        gather.busy_s
    );
}

/// Where and how a row's inference runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Condition {
    /// Locally on `n` host threads.
    Threads(usize),
    /// Locally with the fitness cache on or off.
    Engine { cache: bool },
    /// Locally with no tracer installed.
    Untraced,
    /// Loopback TCP agents.
    Tcp,
    /// Loopback reliable-UDP agents, no injected faults.
    UdpClean,
    /// Loopback reliable-UDP agents, [`LOSS`] seeded drop on every link.
    UdpLossy { fault_seed: u64 },
    /// Channel agents, agent 0 stalling on every request in proportion to
    /// its size, and nobody told: the other agents pull more runs.
    Heterogeneous,
    /// Channel agents under [`churn_plan`].
    Churn,
}

/// A small MTU (forcing real fragmentation of every genome frame) and a
/// fast retransmit timer so 20 % loss costs milliseconds, not seconds.
pub fn lossy_udp(fault_seed: u64) -> UdpConfig {
    UdpConfig::default()
        .with_mtu(256)
        .with_retransmit_interval_s(0.01)
        .with_idle_timeout_s(10.0)
        .with_faults(FaultConfig::loss(LOSS).with_seed(fault_seed))
}

/// With two or more agents the last one dies before round 1 (its runs
/// are re-queued for the survivors) and a replacement joins before round 3;
/// a lone agent crashes and reboots at the same boundary, since there is
/// nobody left to take its runs.
pub fn churn_plan(n_agents: usize) -> ChurnSchedule {
    let (victim, back) = if n_agents == 1 {
        (0, 1)
    } else {
        (n_agents - 1, 3)
    };
    ChurnSchedule::new().kill(victim, 1).revive(victim, back)
}

/// Channel agents where agent `slow` (if any) stalls 8 ms on every
/// request.
pub fn delayed_transports(n_agents: usize, slow: Option<usize>) -> Vec<Box<dyn Transport>> {
    (0..n_agents)
        .map(|i| {
            let (coord, mut agent_side) = channel_pair();
            std::thread::spawn(move || {
                if Some(i) == slow {
                    let mut slow = DelayTransport::new(agent_side, Duration::from_millis(8));
                    let _ = serve_session(&mut slow);
                } else {
                    let _ = serve_session(&mut agent_side);
                }
            });
            Box::new(coord) as Box<dyn Transport>
        })
        .collect()
}

impl Condition {
    /// This condition's cluster of `agents` agents, if it is a live one.
    pub fn cluster(self, spec: ClusterSpec, agents: usize) -> Option<EdgeCluster> {
        let cluster = match self {
            Condition::Threads(_) | Condition::Engine { .. } | Condition::Untraced => return None,
            Condition::Tcp => EdgeCluster::spawn_local_spec(agents, spec),
            Condition::UdpClean => {
                EdgeCluster::spawn_local_udp_cfg(agents, spec, UdpConfig::default())
            }
            Condition::UdpLossy { fault_seed } => EdgeCluster::spawn_local_udp_cfg(
                agents,
                spec,
                lossy_udp(fault_seed + agents as u64),
            ),
            Condition::Heterogeneous => {
                EdgeCluster::connect_transports(delayed_transports(agents, Some(0)), spec)
            }
            Condition::Churn => EdgeCluster::from_source(agents, spec, AgentSource::Threads),
        };
        let mut cluster = cluster.expect("in-process cluster comes up");
        if self == Condition::Churn {
            cluster.set_churn(churn_plan(agents)).expect("plan fits");
        }
        Some(cluster)
    }

    /// The evaluator that runs inference under this condition.
    pub fn evaluator(self, w: Workload, mode: InferenceMode, agents: usize) -> Evaluator {
        let (threads, engine) = match self {
            Condition::Threads(n) => (n, EngineOptions::default()),
            Condition::Engine { cache } => (
                1,
                EngineOptions {
                    cache,
                    ..EngineOptions::default()
                },
            ),
            _ => (1, EngineOptions::default()),
        };
        let local = Evaluator::with_options(w, mode, 1, threads, engine);
        match self.cluster(spec(w, mode), agents) {
            Some(cluster) => local.with_remote(cluster),
            None => local,
        }
    }

    /// CartPole under this condition on `agents` agents, `topology` over
    /// the simulated [`SIM_AGENTS`] cluster — the named tests' subject.
    pub fn orchestrator(self, topology: ClanTopology, agents: usize) -> Box<dyn Orchestrator> {
        let evaluator = self.evaluator(Workload::CartPole, InferenceMode::MultiStep, agents);
        orchestrator(topology, SIM_AGENTS, evaluator)
    }

    /// This (live) condition's CartPole cluster, for tests that drive an
    /// [`EdgeCluster`] directly.
    pub fn cartpole_cluster(self, agents: usize) -> EdgeCluster {
        self.cluster(spec(Workload::CartPole, InferenceMode::MultiStep), agents)
            .expect("a live condition")
    }
}

/// One matrix row: a condition and the cells it is asserted on (all four
/// topologies, always).
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub name: &'static str,
    pub condition: Condition,
    pub workloads: &'static [Workload],
    pub mode: InferenceMode,
    /// Agents inference runs on; `&[0]` for a coordinator-local condition.
    pub live_agents: &'static [usize],
    /// Devices in the simulated cluster the topology runs over (and DDA's
    /// clan count). Serial has one device whatever this says.
    pub sim_agents: &'static [usize],
    pub generations: usize,
}

/// A live condition on `live_agents`, over [`SIM_AGENTS`] simulated devices.
const fn row(name: &'static str, condition: Condition, live_agents: &'static [usize]) -> Row {
    Row {
        name,
        condition,
        workloads: &[Workload::CartPole],
        mode: InferenceMode::MultiStep,
        live_agents,
        sim_agents: &[SIM_AGENTS],
        generations: GENERATIONS,
    }
}

/// A coordinator-local condition over each of `sim_agents` simulated sizes.
const fn local(name: &'static str, condition: Condition, sim_agents: &'static [usize]) -> Row {
    Row {
        sim_agents,
        ..row(name, condition, &[0])
    }
}

const fn threads(name: &'static str, n: usize) -> Row {
    Row {
        workloads: &[Workload::CartPole, Workload::LunarLander],
        generations: 10,
        ..local(name, Condition::Threads(n), &[3])
    }
}

const fn engine(name: &'static str, cache: bool) -> Row {
    local(name, Condition::Engine { cache }, &[1, 2, 4])
}

/// Loss costs wall-clock (every drop waits out a retransmit timer), so
/// the lossy rows run one generation fewer.
const fn lossy(name: &'static str, fault_seed: u64, live_agents: &'static [usize]) -> Row {
    Row {
        generations: GENERATIONS - 1,
        ..row(name, Condition::UdpLossy { fault_seed }, live_agents)
    }
}

pub const MATRIX: &[Row] = &[
    threads("threads-2", 2),
    threads("threads-4", 4),
    threads("threads-8", 8),
    engine("no-cache", false),
    local("untraced", Condition::Untraced, &[SIM_AGENTS]),
    row("tcp", Condition::Tcp, &[1, 2, 4]),
    Row {
        workloads: &[Workload::AirRaid],
        mode: InferenceMode::SingleStep,
        generations: 2,
        ..row("single-step-tcp", Condition::Tcp, &[2])
    },
    row("udp-clean", Condition::UdpClean, &[1, 2, 4]),
    lossy("udp-lossy", 7, &[1, 2, 4]),
    lossy("udp-lossy-reseeded", 1, &[2]),
    row("heterogeneous", Condition::Heterogeneous, &[2, 4]),
    row("churn", Condition::Churn, &[1, 2, 4]),
];

impl Row {
    /// What the comparison must not see. Between engine tiers a hit
    /// replays the full gene accounting, so only the cache's own counters
    /// differ — in the reports and in the Logical stream's generation-end
    /// lines, which carry them: they are asserted here (a cache that is on
    /// is consulted and its elites hit, one that is off stays silent), then
    /// cleared. An untraced subject has no Logical stream to compare.
    fn normalized(&self, cell: &str, cache_on: bool, mut run: Run) -> Run {
        match self.condition {
            Condition::Engine { cache } => {
                let hits: u64 = run.reports.iter().map(|r| r.cache_hits).sum();
                let lookups: u64 = run.reports.iter().map(|r| r.cache_lookups).sum();
                let expected = if cache_on {
                    0 < hits && hits < lookups // elites hit, newcomers miss
                } else {
                    lookups == 0
                };
                assert!(
                    expected,
                    "determinism matrix: {cell}: cache on = {cache_on}, yet {hits} hit(s) in {lookups} lookup(s)"
                );
                for r in &mut run.reports {
                    (r.cache_hits, r.cache_lookups) = (0, 0);
                }
                run.logical = run.logical.filter(|_| cache);
            }
            Condition::Untraced => run.logical = None,
            _ => {}
        }
        run
    }
}

/// Asserts row `name` on every cell it lists; panics naming the first
/// (condition, topology, agents) that evolved differently.
pub fn check(name: &str) {
    let row = MATRIX
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no matrix row named {name:?}"));
    let subject_caches = !matches!(row.condition, Condition::Engine { cache: false });
    for &workload in row.workloads {
        for &sim in row.sim_agents {
            for topology in topologies() {
                if topology == ClanTopology::serial() && sim != row.sim_agents[0] {
                    continue; // one device at any `sim`: the same cell again
                }
                let cell = |live: usize| {
                    format!(
                        "{name} x {topology} x {live} live / {sim} simulated agent(s), {workload}"
                    )
                };
                let local = local_evaluator(workload, row.mode);
                let reference = run(&mut *orchestrator(topology, sim, local), row.generations);
                let reference = row.normalized(&cell(0), true, reference);
                for &live in row.live_agents {
                    let evaluator = row.condition.evaluator(workload, row.mode, live);
                    let mut o = orchestrator(topology, sim, evaluator);
                    if row.condition == Condition::Untraced {
                        o.install_tracer(Tracer::disabled());
                    }
                    let subject = run(&mut *o, row.generations);
                    check_rows_sum_to_the_totals(&cell(live), o.evaluator());
                    let subject = row.normalized(&cell(live), subject_caches, subject);
                    if let Err(mismatch) = compare(&cell(live), &reference, &subject) {
                        panic!("{mismatch}");
                    }
                }
            }
        }
    }
}

/// Generation 0 of the CartPole run every cluster-level test evaluates.
pub fn fresh_population() -> Population {
    Population::new(neat_cfg(Workload::CartPole), SEED)
}

/// Every genome's fitness, in id order.
pub fn fitnesses(pop: &Population) -> Vec<f64> {
    pop.genomes()
        .values()
        .map(|g| g.fitness().expect("every genome evaluated"))
        .collect()
}
