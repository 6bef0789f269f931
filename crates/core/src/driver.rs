//! High-level driver: configure a workload + topology + cluster, run it,
//! get a [`RunReport`].
//!
//! This is the crate's main entry point:
//!
//! ```
//! use clan_core::{ClanDriver, ClanTopology};
//! use clan_envs::Workload;
//!
//! let report = ClanDriver::builder(Workload::CartPole)
//!     .topology(ClanTopology::dcs())
//!     .agents(4)
//!     .population_size(24)
//!     .seed(7)
//!     .build()?
//!     .run(3)?;
//! assert_eq!(report.generations.len(), 3);
//! assert!(report.ledger.total_messages() > 0);
//! # Ok::<(), clan_core::ClanError>(())
//! ```
//!
//! A run has one device count, set by [`agents`](ClanDriverBuilder::agents)
//! or by the agent backend that supplies the live links: a live DDA run
//! evolves one clan per link. Every set-up check runs before an agent is
//! dialled, and a run's one result is its [`RunReport`]: the trace (when
//! [`tracing`](ClanDriverBuilder::tracing) is on) and the champion ride in
//! it.

use crate::asynchronous::{AsyncOrchestrator, LatencySchedule};
use crate::error::ClanError;
use crate::evaluator::{EngineOptions, Evaluator, InferenceMode};
use crate::membership::{AgentStats, RecoveryPolicy};
use crate::orchestra::{orchestrator_for, GenerationReport, Orchestrator};
use crate::report::RunReport;
use crate::runtime::{AgentSource, EdgeCluster, STREAM_WINDOW};
use crate::status::{StatusHandle, StatusServer, StatusSnapshot};
use crate::telemetry::{EventKind, TelemetryReport, Tracer};
use crate::topology::ClanTopology;
use crate::transport::{ChurnSchedule, ClusterSpec, UdpConfig};
use clan_distsim::Cluster;
use clan_envs::Workload;
use clan_hw::{Platform, PlatformKind};
use clan_neat::{fanout, Genome, NeatConfig, Population};
use clan_netsim::{CommLedger, WifiModel};

/// What a [`ClanDriverBuilder`] has been told, resolved by
/// [`build`](ClanDriverBuilder::build) or
/// [`build_async`](ClanDriverBuilder::build_async).
#[derive(Debug, Clone)]
struct DriverConfig {
    workload: Workload,
    topology: ClanTopology,
    /// Devices in the cluster: the modelled cluster's, DDA's clans and,
    /// on an agent backend, the live links.
    n_agents: usize,
    population_size: usize,
    seed: u64,
    mode: InferenceMode,
    episodes_per_eval: u32,
    platform: PlatformKind,
    net: WifiModel,
    /// Datagram-transport tuning (and optional seeded fault injection)
    /// when the agents speak UDP; `None` on TCP and local backends.
    udp: Option<UdpConfig>,
    recovery: RecoveryPolicy,
    churn: Option<ChurnSchedule>,
    spare_agents: Vec<String>,
    tracing: bool,
    trace_ring: Option<usize>,
    status_addr: Option<String>,
}

/// The live introspection endpoint attached to a running driver: the
/// snapshot slot the run publishes into plus the serving thread.
struct StatusState {
    handle: StatusHandle,
    server: StatusServer,
}

/// What every run carries around its loop, generational or async: the
/// tracer, the optional status endpoint, and the identity the final
/// [`RunReport`] is labelled with.
struct RunShell {
    workload: Workload,
    topology_name: String,
    n_agents: usize,
    platform: PlatformKind,
    tracer: Tracer,
    status: Option<StatusState>,
}

impl RunShell {
    /// Publishes a fresh snapshot to the introspection endpoint; no-op
    /// when none is attached. Called at generation boundaries and run
    /// transitions only — it copies already-gathered state and never
    /// touches the exchange hot path, so polling cannot perturb the
    /// run. `progress` fills in what the mode counts (generations or
    /// evaluations, best fitness, solved).
    fn publish(
        &self,
        evaluator: &Evaluator,
        phase: &str,
        progress: impl FnOnce(&mut StatusSnapshot),
    ) {
        let Some(status) = &self.status else { return };
        let mut snapshot = StatusSnapshot {
            phase: phase.into(),
            agents: evaluator.remote_agent_stats().to_vec(),
            gather: evaluator.remote_gather_stats(),
            ..StatusSnapshot::default()
        };
        progress(&mut snapshot);
        status.handle.publish(snapshot);
    }

    fn status_local_addr(&self) -> Option<std::net::SocketAddr> {
        self.status.as_ref().map(|s| s.server.local_addr())
    }

    /// Ends the run: drains the trace and assembles the report from the
    /// generations, the analytic ledger, the per-agent rows, the
    /// champion, and whatever the evaluator's real transport measured.
    fn into_report(
        self,
        evaluator: &Evaluator,
        generations: Vec<GenerationReport>,
        ledger: CommLedger,
        agents: Vec<AgentStats>,
        champion: Option<&Genome>,
    ) -> RunReport {
        let trace = self.tracer.finish();
        let mut report = RunReport::from_parts(
            self.workload,
            self.topology_name,
            self.n_agents,
            generations,
            ledger,
        )
        .with_energy(clan_hw::EnergyModel::for_kind(self.platform));
        report.transport = evaluator.remote_ledger().cloned();
        report.gather = evaluator.remote_gather_stats();
        report.recovery = evaluator.remote_recovery_stats();
        report.agents = agents;
        report.telemetry = TelemetryReport::from_trace(trace.as_ref());
        report.trace = trace;
        report.champion = champion.cloned();
        report
    }
}

/// A configured, ready-to-run CLAN deployment.
pub struct ClanDriver {
    orchestrator: Box<dyn Orchestrator>,
    shell: RunShell,
}

impl std::fmt::Debug for ClanDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClanDriver")
            .field("workload", &self.shell.workload)
            .field("topology", &self.shell.topology_name)
            .field("n_agents", &self.shell.n_agents)
            .finish_non_exhaustive()
    }
}

impl ClanDriver {
    /// Starts building a driver for `workload`.
    pub fn builder(workload: Workload) -> ClanDriverBuilder {
        ClanDriverBuilder::new(workload)
    }

    /// A clone of the run's tracer handle (clones share one sink).
    /// Lets a caller keep reading after the driver is consumed — in
    /// particular, dump the flight-recorder ring to a postmortem file
    /// when a run returns an error. The disabled no-op handle when
    /// tracing is off.
    pub fn tracer_handle(&self) -> Tracer {
        self.shell.tracer.clone()
    }

    /// The live introspection endpoint's bound address (resolving port
    /// 0 to the actual port), when one was configured.
    pub fn status_local_addr(&self) -> Option<std::net::SocketAddr> {
        self.shell.status_local_addr()
    }

    /// Runs `generations` generations and reports.
    ///
    /// # Errors
    ///
    /// Propagates orchestrator failures ([`ClanError`]).
    pub fn run(self, generations: u64) -> Result<RunReport, ClanError> {
        self.drive(generations, false)
    }

    /// Runs until the workload's convergence score is reached or
    /// `max_generations` elapse.
    ///
    /// # Errors
    ///
    /// Propagates orchestrator failures ([`ClanError`]).
    pub fn run_until_solved(self, max_generations: u64) -> Result<RunReport, ClanError> {
        self.drive(max_generations, true)
    }

    /// Publishes the generational progress snapshot (see
    /// [`RunShell::publish`]).
    fn publish_progress(&self, phase: &str, reports: &[GenerationReport], solved: bool) {
        let best_fitness = self.orchestrator.best_ever().and_then(|g| g.fitness());
        self.shell
            .publish(self.orchestrator.evaluator(), phase, |snapshot| {
                snapshot.generation = Some(reports.len() as u64);
                snapshot.cache_hits = Some(reports.iter().map(|r| r.cache_hits).sum());
                snapshot.cache_lookups = Some(reports.iter().map(|r| r.cache_lookups).sum());
                snapshot.best_fitness = best_fitness;
                snapshot.solved = solved;
            });
    }

    /// The one generation loop behind every `run*` entry point: steps
    /// until `max_generations` have run, or — with `stop_when_solved` —
    /// until a generation reaches the workload's convergence score.
    /// Nothing is sized from `max_generations`, so an absurd request
    /// costs nothing until the generations are actually run.
    fn drive(
        mut self,
        max_generations: u64,
        stop_when_solved: bool,
    ) -> Result<RunReport, ClanError> {
        let threshold = self.shell.workload.solved_at();
        let mut reports: Vec<GenerationReport> = Vec::new();
        let mut solved = false;
        while (reports.len() as u64) < max_generations && !(stop_when_solved && solved) {
            match self.orchestrator.step_generation() {
                Ok(r) => {
                    solved = r.best_fitness >= threshold;
                    reports.push(r);
                    self.publish_progress("running", &reports, solved);
                }
                Err(e) => {
                    self.publish_progress("failed", &reports, false);
                    return Err(e);
                }
            }
        }
        let generations = reports.len() as u64;
        self.publish_progress("finished", &reports, solved);
        self.shell.tracer.logical(EventKind::RunEnd, |ev| {
            ev.generation = Some(generations);
        });
        let evaluator = self.orchestrator.evaluator();
        Ok(self.shell.into_report(
            evaluator,
            reports,
            self.orchestrator.ledger().clone(),
            evaluator.remote_agent_stats().to_vec(),
            self.orchestrator.best_ever(),
        ))
    }
}

/// Builder for [`ClanDriver`]; see [`ClanDriver::builder`].
#[derive(Debug, Clone)]
pub struct ClanDriverBuilder {
    config: DriverConfig,
    /// Where the `config.n_agents` agents come from (their transport is
    /// `config.udp`'s); `None` evaluates on the coordinator's own
    /// threads.
    source: Option<AgentSource>,
    total_evals: Option<u64>,
    tournament_size: Option<usize>,
    latency_ms: Option<Vec<f64>>,
    latency_jitter_pct: Option<u32>,
}

impl ClanDriverBuilder {
    /// Defaults: serial topology, 1 agent, the paper's population of 150,
    /// multi-step inference on Raspberry Pis over the measured WiFi.
    pub fn new(workload: Workload) -> ClanDriverBuilder {
        ClanDriverBuilder {
            config: DriverConfig {
                workload,
                topology: ClanTopology::serial(),
                n_agents: 1,
                population_size: 150,
                seed: 0,
                mode: InferenceMode::MultiStep,
                episodes_per_eval: 1,
                platform: PlatformKind::RaspberryPi,
                net: WifiModel::default(),
                udp: None,
                recovery: RecoveryPolicy::default(),
                churn: None,
                spare_agents: Vec::new(),
                tracing: false,
                trace_ring: None,
                status_addr: None,
            },
            source: None,
            total_evals: None,
            tournament_size: None,
            latency_ms: None,
            latency_jitter_pct: None,
        }
    }

    /// Sets the CLAN configuration.
    pub fn topology(mut self, topology: ClanTopology) -> Self {
        self.config.topology = topology;
        self
    }

    /// Sets the number of devices: the modelled cluster's, DDA's clans
    /// and, on an agent backend, the live links. The agent backends
    /// ([`loopback_agents`](Self::loopback_agents),
    /// [`remote_agents`](Self::remote_agents)) set the same count: the
    /// last call wins.
    pub fn agents(mut self, n: usize) -> Self {
        self.config.n_agents = n;
        self
    }

    /// Sets the total population size.
    pub fn population_size(mut self, n: usize) -> Self {
        self.config.population_size = n;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Switches to single-step inference (Figures 8–10).
    pub fn single_step(mut self) -> Self {
        self.config.mode = InferenceMode::SingleStep;
        self
    }

    /// Averages each genome's fitness over `n` episodes (default 1).
    pub fn episodes_per_eval(mut self, n: u32) -> Self {
        self.config.episodes_per_eval = n;
        self
    }

    /// Sets the node platform (default Raspberry Pi).
    pub fn platform(mut self, platform: PlatformKind) -> Self {
        self.config.platform = platform;
        self
    }

    /// Sets the network model (default: the paper's measured WiFi).
    pub fn net(mut self, net: WifiModel) -> Self {
        self.config.net = net;
        self
    }

    /// Runs inference over `n` loopback agents spawned in this process —
    /// the full networked stack on `127.0.0.1` ephemeral ports, TCP
    /// unless [`udp_config`](Self::udp_config) is set — and makes `n` the
    /// device count ([`agents`](Self::agents)). Results stay
    /// bit-identical to a local run over `n` devices.
    pub fn loopback_agents(mut self, n: usize) -> Self {
        self.source = Some(AgentSource::Loopback(None));
        self.agents(n)
    }

    /// Runs inference over already-listening `clan-cli agent [--udp]`
    /// daemons at `addrs` (`host:port`), TCP unless
    /// [`udp_config`](Self::udp_config) is set. The session
    /// configuration (workload, NEAT config, episodes) is pushed to each
    /// agent over the wire. The device count ([`agents`](Self::agents))
    /// is the number of addresses.
    pub fn remote_agents(mut self, addrs: Vec<String>) -> Self {
        let n = addrs.len();
        self.source = Some(AgentSource::Remote {
            udp: None,
            spares: addrs,
        });
        self.agents(n)
    }

    /// [`loopback_agents`](Self::loopback_agents) over the loss-tolerant
    /// datagram transport: the stock [`UdpConfig`] unless
    /// [`udp_config`](Self::udp_config) sets one (with seeded faults, say;
    /// results stay bit-identical to a local run under any loss the ARQ
    /// layer can recover).
    pub fn loopback_udp_agents(mut self, n: usize) -> Self {
        self.config.udp.get_or_insert_with(UdpConfig::default);
        self.loopback_agents(n)
    }

    /// Makes the agents speak reliable UDP with this tuning (MTU,
    /// retransmission timeout, liveness window, seeded fault injection)
    /// instead of TCP. Rejected at [`build`](Self::build) on the local
    /// backend, which has no agents.
    pub fn udp_config(mut self, udp: UdpConfig) -> Self {
        self.config.udp = Some(udp);
        self
    }

    /// Sets the live-agent floor of a remote backend: a round that
    /// would have to continue on fewer usable agents fails with a typed
    /// [`ClanError::Degraded`] instead (`--min-agents`).
    pub fn min_agents(mut self, n: usize) -> Self {
        self.config.recovery.min_agents = n;
        self
    }

    /// Installs a deterministic kill/revive plan on a remote backend
    /// (`--churn k1@2,r1@4`): agent churn is injected at round
    /// boundaries and the recovery machinery keeps the run bit-identical
    /// to a churn-free one.
    pub fn churn(mut self, schedule: ChurnSchedule) -> Self {
        self.config.churn = Some(schedule);
        self
    }

    /// Registers standby agent addresses (`--spare-at HOST:PORT,...`) a
    /// remote backend connects when a churn revival needs a replacement
    /// device.
    pub fn spare_agents(mut self, addrs: Vec<String>) -> Self {
        self.config.spare_agents = addrs;
        self
    }

    /// Enables structured run tracing (default off): the driver records
    /// a deterministic logical event stream plus wall-clock annotations
    /// and attaches a telemetry section to the report; the trace itself
    /// is [`RunReport::trace`]. Evolutionary results are bit-identical
    /// with tracing on or off.
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.config.tracing = enabled;
        self
    }

    /// Flight-recorder mode (implies tracing): keep only the last
    /// `capacity` trace events in a bounded in-memory ring instead of
    /// the full unbounded trace. `seq`/`lseq` keep counting across
    /// drops, so the retained tail reads exactly like the end of an
    /// unbounded trace; the report's totals cover the whole run. Pair with
    /// [`ClanDriver::tracer_handle`] to dump the tail when a run fails.
    pub fn trace_ring(mut self, capacity: usize) -> Self {
        self.config.trace_ring = Some(capacity);
        self
    }

    /// Serves the live introspection endpoint on `addr` (e.g.
    /// `127.0.0.1:9090`; port 0 picks a free port): `/metrics` (the
    /// per-agent rows and totals), `/health` (per-agent membership),
    /// `/progress` (generation / eval count, best fitness). The run
    /// publishes snapshots at generation boundaries only, so polling
    /// never perturbs the run — the deterministic stream stays
    /// bit-identical with the endpoint enabled.
    pub fn status_addr(mut self, addr: impl Into<String>) -> Self {
        self.config.status_addr = Some(addr.into());
        self
    }

    /// Async steady-state only — like the three options below, rejected
    /// by [`build`](Self::build): fixes the total evaluation budget (the
    /// run dispatches exactly this many evaluations, bootstrap wave
    /// included). Defaults to 10x the population size.
    pub fn total_evals(mut self, n: u64) -> Self {
        self.total_evals = Some(n);
        self
    }

    /// Async steady-state only: tournament size for parent selection
    /// (default 3). Larger tournaments raise selection pressure.
    pub fn tournament_size(mut self, k: usize) -> Self {
        self.tournament_size = Some(k);
        self
    }

    /// Async steady-state only: per-agent virtual service times in
    /// milliseconds (one entry per simulated agent; default a uniform
    /// 5 ms). Together with the master seed this fixes the latency
    /// schedule — and therefore the whole run — exactly. Rejected at
    /// [`build_async`](Self::build_async) on remote backends, which
    /// stream over the real transport instead.
    pub fn latency_ms(mut self, ms: Vec<f64>) -> Self {
        self.latency_ms = Some(ms);
        self
    }

    /// Async steady-state only: multiplicative jitter on the virtual
    /// service times, in percent (default 10, max 90).
    pub fn latency_jitter_pct(mut self, pct: u32) -> Self {
        self.latency_jitter_pct = Some(pct);
        self
    }

    /// Shared by [`build`](Self::build) and
    /// [`build_async`](Self::build_async): checks what every run needs,
    /// resolves the NEAT configuration and constructs the coordinator's
    /// own evaluator; `partitioned` runs evaluate whole generations.
    /// Opens no socket: [`attach`](Self::attach) dials the agents once
    /// the orchestrator has accepted the set-up.
    fn prepare(&self, partitioned: bool) -> Result<(NeatConfig, Evaluator), ClanError> {
        let c = &self.config;
        if c.n_agents == 0 {
            return Err(ClanError::InvalidSetup {
                reason: "at least one agent is required".into(),
            });
        }
        let cfg = NeatConfig::builder(c.workload.obs_dim(), c.workload.n_actions())
            .population_size(c.population_size)
            .build()?;
        if c.episodes_per_eval == 0 {
            return Err(ClanError::InvalidSetup {
                reason: "episodes_per_eval must be at least 1".into(),
            });
        }
        if self.source.is_none()
            && (c.udp.is_some() || c.churn.is_some() || !c.spare_agents.is_empty())
        {
            return Err(ClanError::InvalidSetup {
                reason: "udp_config, churn schedules and spare agents apply to agent \
                         backends only (loopback_agents or remote_agents)"
                    .into(),
            });
        }
        // Agents evaluate: the coordinator-side evaluator never activates
        // networks itself, nor splits an async run's one-genome batches.
        // A local generational run evaluates on the workers that a fully
        // wired population's genes repay, by the rule of every
        // coordinator fan-out: each core for an Atari population, the
        // calling thread alone for CartPole or LunarLander. Bit-identical
        // at any count.
        let genes = cfg.population_size * cfg.num_inputs * cfg.num_outputs;
        let threads = match self.source {
            None if partitioned => fanout::workers(genes as u64),
            _ => 1,
        };
        let evaluator = Evaluator::with_options(
            c.workload,
            c.mode,
            c.episodes_per_eval,
            threads,
            EngineOptions::default(),
        );
        Ok((cfg, evaluator))
    }

    /// The last step of both builds, once the orchestrator over
    /// `evaluator` has accepted the set-up: dials or spawns the agent
    /// backend, if any (loopback or connected agents, TCP or UDP), and
    /// attaches it to `evaluator`. Then opens the run shell: a live
    /// tracer preloaded with the run preamble when tracing is enabled
    /// (unbounded normally, a bounded ring in flight-recorder mode; the
    /// no-op handle otherwise), installed into `evaluator`, plus the
    /// status endpoint when one was requested, already serving a
    /// `starting` snapshot that lists the agents.
    fn attach(
        &self,
        cfg: NeatConfig,
        topology_name: String,
        evaluator: &mut Evaluator,
    ) -> Result<RunShell, ClanError> {
        let c = &self.config;
        let population = cfg.population_size;
        if let Some(mut source) = self.source.clone() {
            if let AgentSource::Loopback(udp) | AgentSource::Remote { udp, .. } = &mut source {
                udp.clone_from(&c.udp);
            }
            let spec = ClusterSpec::new(c.workload, c.mode, cfg).with_episodes(c.episodes_per_eval);
            let mut edge = EdgeCluster::from_source(c.n_agents, spec, source)?;
            edge.set_recovery_policy(c.recovery);
            if !c.spare_agents.is_empty() {
                edge.set_spares(c.spare_agents.clone())?;
            }
            if let Some(churn) = c.churn.clone() {
                edge.set_churn(churn)?;
            }
            evaluator.attach(edge);
        }
        let tracer = match c.trace_ring {
            Some(capacity) => Tracer::with_ring(capacity),
            None if c.tracing => Tracer::new(),
            None => Tracer::disabled(),
        };
        if tracer.is_enabled() {
            tracer.logical(EventKind::RunStart, |ev| {
                ev.seed = Some(c.seed);
                ev.label = Some(c.workload.to_string());
                ev.population = Some(population as u64);
            });
            // Cluster shape is a Timing annotation: the logical stream
            // must not vary with agent counts or transport flavor.
            tracer.timing(EventKind::ClusterInfo, |ev| {
                ev.items = Some(c.n_agents as u64);
                ev.label = Some(topology_name.clone());
            });
            evaluator.set_tracer(tracer.clone());
        }
        let status = match &c.status_addr {
            Some(addr) => {
                let handle = StatusHandle::new();
                let server = StatusServer::bind(addr, handle.clone())?;
                Some(StatusState { handle, server })
            }
            None => None,
        };
        let shell = RunShell {
            workload: c.workload,
            topology_name,
            n_agents: c.n_agents,
            platform: c.platform,
            tracer,
            status,
        };
        shell.publish(evaluator, "starting", |_| {});
        Ok(shell)
    }

    /// Validates and constructs the driver.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] on an async-only option or a setup
    /// [`orchestrator_for`] rejects, and [`ClanError::Neat`] on invalid
    /// NEAT configuration — all before any agent is dialled.
    pub fn build(self) -> Result<ClanDriver, ClanError> {
        let async_only = [
            ("total_evals", self.total_evals.is_some()),
            ("tournament_size", self.tournament_size.is_some()),
            ("latency_ms", self.latency_ms.is_some()),
            ("latency_jitter_pct", self.latency_jitter_pct.is_some()),
        ]
        .into_iter()
        .find_map(|(option, set)| {
            set.then(|| format!("{option} applies to async steady-state runs (build_async) only"))
        });
        if let Some(reason) = async_only {
            return Err(ClanError::InvalidSetup { reason });
        }
        let (cfg, evaluator) = self.prepare(true)?;
        let c = &self.config;
        let cluster = Cluster::homogeneous(Platform::new(c.platform), c.n_agents, c.net);
        let mut orchestrator =
            orchestrator_for(c.topology, cfg.clone(), c.seed, evaluator, cluster)?;
        let shell = self.attach(cfg, c.topology.name(), orchestrator.evaluator_mut())?;
        Ok(ClanDriver {
            orchestrator,
            shell,
        })
    }

    /// Validates and constructs an **async steady-state** driver
    /// ([`AsyncClanDriver`]): barrier-free tournament reproduction with
    /// insert-replace-worst, run to a fixed evaluation budget. On the
    /// local backend the run is simulated under deterministic virtual
    /// time (see [`LatencySchedule`]); on remote backends it streams
    /// one-genome frames over the real transport with
    /// dispatch-on-completion. The topology is not read: the mode has no
    /// generations to place.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] as [`build`](Self::build), plus: a
    /// latency schedule on a remote backend, a latency list whose length
    /// disagrees with the agent count, `agents × STREAM_WINDOW` not
    /// strictly below the population size, a zero tournament, or an eval
    /// budget below the population — all before any agent is dialled.
    pub fn build_async(self) -> Result<AsyncClanDriver, ClanError> {
        let is_remote = self.source.is_some();
        if is_remote && self.latency_ms.is_some() {
            return Err(ClanError::InvalidSetup {
                reason: "virtual latency schedules apply to the local backend only; \
                         remote backends stream over the real transport"
                    .into(),
            });
        }
        let (cfg, evaluator) = self.prepare(false)?;
        let c = &self.config;
        let agents = c.n_agents;
        if agents * STREAM_WINDOW >= cfg.population_size {
            return Err(ClanError::InvalidSetup {
                reason: format!(
                    "async needs population > {agents} agents x {STREAM_WINDOW} in flight, got {}",
                    cfg.population_size
                ),
            });
        }
        let schedule = if is_remote {
            None
        } else {
            let base_us: Vec<u64> = match &self.latency_ms {
                Some(ms) => {
                    if ms.len() != agents {
                        return Err(ClanError::InvalidSetup {
                            reason: format!("{} latency entries for {agents} agents", ms.len()),
                        });
                    }
                    if !ms.iter().all(|m| *m > 0.0) {
                        return Err(ClanError::InvalidSetup {
                            reason: "latency entries must be positive milliseconds".into(),
                        });
                    }
                    ms.iter()
                        .map(|m| (m * 1000.0).round().max(1.0) as u64)
                        .collect()
                }
                None => vec![5_000; agents],
            };
            Some(LatencySchedule::new(
                c.seed,
                base_us,
                self.latency_jitter_pct.unwrap_or(10),
            )?)
        };
        let total = self.total_evals.unwrap_or(10 * cfg.population_size as u64);
        let name = if schedule.is_some() {
            "ASYNC_VIRTUAL"
        } else {
            "ASYNC_STREAM"
        };
        let pop = Population::new(cfg.clone(), c.seed);
        let tournament = self.tournament_size.unwrap_or(3);
        let mut orchestrator = AsyncOrchestrator::new(pop, evaluator, total, tournament)?;
        let shell = self.attach(cfg, name.to_string(), orchestrator.evaluator_mut())?;
        Ok(AsyncClanDriver {
            orchestrator,
            schedule,
            shell,
        })
    }
}

/// A configured async steady-state deployment; see
/// [`ClanDriverBuilder::build_async`].
pub struct AsyncClanDriver {
    orchestrator: AsyncOrchestrator,
    schedule: Option<LatencySchedule>,
    shell: RunShell,
}

impl std::fmt::Debug for AsyncClanDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncClanDriver")
            .field("workload", &self.shell.workload)
            .field("n_agents", &self.shell.n_agents)
            .field("schedule", &self.schedule)
            .finish_non_exhaustive()
    }
}

/// What an async run yields: the usual [`RunReport`], with
/// [`asynchronous`](RunReport::asynchronous) stats attached. For
/// virtual-time runs the report's [`trace`](RunReport::trace) has a
/// logical text byte-identical per `(seed, schedule)`, and folding its
/// `Completion` events reproduces the
/// [`event_log_hash`](crate::AsyncStats::event_log_hash).
#[derive(Debug, Clone)]
pub struct AsyncRunOutcome {
    /// The run report; `generations` is empty (the mode has none).
    pub report: RunReport,
}

impl AsyncClanDriver {
    /// The virtual-time schedule (`None` when streaming over a real
    /// cluster).
    pub fn schedule(&self) -> Option<&LatencySchedule> {
        self.schedule.as_ref()
    }

    /// A clone of the run's tracer handle (clones share one sink); see
    /// [`ClanDriver::tracer_handle`].
    pub fn tracer_handle(&self) -> Tracer {
        self.shell.tracer.clone()
    }

    /// The live introspection endpoint's bound address (resolving port
    /// 0 to the actual port), when one was configured.
    pub fn status_local_addr(&self) -> Option<std::net::SocketAddr> {
        self.shell.status_local_addr()
    }

    /// Runs the steady-state loop to its evaluation budget. Async modes
    /// have no generation boundaries; the status endpoint reports eval
    /// totals at the start and end of the loop.
    ///
    /// # Errors
    ///
    /// Propagates [`ClanError`] from the async orchestrator: transport
    /// failures, protocol violations, or a cluster drained below the
    /// recovery floor.
    pub fn run(mut self) -> Result<AsyncRunOutcome, ClanError> {
        self.shell
            .publish(self.orchestrator.evaluator(), "running", |snapshot| {
                snapshot.evals = Some(0);
            });
        let outcome = match &self.schedule {
            Some(s) => self.orchestrator.run_virtual(s),
            None => self.orchestrator.run_streamed(),
        };
        if let Err(e) = outcome {
            self.shell
                .publish(self.orchestrator.evaluator(), "failed", |_| {});
            return Err(e);
        }
        let stats = self
            .orchestrator
            .stats()
            .cloned()
            .expect("run just completed");
        self.shell.tracer.logical(EventKind::RunEnd, |ev| {
            ev.items = Some(stats.total_evals);
        });
        self.shell
            .publish(self.orchestrator.evaluator(), "finished", |snapshot| {
                snapshot.evals = Some(stats.total_evals);
                snapshot.best_fitness = Some(stats.best_fitness);
            });
        let report = self.shell.into_report(
            self.orchestrator.evaluator(),
            Vec::new(),
            CommLedger::default(),
            self.orchestrator.agent_stats(),
            self.orchestrator.population().best_ever(),
        );
        Ok(AsyncRunOutcome {
            report: report.with_async(stats),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_paper_defaults() {
        let builder = ClanDriver::builder(Workload::CartPole).population_size(16);
        let c = &builder.config;
        assert_eq!(c.n_agents, 1);
        assert_eq!(c.topology, ClanTopology::serial());
        assert_eq!(c.platform, PlatformKind::RaspberryPi);
        assert_eq!(builder.build().unwrap().run(1).unwrap().n_agents, 1);
    }

    #[test]
    fn an_agent_backend_sets_the_one_device_count() {
        let builder = ClanDriver::builder(Workload::CartPole).agents(4);
        assert_eq!(builder.clone().loopback_agents(2).config.n_agents, 2);
        assert_eq!(builder.clone().loopback_udp_agents(3).config.n_agents, 3);
        let addrs = vec!["127.0.0.1:9".to_string(); 2];
        assert_eq!(builder.clone().remote_agents(addrs).config.n_agents, 2);
        // The last call wins, whichever it is.
        assert_eq!(builder.loopback_agents(2).agents(3).config.n_agents, 3);
    }

    #[test]
    fn absurd_generation_request_fails_typed_not_by_allocation() {
        // The lone agent dies before scatter round 1 and nothing may
        // continue below one live agent, so generation 1 fails — long
        // before the u64::MAX generations asked for, none of which may
        // be paid for up front.
        let err = ClanDriver::builder(Workload::CartPole)
            .population_size(8)
            .loopback_agents(1)
            .churn(crate::transport::ChurnSchedule::new().kill(0, 1))
            .min_agents(1)
            .build()
            .unwrap()
            .run(u64::MAX);
        assert!(
            matches!(
                err,
                Err(ClanError::Transport { .. } | ClanError::Degraded { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn zero_agents_rejected() {
        let err = ClanDriver::builder(Workload::CartPole).agents(0).build();
        assert!(matches!(err, Err(ClanError::InvalidSetup { .. })));
    }

    #[test]
    fn run_produces_report() {
        let report = ClanDriver::builder(Workload::CartPole)
            .topology(ClanTopology::dcs())
            .agents(3)
            .population_size(12)
            .seed(1)
            .build()
            .unwrap()
            .run(2)
            .unwrap();
        assert_eq!(report.generations.len(), 2);
        assert_eq!(report.topology_name, "CLAN_DCS");
        assert!(report.total_timeline.total_s() > 0.0);
        let champion = report.champion.expect("a run evolves a champion");
        assert_eq!(champion.fitness(), Some(report.best_fitness));
        assert!(report.trace.is_none(), "an untraced run records nothing");
    }

    #[test]
    fn run_until_solved_stops_early() {
        // Single-step CartPole fitness is 1.0 < 195, so this must hit the cap;
        // multi-step with a healthy population usually solves quickly.
        let report = ClanDriver::builder(Workload::CartPole)
            .population_size(64)
            .seed(3)
            .build()
            .unwrap()
            .run_until_solved(30)
            .unwrap();
        if let Some(g) = report.solved_at_generation {
            assert_eq!(report.generations.last().unwrap().generation, g);
        } else {
            assert_eq!(report.generations.len(), 30);
        }
    }

    #[test]
    fn loopback_driver_matches_local_driver() {
        let run = |builder: ClanDriverBuilder| {
            builder
                .topology(ClanTopology::dcs())
                .agents(3)
                .population_size(12)
                .seed(8)
                .build()
                .unwrap()
                .run(2)
                .unwrap()
        };
        let local = run(ClanDriver::builder(Workload::CartPole));
        let networked = run(ClanDriver::builder(Workload::CartPole).loopback_agents(2));
        assert_eq!(local.best_fitness, networked.best_fitness);
        assert_eq!(
            local.generations.last().unwrap().costs,
            networked.generations.last().unwrap().costs
        );
        assert!(local.transport.is_none());
        let wire = networked
            .transport
            .as_ref()
            .expect("loopback run measures traffic");
        assert!(wire.total_wire_bytes() > 0);
        assert!(networked.summary().contains("wire (measured)"));
        let gather = networked
            .gather
            .as_ref()
            .expect("remote run measures gathers");
        assert!(gather.gathers > 0);
        assert!(networked.summary().contains("gather (measured)"));
        assert!(local.gather.is_none());
    }

    #[test]
    fn udp_loopback_driver_matches_local_driver_under_loss() {
        use crate::transport::{FaultConfig, UdpConfig};
        let run = |builder: ClanDriverBuilder| {
            builder
                .topology(ClanTopology::dcs())
                .agents(2)
                .population_size(10)
                .seed(21)
                .build()
                .unwrap()
                .run(2)
                .unwrap()
        };
        let local = run(ClanDriver::builder(Workload::CartPole));
        let lossy = run(ClanDriver::builder(Workload::CartPole)
            .loopback_udp_agents(2)
            .udp_config(
                UdpConfig::default()
                    .with_mtu(256)
                    .with_retransmit_interval_s(0.01)
                    .with_idle_timeout_s(10.0)
                    .with_faults(FaultConfig::loss(0.15).with_seed(5)),
            ));
        assert_eq!(local.best_fitness, lossy.best_fitness);
        assert_eq!(
            local.generations.last().unwrap().costs,
            lossy.generations.last().unwrap().costs
        );
        let wire = lossy.transport.as_ref().expect("UDP run measures traffic");
        assert!(wire.total_wire_bytes() > 0);
        assert!(
            wire.total_retrans_bytes() > 0,
            "15% loss must force retransmissions"
        );
        assert!(lossy.summary().contains("loss recovery"));
    }

    #[test]
    fn churned_loopback_driver_matches_local_driver() {
        use crate::transport::ChurnSchedule;
        let run = |builder: ClanDriverBuilder| {
            builder
                .topology(ClanTopology::dcs())
                .agents(3)
                .population_size(12)
                .seed(31)
                .build()
                .unwrap()
                .run(4)
                .unwrap()
        };
        let local = run(ClanDriver::builder(Workload::CartPole));
        let churned = run(ClanDriver::builder(Workload::CartPole)
            .loopback_agents(3)
            .churn(ChurnSchedule::new().kill(1, 1).revive(1, 3)));
        assert_eq!(local.best_fitness, churned.best_fitness);
        assert_eq!(
            local.generations.last().unwrap().costs,
            churned.generations.last().unwrap().costs
        );
        let recovery = churned
            .recovery
            .clone()
            .expect("remote run records recovery");
        assert_eq!(recovery.kills, 1);
        assert!(recovery.joins >= 1);
        assert!(recovery.reassigned_chunks >= 1);
        assert!(churned.summary().contains("recovery:"));
        assert!(local.recovery.is_none());
    }

    #[test]
    fn churn_on_local_backend_rejected() {
        let err = ClanDriver::builder(Workload::CartPole)
            .population_size(8)
            .churn(crate::transport::ChurnSchedule::new().kill(0, 1))
            .build();
        assert!(matches!(err, Err(ClanError::InvalidSetup { .. })));
        let err = ClanDriver::builder(Workload::CartPole)
            .population_size(8)
            .spare_agents(vec!["127.0.0.1:1".into()])
            .build();
        assert!(matches!(err, Err(ClanError::InvalidSetup { .. })));
    }

    #[test]
    fn churn_schedule_beyond_cluster_rejected_at_build() {
        let err = ClanDriver::builder(Workload::CartPole)
            .population_size(8)
            .loopback_agents(2)
            .churn(crate::transport::ChurnSchedule::new().kill(7, 1))
            .build();
        assert!(matches!(err, Err(ClanError::InvalidSetup { .. })));
    }

    #[test]
    fn udp_config_picks_the_agents_transport_and_needs_agents() {
        let udp = crate::transport::UdpConfig::default().with_mtu(512);
        let builder = ClanDriver::builder(Workload::CartPole).population_size(8);
        let err = builder.clone().udp_config(udp.clone()).build();
        assert!(matches!(err, Err(ClanError::InvalidSetup { .. })));
        // Set before or after the agents, it is the one UDP tuning.
        for builder in [
            builder.clone().loopback_agents(2).udp_config(udp.clone()),
            builder
                .clone()
                .udp_config(udp.clone())
                .loopback_udp_agents(2),
        ] {
            assert_eq!(builder.config.udp.as_ref(), Some(&udp));
            let driver = builder.build().unwrap();
            assert_eq!(driver.run(1).unwrap().generations.len(), 1);
        }
    }

    #[test]
    fn options_of_the_other_mode_are_rejected_before_any_agent_is_dialed() {
        // Nothing listens at the address: a check that ran after
        // `prepare` would fail to connect instead.
        let builder = ClanDriver::builder(Workload::CartPole)
            .population_size(24)
            .remote_agents(vec!["127.0.0.1:9".into()]);
        let rejected = |result: Result<(), ClanError>, option: &str| {
            assert!(
                matches!(&result, Err(ClanError::InvalidSetup { reason }) if reason.contains(option)),
                "{option}: {result:?}"
            );
        };
        let build = |b: ClanDriverBuilder| b.build().map(drop);
        rejected(build(builder.clone().total_evals(40)), "total_evals");
        rejected(build(builder.clone().tournament_size(5)), "tournament_size");
        rejected(build(builder.clone().latency_ms(vec![2.0])), "latency_ms");
        rejected(
            build(builder.clone().latency_jitter_pct(20)),
            "latency_jitter_pct",
        );
        let latency = builder.latency_ms(vec![2.0]).build_async().map(drop);
        rejected(latency, "virtual latency");
    }

    #[test]
    fn set_up_is_checked_before_any_agent_is_dialled() {
        // The agents' address is a listener that never accepts: a set-up
        // check that ran after the dial would leave a connection queued
        // on it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let on = |agents: usize, population: usize| {
            ClanDriver::builder(Workload::CartPole)
                .population_size(population)
                .remote_agents(vec![addr.clone(); agents])
        };
        let rejected = |case: &str, result: Result<(), ClanError>| {
            assert!(
                matches!(result, Err(ClanError::InvalidSetup { .. })),
                "{case}: {result:?}"
            );
            let accepted = listener.accept().map(drop);
            assert!(
                matches!(&accepted, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
                "{case} dialled an agent before rejecting its set-up"
            );
        };
        rejected("window", on(2, 4).build_async().map(drop));
        let tournament = on(1, 24).tournament_size(0).build_async();
        rejected("tournament", tournament.map(drop));
        rejected("budget", on(1, 24).total_evals(23).build_async().map(drop));
        let clan = on(2, 3).topology(ClanTopology::dda()).build();
        rejected("clan", clan.map(drop));
    }

    #[test]
    fn zero_loopback_agents_rejected() {
        let err = ClanDriver::builder(Workload::CartPole)
            .population_size(8)
            .loopback_agents(0)
            .build();
        assert!(matches!(err, Err(ClanError::InvalidSetup { .. })));
    }

    #[test]
    fn async_virtual_driver_is_deterministic() {
        let run = || {
            ClanDriver::builder(Workload::CartPole)
                .agents(3)
                .population_size(12)
                .seed(9)
                .total_evals(40)
                .latency_ms(vec![2.0, 8.0, 2.0])
                .build_async()
                .unwrap()
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.report.asynchronous, b.report.asynchronous);
        let stats = a.report.asynchronous.as_ref().unwrap();
        assert_eq!(stats.total_evals, 40);
        assert!(stats.virtual_time);
        assert_eq!(a.report.topology_name, "ASYNC_VIRTUAL");
        assert!(a.report.summary().contains("wasted idle"));
        let champion = a.report.champion.as_ref().expect("async runs evolve one");
        assert_eq!(champion.fitness(), Some(a.report.best_fitness));
    }

    #[test]
    fn async_streamed_driver_runs_over_loopback() {
        let out = ClanDriver::builder(Workload::CartPole)
            .population_size(12)
            .seed(5)
            .total_evals(30)
            .loopback_agents(2)
            .build_async()
            .unwrap()
            .run()
            .unwrap();
        let stats = out.report.asynchronous.as_ref().unwrap();
        assert_eq!(stats.total_evals, 30);
        assert!(!stats.virtual_time);
        assert_eq!(out.report.topology_name, "ASYNC_STREAM");
        let wire = out
            .report
            .transport
            .as_ref()
            .expect("streamed run measures");
        assert!(wire.total_wire_bytes() > 0);
    }

    #[test]
    fn async_latency_on_remote_backend_rejected() {
        let err = ClanDriver::builder(Workload::CartPole)
            .population_size(12)
            .loopback_agents(2)
            .latency_ms(vec![1.0, 2.0])
            .build_async();
        assert!(matches!(err, Err(ClanError::InvalidSetup { .. })));
    }

    #[test]
    fn async_agents_must_be_below_population() {
        let err = ClanDriver::builder(Workload::CartPole)
            .agents(8)
            .population_size(8)
            .build_async();
        assert!(matches!(err, Err(ClanError::InvalidSetup { .. })));
    }

    #[test]
    fn all_topologies_build_and_step() {
        for topo in [
            ClanTopology::serial(),
            ClanTopology::dcs(),
            ClanTopology::dds(),
            ClanTopology::dda(),
        ] {
            let report = ClanDriver::builder(Workload::MountainCar)
                .topology(topo)
                .agents(if topo == ClanTopology::serial() { 1 } else { 2 })
                .population_size(12)
                .seed(4)
                .build()
                .unwrap()
                .run(1)
                .unwrap();
            assert_eq!(report.generations.len(), 1, "{topo}");
        }
    }

    #[test]
    fn dda_evolves_one_clan_per_agent() {
        // Every clan reports its best fitness to the center once a
        // generation (booked per clan), so the report count is the clan
        // count.
        const GENERATIONS: u64 = 2;
        for agents in 1..=3 {
            let report = ClanDriver::builder(Workload::CartPole)
                .topology(ClanTopology::dda())
                .agents(agents)
                .population_size(12)
                .seed(3)
                .build()
                .unwrap()
                .run(GENERATIONS)
                .unwrap();
            let fitness = report.ledger.entry(clan_netsim::MessageKind::SendFitness);
            assert_eq!(fitness.messages, agents as u64 * GENERATIONS, "{agents}");
        }
    }

    #[test]
    fn local_evaluation_threads_follow_the_population_genes() {
        let threads = |w: Workload, partitioned| {
            let builder = ClanDriver::builder(w).population_size(150);
            format!("{:?}", builder.prepare(partitioned).unwrap().1)
        };
        // 150 × 4 × 2 and 150 × 8 × 4 genes stay under two floors.
        for w in [Workload::CartPole, Workload::LunarLander] {
            assert!(threads(w, true).contains("threads: 1,"), "{w}");
        }
        // 150 × 128 × 18 genes repay ten workers, capped by the cores;
        // an async run evaluates one genome at a time.
        let alien = format!("threads: {},", fanout::workers(10 * fanout::GENE_FLOOR));
        assert!(threads(Workload::Alien, true).contains(&alien));
        assert!(threads(Workload::Alien, false).contains("threads: 1,"));
    }
}
