//! A real edge cluster: agents behind a pluggable [`Transport`],
//! exchanging the binary cluster protocol.
//!
//! The analytic simulator (`clan-distsim`) models *time*; this runtime
//! demonstrates that the CLAN protocols actually *execute* — genomes are
//! shipped to workers as encoded frames, evaluated in true parallelism,
//! children are built remotely from serialized
//! [`ChildSpec`](clan_neat::reproduction::ChildSpec)s, and the
//! deterministic RNG discipline makes the distributed result
//! bit-identical to a serial run (one row of the determinism matrix in
//! `tests/common/mod.rs` per transport and fault condition).
//!
//! Three deployments of the same protocol:
//!
//! - [`EdgeCluster::spawn`] — agent threads over in-process channels;
//! - [`EdgeCluster::spawn_local_spec`] — agent threads serving **real TCP
//!   sockets** on `127.0.0.1` ephemeral ports (the whole networked stack
//!   in one process, which is what CI smokes);
//! - [`EdgeCluster::connect`] — remote agent processes started with
//!   `clan-cli agent --listen ADDR` on actual edge devices.
//!
//! Every message's *measured* bytes-on-the-wire are recorded in a
//! [`CommLedger`] next to the analytic model's float accounting, so the
//! modeled traffic of `clan-netsim` can be validated against what a
//! real wire format costs (see [`CommLedger::framing_overhead`]).
//!
//! # Heterogeneity-aware scheduling
//!
//! Real swarms mix Pi 3s, Pi 4s, and Jetsons; splitting work evenly
//! makes every generation wait for the slowest device. Two mechanisms
//! keep mixed clusters busy:
//!
//! - **Throughput-weighted partitioning** — every scatter
//!   ([`evaluate_collect`](EdgeCluster::evaluate_collect) and the
//!   [`build_children`](EdgeCluster::build_children) phase of a
//!   [`DdsOrchestrator`](crate::DdsOrchestrator) generation) routes
//!   through [`clan_distsim::partition_weighted`] over per-link
//!   capability weights ([`set_weights`](EdgeCluster::set_weights), or
//!   `clan-cli coordinate --agent-weights`). With
//!   [`set_calibration`](EdgeCluster::set_calibration) enabled the
//!   weights recalibrate themselves from measured per-chunk round-trip
//!   times (an EWMA of genomes/second over prior generations).
//! - **Borrowed scatter, out-of-order gather** — a thread per link encodes
//!   its chunk straight from the borrowed population, sends it and banks
//!   the reply as its agent finishes; everything then replays in link
//!   order (genome-id order: chunks are contiguous id-ordered slices), so
//!   nothing downstream observes arrival order and the determinism
//!   contract — bit-identical to serial on serial/dcs/dds/dda — holds.
//!
//! Measured gather timing (makespan vs. summed per-link busy time)
//! accumulates in [`GatherStats`]; per-agent wire bytes land in the
//! ledger's [`agent_entries`](CommLedger::agent_entries), making load
//! imbalance directly observable.
//!
//! # Elastic membership and recovery
//!
//! Commodity agents crash mid-run; the cluster survives them. Every
//! link carries a [`LinkHealth`] (alive / suspected / dead, see
//! [`crate::membership`]); when an exchange surfaces a churn-class
//! error (`Transport`/`Timeout`), the failed link's chunk is
//! **deterministically reassigned** across the links that have not
//! failed this round and the exchange retried (up to
//! [`RecoveryPolicy::max_retries`] times). Results carry genome ids and
//! replay in id order, so a run that lost and reassigned chunks is
//! bit-identical to a serial run — churn costs only time, measured in
//! [`RecoveryStats`]. New agents can also **join mid-run**
//! ([`admit_local`](EdgeCluster::admit_local)): they are `Configure`d
//! with the stored session spec and enter the weight/calibration tables
//! like any founding member. Deterministic churn testing goes through
//! [`ChurnSchedule`]
//! ([`set_churn`](EdgeCluster::set_churn), `clan-cli coordinate
//! --churn k1@2,r1@4`), which swaps a victim's transport for a
//! [`DeadTransport`] at a scatter
//! round boundary and revives a replacement later — exercising the
//! production recovery path with a simulated device crash.

use crate::error::ClanError;
use crate::evaluator::{CacheFilter, InferenceMode};
use crate::membership::{is_churn_error, AgentHealth, LinkHealth, RecoveryPolicy, RecoveryStats};
use crate::telemetry::{EventKind, Tracer};
use crate::transport::agent::{serve_session, AgentServer, UdpAgentServer};
use crate::transport::churn::{ChurnAction, ChurnSchedule, DeadTransport};
use crate::transport::codec::{encode_build_children, encode_evaluate, request_floats};
use crate::transport::{
    channel_pair, recv_message, send_message, wire_bytes, ClusterSpec, TcpTransport, Transport,
    UdpConfig, WireEvaluation, WireMessage,
};
use clan_distsim::partition_weighted;
use clan_envs::Workload;
use clan_neat::{FitnessCache, Genome, GenomeId, NeatConfig, Population};
use clan_netsim::{CommLedger, MessageKind};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Smoothing factor of the round-trip-time calibration EWMA: how fast
/// measured throughput overrides the static capability weight.
const EWMA_ALPHA: f64 = 0.4;

/// How a remote link's session can be re-established after a failure
/// (the original agent address). In-process links have no origin: their
/// agent thread dies with its session, so they come back only through
/// an explicit revival.
#[derive(Clone)]
enum LinkOrigin {
    /// Reconnect over TCP to the original address.
    Tcp(String),
    /// Reconnect over the datagram transport to the original address,
    /// with the coordinator-side tuning (faults re-derived per link).
    Udp(String, UdpConfig),
}

/// One agent as the coordinator sees it.
struct AgentLink {
    transport: Box<dyn Transport>,
    /// Join handle for in-process agents; `None` for remote ones.
    handle: Option<JoinHandle<()>>,
    /// Static capability weight (relative throughput; default 1.0).
    weight: f64,
    /// EWMA of measured evaluation throughput (genomes/second), fed by
    /// per-chunk round-trip times when calibration is enabled.
    measured: Option<f64>,
    /// Liveness as judged from exchange outcomes (see
    /// [`crate::membership`]).
    health: LinkHealth,
    /// Human-readable description of the last churn-class failure.
    last_error: Option<String>,
    /// Set when the session on `transport` is no longer trustworthy (a
    /// churn-class failure desynchronizes request/response pairing —
    /// e.g. a late reply from a timed-out round). A poisoned transport
    /// is a [`DeadTransport`]; the link is re-established from `origin`
    /// before its next probe, or strikes out.
    poisoned: bool,
    /// Where a fresh session can be established, for remote links.
    origin: Option<LinkOrigin>,
}

impl AgentLink {
    fn new(
        transport: Box<dyn Transport>,
        handle: Option<JoinHandle<()>>,
        origin: Option<LinkOrigin>,
    ) -> AgentLink {
        AgentLink {
            transport,
            handle,
            weight: 1.0,
            measured: None,
            health: LinkHealth::Alive,
            last_error: None,
            poisoned: false,
            origin,
        }
    }

    /// Settles this link after an exchange round or a stream: one that
    /// `completed` a round trip (and was not poisoned since) is healthy
    /// again, and the loss-recovery overhead its transport accumulated
    /// (retransmitted + duplicate datagrams, zero on reliable
    /// transports) is booked against its slot and traced.
    fn settle(&mut self, slot: usize, completed: bool, ledger: &mut CommLedger, tracer: &Tracer) {
        if completed && !self.poisoned {
            self.health = self.health.on_success();
            self.last_error = None;
        }
        let overhead = self.transport.take_link_stats().overhead_bytes();
        if overhead > 0 {
            ledger.record_agent_retrans(slot, overhead);
            tracer.timing(EventKind::Retransmission, |ev| {
                ev.agent = Some(slot as u64);
                ev.bytes = Some(overhead);
            });
        }
    }
}

/// Where this cluster's agents come from: the founding members at
/// construction and any replacement for a mid-run revival or admission
/// are minted from the same source. Remote clusters consume one address
/// per agent, so they are left with no source until
/// [`set_spares`](EdgeCluster::set_spares) supplies standby addresses.
enum Respawn {
    /// No way to mint new agents (caller-supplied transports).
    External,
    /// In-process worker thread over a byte channel.
    Channel,
    /// In-process agent thread serving loopback TCP.
    LoopbackTcp,
    /// In-process agent thread serving loopback UDP, with the
    /// coordinator-side and agent-side datagram configs.
    LoopbackUdp {
        coordinator: UdpConfig,
        agent: UdpConfig,
    },
    /// Standby `clan-cli agent` addresses to connect over TCP.
    RemoteTcp { spares: VecDeque<String> },
    /// Standby `clan-cli agent --udp` addresses, with the
    /// coordinator-side datagram config.
    RemoteUdp {
        coordinator: UdpConfig,
        spares: VecDeque<String>,
    },
}

/// Measured scatter/gather timing accumulated over a cluster's life.
///
/// `makespan_s` sums each gather's slowest-link wait (what a generation
/// actually costs); `busy_s` sums every link's individual wait (the
/// total work the cluster performed). Their ratio approaches the agent
/// count when partitions are balanced and collapses toward 1.0 when one
/// slow agent serializes the generation — the imbalance signal
/// throughput-weighted partitioning exists to fix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GatherStats {
    /// Scatter/gather rounds performed.
    pub gathers: u64,
    /// Summed per-round slowest-link wait, seconds.
    pub makespan_s: f64,
    /// Summed per-link wait across all rounds, seconds.
    pub busy_s: f64,
}

impl GatherStats {
    /// Mean wall-clock cost of one gather round.
    pub fn mean_makespan_s(&self) -> f64 {
        if self.gathers == 0 {
            0.0
        } else {
            self.makespan_s / self.gathers as f64
        }
    }

    /// Parallel-overlap ratio `busy_s / makespan_s`: ≈ agent count when
    /// balanced, → 1.0 when one agent sets the pace. `None` until a
    /// gather has been timed.
    pub fn overlap(&self) -> Option<f64> {
        (self.makespan_s > 0.0).then(|| self.busy_s / self.makespan_s)
    }
}

/// Requests every streaming link keeps in flight, live or simulated:
/// the smallest depth that hides the coordinator's turnaround from an
/// agent, and a constant for the reasons in [`crate::asynchronous`].
pub const STREAM_WINDOW: usize = 2;

/// One finished streaming evaluation, as handed to the
/// [`evaluate_stream`](EdgeCluster::evaluate_stream) completion callback
/// the moment it arrives — in *arrival* order (dispatch order per link),
/// the point of the async mode and why it is not bit-identical to a gather.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamCompletion {
    /// Link slot that produced the result.
    pub agent: usize,
    /// The evaluated genome.
    pub genome: GenomeId,
    /// Its evaluation (fitness + activation count).
    pub evaluation: clan_neat::population::Evaluation,
    /// Per-activation gene cost of the compiled network, for the
    /// paper's cost accounting.
    pub genes_per_activation: u64,
}

/// Timing and recovery accounting of one
/// [`evaluate_stream`](EdgeCluster::evaluate_stream) run. A completion's
/// *span* runs from `max(its request sent, previous reply on its link)`
/// to its reply, so spans on one link never overlap and busy time is the
/// time a link had at least one request outstanding.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Evaluations completed (including re-dispatched ones).
    pub completions: u64,
    /// Genomes outstanding on a link when it died, dispatched again to
    /// a surviving agent.
    pub redispatches: u64,
    /// Wall-clock of the whole stream, seconds.
    pub makespan_s: f64,
    /// Summed per-agent busy time (completion spans), seconds.
    pub busy_s: f64,
    /// Per-link busy seconds (index = link slot).
    pub per_agent_busy_s: Vec<f64>,
    /// Per-link completed evaluations (index = link slot).
    pub per_agent_completions: Vec<u64>,
}

/// What the dispatch loop sends a link's worker: the next genome with
/// its stream sequence number, or `None` for "nothing yet".
type StreamFeed = Option<(u64, Genome)>;

/// What a per-link streaming worker reports back to the dispatch loop.
enum StreamEvent {
    /// One evaluation finished cleanly.
    Done {
        completion: StreamCompletion,
        elapsed_s: f64,
        /// `(modeled floats, wire bytes)` of the request and the reply.
        sent: (u64, u64),
        recv: (u64, u64),
    },
    /// The link is done for: churn (a transport or timeout `error`), or
    /// a protocol/frame violation — a bug, which aborts the stream. Its
    /// outstanding `genomes` (oldest first) and any feed still unread in
    /// `work` need a new home.
    Down {
        agent: usize,
        genomes: Vec<Genome>,
        work: Receiver<StreamFeed>,
        error: ClanError,
    },
}

/// What one link's exchange thread brings back: the request's modeled
/// floats and measured wire bytes, the reply if the send went out, and
/// the seconds from the start of the exchange to the end of both.
type LinkExchange = (
    Result<(u64, u64), ClanError>,
    Option<Result<(WireMessage, u64), ClanError>>,
    f64,
);

/// Encodes one scatter chunk's request from the borrowed items, on the
/// chunk's link thread: the frame and its modeled floats.
type RequestEncoder<'a, T> = &'a (dyn Fn(&[T]) -> (Vec<u8>, u64) + Sync);

/// One exchange attempt's result: per-link slots (`None` = no request
/// sent; `Some(Err)` = churn-class link failure, already recorded in
/// the membership table) plus the attempt's measured makespan.
struct ExchangeOutcome {
    responses: Vec<Option<Result<WireMessage, ClanError>>>,
    makespan_s: f64,
}

/// Extracts a scatter chunk's result items from its link's reply; `None`
/// (a protocol violation) unless the reply answers the chunk item for item.
type ResponseHandler<'a, T, R> = &'a mut dyn FnMut(WireMessage, &[T]) -> Option<Vec<R>>;

/// Serves one in-process agent `session` for link slot `slot` on a named
/// thread, surfacing OS thread exhaustion as a typed
/// [`ClanError::WorkerFailure`] instead of a panic.
fn spawn_agent_thread(
    slot: usize,
    session: impl FnOnce() -> Result<(), ClanError> + Send + 'static,
) -> Result<JoinHandle<()>, ClanError> {
    std::thread::Builder::new()
        .name(format!("clan-agent-{slot}"))
        .spawn(move || {
            if let Err(e) = session() {
                eprintln!("clan-agent-{slot}: {e}");
            }
        })
        .map_err(|e| ClanError::WorkerFailure {
            agent: slot,
            reason: format!("cannot spawn agent thread: {e}"),
        })
}

/// One link's side of a stream: keeps up to [`STREAM_WINDOW`] one-genome
/// `Evaluate` frames outstanding (the sequence number rides in the
/// generation field) and matches each one-entry `Fitness` to the
/// *oldest* — every [`Transport`] is an ordered pipe. With room in the
/// window it waits on `work`, not the link: each completion is answered
/// by a genome or `None` ("nothing yet, go listen"), and merely polling
/// would pick the genome up one evaluation late, collapsing the depth
/// to one. Told to stop (`work` closed), it first reads the replies it
/// is owed, so no stale `Fitness` answers the next round's request.
fn stream_link(
    transport: &mut dyn Transport,
    agent: usize,
    master_seed: u64,
    clock: Instant,
    work: Receiver<StreamFeed>,
    events: &Sender<StreamEvent>,
) {
    // Sent and unanswered: genome id, request (it owns the genome, which
    // a failed link hands back), wire bytes, and when it went out.
    let mut outstanding: VecDeque<(GenomeId, WireMessage, u64, Duration)> = VecDeque::new();
    let mut last_reply = Duration::ZERO;
    let error = loop {
        if outstanding.len() < STREAM_WINDOW {
            match work.recv() {
                Ok(Some((generation, genome))) => {
                    let id = genome.id();
                    let request = WireMessage::Evaluate {
                        generation,
                        master_seed,
                        genomes: vec![genome],
                    };
                    let sent_at = clock.elapsed();
                    let sent = send_message(transport, &request);
                    outstanding.push_back((id, request, *sent.as_ref().unwrap_or(&0), sent_at));
                    match sent {
                        Ok(_) => continue,
                        Err(error) => break error,
                    }
                }
                Ok(None) if outstanding.is_empty() => continue,
                Ok(None) => {}
                Err(_) => {
                    let _ = outstanding
                        .iter()
                        .try_for_each(|_| transport.recv_frame().map(drop));
                    return;
                }
            }
        }
        let (reply, recv_bytes) = match recv_message(transport) {
            Ok(reply) => reply,
            Err(error) => break error,
        };
        let replied_at = clock.elapsed();
        let Some((id, request, sent_bytes, sent_at)) = outstanding.pop_front() else {
            continue;
        };
        let recv_floats = reply.modeled_floats();
        let (genome, evaluation, genes_per_activation) = match reply {
            WireMessage::Fitness(batch) if batch.len() == 1 && batch[0].0 == id => batch[0],
            other => {
                break ClanError::Protocol {
                    peer: transport.peer(),
                    reason: format!("expected the Fitness of genome {id}, got {other:?}"),
                }
            }
        };
        // Fails only once the dispatch loop, and so `work`, is gone.
        let _ = events.send(StreamEvent::Done {
            completion: StreamCompletion {
                agent,
                genome,
                evaluation,
                genes_per_activation,
            },
            elapsed_s: (replied_at.saturating_sub(sent_at.max(last_reply))).as_secs_f64(),
            sent: (request.modeled_floats(), sent_bytes),
            recv: (recv_floats, recv_bytes),
        });
        last_reply = replied_at;
    };
    let genomes = outstanding
        .into_iter()
        .filter_map(|(_, request, ..)| match request {
            WireMessage::Evaluate { mut genomes, .. } => genomes.pop(),
            _ => None,
        });
    let _ = events.send(StreamEvent::Down {
        agent,
        genomes: genomes.collect(),
        work,
        error,
    });
}

/// Splits `items` into consecutive slices of the given sizes.
fn chunk_by_counts<'a, T>(items: &'a [T], counts: &[usize]) -> Vec<&'a [T]> {
    debug_assert_eq!(counts.iter().sum::<usize>(), items.len());
    let mut chunks = Vec::with_capacity(counts.len());
    let mut start = 0;
    for &c in counts {
        chunks.push(&items[start..start + c]);
        start += c;
    }
    chunks
}

/// A live cluster of agents evaluating and reproducing genomes over a
/// real transport.
///
/// Use [`evaluate`](EdgeCluster::evaluate) and
/// [`build_children`](EdgeCluster::build_children) as the distributed
/// counterparts of `Population::evaluate` and
/// `Population::reproduce_centrally`, or attach the cluster to an
/// [`Evaluator`](crate::Evaluator) with
/// [`Evaluator::with_remote`](crate::Evaluator::with_remote) to fan all
/// four CLAN orchestrators' inference out across it. Call
/// [`shutdown`](EdgeCluster::shutdown) for an orderly stop; dropping the
/// cluster also stops it.
pub struct EdgeCluster {
    links: Vec<AgentLink>,
    /// The session spec every (founding or joining) agent is configured
    /// with — kept so mid-run admissions speak the same session.
    spec: ClusterSpec,
    ledger: CommLedger,
    control_bytes: u64,
    /// When set, partition weights follow measured round-trip times.
    calibrate: bool,
    gather: GatherStats,
    /// How hard scatters fight to survive link failures.
    policy: RecoveryPolicy,
    /// What surviving churn cost so far.
    recovery: RecoveryStats,
    /// Deterministic kill/revive plan, applied at round boundaries.
    churn: Option<ChurnSchedule>,
    /// Scatter rounds performed (each `evaluate_collect` /
    /// `build_children` call advances this by one).
    round: u64,
    /// How replacement agents are produced for revivals/admissions.
    respawn: Respawn,
    /// Coordinator-side content-addressed fitness cache (per
    /// `spec.cache`): hits are served locally and never cross the wire,
    /// so every remote surface — DCS, DDS, TCP, UDP, churned — gets the
    /// same elision for free.
    cache: Option<FitnessCache>,
    /// Telemetry handle (no-op unless installed): the runtime records
    /// Timing-class events only — per-link gather spans,
    /// retransmissions, churn transitions — never anything that enters
    /// the deterministic logical stream.
    tracer: Tracer,
}

impl std::fmt::Debug for EdgeCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeCluster")
            .field("agents", &self.links.len())
            .field("wire_bytes", &self.ledger.total_wire_bytes())
            .finish_non_exhaustive()
    }
}

impl EdgeCluster {
    /// Spawns `n_agents` worker threads connected over in-process
    /// channels (frames still cross as encoded bytes).
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] if `n_agents` is zero, and
    /// [`ClanError::Transport`] if an agent rejects configuration.
    ///
    /// [`ClanError::WorkerFailure`] if the OS cannot spawn an agent
    /// thread.
    pub fn spawn(
        n_agents: usize,
        workload: Workload,
        mode: InferenceMode,
        cfg: NeatConfig,
    ) -> Result<EdgeCluster, ClanError> {
        Self::spawn_spec(n_agents, ClusterSpec::new(workload, mode, cfg))
    }

    /// [`spawn`](EdgeCluster::spawn) with a full [`ClusterSpec`]
    /// (episodes per evaluation etc.).
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] if `n_agents` is zero, and
    /// [`ClanError::Transport`] if an agent rejects configuration —
    /// the same contract as [`spawn_local_spec`](EdgeCluster::spawn_local_spec),
    /// so callers handle channel and TCP deployments identically.
    ///
    /// [`ClanError::WorkerFailure`] if the OS cannot spawn an agent
    /// thread.
    pub fn spawn_spec(n_agents: usize, spec: ClusterSpec) -> Result<EdgeCluster, ClanError> {
        Self::founded(n_agents, spec, Respawn::Channel)
    }

    /// Spawns `n_agents` agent threads each serving a **real TCP
    /// socket** bound to `127.0.0.1` on an ephemeral port, and connects
    /// to them — the entire networked stack, loopback, in one process.
    ///
    /// # Errors
    ///
    /// [`ClanError::Transport`] if binding or connecting fails, and
    /// [`ClanError::InvalidSetup`] if `n_agents` is zero.
    ///
    /// [`ClanError::WorkerFailure`] if the OS cannot spawn an agent
    /// thread.
    pub fn spawn_local_spec(n_agents: usize, spec: ClusterSpec) -> Result<EdgeCluster, ClanError> {
        Self::founded(n_agents, spec, Respawn::LoopbackTcp)
    }

    /// Spawns `n_agents` agent threads each serving a **real UDP
    /// socket** on `127.0.0.1` — the loss-tolerant datagram stack
    /// ([`UdpTransport`](crate::transport::UdpTransport)), loopback, in
    /// one process — with explicit datagram tuning
    /// (`UdpConfig::default()` for the stock one) and, optionally,
    /// seeded fault injection: the
    /// config's [`faults`](UdpConfig::faults) are applied on the
    /// coordinator side of every link with a per-link RNG
    /// ([`FaultConfig::for_link`](crate::transport::FaultConfig::for_link)),
    /// making both directions of each link lossy. The ARQ layer recovers
    /// every injected fault, so results stay bit-identical to a clean
    /// run — the `udp-lossy` matrix rows pin that at 20 % loss.
    ///
    /// # Errors
    ///
    /// [`ClanError::Transport`] if binding or connecting fails,
    /// [`ClanError::InvalidSetup`] if `n_agents` is zero, and
    /// [`ClanError::WorkerFailure`] if the OS cannot spawn an agent
    /// thread.
    pub fn spawn_local_udp_cfg(
        n_agents: usize,
        spec: ClusterSpec,
        udp: UdpConfig,
    ) -> Result<EdgeCluster, ClanError> {
        // Agents run the same tuning but never inject faults themselves:
        // the coordinator-side wrapper already perturbs both directions.
        let agent_udp = UdpConfig {
            faults: None,
            ..udp.clone()
        };
        let respawn = Respawn::LoopbackUdp {
            coordinator: udp,
            agent: agent_udp,
        };
        Self::founded(n_agents, spec, respawn)
    }

    /// Connects to already-running **UDP** agent processes (started with
    /// `clan-cli agent --udp --listen ADDR`) with explicit datagram
    /// tuning and optional coordinator-side fault injection, and pushes
    /// the session configuration to each.
    ///
    /// # Errors
    ///
    /// [`ClanError::Transport`] if a socket cannot be created, and
    /// [`ClanError::InvalidSetup`] on an empty address list. (UDP has no
    /// connection handshake — an unreachable agent surfaces as a
    /// [`ClanError::Timeout`] on the first exchange instead.)
    pub fn connect_udp_cfg(
        addrs: &[String],
        spec: ClusterSpec,
        udp: UdpConfig,
    ) -> Result<EdgeCluster, ClanError> {
        let respawn = Respawn::RemoteUdp {
            coordinator: udp,
            spares: addrs.iter().cloned().collect(),
        };
        Self::founded(addrs.len(), spec, respawn)
    }

    /// Connects to already-running agent processes (started with
    /// `clan-cli agent --listen ADDR`) and pushes the session
    /// configuration to each.
    ///
    /// # Errors
    ///
    /// [`ClanError::Transport`] if any agent is unreachable, and
    /// [`ClanError::InvalidSetup`] on an empty address list.
    pub fn connect(addrs: &[String], spec: ClusterSpec) -> Result<EdgeCluster, ClanError> {
        let respawn = Respawn::RemoteTcp {
            spares: addrs.iter().cloned().collect(),
        };
        Self::founded(addrs.len(), spec, respawn)
    }

    /// Builds a cluster over caller-supplied transports whose agent
    /// sides are already being served (e.g. channel pairs with
    /// [`serve_session`] threads, possibly wrapped in a
    /// [`DelayTransport`](crate::transport::DelayTransport) to emulate
    /// a slow device). The cluster does not own the serving threads.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] on an empty transport list, plus any
    /// configuration-push failure.
    pub fn connect_transports(
        transports: Vec<Box<dyn Transport>>,
        spec: ClusterSpec,
    ) -> Result<EdgeCluster, ClanError> {
        let links = transports
            .into_iter()
            .map(|t| AgentLink::new(t, None, None))
            .collect();
        Self::configured(links, spec, Respawn::External)
    }

    /// Mints `n_agents` founding agents from `respawn` and configures
    /// them.
    fn founded(
        n_agents: usize,
        spec: ClusterSpec,
        mut respawn: Respawn,
    ) -> Result<EdgeCluster, ClanError> {
        let links = (0..n_agents)
            .map(|slot| Self::mint_agent(&mut respawn, slot))
            .collect::<Result<Vec<_>, ClanError>>()?;
        Self::configured(links, spec, respawn)
    }

    /// The one construction funnel: rejects an agent-less cluster (so
    /// every scatter can rely on at least one link slot — slots are only
    /// ever added afterwards) and pushes `Configure` to every link
    /// (control traffic: counted in bytes, invisible to the analytic
    /// model).
    fn configured(
        mut links: Vec<AgentLink>,
        spec: ClusterSpec,
        respawn: Respawn,
    ) -> Result<EdgeCluster, ClanError> {
        if links.is_empty() {
            return Err(ClanError::InvalidSetup {
                reason: "cluster needs at least one agent".into(),
            });
        }
        let msg = WireMessage::Configure(Box::new(spec.clone()));
        let mut control_bytes = 0;
        for link in &mut links {
            control_bytes += send_message(link.transport.as_mut(), &msg)?;
        }
        let cache = spec.cache.then(FitnessCache::new);
        Ok(EdgeCluster {
            links,
            spec,
            ledger: CommLedger::new(),
            control_bytes,
            calibrate: false,
            gather: GatherStats::default(),
            policy: RecoveryPolicy::default(),
            recovery: RecoveryStats::default(),
            churn: None,
            round: 0,
            respawn,
            cache,
            tracer: Tracer::default(),
        })
    }

    /// Number of agent link slots (including dead ones, whose slots are
    /// kept so per-agent accounting stays aligned — see
    /// [`live_agents`](EdgeCluster::live_agents)).
    pub fn n_agents(&self) -> usize {
        self.links.len()
    }

    /// Number of links not currently marked [`LinkHealth::Dead`].
    pub fn live_agents(&self) -> usize {
        self.links.iter().filter(|l| l.health.is_live()).count()
    }

    /// Sets per-agent capability weights: relative throughputs that
    /// every scatter partitions work by (see
    /// [`clan_distsim::partition_weighted`]). Equal weights (the
    /// default 1.0) reproduce the even split exactly.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] if the length does not match the
    /// agent count, or any weight is negative/non-finite, or all are
    /// zero.
    pub fn set_weights(&mut self, weights: &[f64]) -> Result<(), ClanError> {
        if weights.len() != self.links.len() {
            return Err(ClanError::InvalidSetup {
                reason: format!(
                    "{} weight(s) for {} agent(s)",
                    weights.len(),
                    self.links.len()
                ),
            });
        }
        if !weights.iter().all(|w| w.is_finite() && *w >= 0.0) || weights.iter().sum::<f64>() <= 0.0
        {
            return Err(ClanError::InvalidSetup {
                reason: "agent weights must be finite, non-negative, and not all zero".into(),
            });
        }
        for (link, &w) in self.links.iter_mut().zip(weights) {
            link.weight = w;
        }
        Ok(())
    }

    /// Enables (or disables) round-trip-time calibration: after each
    /// evaluation round, every link's weight is recalibrated toward its
    /// measured throughput (an EWMA of genomes/second), so partitions
    /// track how fast agents *actually* are rather than how fast the
    /// static weights claim. Results stay bit-identical — only chunk
    /// sizes change, and replay is always in genome-id order.
    pub fn set_calibration(&mut self, enabled: bool) {
        self.calibrate = enabled;
    }

    /// The static capability weights currently configured.
    pub fn weights(&self) -> Vec<f64> {
        self.links.iter().map(|l| l.weight).collect()
    }

    /// The weights the next scatter will actually partition by.
    ///
    /// Measured throughputs are used only once every positive-weight
    /// link has one — mixing measured genomes/second with static
    /// weights on an arbitrary scale would skew the split; until then
    /// (and whenever calibration is off) the static weights apply.
    pub fn effective_weights(&self) -> Vec<f64> {
        let calibrated = self.calibrate
            && self
                .links
                .iter()
                .all(|l| l.weight <= 0.0 || l.measured.is_some());
        if calibrated {
            self.links
                .iter()
                .map(|l| {
                    if l.weight <= 0.0 {
                        0.0
                    } else {
                        l.measured.unwrap_or(0.0)
                    }
                })
                .collect()
        } else {
            self.weights()
        }
    }

    /// Measured scatter/gather timing accumulated so far.
    pub fn gather_stats(&self) -> GatherStats {
        self.gather
    }

    /// Installs a telemetry handle. The runtime emits Timing-class
    /// annotations only (per-link spans, retransmissions, churn
    /// transitions); the deterministic logical stream is produced by
    /// the orchestrators.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Sets the recovery policy (retry budget, live-agent floor).
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.policy = policy;
    }

    /// Everything surviving churn has cost so far.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery.clone()
    }

    /// Per-link membership snapshot (index = link slot).
    pub fn membership(&self) -> Vec<AgentHealth> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| AgentHealth {
                health: l.health,
                failures: self.recovery.agent_failures.get(i).copied().unwrap_or(0),
                last_error: l.last_error.clone(),
            })
            .collect()
    }

    /// Installs a deterministic kill/revive plan, applied at scatter
    /// round boundaries (each `evaluate`/`build_children` call is one
    /// round).
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] if the schedule names an agent slot
    /// this cluster does not have, or schedules revivals on a cluster
    /// that cannot mint replacement agents (caller-supplied transports
    /// without [`set_spares`](EdgeCluster::set_spares)).
    pub fn set_churn(&mut self, schedule: ChurnSchedule) -> Result<(), ClanError> {
        if let Some(max) = schedule.max_agent() {
            if max >= self.links.len() {
                return Err(ClanError::InvalidSetup {
                    reason: format!(
                        "churn schedule names agent {max}, cluster has {} slot(s)",
                        self.links.len()
                    ),
                });
            }
        }
        if schedule.has_revivals() && !self.can_respawn() {
            return Err(ClanError::InvalidSetup {
                reason: "churn schedule revives agents but this cluster cannot mint \
                         replacements (connect via loopback, or supply standby \
                         addresses with set_spares)"
                    .into(),
            });
        }
        self.churn = Some(schedule);
        Ok(())
    }

    /// Registers standby agent addresses a remote cluster may connect
    /// when a revival or [`admit_local`](EdgeCluster::admit_local) needs
    /// a replacement (`clan-cli coordinate --spare-at`). Consumed in
    /// order.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] on clusters whose agents are spawned
    /// in-process (they mint their own replacements) or caller-supplied.
    pub fn set_spares(&mut self, addrs: Vec<String>) -> Result<(), ClanError> {
        match &mut self.respawn {
            Respawn::RemoteTcp { spares } | Respawn::RemoteUdp { spares, .. } => {
                spares.extend(addrs);
                Ok(())
            }
            _ => Err(ClanError::InvalidSetup {
                reason: "spare agent addresses apply to remote clusters only \
                         (connect / connect_udp_cfg)"
                    .into(),
            }),
        }
    }

    fn can_respawn(&self) -> bool {
        match &self.respawn {
            Respawn::External => false,
            Respawn::Channel | Respawn::LoopbackTcp | Respawn::LoopbackUdp { .. } => true,
            Respawn::RemoteTcp { spares } => !spares.is_empty(),
            Respawn::RemoteUdp { spares, .. } => !spares.is_empty(),
        }
    }

    /// Mints the agent for link slot `slot` from `respawn`, as an
    /// unconfigured link (the caller pushes `Configure`).
    fn mint_agent(respawn: &mut Respawn, slot: usize) -> Result<AgentLink, ClanError> {
        let next_spare = |spares: &mut VecDeque<String>| {
            spares.pop_front().ok_or_else(|| ClanError::InvalidSetup {
                reason: "no spare agent addresses left (see set_spares / --spare-at)".into(),
            })
        };
        match respawn {
            Respawn::External => Err(ClanError::InvalidSetup {
                reason: "this cluster cannot mint replacement agents \
                         (caller-supplied transports)"
                    .into(),
            }),
            Respawn::Channel => {
                let (coord, mut agent_side) = channel_pair();
                let handle = spawn_agent_thread(slot, move || serve_session(&mut agent_side))?;
                Ok(AgentLink::new(Box::new(coord), Some(handle), None))
            }
            Respawn::LoopbackTcp => {
                let server = AgentServer::bind("127.0.0.1:0")?;
                // Connect before spawning the serving thread: the pending
                // connection waits in the listener's backlog, and a connect
                // failure leaves no thread parked forever in accept().
                let transport = TcpTransport::connect(server.local_addr())?;
                let handle = spawn_agent_thread(slot, move || server.serve_once())?;
                Ok(AgentLink::new(Box::new(transport), Some(handle), None))
            }
            Respawn::LoopbackUdp { coordinator, agent } => {
                let mut server = UdpAgentServer::bind("127.0.0.1:0")?.with_config(agent.clone());
                let transport = coordinator.transport_to(server.local_addr(), slot)?;
                let handle = spawn_agent_thread(slot, move || server.serve_once())?;
                Ok(AgentLink::new(transport, Some(handle), None))
            }
            Respawn::RemoteTcp { spares } => {
                let addr = next_spare(spares)?;
                let transport = TcpTransport::connect(addr.as_str())?;
                Ok(AgentLink::new(
                    Box::new(transport),
                    None,
                    Some(LinkOrigin::Tcp(addr)),
                ))
            }
            Respawn::RemoteUdp {
                coordinator,
                spares,
            } => {
                let addr = next_spare(spares)?;
                let transport = coordinator.transport_to(addr.as_str(), slot)?;
                Ok(AgentLink::new(
                    transport,
                    None,
                    Some(LinkOrigin::Udp(addr, coordinator.clone())),
                ))
            }
        }
    }

    /// Kills link `slot`: its transport is replaced by a
    /// [`DeadTransport`], so every subsequent exchange with it fails
    /// exactly like an unplugged device and the normal recovery path
    /// takes over. The agent behind the link observes a disconnect (or
    /// liveness timeout) and ends its session; an in-process agent
    /// thread is detached rather than joined.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] on an out-of-range slot.
    pub fn kill_agent(&mut self, slot: usize) -> Result<(), ClanError> {
        let link = self
            .links
            .get_mut(slot)
            .ok_or_else(|| ClanError::InvalidSetup {
                reason: format!("kill: no agent slot {slot}"),
            })?;
        let peer = link.transport.peer();
        link.transport = Box::new(DeadTransport::new(peer));
        link.poisoned = true;
        // An injected kill must stick: clearing the origin prevents the
        // automatic session re-establishment a transient failure gets.
        link.origin = None;
        // Detach: a UDP loopback agent only notices the death at its
        // idle deadline, and shutdown must not wait for that.
        drop(link.handle.take());
        self.tracer.timing(EventKind::AgentKilled, |ev| {
            ev.agent = Some(slot as u64);
        });
        Ok(())
    }

    /// Revives link `slot` with a freshly minted replacement agent:
    /// same slot (per-agent accounting stays aligned), same static
    /// weight, fresh health and calibration, `Configure`d with the
    /// session spec.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] on an out-of-range slot or a cluster
    /// with no respawn source, plus any transport failure while
    /// connecting or configuring the replacement.
    pub fn revive_agent(&mut self, slot: usize) -> Result<(), ClanError> {
        if slot >= self.links.len() {
            return Err(ClanError::InvalidSetup {
                reason: format!("revive: no agent slot {slot}"),
            });
        }
        let mut fresh = Self::mint_agent(&mut self.respawn, slot)?;
        let msg = WireMessage::Configure(Box::new(self.spec.clone()));
        self.control_bytes += send_message(fresh.transport.as_mut(), &msg)?;
        // Same slot, same static weight; everything else starts over.
        // Dropping the old link drops its transport: a still-running
        // old agent observes the disconnect and ends its session
        // quietly (its thread is detached, never joined).
        fresh.weight = self.links[slot].weight;
        self.links[slot] = fresh;
        self.tracer.timing(EventKind::AgentRevived, |ev| {
            ev.agent = Some(slot as u64);
        });
        Ok(())
    }

    /// Admits a new agent minted from this cluster's own respawn source
    /// (an in-process thread for spawned clusters, the next spare
    /// address for remote ones) — mid-run scale-out. Returns the new
    /// slot index.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] when no replacement source exists,
    /// plus any connect/configure failure.
    pub fn admit_local(&mut self) -> Result<usize, ClanError> {
        let slot = self.links.len();
        let mut link = Self::mint_agent(&mut self.respawn, slot)?;
        let msg = WireMessage::Configure(Box::new(self.spec.clone()));
        self.control_bytes += send_message(link.transport.as_mut(), &msg)?;
        self.links.push(link);
        self.recovery.joins += 1;
        self.tracer.timing(EventKind::AgentJoined, |ev| {
            ev.agent = Some(slot as u64);
        });
        Ok(slot)
    }

    /// Advances the scatter round and applies any churn events due.
    fn apply_churn(&mut self) -> Result<(), ClanError> {
        let round = self.round;
        self.round += 1;
        self.recovery.rounds += 1;
        let Some(churn) = &self.churn else {
            return Ok(());
        };
        let due: Vec<(usize, ChurnAction)> = churn
            .events_at(round)
            .map(|e| (e.agent, e.action))
            .collect();
        for (agent, action) in due {
            match action {
                ChurnAction::Kill => {
                    self.kill_agent(agent)?;
                    self.recovery.kills += 1;
                }
                ChurnAction::Revive => {
                    self.revive_agent(agent)?;
                    self.recovery.joins += 1;
                }
            }
        }
        Ok(())
    }

    /// Traffic observed on this cluster's transport, with both the
    /// analytic model's float accounting and the measured wire bytes.
    ///
    /// Kinds map onto the protocol: `Evaluate` → `SendGenomes`,
    /// `Fitness` → `SendFitness`, `BuildChildren` → `SendParentGenomes`
    /// (its spec list contributes the parent-list floats), `Children` →
    /// `SendChildren`.
    pub fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    /// Wire bytes spent on control messages (`Configure`/`Shutdown`)
    /// that the analytic model does not account at all.
    pub fn control_wire_bytes(&self) -> u64 {
        self.control_bytes
    }

    /// The NEAT configuration agents compile genomes with.
    pub fn neat_config(&self) -> &NeatConfig {
        &self.spec.cfg
    }

    /// The weights the next scatter attempt partitions by: effective
    /// weights with dead links — and links already failed this round —
    /// zeroed out.
    fn scatter_weights(&self, failed_this_round: &[bool]) -> Vec<f64> {
        self.effective_weights()
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                if !self.links[i].health.is_live() || failed_this_round[i] {
                    0.0
                } else {
                    w
                }
            })
            .collect()
    }

    /// Marks link `i` failed with churn-class error `e`: health
    /// transition, recovery accounting, and **session poisoning** — the
    /// transport is replaced with a [`DeadTransport`] because its
    /// request/response pairing can no longer be trusted (a timed-out
    /// agent's late reply would otherwise answer the *next* round's
    /// request and surface as a protocol violation). The link is
    /// re-established from its origin before the next probe
    /// ([`resync_poisoned_links`](EdgeCluster::resync_poisoned_links))
    /// or strikes out fast.
    fn note_link_failure(
        links: &mut [AgentLink],
        recovery: &mut RecoveryStats,
        i: usize,
        e: &ClanError,
    ) {
        let link = &mut links[i];
        link.health = link.health.on_failure();
        link.last_error = Some(e.to_string());
        if !link.poisoned {
            let peer = link.transport.peer();
            link.transport = Box::new(DeadTransport::new(peer));
            link.poisoned = true;
            // The agent thread (if in-process) observes the dropped
            // session and exits on its own; never block a gather on it.
            drop(link.handle.take());
        }
        recovery.note_failure(i);
    }

    /// Re-establishes a fresh session on every poisoned-but-live link
    /// that has an origin to reconnect to: new transport, `Configure`
    /// pushed, calibration reset. Links without an origin (in-process
    /// agents, injected kills) and failed reconnects stay poisoned —
    /// their next probe fails fast and counts a strike, so a genuinely
    /// dead device converges to `Dead` without timeout waits, while a
    /// transiently slow one comes back with a clean session.
    fn resync_poisoned_links(&mut self) {
        for i in 0..self.links.len() {
            let link = &self.links[i];
            if !link.poisoned || !link.health.is_live() {
                continue;
            }
            let Some(origin) = link.origin.clone() else {
                continue;
            };
            let fresh: Result<Box<dyn Transport>, ClanError> = match &origin {
                LinkOrigin::Tcp(addr) => {
                    TcpTransport::connect(addr.as_str()).map(|t| Box::new(t) as Box<dyn Transport>)
                }
                LinkOrigin::Udp(addr, cfg) => cfg.transport_to(addr.as_str(), i),
            };
            let Ok(mut transport) = fresh else {
                continue; // stays poisoned; the probe records the strike
            };
            let msg = WireMessage::Configure(Box::new(self.spec.clone()));
            if let Ok(bytes) = send_message(transport.as_mut(), &msg) {
                self.control_bytes += bytes;
                let link = &mut self.links[i];
                link.transport = transport;
                link.poisoned = false;
                link.measured = None;
            }
        }
    }

    /// Scatters one request per non-empty chunk and gathers the responses
    /// **out of order**: a thread per requested link encodes its request
    /// from the borrowed chunk, sends it and banks the reply the moment it
    /// arrives, so a link never waits behind another's encode,
    /// flow-controlled send (a datagram window waiting on acks, a slow or
    /// dead peer) or reply. Its measured time — and so the makespan — runs
    /// from the start of the round to its reply: encode, send, the agent's
    /// work, receive, decode. All bookkeeping — ledger rows, calibration,
    /// membership marking — then replays in link order, keeping every
    /// observable effect deterministic regardless of arrival order.
    ///
    /// Churn-class failures (`Transport`/`Timeout`, on send or receive)
    /// do **not** abort the exchange: the failed link is marked in the
    /// membership table and its slot reports the error, so the caller
    /// can reassign the lost chunk. Non-churn errors (protocol, frame)
    /// are bugs and propagate immediately.
    ///
    /// A chunk's length is its work-item count; with `calibrate_throughput`
    /// the per-link round-trip time feeds the EWMA throughput estimate
    /// behind [`effective_weights`](EdgeCluster::effective_weights).
    fn exchange<T: Sync>(
        &mut self,
        send_kind: MessageKind,
        recv_kind: MessageKind,
        chunks: &[&[T]],
        encode_request: RequestEncoder<'_, T>,
        calibrate_throughput: bool,
    ) -> Result<ExchangeOutcome, ClanError> {
        let round = self.round;
        let EdgeCluster {
            links,
            ledger,
            gather,
            calibrate,
            recovery,
            tracer,
            ..
        } = self;
        debug_assert_eq!(chunks.len(), links.len());
        // clan-lint: allow(D2, reason="GatherStats wall-clock measurement; reported, never fed back into evolution")
        let start = Instant::now();
        let mut slots: Vec<Option<LinkExchange>> = (0..links.len()).map(|_| None).collect();
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel();
            for (i, (link, &chunk)) in links.iter_mut().zip(chunks).enumerate() {
                if chunk.is_empty() {
                    continue;
                }
                let tx = tx.clone();
                let transport: &mut dyn Transport = link.transport.as_mut();
                s.spawn(move || {
                    let sent = {
                        // The frame is freed before the wait for the reply.
                        let (frame, floats) = encode_request(chunk);
                        let sent = transport.send_frame(&frame);
                        sent.map(|()| (floats, wire_bytes(&frame)))
                    };
                    let reply = sent.is_ok().then(|| recv_message(transport));
                    let _ = tx.send((i, (sent, reply, start.elapsed().as_secs_f64())));
                });
            }
            drop(tx);
            for (i, done) in rx {
                slots[i] = Some(done);
            }
        });
        // Replay in link order (deterministic bookkeeping, whatever the
        // arrival order was): each link's request row, then its reply.
        // A churn-class failure claims the slot instead of aborting the
        // round.
        let mut responses: Vec<Option<Result<WireMessage, ClanError>>> =
            (0..links.len()).map(|_| None).collect();
        let mut failed = |links: &mut [AgentLink], i: usize, e: ClanError| {
            Self::note_link_failure(links, recovery, i, &e);
            tracer.timing(EventKind::AgentFailure, |ev| {
                ev.agent = Some(i as u64);
                ev.label = Some(e.to_string());
            });
            Some(Err(e))
        };
        let mut makespan = 0.0f64;
        let mut busy = 0.0f64;
        let mut hard_err: Option<ClanError> = None;
        for (i, (slot, chunk)) in slots.into_iter().zip(chunks).enumerate() {
            let Some((sent, reply, elapsed)) = slot else {
                continue;
            };
            let work = chunk.len() as u64;
            match sent {
                Ok((floats, bytes)) => ledger.record_agent_wire(i, send_kind, floats, bytes),
                Err(e) if is_churn_error(&e) => responses[i] = failed(links, i, e),
                Err(e) => return Err(e),
            }
            match reply {
                None => {}
                Some(Ok((msg, bytes))) => {
                    ledger.record_agent_wire(i, recv_kind, msg.modeled_floats(), bytes);
                    makespan = makespan.max(elapsed);
                    busy += elapsed;
                    tracer.timing(EventKind::AgentExchange, |ev| {
                        ev.agent = Some(i as u64);
                        ev.dur_us = Some((elapsed * 1e6) as u64);
                        ev.items = Some(work);
                    });
                    if calibrate_throughput && *calibrate && work > 0 {
                        let throughput = work as f64 / elapsed.max(1e-6);
                        let link = &mut links[i];
                        link.measured = Some(match link.measured {
                            Some(prev) => EWMA_ALPHA * throughput + (1.0 - EWMA_ALPHA) * prev,
                            None => throughput,
                        });
                    }
                    responses[i] = Some(Ok(msg));
                }
                Some(Err(e)) if is_churn_error(&e) => responses[i] = failed(links, i, e),
                Some(Err(e)) => hard_err = hard_err.or(Some(e)),
            }
        }
        for (i, link) in links.iter_mut().enumerate() {
            link.settle(i, matches!(responses[i], Some(Ok(_))), ledger, tracer);
        }
        if let Some(e) = hard_err {
            return Err(e);
        }
        gather.gathers += 1;
        gather.makespan_s += makespan;
        gather.busy_s += busy;
        tracer.timing(EventKind::GatherRound, |ev| {
            ev.items = Some(round);
            ev.dur_us = Some((makespan * 1e6) as u64);
        });
        Ok(ExchangeOutcome {
            responses,
            makespan_s: makespan,
        })
    }

    /// Checks the recovery policy before a scatter attempt: at least
    /// one usable link, and no fewer than the policy's floor. When the
    /// round degrades *because of failures*, the last link error (the
    /// root cause) is returned instead of a generic degradation.
    fn check_floor(
        &self,
        usable: usize,
        last_err: &mut Option<ClanError>,
    ) -> Result<(), ClanError> {
        let required = self.policy.min_agents.max(1);
        if usable >= required {
            return Ok(());
        }
        Err(last_err.take().unwrap_or(ClanError::Degraded {
            live: usable,
            required,
        }))
    }

    /// The elastic scatter shared by inference and reproduction: apply
    /// due churn, re-establish poisoned sessions, partition `items`
    /// over the usable links, exchange, and — when a link fails —
    /// reassign its chunk across the links that have not failed this
    /// round and retry, within the recovery policy's budget and floor.
    ///
    /// `encode_request` runs once per non-empty chunk, so no item is cloned
    /// into an owned message and a retry re-encodes the reassigned items
    /// from the same borrowed data; `handle_response` returns the result
    /// items of a reply that answers its chunk.
    /// Results are returned in completion order — the caller reorders
    /// by id, which is what makes a churned run independent of which
    /// agent computed what.
    #[allow(clippy::too_many_arguments)]
    fn scatter_with_recovery<T: Clone + Sync, R>(
        &mut self,
        items: &[T],
        send_kind: MessageKind,
        recv_kind: MessageKind,
        calibrate_throughput: bool,
        encode_request: RequestEncoder<'_, T>,
        handle_response: ResponseHandler<'_, T, R>,
    ) -> Result<Vec<R>, ClanError> {
        self.apply_churn()?;
        self.resync_poisoned_links();
        let mut results: Vec<R> = Vec::with_capacity(items.len());
        let mut pending: Vec<T> = items.to_vec();
        let mut failed_this_round = vec![false; self.links.len()];
        let mut last_err: Option<ClanError> = None;
        let mut attempt = 0usize;
        while !pending.is_empty() {
            if attempt > self.policy.max_retries {
                return Err(last_err.take().unwrap_or(ClanError::Degraded {
                    live: self.live_agents(),
                    required: self.policy.min_agents.max(1),
                }));
            }
            let weights = self.scatter_weights(&failed_this_round);
            let usable = weights.iter().filter(|w| **w > 0.0).count();
            self.check_floor(usable, &mut last_err)?;
            let counts = partition_weighted(pending.len(), &weights);
            let chunks = chunk_by_counts(&pending, &counts);
            let outcome = self.exchange(
                send_kind,
                recv_kind,
                &chunks,
                encode_request,
                calibrate_throughput,
            )?;
            if attempt > 0 {
                self.recovery.retry_attempts += 1;
                self.recovery.recovery_s += outcome.makespan_s;
            }
            let mut next_pending: Vec<T> = Vec::new();
            for (i, (chunk, slot)) in chunks.iter().zip(outcome.responses).enumerate() {
                match slot {
                    None => {}
                    Some(Ok(msg)) => {
                        let answer = handle_response(msg, chunk);
                        results.extend(answer.ok_or_else(|| ClanError::Protocol {
                            peer: self.links[i].transport.peer(),
                            reason: format!("{recv_kind:?} reply does not match the chunk sent"),
                        })?);
                    }
                    Some(Err(e)) => {
                        failed_this_round[i] = true;
                        self.recovery.reassigned_chunks += 1;
                        self.recovery.reassigned_items += chunk.len() as u64;
                        self.tracer.timing(EventKind::ChunkReassigned, |ev| {
                            ev.agent = Some(i as u64);
                            ev.items = Some(chunk.len() as u64);
                        });
                        last_err = Some(e);
                        next_pending.extend_from_slice(chunk);
                    }
                }
            }
            // Failed chunks are contiguous slices of the (id-ordered)
            // pending list taken in link order, so the reassignment
            // list stays id-ordered too.
            pending = next_pending;
            attempt += 1;
        }
        Ok(results)
    }

    /// Distributed inference, returning per-genome results in genome-id
    /// order together with each compiled network's per-activation gene
    /// cost — everything the orchestrators need to replay the paper's
    /// cost accounting bit-identically to a serial run. Does **not**
    /// touch the population's fitness or counters.
    ///
    /// `pop` is only borrowed: its content hashes fan out over this
    /// machine's cores, cache hits are served here, and each link thread
    /// encodes its weighted share of the misses straight from it. A chunk
    /// lost to a failed agent is reassigned and retried (up to
    /// [`RecoveryPolicy::max_retries`] times); results carry genome ids and
    /// replay in id order, so a churned run returns what a clean one would.
    ///
    /// # Errors
    ///
    /// [`ClanError::Protocol`]/[`ClanError::Frame`] if an agent
    /// misbehaves (never retried — bugs are not churn),
    /// [`ClanError::InvalidSetup`] on an agent-less cluster, and — when
    /// failures drain the cluster below the policy floor or exhaust the
    /// retry budget — the last link error
    /// ([`ClanError::Transport`]/[`ClanError::Timeout`]) or
    /// [`ClanError::Degraded`].
    pub fn evaluate_collect(&mut self, pop: &Population) -> Result<Vec<WireEvaluation>, ClanError> {
        let master_seed = pop.master_seed();
        let generation = pop.generation();
        // Coordinator-side cache filter: hits are replayed locally and
        // only misses cross the wire. The scatter still runs (possibly
        // with zero items) so churn rounds advance on the same cadence
        // with the cache on or off.
        let (filter, misses) = CacheFilter::split_population(self.cache.as_mut(), pop);
        let misses: Vec<&Genome> = misses.into_iter().map(|(_, g)| g).collect();
        let mut fresh = self.scatter_with_recovery(
            &misses,
            MessageKind::SendGenomes,
            MessageKind::SendFitness,
            true,
            &|chunk| {
                let frame = encode_evaluate(generation, master_seed, chunk);
                (frame, request_floats(&[], chunk))
            },
            &mut |msg, chunk| match msg {
                WireMessage::Fitness(batch)
                    if batch.iter().map(|r| r.0).eq(chunk.iter().map(|g| g.id())) =>
                {
                    Some(batch)
                }
                _ => None,
            },
        )?;
        // Back in id order — the order the misses were submitted in.
        fresh.sort_by_key(|r| r.0);
        Ok(filter.merge(self.cache.as_mut(), master_seed, fresh))
    }

    /// Drains this cluster's fitness-cache `(hits, lookups)` window.
    pub fn take_cache_window(&mut self) -> (u64, u64) {
        if let Some(cache) = &self.cache {
            self.tracer
                .set_gauge("cache.hit_rate", cache.hit_rate_total());
            self.tracer.set_gauge("cache.entries", cache.len() as f64);
        }
        self.cache
            .as_mut()
            .map_or((0, 0), FitnessCache::take_window)
    }

    /// Distributed inference with write-back: scatters the population's
    /// genomes across agents, gathers the evaluations, and records them
    /// ([`Population::record_evaluation`]) — the runtime equivalent of
    /// CLAN_DCS's inference phase.
    ///
    /// # Errors
    ///
    /// Propagates [`evaluate_collect`](EdgeCluster::evaluate_collect).
    pub fn evaluate(&mut self, pop: &mut Population) -> Result<(), ClanError> {
        for (id, eval, genes_per_activation) in self.evaluate_collect(pop)? {
            pop.record_evaluation(id, eval, genes_per_activation)?;
        }
        Ok(())
    }

    /// Streaming dispatch-on-completion evaluation — the async
    /// steady-state gather surface. Each live link gets a dedicated
    /// worker thread that keeps up to [`STREAM_WINDOW`] one-genome
    /// `Evaluate` frames outstanding and matches each `Fitness` to the
    /// oldest; the moment any agent answers, `on_complete` runs on the
    /// caller's thread with the result and returns the next genome to
    /// put in flight (`None` ends the stream once everything in flight
    /// has drained), which goes straight back to that link. An agent's
    /// next request is thus already waiting while it evaluates, and a
    /// fast agent turns over many evaluations while a slow one finishes
    /// its first — no barrier, no tail-agent stall, no idling through
    /// the coordinator's turnaround.
    ///
    /// `initial` seeds the pipeline, round-robin (any size; surplus
    /// queues and feeds agents as they free up). `master_seed` rides in
    /// every `Evaluate` frame so agents derive the same content-based
    /// episode seeds as a local run — per-genome *results* stay
    /// deterministic even though arrival *order* does not.
    ///
    /// Churn tolerance: a churn-class link failure poisons that link
    /// and every genome outstanding on it is re-dispatched, in order,
    /// to surviving agents (each counted in
    /// [`StreamStats::redispatches`]); the stream aborts only when live
    /// agents fall below the recovery policy's floor. However it ends,
    /// healthy links first read the replies they are still owed.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] on an agent-less cluster,
    /// [`ClanError::Protocol`]/[`ClanError::Frame`] if an agent
    /// misbehaves, and [`ClanError::Degraded`] when failures drain the
    /// cluster below [`RecoveryPolicy::min_agents`] (the root-cause
    /// link errors stay visible in the membership table).
    pub fn evaluate_stream(
        &mut self,
        master_seed: u64,
        initial: Vec<Genome>,
        on_complete: &mut dyn FnMut(&StreamCompletion) -> Option<Genome>,
    ) -> Result<StreamStats, ClanError> {
        self.apply_churn()?;
        self.resync_poisoned_links();
        let floor = self.policy.min_agents.max(1);
        let EdgeCluster {
            links,
            ledger,
            recovery,
            tracer,
            ..
        } = self;
        let n_links = links.len();
        let mut stats = StreamStats {
            per_agent_busy_s: vec![0.0; n_links],
            per_agent_completions: vec![0; n_links],
            ..StreamStats::default()
        };
        let mut failures: Vec<(usize, ClanError)> = Vec::new();
        // clan-lint: allow(D2, reason="StreamStats makespan and span measurement; reported, never fed back into evolution")
        let started = Instant::now();
        let mut outcome: Result<(), ClanError> = Ok(());
        std::thread::scope(|s| {
            let (etx, erx) = channel::<StreamEvent>();
            let mut work_tx: Vec<Option<Sender<StreamFeed>>> = (0..n_links).map(|_| None).collect();
            for (i, link) in links.iter_mut().enumerate() {
                if link.poisoned {
                    continue;
                }
                let (wtx, wrx) = channel::<StreamFeed>();
                work_tx[i] = Some(wtx);
                let etx = etx.clone();
                let transport: &mut dyn Transport = link.transport.as_mut();
                s.spawn(move || stream_link(transport, i, master_seed, started, wrx, &etx));
            }
            drop(etx);
            let mut pending: VecDeque<Genome> = initial.into();
            // Requests each link holds, as far as this loop has been told.
            let mut held = vec![0usize; n_links];
            // Links whose worker is waiting to hear from this loop.
            let mut waiting = vec![false; n_links];
            let mut seq = 0u64;
            loop {
                // Each queued genome goes to the live link holding the
                // fewest (lowest slot on a tie: the opening wave goes out
                // round-robin); a waiting link left with room gets `None`.
                while let Some(agent) = (0..n_links)
                    .filter(|&a| work_tx[a].is_some() && held[a] < STREAM_WINDOW)
                    .min_by_key(|&a| held[a])
                {
                    let (Some(genome), Some(tx)) = (pending.pop_front(), &work_tx[agent]) else {
                        break;
                    };
                    let _ = tx.send(Some((seq, genome)));
                    seq += 1;
                    held[agent] += 1;
                    waiting[agent] = true;
                }
                for (agent, tx) in work_tx.iter().enumerate() {
                    if std::mem::take(&mut waiting[agent]) && held[agent] < STREAM_WINDOW {
                        let _ = tx.as_ref().map(|tx| tx.send(None));
                    }
                }
                if held.iter().all(|&h| h == 0) {
                    break;
                }
                let Ok(event) = erx.recv() else { break };
                match event {
                    StreamEvent::Done {
                        completion,
                        elapsed_s,
                        sent,
                        recv,
                    } => {
                        let agent = completion.agent;
                        ledger.record_agent_wire(agent, MessageKind::SendGenomes, sent.0, sent.1);
                        ledger.record_agent_wire(agent, MessageKind::SendFitness, recv.0, recv.1);
                        held[agent] -= 1;
                        stats.completions += 1;
                        stats.busy_s += elapsed_s;
                        stats.per_agent_busy_s[agent] += elapsed_s;
                        stats.per_agent_completions[agent] += 1;
                        tracer.timing(EventKind::Completion, |ev| {
                            ev.agent = Some(agent as u64);
                            ev.genome = Some(completion.genome.0);
                            ev.fitness_bits = Some(completion.evaluation.fitness.to_bits());
                            ev.dur_us = Some((elapsed_s * 1e6) as u64);
                        });
                        waiting[agent] = true;
                        pending.extend(on_complete(&completion));
                    }
                    StreamEvent::Down { error, .. } if !is_churn_error(&error) => {
                        outcome = Err(error);
                        break;
                    }
                    StreamEvent::Down {
                        agent,
                        genomes,
                        work,
                        error,
                    } => {
                        // Nothing more is sent to this link, so whatever
                        // its worker never read is all in `work`.
                        work_tx[agent] = None;
                        held[agent] = 0;
                        let unread = work.try_iter().flatten().map(|(_, genome)| genome);
                        let queued = pending.len();
                        pending.extend(genomes.into_iter().chain(unread));
                        let lost = pending.len() - queued;
                        pending.rotate_right(lost); // ahead of the queue, in order
                        stats.redispatches += lost as u64;
                        tracer.timing(EventKind::AgentFailure, |ev| {
                            ev.agent = Some(agent as u64);
                            ev.label = Some(error.to_string());
                        });
                        failures.push((agent, error));
                        if work_tx.iter().flatten().count() < floor {
                            break;
                        }
                    }
                }
            }
            // Work left over: the cluster fell below its floor (root
            // causes: the membership table, via `note_link_failure`).
            if outcome.is_ok() && (held.iter().any(|&h| h > 0) || !pending.is_empty()) {
                outcome = Err(ClanError::Degraded {
                    live: work_tx.iter().flatten().count(),
                    required: floor,
                });
            }
            // Closing the work channels lets every worker drain and exit.
            drop(work_tx);
        });
        stats.makespan_s = started.elapsed().as_secs_f64();
        for (i, error) in &failures {
            Self::note_link_failure(links, recovery, *i, error);
        }
        for (i, link) in links.iter_mut().enumerate() {
            link.settle(i, stats.per_agent_completions[i] > 0, ledger, tracer);
        }
        outcome.map(|()| stats)
    }

    /// Distributed reproduction: ships child specs plus the needed
    /// parent genomes to agents and gathers the children — CLAN_DDS's
    /// reproduction phase over a real transport.
    ///
    /// # Errors
    ///
    /// Transport/frame errors, and [`ClanError::Protocol`] on a
    /// mismatched response.
    pub fn build_children(
        &mut self,
        pop: &Population,
        plan: &clan_neat::GenerationPlan,
    ) -> Result<Vec<Genome>, ClanError> {
        let children = self.scatter_with_recovery(
            &plan.children,
            MessageKind::SendParentGenomes,
            MessageKind::SendChildren,
            false,
            &|chunk| {
                // Only the parents this chunk needs travel to the agent.
                let mut parent_ids: Vec<GenomeId> =
                    chunk.iter().flat_map(|s| s.parent_ids()).collect();
                parent_ids.sort_unstable();
                parent_ids.dedup();
                let parents: Vec<&Genome> = parent_ids
                    .iter()
                    // clan-lint: allow(L1, reason="parent ids come from the reproduction plan built over this same population; a miss is a planner bug the process cannot recover from")
                    .map(|id| pop.genome(*id).expect("parent resident"))
                    .collect();
                (
                    encode_build_children(plan.generation, pop.master_seed(), chunk, &parents),
                    request_floats(chunk, &parents),
                )
            },
            &mut |msg, chunk| match msg {
                WireMessage::Children(batch)
                    if batch
                        .iter()
                        .map(Genome::id)
                        .eq(chunk.iter().map(|s| s.child_id)) =>
                {
                    Some(batch)
                }
                _ => None,
            },
        )?;
        // Children are keyed by id; replaying in the plan's spec order
        // makes the batch independent of which agent built what.
        let mut built: BTreeMap<GenomeId, Genome> =
            children.into_iter().map(|c| (c.id(), c)).collect();
        plan.children
            .iter()
            .map(|spec| {
                built
                    .remove(&spec.child_id)
                    .ok_or_else(|| ClanError::Protocol {
                        peer: "cluster".into(),
                        reason: format!("no agent returned child {}", spec.child_id),
                    })
            })
            .collect()
    }

    /// Stops all agents (best-effort `Shutdown`) and joins in-process
    /// agent threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let frame = crate::transport::encode(&WireMessage::Shutdown);
        for link in &mut self.links {
            if link.transport.send_frame(&frame).is_ok() {
                self.control_bytes += crate::transport::wire_bytes(&frame);
            }
        }
        // Datagram transports retransmit the Shutdown until acked
        // (bounded); reliable transports return immediately. The links
        // take turns in short slices: a dead link's whole deadline must
        // not outlast the time the live agents linger for their acks.
        // clan-lint: allow(D2, reason="bounds the shutdown drain in wall-clock; nothing evolved depends on it")
        let deadline = Instant::now() + std::time::Duration::from_millis(750);
        let mut draining: Vec<&mut AgentLink> = self.links.iter_mut().collect();
        // clan-lint: allow(D2, reason="bounds the shutdown drain in wall-clock; nothing evolved depends on it")
        while !draining.is_empty() && Instant::now() < deadline {
            draining.retain_mut(|link| {
                let slice = std::time::Duration::from_millis(5);
                matches!(link.transport.drain(slice), Err(ClanError::Timeout { .. }))
            });
        }
        for link in &mut self.links {
            if let Some(h) = link.handle.take() {
                let _ = h.join();
            }
        }
        self.links.clear();
    }
}

impl Drop for EdgeCluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Evaluator;
    use crate::orchestra::Orchestrator;
    use crate::{DcsOrchestrator, DdsOrchestrator, SerialOrchestrator};
    use clan_distsim::Cluster;

    fn cfg(pop: usize) -> NeatConfig {
        let w = Workload::CartPole;
        NeatConfig::builder(w.obs_dim(), w.n_actions())
            .population_size(pop)
            .build()
            .unwrap()
    }

    /// Cache-off spec: link-health tests re-evaluate the same population
    /// to probe dead links, which requires real traffic every round.
    fn uncached_spec(cfg: NeatConfig) -> ClusterSpec {
        ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, cfg).with_engine(
            crate::evaluator::EngineOptions {
                cache: false,
                ..Default::default()
            },
        )
    }

    fn spawn_uncached(n: usize, cfg: NeatConfig) -> EdgeCluster {
        EdgeCluster::spawn_spec(n, uncached_spec(cfg)).unwrap()
    }

    fn tcp_spec(cfg: &NeatConfig) -> ClusterSpec {
        ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, cfg.clone())
    }

    fn spawn_both(n: usize, cfg: &NeatConfig) -> Vec<EdgeCluster> {
        vec![
            EdgeCluster::spawn(n, Workload::CartPole, InferenceMode::MultiStep, cfg.clone())
                .expect("channel cluster spawns"),
            EdgeCluster::spawn_local_spec(n, tcp_spec(cfg)).expect("loopback cluster binds"),
        ]
    }

    fn sim(agents: usize) -> Cluster {
        Cluster::homogeneous(
            clan_hw::Platform::raspberry_pi(),
            agents,
            clan_netsim::WifiModel::default(),
        )
    }

    fn evaluator_over(cluster: EdgeCluster) -> Evaluator {
        Evaluator::new(Workload::CartPole, InferenceMode::MultiStep).with_remote(cluster)
    }

    /// A DCS run of `(cfg, seed)` whose inference crosses `cluster`.
    fn dcs_over(cluster: EdgeCluster, cfg: &NeatConfig, seed: u64) -> DcsOrchestrator {
        DcsOrchestrator::new(
            Population::new(cfg.clone(), seed),
            evaluator_over(cluster),
            sim(3),
        )
    }

    /// A DDS run of `(cfg, seed)` whose inference and reproduction
    /// cross `cluster`.
    fn dds_over(cluster: EdgeCluster, cfg: &NeatConfig, seed: u64) -> DdsOrchestrator {
        DdsOrchestrator::new(
            Population::new(cfg.clone(), seed),
            evaluator_over(cluster),
            sim(3),
        )
    }

    /// The purely local reference run.
    fn serial(cfg: &NeatConfig, seed: u64) -> SerialOrchestrator {
        SerialOrchestrator::new(
            Population::new(cfg.clone(), seed),
            Evaluator::new(Workload::CartPole, InferenceMode::MultiStep),
            sim(1),
        )
    }

    #[test]
    fn distributed_evaluation_matches_serial_on_both_transports() {
        let cfg = cfg(16);
        for mut cluster in spawn_both(4, &cfg) {
            let mut distributed = Population::new(cfg.clone(), 11);
            cluster.evaluate(&mut distributed).unwrap();

            let mut serial = Population::new(cfg.clone(), 11);
            let mut ev = Evaluator::new(Workload::CartPole, InferenceMode::MultiStep);
            crate::orchestra::evaluate_partitioned(&mut serial, &mut ev, &[16]).unwrap();

            for (a, b) in distributed
                .genomes()
                .values()
                .zip(serial.genomes().values())
            {
                assert_eq!(a.fitness(), b.fitness());
            }
            cluster.shutdown();
        }
    }

    #[test]
    fn real_dcs_generations_match_serial_evolution() {
        let cfg = cfg(12);
        let cluster =
            EdgeCluster::spawn(3, Workload::CartPole, InferenceMode::MultiStep, cfg.clone())
                .unwrap();
        let mut real = dcs_over(cluster, &cfg, 5);
        let mut reference = serial(&cfg, 5);
        for _ in 0..3 {
            let a = real.step_generation().unwrap();
            let b = reference.step_generation().unwrap();
            assert_eq!(a.best_fitness, b.best_fitness);
        }
        assert_eq!(
            real.population().genomes(),
            reference.population().genomes()
        );
    }

    #[test]
    fn real_dds_generations_match_serial_evolution_over_tcp() {
        let cfg = cfg(12);
        let cluster = EdgeCluster::spawn_local_spec(3, tcp_spec(&cfg)).unwrap();
        let mut real = dds_over(cluster, &cfg, 6);
        let mut reference = serial(&cfg, 6);
        for _ in 0..3 {
            real.step_generation().unwrap();
            reference.step_generation().unwrap();
        }
        assert_eq!(
            real.population().genomes(),
            reference.population().genomes()
        );
        let wire = real.transport_ledger().unwrap();
        assert!(
            wire.entry(MessageKind::SendParentGenomes).messages > 0,
            "DDS must ship parents over the wire"
        );
    }

    #[test]
    fn ledger_measures_real_bytes_above_model() {
        let cfg = cfg(10);
        let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::SingleStep, cfg.clone());
        let mut cluster = EdgeCluster::spawn_local_spec(2, spec).unwrap();
        let mut pop = Population::new(cfg, 3);
        cluster.evaluate(&mut pop).unwrap();
        let ledger = cluster.ledger();
        assert_eq!(ledger.entry(MessageKind::SendGenomes).messages, 2);
        assert_eq!(ledger.entry(MessageKind::SendFitness).messages, 2);
        let overhead = ledger.framing_overhead().expect("both measures recorded");
        assert!(
            overhead > 1.0,
            "real f64 wire format must cost more than the 4-byte/gene model: {overhead}"
        );
        assert!(cluster.control_wire_bytes() > 0, "Configure was sent");
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let cfg = cfg(4);
        for cluster in spawn_both(2, &cfg) {
            assert_eq!(cluster.n_agents(), 2);
            drop(cluster); // must not hang or panic
        }
    }

    #[test]
    fn more_agents_than_genomes_is_fine() {
        let cfg = cfg(3);
        for mut cluster in spawn_both(8, &cfg) {
            let mut pop = Population::new(cfg.clone(), 1);
            cluster.evaluate(&mut pop).unwrap();
            assert!(pop.genomes().values().all(|g| g.fitness().is_some()));
            cluster.shutdown();
        }
    }

    #[test]
    fn zero_agent_spawn_is_a_typed_error_not_a_panic() {
        let cfg = cfg(4);
        let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, cfg);
        assert!(matches!(
            EdgeCluster::spawn_spec(0, spec.clone()),
            Err(ClanError::InvalidSetup { .. })
        ));
        assert!(matches!(
            EdgeCluster::spawn_local_spec(0, spec.clone()),
            Err(ClanError::InvalidSetup { .. })
        ));
        assert!(matches!(
            EdgeCluster::spawn_local_udp_cfg(0, spec.clone(), UdpConfig::default()),
            Err(ClanError::InvalidSetup { .. })
        ));
        assert!(matches!(
            EdgeCluster::connect(&[], spec.clone()),
            Err(ClanError::InvalidSetup { .. })
        ));
        assert!(matches!(
            EdgeCluster::connect_udp_cfg(&[], spec.clone(), UdpConfig::default()),
            Err(ClanError::InvalidSetup { .. })
        ));
        assert!(matches!(
            EdgeCluster::connect_transports(vec![], spec),
            Err(ClanError::InvalidSetup { .. })
        ));
    }

    #[test]
    fn weighted_partition_busies_every_agent() {
        // The even-split chunks(div_ceil) bug: 5 genomes on 4 agents
        // became 2/2/1 with one agent fully idle. The partitioner must
        // give every agent a share, visible in the per-agent ledger.
        let cfg = cfg(5);
        for mut cluster in spawn_both(4, &cfg) {
            let mut pop = Population::new(cfg.clone(), 3);
            cluster.evaluate(&mut pop).unwrap();
            let rows = cluster.ledger().agent_entries();
            assert_eq!(rows.len(), 4);
            for (i, row) in rows.iter().enumerate() {
                assert!(row.messages > 0, "agent {i} was starved: {rows:?}");
            }
            cluster.shutdown();
        }
    }

    #[test]
    fn skewed_weights_change_partition_but_not_results() {
        let cfg = cfg(16);
        let fitness_of = |cluster: &mut EdgeCluster| {
            let mut pop = Population::new(cfg.clone(), 21);
            cluster.evaluate(&mut pop).unwrap();
            pop.genomes()
                .values()
                .map(|g| g.fitness().unwrap())
                .collect::<Vec<f64>>()
        };
        let mut even =
            EdgeCluster::spawn(4, Workload::CartPole, InferenceMode::MultiStep, cfg.clone())
                .unwrap();
        let mut skewed =
            EdgeCluster::spawn(4, Workload::CartPole, InferenceMode::MultiStep, cfg.clone())
                .unwrap();
        skewed.set_weights(&[1.0, 5.0, 2.0, 8.0]).unwrap();
        assert_eq!(fitness_of(&mut even), fitness_of(&mut skewed));
        // The heavy agent carried more genome traffic than the light one.
        let rows = skewed.ledger().agent_entries();
        assert!(
            rows[3].floats > rows[0].floats,
            "weight 8 vs 1 must skew traffic: {rows:?}"
        );
        even.shutdown();
        skewed.shutdown();
    }

    #[test]
    fn calibration_measures_throughput_and_keeps_results_identical() {
        let cfg = cfg(12);
        let spawn = || {
            EdgeCluster::spawn(3, Workload::CartPole, InferenceMode::MultiStep, cfg.clone())
                .unwrap()
        };
        let mut calibrated = spawn();
        calibrated.set_calibration(true);
        let mut a = dcs_over(spawn(), &cfg, 9);
        let mut b = dcs_over(calibrated, &cfg, 9);
        for _ in 0..3 {
            a.step_generation().unwrap();
            b.step_generation().unwrap();
        }
        assert_eq!(a.population().genomes(), b.population().genomes());
        // After a round, every link has a measured throughput and the
        // effective weights switched to it.
        let calibrated = b.evaluator_mut().remote_cluster_mut().unwrap();
        assert!(calibrated.effective_weights().iter().all(|w| *w > 0.0));
        assert_ne!(calibrated.effective_weights(), calibrated.weights());
    }

    #[test]
    fn gather_stats_accumulate_makespan_and_busy_time() {
        let cfg = cfg(8);
        let mut cluster =
            EdgeCluster::spawn(2, Workload::CartPole, InferenceMode::MultiStep, cfg.clone())
                .unwrap();
        assert_eq!(cluster.gather_stats().gathers, 0);
        let mut pop = Population::new(cfg, 4);
        cluster.evaluate(&mut pop).unwrap();
        let stats = cluster.gather_stats();
        assert_eq!(stats.gathers, 1);
        assert!(stats.makespan_s > 0.0);
        assert!(
            stats.busy_s >= stats.makespan_s,
            "busy time sums over links"
        );
        assert!(stats.mean_makespan_s() > 0.0);
        assert!(stats.overlap().unwrap() >= 1.0);
        cluster.shutdown();
    }

    #[test]
    fn killed_agent_chunk_is_reassigned_and_results_match_serial() {
        let cfg = cfg(12);
        let serial_fitness = {
            let mut pop = Population::new(cfg.clone(), 17);
            let mut ev = Evaluator::new(Workload::CartPole, InferenceMode::MultiStep);
            crate::orchestra::evaluate_partitioned(&mut pop, &mut ev, &[12]).unwrap();
            pop.genomes()
                .values()
                .map(|g| g.fitness().unwrap())
                .collect::<Vec<f64>>()
        };
        let mut cluster = spawn_uncached(3, cfg.clone());
        cluster.kill_agent(1).unwrap();
        let mut pop = Population::new(cfg, 17);
        cluster.evaluate(&mut pop).unwrap();
        let churned: Vec<f64> = pop
            .genomes()
            .values()
            .map(|g| g.fitness().unwrap())
            .collect();
        assert_eq!(
            churned, serial_fitness,
            "reassignment must not change results"
        );
        let stats = cluster.recovery_stats();
        assert_eq!(stats.reassigned_chunks, 1);
        assert!(stats.reassigned_items > 0);
        assert_eq!(stats.agent_failures[1], 1);
        let health = cluster.membership();
        assert_eq!(health[1].health, LinkHealth::Suspected, "one strike");
        assert_eq!(health[0].health, LinkHealth::Alive);
        // A second round: the dead agent is probed, fails again, dies.
        cluster.evaluate(&mut pop).unwrap();
        assert_eq!(cluster.membership()[1].health, LinkHealth::Dead);
        assert_eq!(cluster.live_agents(), 2);
        // A third round scatters to survivors only — no more failures.
        let failures = cluster.recovery_stats().failures;
        cluster.evaluate(&mut pop).unwrap();
        assert_eq!(cluster.recovery_stats().failures, failures);
        cluster.shutdown();
    }

    #[test]
    fn reassigned_chunk_is_re_encoded_from_the_borrowed_population() {
        let cfg = cfg(12);
        let pop = Population::new(cfg.clone(), 17);
        let serial = Evaluator::new(Workload::CartPole, InferenceMode::MultiStep)
            .evaluate_population_local(&pop);
        let mut cluster = spawn_uncached(3, cfg);
        cluster.kill_agent(1).unwrap();
        // The scatter `evaluate_collect` runs, with an encoder that also
        // records where each genome it is handed lives.
        let genomes: Vec<&Genome> = pop.genomes().values().collect();
        let encoded = std::sync::Mutex::new(Vec::new());
        let mut fresh = cluster
            .scatter_with_recovery(
                &genomes,
                MessageKind::SendGenomes,
                MessageKind::SendFitness,
                true,
                &|chunk| {
                    let seen = chunk
                        .iter()
                        .map(|g| (g.id(), std::ptr::from_ref(*g) as usize));
                    encoded.lock().unwrap().extend(seen);
                    (encode_evaluate(0, 17, chunk), request_floats(&[], chunk))
                },
                &mut |msg, _| match msg {
                    WireMessage::Fitness(batch) => Some(batch),
                    _ => None,
                },
            )
            .unwrap();
        fresh.sort_by_key(|r| r.0);
        assert_eq!(fresh, serial, "reassignment must not change results");
        // Link 1 died mid-round with genomes 4..8: they were encoded for
        // it, then again on the retry, split over the two survivors — every
        // time from the population's own genomes, never from a copy.
        let mut encoded = encoded.into_inner().unwrap();
        encoded.sort_unstable();
        let twice = |id: u64| if (4..8).contains(&id) { 2 } else { 1 };
        let expected: Vec<(GenomeId, usize)> = pop
            .genomes()
            .iter()
            .flat_map(|(id, g)| vec![(*id, std::ptr::from_ref(g) as usize); twice(id.0)])
            .collect();
        assert_eq!(encoded, expected);
        // Recovery and ledger rows are the values the owned-message
        // scatter produced for this scenario.
        let stats = cluster.recovery_stats();
        assert_eq!((stats.reassigned_chunks, stats.reassigned_items), (1, 4));
        assert_eq!((stats.retry_attempts, stats.agent_failures[1]), (1, 1));
        let sent = cluster.ledger().entry(MessageKind::SendGenomes);
        assert_eq!(
            (sent.messages, sent.floats, sent.wire_bytes),
            (4, 144, 1596)
        );
        let back = cluster.ledger().entry(MessageKind::SendFitness);
        assert_eq!((back.messages, back.floats, back.wire_bytes), (4, 24, 440));
        cluster.shutdown();
    }

    #[test]
    fn churn_schedule_kill_and_revive_keeps_run_identical() {
        let cfg = cfg(12);
        let run = |churn: Option<ChurnSchedule>| {
            let mut cluster =
                EdgeCluster::spawn(3, Workload::CartPole, InferenceMode::MultiStep, cfg.clone())
                    .unwrap();
            if let Some(plan) = churn {
                cluster.set_churn(plan).unwrap();
            }
            let mut o = dcs_over(cluster, &cfg, 23);
            for _ in 0..4 {
                o.step_generation().unwrap();
            }
            let stats = o.recovery_stats().unwrap();
            (o.population().genomes().clone(), stats)
        };
        let (clean, clean_stats) = run(None);
        let (churned, stats) = run(Some(ChurnSchedule::new().kill(2, 1).revive(2, 3)));
        assert_eq!(clean, churned, "churned run must stay bit-identical");
        assert!(!clean_stats.any_recovery());
        assert_eq!(stats.kills, 1);
        assert!(stats.joins >= 1);
        assert!(stats.failures >= 1);
        assert!(stats.reassigned_chunks >= 1);
    }

    #[test]
    fn churn_during_reproduction_scatter_keeps_dds_identical() {
        // DDS generations perform two scatters (evaluate, then
        // build_children); killing an agent on an odd round lands the
        // failure inside the reproduction scatter specifically.
        let cfg = cfg(12);
        let run = |churn: Option<ChurnSchedule>| {
            let mut cluster =
                EdgeCluster::spawn(3, Workload::CartPole, InferenceMode::MultiStep, cfg.clone())
                    .unwrap();
            if let Some(plan) = churn {
                cluster.set_churn(plan).unwrap();
            }
            let mut o = dds_over(cluster, &cfg, 37);
            for _ in 0..3 {
                o.step_generation().unwrap();
            }
            let stats = o.recovery_stats().unwrap();
            (o.population().genomes().clone(), stats)
        };
        let (clean, _) = run(None);
        // Round 1 is generation 0's build_children scatter.
        let (churned, stats) = run(Some(ChurnSchedule::new().kill(0, 1).revive(0, 3)));
        assert_eq!(clean, churned, "reproduction churn must not change results");
        assert!(stats.reassigned_chunks >= 1);
        assert!(stats.failures >= 1);
    }

    #[test]
    fn poisoned_remote_link_resyncs_with_a_fresh_session() {
        // A churn-class failure poisons a link's session (a late reply
        // from a timed-out round must never answer the next round's
        // request). For a *remote* link the next scatter re-establishes
        // a fresh session to the original address, so a transiently
        // slow-but-alive agent recovers instead of striking out — and
        // without any protocol desync.
        let cfg = cfg(8);
        let server = AgentServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || {
            // Two sequential sessions: the original and the resynced.
            for _ in 0..2 {
                if server.serve_once().is_err() {
                    break;
                }
            }
        });
        let spec = uncached_spec(cfg.clone());
        let mut cluster = EdgeCluster::connect(&[addr.to_string()], spec).unwrap();
        let mut pop = Population::new(cfg, 43);
        cluster.evaluate(&mut pop).unwrap();
        let clean: Vec<f64> = pop
            .genomes()
            .values()
            .map(|g| g.fitness().unwrap())
            .collect();
        // Simulate the aftermath of a transient churn-class failure:
        // session poisoned, link suspected, origin intact.
        let peer = cluster.links[0].transport.peer();
        cluster.links[0].transport = Box::new(crate::transport::DeadTransport::new(peer));
        cluster.links[0].poisoned = true;
        cluster.links[0].health = LinkHealth::Suspected;
        // The next round reconnects and probes over the new session.
        cluster.evaluate(&mut pop).unwrap();
        let resynced: Vec<f64> = pop
            .genomes()
            .values()
            .map(|g| g.fitness().unwrap())
            .collect();
        assert_eq!(clean, resynced);
        assert_eq!(
            cluster.recovery_stats().failures,
            0,
            "resync heals the link without a strike"
        );
        assert_eq!(cluster.membership()[0].health, LinkHealth::Alive);
        assert!(!cluster.links[0].poisoned);
        cluster.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn revived_agent_serves_work_again() {
        let cfg = cfg(8);
        let mut cluster = spawn_uncached(2, cfg.clone());
        cluster.kill_agent(0).unwrap();
        let mut pop = Population::new(cfg, 3);
        cluster.evaluate(&mut pop).unwrap();
        cluster.evaluate(&mut pop).unwrap();
        assert_eq!(cluster.membership()[0].health, LinkHealth::Dead);
        cluster.revive_agent(0).unwrap();
        assert_eq!(cluster.membership()[0].health, LinkHealth::Alive);
        assert_eq!(cluster.live_agents(), 2);
        let failures = cluster.recovery_stats().failures;
        cluster.evaluate(&mut pop).unwrap();
        assert_eq!(
            cluster.recovery_stats().failures,
            failures,
            "revived agent answers"
        );
        cluster.shutdown();
    }

    #[test]
    fn mid_run_join_scales_out_and_keeps_results_identical() {
        let cfg = cfg(10);
        let serial_fitness = |pop: &Population| {
            pop.genomes()
                .values()
                .map(|g| g.fitness().unwrap())
                .collect::<Vec<f64>>()
        };
        let mut a = Population::new(cfg.clone(), 29);
        let mut b = Population::new(cfg.clone(), 29);
        let mut small = spawn_uncached(2, cfg.clone());
        let mut growing = spawn_uncached(2, cfg.clone());
        small.evaluate(&mut a).unwrap();
        growing.evaluate(&mut b).unwrap();
        // Scale out between generations; the newcomer is configured over
        // the wire and takes a share of the next scatter.
        let slot = growing.admit_local().unwrap();
        assert_eq!(slot, 2);
        assert_eq!(growing.n_agents(), 3);
        small.evaluate(&mut a).unwrap();
        growing.evaluate(&mut b).unwrap();
        assert_eq!(serial_fitness(&a), serial_fitness(&b));
        assert!(
            growing.ledger().agent_entries()[2].messages > 0,
            "joined agent must carry traffic"
        );
        assert_eq!(growing.recovery_stats().joins, 1);
        small.shutdown();
        growing.shutdown();
    }

    #[test]
    fn degraded_cluster_is_a_typed_error() {
        let cfg = cfg(6);
        // All agents dead: the last link error surfaces.
        let mut cluster =
            EdgeCluster::spawn(2, Workload::CartPole, InferenceMode::MultiStep, cfg.clone())
                .unwrap();
        cluster.kill_agent(0).unwrap();
        cluster.kill_agent(1).unwrap();
        let mut pop = Population::new(cfg.clone(), 5);
        assert!(matches!(
            cluster.evaluate(&mut pop),
            Err(ClanError::Transport { .. })
        ));
        cluster.shutdown();
        // Policy floor: one failure on a 2-agent cluster with
        // min_agents 2 refuses to continue on the lone survivor.
        let mut strict =
            EdgeCluster::spawn(2, Workload::CartPole, InferenceMode::MultiStep, cfg.clone())
                .unwrap();
        strict.set_recovery_policy(RecoveryPolicy::default().with_min_agents(2));
        strict.kill_agent(1).unwrap();
        let err = strict.evaluate(&mut pop).unwrap_err();
        assert!(
            matches!(
                err,
                ClanError::Transport { .. } | ClanError::Degraded { .. }
            ),
            "{err}"
        );
        strict.shutdown();
    }

    #[test]
    fn churn_schedule_validation() {
        let cfg = cfg(6);
        let mut cluster =
            EdgeCluster::spawn(2, Workload::CartPole, InferenceMode::MultiStep, cfg.clone())
                .unwrap();
        assert!(matches!(
            cluster.set_churn(ChurnSchedule::new().kill(5, 1)),
            Err(ClanError::InvalidSetup { .. })
        ));
        cluster
            .set_churn(ChurnSchedule::new().kill(1, 1).revive(1, 2))
            .unwrap();
        cluster.shutdown();
        // Caller-supplied transports cannot mint replacements.
        let (coord, mut agent_side) = channel_pair();
        let handle = std::thread::spawn(move || {
            let _ = serve_session(&mut agent_side);
        });
        let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, cfg);
        let mut external = EdgeCluster::connect_transports(vec![Box::new(coord)], spec).unwrap();
        assert!(matches!(
            external.set_churn(ChurnSchedule::new().kill(0, 1).revive(0, 2)),
            Err(ClanError::InvalidSetup { .. })
        ));
        external.set_churn(ChurnSchedule::new().kill(0, 9)).unwrap();
        external.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn weight_validation_rejects_bad_inputs() {
        let cfg = cfg(4);
        let mut cluster =
            EdgeCluster::spawn(2, Workload::CartPole, InferenceMode::MultiStep, cfg).unwrap();
        assert!(cluster.set_weights(&[1.0]).is_err(), "length mismatch");
        assert!(cluster.set_weights(&[1.0, -1.0]).is_err(), "negative");
        assert!(cluster.set_weights(&[0.0, 0.0]).is_err(), "all zero");
        assert!(cluster.set_weights(&[f64::NAN, 1.0]).is_err(), "NaN");
        cluster.set_weights(&[2.0, 0.5]).unwrap();
        assert_eq!(cluster.weights(), vec![2.0, 0.5]);
        cluster.shutdown();
    }
}
