//! A real edge cluster: agents behind a pluggable [`Transport`],
//! exchanging the binary cluster protocol.
//!
//! The analytic simulator (`clan-distsim`) models *time*; this runtime
//! demonstrates that the CLAN protocols actually *execute* — genomes are
//! shipped to workers as encoded frames, evaluated in true parallelism,
//! children are built remotely from serialized
//! [`ChildSpec`]s, and the
//! deterministic RNG discipline makes the distributed result
//! bit-identical to a serial run (one row of the determinism matrix in
//! `tests/common/mod.rs` per transport and fault condition).
//!
//! One [`AgentSource`] says where a cluster's agents come from — founding
//! members, revivals and admissions alike — and over which transport
//! (`None` means TCP, `Some` a reliable-UDP tuning), and
//! [`EdgeCluster::from_source`] builds a cluster from it:
//!
//! - [`Threads`](AgentSource::Threads) — agent threads over in-process
//!   channels;
//! - [`Loopback`](AgentSource::Loopback) — agent threads serving **real
//!   sockets** on `127.0.0.1` ephemeral ports, TCP
//!   ([`EdgeCluster::spawn_local_spec`]) or UDP
//!   ([`EdgeCluster::spawn_local_udp_cfg`]): the whole networked stack in
//!   one process, which is what CI smokes;
//! - [`Remote`](AgentSource::Remote) — agent daemons started with
//!   `clan-cli agent --listen ADDR [--udp]` on actual edge devices, plus
//!   any standby addresses for replacements;
//! - [`External`](AgentSource::External) — caller-supplied transports
//!   ([`EdgeCluster::connect_transports`]), which cannot be replaced.
//!
//! Every message's *measured* bytes-on-the-wire are recorded in a
//! [`CommLedger`] next to the analytic model's float accounting, so the
//! modeled traffic of `clan-netsim` can be validated against what a
//! real wire format costs (see [`CommLedger::framing_overhead`]).
//!
//! # Heterogeneity: work is pulled, not pushed
//!
//! Real swarms mix Pi 3s, Pi 4s and Jetsons; a generation split evenly up
//! front waits for the slowest device. Nothing here is told how fast an
//! agent is. Every round — an [`evaluate_collect`](EdgeCluster::evaluate_collect)
//! or [`build_children`](EdgeCluster::build_children) gather, or an
//! [`evaluate_stream`](EdgeCluster::evaluate_stream) — is one exchange:
//! the work is cut into *runs* (contiguous id-ordered slices of the
//! borrowed work list, or one owned genome in a stream), one worker thread
//! per link encodes each run straight from the borrow and keeps up to
//! [`STREAM_WINDOW`] of them in flight, and every run goes to the live link
//! holding the fewest. A fast agent simply comes back for more. Results
//! are banked by run index and replayed in id order, and run boundaries
//! depend only on the work list and the live-link count, so nothing
//! downstream observes which agent answered what: the determinism
//! contract — bit-identical to serial on serial/dcs/dds/dda — holds, and a
//! clean round's wire bytes are the same whichever agent is slow.
//!
//! Measured timing (makespan vs. summed busy time) accumulates in
//! [`GatherStats`]; each agent's messages, wire bytes, work items and busy
//! time land in its [`AgentStats`] row ([`EdgeCluster::agents`]), and the
//! rows sum to the ledger's and the gather's totals.
//!
//! # Elastic membership and recovery
//!
//! Commodity agents crash mid-run; the cluster survives them. Every
//! link's row carries a [`LinkHealth`](crate::membership::LinkHealth)
//! (alive / suspected / dead, see
//! [`crate::membership`]). There is one recovery rule: when a link
//! surfaces a churn-class error (`Transport`/`Timeout`), its in-flight and
//! unread runs go back to the head of the queue for the links still
//! standing, and the round fails only below
//! [`RecoveryPolicy::min_agents`]. Results carry genome ids and replay in
//! id order, so a churned run is bit-identical to a serial run — churn
//! costs only time, measured in [`RecoveryStats`]. New agents can also
//! **join mid-run** ([`admit_local`](EdgeCluster::admit_local)): they are
//! `Configure`d with the stored session spec and pull work like any
//! founding member. Deterministic churn testing goes through
//! [`ChurnSchedule`] ([`set_churn`](EdgeCluster::set_churn), `clan-cli
//! coordinate --churn k1@2,r1@4`), which swaps a victim's transport for a
//! [`DeadTransport`] at a round boundary and revives a replacement later —
//! exercising the production recovery path with a simulated device crash.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo)]

use crate::error::ClanError;
use crate::evaluator::CacheFilter;
use crate::membership::{is_churn_error, AgentStats, RecoveryPolicy, RecoveryStats};
use crate::telemetry::{EventKind, Tracer};
use crate::transport::agent::{message_name, serve_session, AgentServer};
use crate::transport::churn::{ChurnAction, ChurnSchedule, DeadTransport};
use crate::transport::codec::{encode_build_children, encode_evaluate, request_floats};
use crate::transport::{
    channel_pair, recv_message, send_message, wire_bytes, ClusterSpec, FaultyTransport,
    TcpTransport, Transport, UdpConfig, UdpLink, UdpTransport, WireEvaluation, WireMessage,
};
use clan_neat::reproduction::ChildSpec;
use clan_neat::{FitnessCache, Genome, GenomeId, NeatConfig, Population};
use clan_netsim::{CommLedger, MessageKind};
use serde::{Deserialize, Serialize};
use std::borrow::{Borrow, Cow};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One agent's session as the coordinator sees it (what it did and how
/// healthy it is live in the slot's [`AgentStats`] row).
struct AgentLink {
    transport: Box<dyn Transport>,
    /// Join handle for in-process agents; `None` for remote ones.
    handle: Option<JoinHandle<()>>,
    /// Set when the session on `transport` is no longer trustworthy (a
    /// churn-class failure desynchronizes request/response pairing —
    /// e.g. a late reply from a timed-out round). A poisoned transport
    /// is a [`DeadTransport`]; the link is re-established from `origin`
    /// before its next probe, or strikes out.
    poisoned: bool,
    /// The remote agent's address, where a fresh session can be
    /// established. In-process agents have none: their thread dies with
    /// its session, so they come back only through an explicit revival.
    origin: Option<String>,
}

impl AgentLink {
    fn new(
        transport: Box<dyn Transport>,
        handle: Option<JoinHandle<()>>,
        origin: Option<String>,
    ) -> AgentLink {
        AgentLink {
            transport,
            handle,
            poisoned: false,
            origin,
        }
    }

    /// **Poisons** the session: the transport becomes a [`DeadTransport`]
    /// because its request/response pairing can no longer be trusted (a
    /// timed-out agent's late reply would otherwise answer the *next*
    /// round's request and surface as a protocol violation), and an
    /// in-process agent thread, which observes the dropped session and
    /// exits on its own, is detached — never joined, so no round or
    /// shutdown waits on it. The link is re-established from its origin
    /// before the next probe
    /// ([`resync_poisoned_links`](EdgeCluster::resync_poisoned_links)) or
    /// strikes out fast.
    fn poison(&mut self) {
        if !self.poisoned {
            let peer = self.transport.peer();
            self.transport = Box::new(DeadTransport::new(peer));
            self.poisoned = true;
            drop(self.handle.take());
        }
    }

    /// Settles this link after a round: one that `completed` a round
    /// trip (and was not poisoned since) is healthy again, and what its
    /// transport spent on loss (timer probes; retransmitted + duplicate
    /// bytes, also traced and in the ledger's total; zero on reliable
    /// transports) is booked against its slot's `row`.
    fn settle(
        &mut self,
        slot: usize,
        completed: bool,
        row: &mut AgentStats,
        ledger: &mut CommLedger,
        tracer: &Tracer,
    ) {
        if completed && !self.poisoned {
            row.heal();
        }
        let stats = self.transport.take_link_stats();
        row.timer_probes += stats.timer_probes;
        let overhead = stats.overhead_bytes();
        if overhead > 0 {
            row.retrans_bytes += overhead;
            ledger.record_retrans(overhead);
            tracer.timing(EventKind::Retransmission, |ev| {
                ev.agent = Some(slot as u64);
                ev.bytes = Some(overhead);
            });
        }
    }
}

/// Where a cluster's agents come from, and over which transport: the
/// founding members at construction and every replacement for a mid-run
/// revival or admission are minted from the same source. `udp: None`
/// speaks TCP; `Some` speaks reliable UDP with that tuning, its seeded
/// [`faults`](UdpConfig::faults) injected on the coordinator's side of
/// every link with a per-link RNG
/// ([`FaultConfig::for_link`](crate::transport::FaultConfig::for_link)),
/// which makes both directions lossy.
#[derive(Debug, Clone)]
pub enum AgentSource {
    /// In-process agent threads over byte channels.
    Threads,
    /// In-process agent threads serving loopback sockets.
    Loopback(Option<UdpConfig>),
    /// Running `clan-cli agent [--udp]` daemons, connected in order: the
    /// founding members first, then one per replacement.
    Remote {
        /// The transport's datagram tuning, `None` for TCP.
        udp: Option<UdpConfig>,
        /// Addresses not connected yet.
        spares: Vec<String>,
    },
    /// Caller-supplied transports: nothing to mint replacements from.
    External,
}

impl AgentSource {
    /// The datagram tuning links from this source speak, `None` for TCP.
    fn udp(&self) -> Option<&UdpConfig> {
        match self {
            AgentSource::Loopback(udp) | AgentSource::Remote { udp, .. } => udp.as_ref(),
            AgentSource::Threads | AgentSource::External => None,
        }
    }

    /// How many more agents this source can mint.
    fn capacity(&self) -> usize {
        match self {
            AgentSource::Threads | AgentSource::Loopback(_) => usize::MAX,
            AgentSource::Remote { spares, .. } => spares.len(),
            AgentSource::External => 0,
        }
    }

    /// Mints the agent for link slot `slot`, as an unconfigured link (the
    /// caller pushes `Configure`).
    fn mint(&mut self, slot: usize) -> Result<AgentLink, ClanError> {
        match self {
            AgentSource::Threads => {
                let (coord, mut agent_side) = channel_pair();
                let handle = spawn_agent_thread(slot, move || serve_session(&mut agent_side))?;
                Ok(AgentLink::new(Box::new(coord), Some(handle), None))
            }
            AgentSource::Loopback(udp) => {
                let mut server = AgentServer::bind("127.0.0.1:0", udp.clone())?;
                // Dial before spawning the serving thread: a TCP connection
                // waits in the listener's backlog, and a failure leaves no
                // thread parked forever in accept().
                let transport = dial(&server.local_addr().to_string(), udp.as_ref(), slot)?;
                let handle = spawn_agent_thread(slot, move || server.serve_once())?;
                Ok(AgentLink::new(transport, Some(handle), None))
            }
            AgentSource::Remote { udp, spares } => {
                if spares.is_empty() {
                    return Err(ClanError::InvalidSetup {
                        reason: "no spare agent addresses left (see set_spares / --spare-at)"
                            .into(),
                    });
                }
                let addr = spares.remove(0);
                let transport = dial(&addr, udp.as_ref(), slot)?;
                Ok(AgentLink::new(transport, None, Some(addr)))
            }
            AgentSource::External => Err(ClanError::InvalidSetup {
                reason: "this cluster cannot mint replacement agents \
                         (caller-supplied transports)"
                    .into(),
            }),
        }
    }
}

/// Opens the coordinator's end of link slot `slot` to the agent at
/// `addr`: TCP, or reliable UDP with `udp`'s tuning and its faults (if
/// any) drawn from the slot's own RNG stream — so every link of a
/// cluster sees independent, reproducible loss, and a resynced link the
/// same loss as before.
fn dial(addr: &str, udp: Option<&UdpConfig>, slot: usize) -> Result<Box<dyn Transport>, ClanError> {
    let Some(udp) = udp else {
        return Ok(Box::new(TcpTransport::connect(addr)?));
    };
    let link = UdpLink::connect(addr)?;
    Ok(match &udp.faults {
        Some(f) => Box::new(UdpTransport::with_config(
            FaultyTransport::new(link, f.for_link(slot)),
            udp,
        )),
        None => Box::new(UdpTransport::with_config(link, udp)),
    })
}

/// Measured timing of a cluster's rounds, gathers and streams alike —
/// failed rounds included, up to where they failed.
///
/// `makespan_s` sums each round's wall-clock to its last reply (what a
/// generation actually waits); `busy_s` sums every link's busy time — the
/// time it had at least one run outstanding, i.e. the work the cluster
/// performed, and the sum of the rows' [`AgentStats::busy_s`]. Their
/// ratio approaches the agent count while every link stays busy and
/// collapses toward 1.0 when one agent serializes a round.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GatherStats {
    /// Rounds performed.
    pub gathers: u64,
    /// Summed per-round wall-clock, seconds.
    pub makespan_s: f64,
    /// Summed per-link busy time across all rounds, seconds.
    pub busy_s: f64,
}

impl GatherStats {
    /// Parallel-overlap ratio `busy_s / makespan_s`: ≈ agent count when
    /// balanced, → 1.0 when one agent sets the pace. `None` until a
    /// round has been timed.
    pub fn overlap(&self) -> Option<f64> {
        (self.makespan_s > 0.0).then(|| self.busy_s / self.makespan_s)
    }

    /// Adds one round to this running total.
    fn absorb(&mut self, round: &GatherStats) {
        self.gathers += round.gathers;
        self.makespan_s += round.makespan_s;
        self.busy_s += round.busy_s;
    }
}

/// Runs every link holds in flight, live or simulated: the smallest
/// depth that hides the coordinator's turnaround from an agent, and a
/// constant for the reasons in [`crate::asynchronous`].
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

/// The unit of work a link carries: a contiguous id-ordered slice of a
/// round's borrowed work list — or, in a stream, one owned genome —
/// tagged with its index in the round.
struct Run<'w, T: Clone> {
    index: u64,
    items: Cow<'w, [T]>,
}

/// Encodes a run — from its index and items — as its request frame, with
/// the frame's modeled floats.
type RunEncoder<'e, T> = dyn Fn(u64, &[T]) -> (Vec<u8>, u64) + Sync + 'e;

/// How one kind of round moves its runs.
struct Exchange<'e, T, R> {
    /// Ledger kinds of the request and of its reply.
    request: MessageKind,
    reply: MessageKind,
    /// Runs one link may hold at once.
    window: usize,
    encode: &'e RunEncoder<'e, T>,
    /// The results of a reply that answers the run entry for entry, or
    /// why it does not.
    answer: fn(WireMessage, &[T]) -> Result<Vec<R>, String>,
}

/// What a link's worker reports to the dispatch loop.
enum LinkEvent<'w, T: Clone, R> {
    /// A run came back answered.
    Done {
        agent: usize,
        index: u64,
        results: Vec<R>,
        /// Seconds from the later of its send and the link's previous
        /// reply to its own reply: spans on one link never overlap, and
        /// they sum to the time the link had a run outstanding.
        span_s: f64,
        /// `(modeled floats, wire bytes)` of the request and the reply.
        sent: (u64, u64),
        recv: (u64, u64),
    },
    /// The link is done for: churn (a transport or timeout `error`), or a
    /// protocol/frame violation — a bug, which aborts the round. Its
    /// outstanding `runs` (oldest first) and whatever is still unread in
    /// `work` need a new home.
    Down {
        agent: usize,
        runs: Vec<Run<'w, T>>,
        work: Receiver<Option<Run<'w, T>>>,
        error: ClanError,
    },
}

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

/// The one per-link worker. It keeps up to `exchange.window` runs
/// outstanding, encoding each on this thread straight from the borrow
/// (the frame is freed before the wait for its reply), and matches every
/// reply to the *oldest* — every [`Transport`] is an ordered pipe. With
/// room in the window it waits on `work`, not the link: the dispatch loop
/// answers each of its replies with a run or `None` ("nothing yet, go
/// listen"), and merely polling would pick a run up one reply late,
/// collapsing the depth to one. Told to stop (`work` closed), it first
/// reads the replies it is owed, so none answers the next round.
///
/// It can never block in a send while its agent blocks writing a reply.
/// TCP's `send_frame` blocks while the peer's buffers are full, so a
/// second request may wait until the agent reads it. Only `Evaluate` runs
/// are ever two deep, and their `Fitness` replies are a few dozen bytes
/// per genome: the agent's write lands in the socket buffer without
/// waiting, and it goes back to reading. A `Children` reply can be as
/// large as its request, so a `BuildChildren` run is alone on its link
/// (window 1): whenever that agent writes, this worker is reading.
fn link_worker<'w, T: Clone + Sync, R>(
    transport: &mut dyn Transport,
    agent: usize,
    clock: Instant,
    exchange: &Exchange<'_, T, R>,
    work: Receiver<Option<Run<'w, T>>>,
    events: &Sender<LinkEvent<'w, T, R>>,
) {
    // Sent and unanswered: the run, its request's (floats, wire bytes),
    // and when it went out.
    let mut outstanding: VecDeque<(Run<'w, T>, (u64, u64), Duration)> = VecDeque::new();
    let mut last_reply = Duration::ZERO;
    let error = loop {
        if outstanding.len() < exchange.window {
            match work.recv() {
                Ok(Some(run)) => {
                    let sent_at = clock.elapsed();
                    let (frame, floats) = (exchange.encode)(run.index, &run.items);
                    let sent = transport.send_frame(&frame);
                    outstanding.push_back((run, (floats, wire_bytes(&frame)), sent_at));
                    match sent {
                        Ok(()) => continue,
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
        let Some((run, sent, sent_at)) = outstanding.pop_front() else {
            continue;
        };
        let recv = (reply.modeled_floats(), recv_bytes);
        let results = match (exchange.answer)(reply, &run.items) {
            Ok(results) => results,
            Err(reason) => {
                let peer = transport.peer();
                break ClanError::Protocol { peer, reason };
            }
        };
        // Fails only once the dispatch loop, and so `work`, is gone.
        let _ = events.send(LinkEvent::Done {
            agent,
            index: run.index,
            results,
            span_s: replied_at
                .saturating_sub(sent_at.max(last_reply))
                .as_secs_f64(),
            sent,
            recv,
        });
        last_reply = replied_at;
    };
    let runs = outstanding.into_iter().map(|(run, ..)| run).collect();
    let _ = events.send(LinkEvent::Down {
        agent,
        runs,
        work,
        error,
    });
}

/// Cuts `0..n` into `k` contiguous runs (at most `n`) whose lengths differ
/// by at most one, the longer ones first.
fn split_even(n: usize, k: usize) -> impl Iterator<Item = Range<usize>> {
    let k = k.min(n).max(1);
    let (base, extra) = (n / k, n % k);
    (0..k)
        .map(move |i| i * base + i.min(extra)..(i + 1) * base + (i + 1).min(extra))
        .filter(|run| !run.is_empty())
}

/// A `Fitness` reply's entries, if they answer `run` genome for genome.
fn fitness_of<G: Borrow<Genome>>(
    reply: WireMessage,
    run: &[G],
) -> Result<Vec<WireEvaluation>, String> {
    match reply {
        WireMessage::Fitness(batch) => {
            let got: Vec<GenomeId> = batch.iter().map(|r| r.0).collect();
            let want: Vec<GenomeId> = run.iter().map(|g| g.borrow().id()).collect();
            mismatch("Fitness", &got, &want).map_or(Ok(batch), Err)
        }
        other => Err(format!("expected Fitness, got {}", message_name(&other))),
    }
}

/// A `Children` reply's genomes, if they answer `run` spec for spec.
fn children_of(reply: WireMessage, run: &[ChildSpec]) -> Result<Vec<Genome>, String> {
    match reply {
        WireMessage::Children(children) => {
            let got: Vec<GenomeId> = children.iter().map(Genome::id).collect();
            let want: Vec<GenomeId> = run.iter().map(|s| s.child_id).collect();
            mismatch("Children", &got, &want).map_or(Ok(children), Err)
        }
        other => Err(format!("expected Children, got {}", message_name(&other))),
    }
}

/// Why a reply listing `got` does not answer a run of `want` entry for
/// entry, or `None` when it does.
fn mismatch(kind: &str, got: &[GenomeId], want: &[GenomeId]) -> Option<String> {
    if got.len() != want.len() {
        let (n, m) = (got.len(), want.len());
        return Some(format!("{kind} reply has {n} entries for a run of {m}"));
    }
    let i = got.iter().zip(want).position(|(g, w)| g != w)?;
    let id = got.get(i)?;
    let why = if got.get(..i)?.contains(id) {
        "a duplicate"
    } else if want.contains(id) {
        "out of order"
    } else {
        "not in the run"
    };
    Some(format!("{kind} entry {i} is genome {id}, {why}"))
}

/// A live cluster of agents evaluating and reproducing genomes over a
/// real transport.
///
/// Use [`evaluate`](EdgeCluster::evaluate) and
/// [`build_children`](EdgeCluster::build_children) as the distributed
/// counterparts of `Population::evaluate` and
/// `Population::reproduce_centrally`, or attach the cluster to an
/// [`Evaluator`](crate::Evaluator) with
/// [`Evaluator::with_remote`](crate::Evaluator::with_remote) to fan the
/// inference of every CLAN topology out across it (and, under DDS, its
/// reproduction). Call
/// [`shutdown`](EdgeCluster::shutdown) for an orderly stop; dropping the
/// cluster also stops it.
pub struct EdgeCluster {
    links: Vec<AgentLink>,
    /// One row per link slot, kept across revivals.
    agents: Vec<AgentStats>,
    /// The session spec every (founding or joining) agent is configured
    /// with — kept so mid-run admissions speak the same session.
    spec: ClusterSpec,
    ledger: CommLedger,
    gather: GatherStats,
    /// The live-agent floor a round may not fall below.
    policy: RecoveryPolicy,
    /// What surviving churn cost so far.
    recovery: RecoveryStats,
    /// Deterministic kill/revive plan, applied at round boundaries.
    churn: Option<ChurnSchedule>,
    /// Rounds performed (each `evaluate_collect` / `build_children` /
    /// `evaluate_stream` call advances this by one).
    round: u64,
    /// Where replacement agents for revivals/admissions come from, and
    /// the transport resynced links speak.
    source: AgentSource,
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
    /// Mints `n_agents` founding agents from `source` and pushes the
    /// session configuration to each — what every constructor but
    /// [`connect_transports`](Self::connect_transports) does. A
    /// [`Remote`](AgentSource::Remote) source connects its
    /// first `n_agents` addresses and keeps the rest as spares.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] if `n_agents` is zero or the source
    /// cannot mint that many, [`ClanError::Transport`] if binding,
    /// connecting or configuring an agent fails, and
    /// [`ClanError::WorkerFailure`] if the OS cannot spawn an agent
    /// thread. (UDP has no connection handshake — an unreachable remote
    /// agent surfaces on the first exchange instead.)
    pub fn from_source(
        n_agents: usize,
        spec: ClusterSpec,
        mut source: AgentSource,
    ) -> Result<EdgeCluster, ClanError> {
        let links = (0..n_agents)
            .map(|slot| source.mint(slot))
            .collect::<Result<Vec<_>, ClanError>>()?;
        Self::configured(links, spec, source)
    }

    /// Spawns `n_agents` agent threads each serving a **real TCP
    /// socket** bound to `127.0.0.1` on an ephemeral port, and connects
    /// to them — the entire networked stack, loopback, in one process.
    ///
    /// # Errors
    ///
    /// As [`from_source`](Self::from_source).
    pub fn spawn_local_spec(n_agents: usize, spec: ClusterSpec) -> Result<EdgeCluster, ClanError> {
        Self::from_source(n_agents, spec, AgentSource::Loopback(None))
    }

    /// Spawns `n_agents` agent threads each serving a **real UDP
    /// socket** on `127.0.0.1` — the loss-tolerant datagram stack
    /// ([`UdpTransport`]), loopback, in one process — with explicit
    /// datagram tuning (`UdpConfig::default()` for the stock one) and,
    /// optionally, seeded faults (see [`AgentSource`]). The ARQ layer
    /// recovers every injected fault, so results stay bit-identical to a
    /// clean run — the `udp-lossy` matrix rows pin that at 20 % loss.
    ///
    /// # Errors
    ///
    /// As [`from_source`](Self::from_source).
    pub fn spawn_local_udp_cfg(
        n_agents: usize,
        spec: ClusterSpec,
        udp: UdpConfig,
    ) -> Result<EdgeCluster, ClanError> {
        Self::from_source(n_agents, spec, AgentSource::Loopback(Some(udp)))
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
        Self::configured(links, spec, AgentSource::External)
    }

    /// The one construction funnel: rejects an agent-less cluster (so
    /// every scatter can rely on at least one link slot — slots are only
    /// ever added afterwards) and configures every link.
    fn configured(
        links: Vec<AgentLink>,
        spec: ClusterSpec,
        source: AgentSource,
    ) -> Result<EdgeCluster, ClanError> {
        if links.is_empty() {
            return Err(ClanError::InvalidSetup {
                reason: "cluster needs at least one agent".into(),
            });
        }
        let cache = spec.cache.then(FitnessCache::new);
        let mut cluster = EdgeCluster {
            links: Vec::with_capacity(links.len()),
            agents: vec![AgentStats::default(); links.len()],
            spec,
            ledger: CommLedger::new(),
            gather: GatherStats::default(),
            policy: RecoveryPolicy::default(),
            recovery: RecoveryStats::default(),
            churn: None,
            round: 0,
            source,
            cache,
            tracer: Tracer::default(),
        };
        for mut link in links {
            cluster.configure(link.transport.as_mut())?;
            cluster.links.push(link);
        }
        Ok(cluster)
    }

    /// Pushes the session's `Configure` over `transport`: control
    /// traffic, invisible to the analytic model.
    fn configure(&self, transport: &mut dyn Transport) -> Result<(), ClanError> {
        let msg = WireMessage::Configure(Box::new(self.spec.clone()));
        send_message(transport, &msg).map(drop)
    }

    /// Number of agent link slots (including dead ones, whose slots are
    /// kept so per-agent accounting stays aligned — see
    /// [`live_agents`](EdgeCluster::live_agents)).
    pub fn n_agents(&self) -> usize {
        self.links.len()
    }

    /// Number of links not currently marked
    /// [`LinkHealth::Dead`](crate::membership::LinkHealth::Dead).
    pub fn live_agents(&self) -> usize {
        self.agents.iter().filter(|a| a.health.is_live()).count()
    }

    /// One row per link slot: health, traffic, work and failures over the
    /// cluster's life.
    pub fn agents(&self) -> &[AgentStats] {
        &self.agents
    }

    /// Measured round timing accumulated so far.
    pub fn gather_stats(&self) -> GatherStats {
        self.gather.clone()
    }

    /// Installs a telemetry handle. The runtime emits Timing-class
    /// annotations only (per-link spans, retransmissions, churn
    /// transitions); the deterministic logical stream is produced by
    /// the orchestrators.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Sets the recovery policy (the live-agent floor).
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.policy = policy;
    }

    /// Everything surviving churn has cost so far.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery.clone()
    }

    /// Installs a deterministic kill/revive plan, applied at round
    /// boundaries (each `evaluate`/`build_children`/`evaluate_stream`
    /// call is one round).
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] if the schedule names an agent slot
    /// this cluster does not have, or schedules more revivals than the
    /// cluster can mint replacement agents for (caller-supplied
    /// transports mint none; a remote cluster one per address given to
    /// [`set_spares`](EdgeCluster::set_spares)).
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
        let (revivals, capacity) = (schedule.revivals(), self.source.capacity());
        if revivals > capacity {
            return Err(ClanError::InvalidSetup {
                reason: format!(
                    "churn schedule revives {revivals} agent(s) but this cluster can mint \
                     {capacity} replacement(s) (connect via loopback, or supply standby \
                     addresses with set_spares)"
                ),
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
        match &mut self.source {
            AgentSource::Remote { spares, .. } => {
                spares.extend(addrs);
                Ok(())
            }
            _ => Err(ClanError::InvalidSetup {
                reason: "spare agent addresses apply to remote clusters only \
                         (AgentSource::Remote)"
                    .into(),
            }),
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
        link.poison();
        // An injected kill must stick: clearing the origin prevents the
        // automatic session re-establishment a transient failure gets.
        link.origin = None;
        self.tracer.timing(EventKind::AgentKilled, |ev| {
            ev.agent = Some(slot as u64);
        });
        Ok(())
    }

    /// Revives link `slot` with a freshly minted replacement agent:
    /// same slot (its row keeps its counters), fresh health,
    /// `Configure`d with the session spec.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] on an out-of-range slot or a cluster
    /// with no replacement source, plus any transport failure while
    /// connecting or configuring the replacement.
    pub fn revive_agent(&mut self, slot: usize) -> Result<(), ClanError> {
        if slot >= self.links.len() {
            return Err(ClanError::InvalidSetup {
                reason: format!("revive: no agent slot {slot}"),
            });
        }
        let mut fresh = self.source.mint(slot)?;
        self.configure(fresh.transport.as_mut())?;
        // Dropping the old link drops its transport: a still-running old
        // agent observes the disconnect and ends its session quietly (its
        // thread is detached, never joined).
        self.links[slot] = fresh;
        self.agents[slot].heal();
        self.tracer.timing(EventKind::AgentRevived, |ev| {
            ev.agent = Some(slot as u64);
        });
        Ok(())
    }

    /// Admits a new agent minted from this cluster's own [`AgentSource`]
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
        let mut link = self.source.mint(slot)?;
        self.configure(link.transport.as_mut())?;
        self.links.push(link);
        self.agents.push(AgentStats::default());
        self.recovery.joins += 1;
        self.tracer.timing(EventKind::AgentJoined, |ev| {
            ev.agent = Some(slot as u64);
        });
        Ok(slot)
    }

    /// Opens the next round: applies any churn events due, then
    /// re-establishes poisoned sessions.
    fn open_round(&mut self) -> Result<(), ClanError> {
        let round = self.round;
        self.round += 1;
        self.recovery.rounds += 1;
        let due: Vec<(usize, ChurnAction)> = self
            .churn
            .iter()
            .flat_map(|churn| churn.events_at(round))
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
        self.resync_poisoned_links();
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

    /// The NEAT configuration agents compile genomes with.
    pub fn neat_config(&self) -> &NeatConfig {
        &self.spec.cfg
    }

    /// Re-establishes a fresh session on every poisoned-but-live link
    /// that has an origin to reconnect to: new transport, `Configure`
    /// pushed. Links without an origin (in-process agents, injected
    /// kills) and failed reconnects stay poisoned — their next probe
    /// fails fast and counts a strike, so a genuinely dead device
    /// converges to `Dead` without timeout waits, while a transiently
    /// slow one comes back with a clean session.
    fn resync_poisoned_links(&mut self) {
        for i in 0..self.links.len() {
            let link = &self.links[i];
            if !link.poisoned || !self.agents[i].health.is_live() {
                continue;
            }
            let Some(origin) = &link.origin else {
                continue;
            };
            let Ok(mut transport) = dial(origin, self.source.udp(), i) else {
                continue; // stays poisoned; the probe records the strike
            };
            if self.configure(transport.as_mut()).is_ok() {
                let link = &mut self.links[i];
                link.transport = transport;
                link.poisoned = false;
            }
        }
    }

    /// The one dispatch loop behind every round. A [`link_worker`] per
    /// live link pulls from `queue`: each run goes to the live link
    /// holding the fewest (lowest slot on a tie, so an opening wave goes
    /// out round-robin), and `on_done(agent, run index, results, span)`
    /// takes every answered run — returning the next run to queue, in a
    /// stream. A link that fails churn-class gives its in-flight and
    /// unread runs back to the head of the queue, in order; the round
    /// fails only once fewer than the policy's floor of links remain
    /// (with the root-cause link error when none is left), or at once on
    /// a protocol/frame violation. However it ends, healthy links first
    /// read the replies they are still owed. Books every answered run in
    /// the ledger and its link's row, and the round's timing in
    /// [`GatherStats`] — whether or not the round succeeds, so the rows
    /// and the totals always agree — and returns that timing.
    fn dispatch<'w, T: Clone + Send + Sync, R: Send>(
        &mut self,
        exchange: &Exchange<'_, T, R>,
        mut queue: VecDeque<Run<'w, T>>,
        on_done: &mut dyn FnMut(usize, u64, Vec<R>, f64) -> Option<Run<'w, T>>,
    ) -> Result<GatherStats, ClanError> {
        let floor = self.policy.min_agents.max(1);
        let EdgeCluster {
            links,
            agents,
            ledger,
            gather,
            recovery,
            tracer,
            ..
        } = self;
        let n = links.len();
        let mut round = GatherStats {
            gathers: 1,
            ..GatherStats::default()
        };
        // Links that completed a round trip this round.
        let mut answered = vec![false; n];
        let mut failures: Vec<(usize, ClanError)> = Vec::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "round makespan and per-run spans; reported, never fed back into evolution"
        )]
        let clock = Instant::now();
        let mut outcome: Result<(), ClanError> = Ok(());
        std::thread::scope(|s| {
            let (etx, erx) = channel();
            let mut work: Vec<Option<Sender<Option<Run<'w, T>>>>> = (0..n).map(|_| None).collect();
            for (i, link) in links.iter_mut().enumerate() {
                if agents[i].health.is_live() {
                    let (wtx, wrx) = channel();
                    work[i] = Some(wtx);
                    let etx = etx.clone();
                    let transport: &mut dyn Transport = link.transport.as_mut();
                    s.spawn(move || link_worker(transport, i, clock, exchange, wrx, &etx));
                }
            }
            drop(etx);
            // Runs each link holds, as far as this loop has been told, and
            // the links whose worker is waiting to hear from it.
            let mut held = vec![0usize; n];
            let mut waiting = vec![false; n];
            while work.iter().flatten().count() >= floor {
                while let Some(agent) = (0..n)
                    .filter(|&a| work[a].is_some() && held[a] < exchange.window)
                    .min_by_key(|&a| held[a])
                {
                    let (Some(run), Some(tx)) = (queue.pop_front(), &work[agent]) else {
                        break;
                    };
                    let _ = tx.send(Some(run));
                    held[agent] += 1;
                    waiting[agent] = true;
                }
                for (agent, tx) in work.iter().enumerate() {
                    if std::mem::take(&mut waiting[agent]) && held[agent] < exchange.window {
                        let _ = tx.as_ref().map(|tx| tx.send(None));
                    }
                }
                if held.iter().all(|&h| h == 0) {
                    break;
                }
                let Ok(event) = erx.recv() else { break };
                match event {
                    LinkEvent::Done {
                        agent,
                        index,
                        results,
                        span_s,
                        sent,
                        recv,
                    } => {
                        ledger.record_wire(exchange.request, sent.0, sent.1);
                        ledger.record_wire(exchange.reply, recv.0, recv.1);
                        agents[agent].book_run(sent.1 + recv.1, results.len() as u64, span_s);
                        answered[agent] = true;
                        held[agent] -= 1;
                        waiting[agent] = true;
                        round.makespan_s = clock.elapsed().as_secs_f64();
                        round.busy_s += span_s;
                        queue.extend(on_done(agent, index, results, span_s));
                    }
                    LinkEvent::Down { error, .. } if !is_churn_error(&error) => {
                        outcome = Err(error);
                        break;
                    }
                    LinkEvent::Down {
                        agent,
                        runs,
                        work: unread,
                        error,
                    } => {
                        // Nothing more is sent to this link, so whatever
                        // its worker never read is all in `unread`.
                        work[agent] = None;
                        held[agent] = 0;
                        let queued = queue.len();
                        queue.extend(runs.into_iter().chain(unread.try_iter().flatten()));
                        let lost = queue.len() - queued;
                        queue.rotate_right(lost); // to the head of the queue, in order
                        for run in queue.iter().take(lost) {
                            let items = run.items.len() as u64;
                            recovery.reassigned_chunks += 1;
                            recovery.reassigned_items += items;
                            tracer.timing(EventKind::ChunkReassigned, |ev| {
                                ev.agent = Some(agent as u64);
                                ev.items = Some(items);
                            });
                        }
                        tracer.timing(EventKind::AgentFailure, |ev| {
                            ev.agent = Some(agent as u64);
                            ev.label = Some(error.to_string());
                        });
                        failures.push((agent, error));
                    }
                }
            }
            let live = work.iter().flatten().count();
            if outcome.is_ok() && (held.iter().any(|&h| h > 0) || !queue.is_empty()) {
                outcome = Err(match failures.last() {
                    Some((_, error)) if live == 0 => error.clone(),
                    _ => ClanError::Degraded {
                        live,
                        required: floor,
                    },
                });
            }
            // Closing the work channels lets every worker drain and exit.
            drop(work);
        });
        for (i, error) in &failures {
            agents[*i].note_failure(error);
            recovery.failures += 1;
            links[*i].poison();
        }
        for (i, (link, row)) in links.iter_mut().zip(agents.iter_mut()).enumerate() {
            link.settle(i, answered[i], row, ledger, tracer);
        }
        gather.absorb(&round);
        outcome.map(|()| round)
    }

    /// One gather round over the borrowed `items`: opens the round, cuts
    /// the items into `runs_per_link` runs per live link (lengths
    /// differing by at most one, so the cut depends only on the list and
    /// the live-link count), pulls them through
    /// [`dispatch`](EdgeCluster::dispatch), and returns the results in
    /// run order — the order of `items`, whichever agent answered what.
    fn gather<T: Clone + Send + Sync, R: Send>(
        &mut self,
        exchange: &Exchange<'_, T, R>,
        items: &[T],
        runs_per_link: usize,
    ) -> Result<Vec<R>, ClanError> {
        self.open_round()?;
        let round = self.round;
        let queue: VecDeque<Run<'_, T>> =
            split_even(items.len(), runs_per_link * self.live_agents())
                .zip(0..)
                .map(|(range, index)| Run {
                    index,
                    items: Cow::Borrowed(&items[range]),
                })
                .collect();
        let mut banked: Vec<Vec<R>> = (0..queue.len()).map(|_| Vec::new()).collect();
        let tracer = self.tracer.clone();
        let stats = self.dispatch(exchange, queue, &mut |agent, index, results, span_s| {
            tracer.timing(EventKind::AgentExchange, |ev| {
                ev.agent = Some(agent as u64);
                ev.dur_us = Some((span_s * 1e6) as u64);
                ev.items = Some(results.len() as u64);
            });
            if let Some(slot) = banked.get_mut(index as usize) {
                *slot = results;
            }
            None
        })?;
        self.tracer.timing(EventKind::GatherRound, |ev| {
            ev.items = Some(round);
            ev.dur_us = Some((stats.makespan_s * 1e6) as u64);
        });
        Ok(banked.into_iter().flatten().collect())
    }

    /// Distributed inference, returning per-genome results in genome-id
    /// order together with each compiled network's per-activation gene
    /// cost — everything the orchestrators need to replay the paper's
    /// cost accounting bit-identically to a serial run. Does **not**
    /// touch the population's fitness or counters.
    ///
    /// `pop` is only borrowed: its content hashes fan out over this
    /// machine's cores, cache hits are served here, and the link workers
    /// encode runs of the misses straight from it. A run lost with a
    /// failed agent goes to another; results carry genome ids and replay
    /// in id order, so a churned round returns what a clean one would.
    ///
    /// # Errors
    ///
    /// [`ClanError::Protocol`]/[`ClanError::Frame`] if an agent
    /// misbehaves (bugs are not churn: the round ends there), and — when
    /// failures drain the cluster below the policy floor — the last link
    /// error ([`ClanError::Transport`]/[`ClanError::Timeout`]) once no
    /// agent is left, else [`ClanError::Degraded`].
    pub fn evaluate_collect(&mut self, pop: &Population) -> Result<Vec<WireEvaluation>, ClanError> {
        let master_seed = pop.master_seed();
        let generation = pop.generation();
        // Coordinator-side cache filter: hits are replayed locally and
        // only misses cross the wire. The round still runs (possibly
        // with zero items) so churn rounds advance on the same cadence
        // with the cache on or off.
        let (filter, misses) = CacheFilter::split_population(self.cache.as_mut(), pop);
        let misses: Vec<&Genome> = misses.into_iter().map(|(_, g)| g).collect();
        let encode = |_: u64, run: &[&Genome]| {
            let frame = encode_evaluate(generation, master_seed, run);
            (frame, request_floats(&[], run))
        };
        let exchange = Exchange {
            request: MessageKind::SendGenomes,
            reply: MessageKind::SendFitness,
            window: STREAM_WINDOW,
            encode: &encode,
            answer: fitness_of,
        };
        // Four windows of runs per live link: a straggler then hoards at
        // most a quarter of its even share.
        let fresh = self.gather(&exchange, &misses, 4 * STREAM_WINDOW)?;
        Ok(filter.merge(self.cache.as_mut(), master_seed, fresh))
    }

    /// Drains this cluster's fitness-cache `(hits, lookups)` window.
    pub fn take_cache_window(&mut self) -> (u64, u64) {
        self.cache
            .as_mut()
            .map_or((0, 0), FitnessCache::take_window)
    }

    /// Distributed inference with write-back: sends the population's
    /// genomes to the agents, gathers the evaluations, and records them
    /// ([`Population::record_evaluation`]) — the runtime equivalent of
    /// CLAN_DCS's inference phase.
    ///
    /// # Errors
    ///
    /// Propagates [`evaluate_collect`](EdgeCluster::evaluate_collect);
    /// nothing is recorded then.
    pub fn evaluate(&mut self, pop: &mut Population) -> Result<(), ClanError> {
        for (id, eval, genes_per_activation) in self.evaluate_collect(pop)? {
            pop.record_evaluation(id, eval, genes_per_activation)?;
        }
        Ok(())
    }

    /// Streaming dispatch-on-completion evaluation — the async
    /// steady-state surface. The same exchange as a gather, with runs of
    /// one owned genome: every link keeps [`STREAM_WINDOW`] of them in
    /// flight, and the moment any agent answers, `on_complete` runs on the
    /// caller's thread with the result and returns the next genome to put
    /// in flight (`None` ends the stream once everything in flight has
    /// drained), which goes to the link holding the fewest — the one that
    /// just answered, unless another is idle. A fast agent turns over many
    /// evaluations while a slow one finishes its first: no barrier, no
    /// tail-agent stall, no idling through the coordinator's turnaround.
    ///
    /// `initial` seeds the pipeline, round-robin (any size; surplus
    /// queues and feeds agents as they free up). `master_seed` rides in
    /// every `Evaluate` frame so agents derive the same content-based
    /// episode seeds as a local run — per-genome *results* stay
    /// deterministic even though arrival *order* does not.
    ///
    /// A churn-class link failure re-queues every genome outstanding on it
    /// ahead of the rest (each counted in
    /// [`RecoveryStats::reassigned_items`]); the stream aborts only when
    /// live agents fall below the recovery policy's floor. Returns the
    /// stream's timing (also added to [`gather_stats`](EdgeCluster::gather_stats)).
    ///
    /// # Errors
    ///
    /// [`ClanError::Protocol`]/[`ClanError::Frame`] if an agent
    /// misbehaves, and [`ClanError::Degraded`] (or, with no agent left,
    /// the last link error) when failures drain the cluster below
    /// [`RecoveryPolicy::min_agents`].
    pub fn evaluate_stream(
        &mut self,
        master_seed: u64,
        initial: Vec<Genome>,
        on_complete: &mut dyn FnMut(&StreamCompletion) -> Option<Genome>,
    ) -> Result<GatherStats, ClanError> {
        self.open_round()?;
        // A run's index, the stream's sequence number, rides in the
        // generation field.
        let encode = |seq: u64, run: &[Genome]| {
            (
                encode_evaluate(seq, master_seed, run),
                request_floats(&[], run),
            )
        };
        let exchange = Exchange {
            request: MessageKind::SendGenomes,
            reply: MessageKind::SendFitness,
            window: STREAM_WINDOW,
            encode: &encode,
            answer: fitness_of,
        };
        let mut seq = 0u64;
        let mut run_of = |genome: Genome| {
            seq += 1;
            Run {
                index: seq - 1,
                items: Cow::Owned(vec![genome]),
            }
        };
        let queue = initial.into_iter().map(&mut run_of).collect();
        let tracer = self.tracer.clone();
        self.dispatch(&exchange, queue, &mut |agent, _, results, span_s| {
            let mut next = None;
            for (genome, evaluation, genes_per_activation) in results {
                tracer.timing(EventKind::Completion, |ev| {
                    ev.agent = Some(agent as u64);
                    ev.genome = Some(genome.0);
                    ev.fitness_bits = Some(evaluation.fitness.to_bits());
                    ev.dur_us = Some((span_s * 1e6) as u64);
                });
                let completion = StreamCompletion {
                    agent,
                    genome,
                    evaluation,
                    genes_per_activation,
                };
                next = on_complete(&completion).map(&mut run_of);
            }
            next
        })
    }

    /// Distributed reproduction: ships child specs plus the needed
    /// parent genomes to agents and gathers the children, in the plan's
    /// spec order — CLAN_DDS's reproduction phase over a real transport.
    ///
    /// # Errors
    ///
    /// As [`evaluate_collect`](EdgeCluster::evaluate_collect):
    /// [`ClanError::Protocol`] on a reply that does not answer its specs
    /// child for child, and the churn errors of a drained cluster.
    pub fn build_children(
        &mut self,
        pop: &Population,
        plan: &clan_neat::GenerationPlan,
    ) -> Result<Vec<Genome>, ClanError> {
        let master_seed = pop.master_seed();
        let encode = |_: u64, run: &[ChildSpec]| {
            // Only the parents this run needs travel to the agent.
            let mut parent_ids: Vec<GenomeId> = run.iter().flat_map(|s| s.parent_ids()).collect();
            parent_ids.sort_unstable();
            parent_ids.dedup();
            #[expect(
                clippy::expect_used,
                reason = "parent ids come from the reproduction plan built over this same population; a miss is a planner bug the process cannot recover from"
            )]
            let parents: Vec<&Genome> = parent_ids
                .iter()
                .map(|id| pop.genome(*id).expect("parent resident"))
                .collect();
            (
                encode_build_children(plan.generation, master_seed, run, &parents),
                request_floats(run, &parents),
            )
        };
        let exchange = Exchange {
            request: MessageKind::SendParentGenomes,
            reply: MessageKind::SendChildren,
            window: 1,
            encode: &encode,
            answer: children_of,
        };
        // One run per live link, alone on it (see `link_worker`): parents
        // are deduplicated within a run, so splitting a species' children
        // over more runs would send its parents again.
        self.gather(&exchange, &plan.children, 1)
    }

    /// Stops all agents (best-effort `Shutdown`) and joins in-process
    /// agent threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "bounds the shutdown drain in wall-clock; nothing evolved depends on it"
    )]
    fn shutdown_inner(&mut self) {
        let frame = crate::transport::encode(&WireMessage::Shutdown);
        for link in &mut self.links {
            let _ = link.transport.send_frame(&frame);
        }
        // Datagram transports retransmit the Shutdown until acked
        // (bounded); reliable transports return immediately. The links
        // take turns in short slices: a dead link's whole deadline must
        // not outlast the time the live agents linger for their acks.
        let deadline = Instant::now() + std::time::Duration::from_millis(750);
        let mut draining: Vec<&mut AgentLink> = self.links.iter_mut().collect();
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
    use crate::evaluator::{Evaluator, InferenceMode};
    use crate::membership::LinkHealth;
    use crate::orchestra::Orchestrator;
    use crate::{DcsOrchestrator, DdsOrchestrator, SerialOrchestrator};
    use clan_distsim::Cluster;
    use clan_envs::Workload;

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
        EdgeCluster::from_source(n, uncached_spec(cfg), AgentSource::Threads).unwrap()
    }

    fn cartpole_spec(cfg: &NeatConfig) -> ClusterSpec {
        ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, cfg.clone())
    }

    fn spawn_both(n: usize, cfg: &NeatConfig) -> Vec<EdgeCluster> {
        vec![
            EdgeCluster::from_source(n, cartpole_spec(cfg), AgentSource::Threads)
                .expect("channel cluster spawns"),
            EdgeCluster::spawn_local_spec(n, cartpole_spec(cfg)).expect("loopback cluster binds"),
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
            EdgeCluster::from_source(3, cartpole_spec(&cfg), AgentSource::Threads).unwrap();
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
        let cluster = EdgeCluster::spawn_local_spec(3, cartpole_spec(&cfg)).unwrap();
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
        let wire = real.evaluator().remote_ledger().unwrap();
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
        // Up to 4 x STREAM_WINDOW runs per agent: ten runs of one genome,
        // each answered by one Fitness.
        assert_eq!(ledger.entry(MessageKind::SendGenomes).messages, 10);
        assert_eq!(ledger.entry(MessageKind::SendFitness).messages, 10);
        let overhead = ledger.framing_overhead().expect("both measures recorded");
        assert!(
            overhead > 1.0,
            "real f64 wire format must cost more than the 4-byte/gene model: {overhead}"
        );
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
        let udp = Some(UdpConfig::default());
        for source in [
            AgentSource::Threads,
            AgentSource::Loopback(None),
            AgentSource::Loopback(udp.clone()),
            AgentSource::Remote {
                udp: None,
                spares: vec![],
            },
            AgentSource::Remote {
                udp,
                spares: vec![],
            },
        ] {
            assert!(matches!(
                EdgeCluster::from_source(0, spec.clone(), source),
                Err(ClanError::InvalidSetup { .. })
            ));
        }
        assert!(matches!(
            EdgeCluster::connect_transports(vec![], spec),
            Err(ClanError::InvalidSetup { .. })
        ));
    }

    #[test]
    fn split_even_cuts_contiguous_runs_longest_first() {
        let runs = |n, k| split_even(n, k).collect::<Vec<_>>();
        assert_eq!(runs(5, 4), vec![0..2, 2..3, 3..4, 4..5]);
        assert_eq!(runs(3, 8), vec![0..1, 1..2, 2..3]);
        assert_eq!(runs(7, 1), vec![0..7]);
        assert!(runs(0, 4).is_empty());
    }

    #[test]
    fn gather_stats_accumulate_makespan_and_busy_time() {
        let cfg = cfg(8);
        let mut cluster =
            EdgeCluster::from_source(2, cartpole_spec(&cfg), AgentSource::Threads).unwrap();
        assert_eq!(cluster.gather_stats().gathers, 0);
        let mut pop = Population::new(cfg, 4);
        cluster.evaluate(&mut pop).unwrap();
        let stats = cluster.gather_stats();
        assert_eq!(stats.gathers, 1);
        assert!(stats.makespan_s > 0.0);
        let rows = cluster.agents();
        assert_eq!(rows.iter().map(|a| a.items).sum::<u64>(), 8);
        // Spans on one link never overlap and end by the last reply, so
        // no link is busy longer than the round, and busy time sums over
        // the links.
        assert!(rows.iter().all(|a| a.busy_s <= stats.makespan_s));
        assert!((stats.busy_s - rows.iter().map(|a| a.busy_s).sum::<f64>()).abs() < 1e-9);
        assert!(stats.overlap().unwrap() > 0.0 && stats.overlap().unwrap() <= 2.0);
        cluster.shutdown();
    }

    #[test]
    fn killed_agent_runs_are_requeued_and_results_match_serial() {
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
            "re-queueing must not change results"
        );
        let stats = cluster.recovery_stats();
        assert!(stats.reassigned_chunks >= 1);
        assert_eq!(
            stats.reassigned_items, stats.reassigned_chunks,
            "runs of one"
        );
        let rows = cluster.agents();
        assert_eq!(rows[1].failures, 1);
        assert_eq!(rows[1].health, LinkHealth::Suspected, "one strike");
        assert_eq!(rows[0].health, LinkHealth::Alive);
        // A second round: the dead agent is probed, fails again, dies.
        cluster.evaluate(&mut pop).unwrap();
        assert_eq!(cluster.agents()[1].health, LinkHealth::Dead);
        assert_eq!(cluster.live_agents(), 2);
        // A third round scatters to survivors only — no more failures.
        let failures = cluster.recovery_stats().failures;
        cluster.evaluate(&mut pop).unwrap();
        assert_eq!(cluster.recovery_stats().failures, failures);
        cluster.shutdown();
    }

    #[test]
    fn requeued_runs_are_re_encoded_from_the_borrowed_population() {
        let cfg = cfg(12);
        let pop = Population::new(cfg.clone(), 17);
        let serial = Evaluator::new(Workload::CartPole, InferenceMode::MultiStep)
            .evaluate_population_local(&pop);
        let mut cluster = spawn_uncached(3, cfg);
        cluster.kill_agent(1).unwrap();
        // `evaluate_collect`'s exchange, with an encoder that also records
        // where each genome it is handed lives.
        let genomes: Vec<&Genome> = pop.genomes().values().collect();
        let encoded = std::sync::Mutex::new(Vec::new());
        let encode = |_: u64, run: &[&Genome]| {
            let seen = run
                .iter()
                .map(|g| (g.id(), std::ptr::from_ref(*g) as usize));
            encoded.lock().unwrap().extend(seen);
            (encode_evaluate(0, 17, run), request_floats(&[], run))
        };
        let exchange = Exchange {
            request: MessageKind::SendGenomes,
            reply: MessageKind::SendFitness,
            window: STREAM_WINDOW,
            encode: &encode,
            answer: fitness_of,
        };
        let fresh = cluster
            .gather(&exchange, &genomes, 4 * STREAM_WINDOW)
            .unwrap();
        assert_eq!(fresh, serial, "re-queueing must not change results");
        // Twelve runs of one genome, dealt round-robin: link 1 died on its
        // first (genome 1) with its second (genome 4) unread. Genome 1 was
        // encoded for it and again for a survivor, genome 4 once — every
        // time from the population's own genomes, never from a copy.
        let stats = cluster.recovery_stats();
        assert_eq!((stats.reassigned_chunks, stats.reassigned_items), (2, 2));
        assert_eq!(cluster.agents()[1].failures, 1);
        let mut encoded = encoded.into_inner().unwrap();
        encoded.sort_unstable();
        let expected: Vec<(GenomeId, usize)> = pop
            .genomes()
            .iter()
            .flat_map(|(id, g)| {
                vec![(*id, std::ptr::from_ref(g) as usize); 1 + usize::from(id.0 == 1)]
            })
            .collect();
        assert_eq!(encoded, expected);
        // The ledger books each run once, when it is answered.
        let sent = cluster.ledger().entry(MessageKind::SendGenomes);
        assert_eq!(
            (sent.messages, sent.floats),
            (12, request_floats(&[], &genomes))
        );
        assert_eq!(
            cluster.ledger().entry(MessageKind::SendFitness).messages,
            12
        );
        cluster.shutdown();
    }

    #[test]
    fn churn_schedule_kill_and_revive_keeps_run_identical() {
        let cfg = cfg(12);
        let run = |churn: Option<ChurnSchedule>| {
            let mut cluster =
                EdgeCluster::from_source(3, cartpole_spec(&cfg), AgentSource::Threads).unwrap();
            if let Some(plan) = churn {
                cluster.set_churn(plan).unwrap();
            }
            let mut o = dcs_over(cluster, &cfg, 23);
            for _ in 0..4 {
                o.step_generation().unwrap();
            }
            let stats = o.evaluator().remote_recovery_stats().unwrap();
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
                EdgeCluster::from_source(3, cartpole_spec(&cfg), AgentSource::Threads).unwrap();
            if let Some(plan) = churn {
                cluster.set_churn(plan).unwrap();
            }
            let mut o = dds_over(cluster, &cfg, 37);
            for _ in 0..3 {
                o.step_generation().unwrap();
            }
            let stats = o.evaluator().remote_recovery_stats().unwrap();
            (o.population().genomes().clone(), stats)
        };
        let (clean, _) = run(None);
        // Round 1 is generation 0's build_children scatter.
        let (churned, stats) = run(Some(ChurnSchedule::new().kill(0, 1).revive(0, 3)));
        assert_eq!(clean, churned, "reproduction churn must not change results");
        assert!(stats.reassigned_chunks >= 1);
        assert!(stats.failures >= 1);
    }

    /// An agent daemon on an ephemeral loopback port — TCP, or UDP with
    /// `udp` — serving two sessions in a row, saying when each ends.
    fn serve_twice(udp: Option<UdpConfig>) -> (std::net::SocketAddr, Receiver<()>, JoinHandle<()>) {
        let (ended, session_ended) = channel();
        let mut server = AgentServer::bind("127.0.0.1:0", udp).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || {
            for _ in 0..2 {
                let outcome = server.serve_once();
                let _ = ended.send(());
                if outcome.is_err() {
                    break;
                }
            }
        });
        (addr, session_ended, handle)
    }

    #[test]
    fn poisoned_remote_link_resyncs_with_a_fresh_session() {
        // A churn-class failure poisons a link's session (a late reply
        // from a timed-out round must never answer the next round's
        // request). For a *remote* link the next scatter re-establishes
        // a fresh session to the original address, so a transiently
        // slow-but-alive agent recovers instead of striking out — and
        // without any protocol desync. Over TCP and over UDP.
        let cfg = cfg(8);
        let daemon_udp = UdpConfig::default().with_idle_timeout_s(0.5);
        let coordinator_udp = UdpConfig::default().with_idle_timeout_s(10.0);
        for udp in [None, Some(coordinator_udp)] {
            let (addr, session_ended, handle) =
                serve_twice(udp.as_ref().map(|_| daemon_udp.clone()));
            let spec = uncached_spec(cfg.clone());
            let spares = vec![addr.to_string()];
            let mut cluster =
                EdgeCluster::from_source(1, spec, AgentSource::Remote { udp, spares }).unwrap();
            let mut pop = Population::new(cfg.clone(), 43);
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
            cluster.agents[0].health = LinkHealth::Suspected;
            // The agent has left the abandoned session: at once over TCP,
            // which sees the disconnect; at the end of its short liveness
            // window over UDP, which cannot.
            session_ended.recv().unwrap();
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
            assert_eq!(cluster.agents()[0].health, LinkHealth::Alive);
            assert!(!cluster.links[0].poisoned);
            cluster.shutdown();
            handle.join().unwrap();
        }
    }

    #[test]
    fn churn_schedule_needs_a_replacement_per_revival() {
        // A daemon that never serves: its TCP backlog takes the
        // connection and the Configure.
        let daemon = AgentServer::bind("127.0.0.1:0", None).unwrap();
        let remote = AgentSource::Remote {
            udp: None,
            spares: vec![daemon.local_addr().to_string()],
        };
        let mut cluster = EdgeCluster::from_source(1, cartpole_spec(&cfg(6)), remote).unwrap();
        let spare = || vec!["127.0.0.1:9".to_string()];
        cluster.set_spares(spare()).unwrap();
        let twice = ChurnSchedule::new()
            .kill(0, 1)
            .revive(0, 2)
            .kill(0, 3)
            .revive(0, 4);
        // Two revivals, one spare: refused up front, not in the middle
        // of the run when the second revival finds no address.
        let err = cluster.set_churn(twice.clone()).unwrap_err();
        assert!(
            matches!(&err, ClanError::InvalidSetup { reason } if reason.contains("revives 2")),
            "{err}"
        );
        cluster.set_spares(spare()).unwrap();
        cluster.set_churn(twice).unwrap();
        cluster.shutdown();
    }

    #[test]
    fn revived_agent_serves_work_again() {
        let cfg = cfg(8);
        let mut cluster = spawn_uncached(2, cfg.clone());
        cluster.kill_agent(0).unwrap();
        let mut pop = Population::new(cfg, 3);
        cluster.evaluate(&mut pop).unwrap();
        cluster.evaluate(&mut pop).unwrap();
        assert_eq!(cluster.agents()[0].health, LinkHealth::Dead);
        cluster.revive_agent(0).unwrap();
        assert_eq!(cluster.agents()[0].health, LinkHealth::Alive);
        assert_eq!(
            cluster.agents()[0].failures,
            2,
            "a revival keeps the counters"
        );
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
            growing.agents()[2].messages > 0,
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
            EdgeCluster::from_source(2, cartpole_spec(&cfg), AgentSource::Threads).unwrap();
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
            EdgeCluster::from_source(2, cartpole_spec(&cfg), AgentSource::Threads).unwrap();
        strict.set_recovery_policy(RecoveryPolicy { min_agents: 2 });
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

    /// A channel transport whose session breaks, churn-class, once it
    /// has read `replies` frames.
    struct DiesAfter {
        inner: crate::transport::ChannelTransport,
        replies: usize,
    }

    impl Transport for DiesAfter {
        fn send_frame(&mut self, frame: &[u8]) -> Result<(), ClanError> {
            self.inner.send_frame(frame)
        }

        fn recv_frame(&mut self) -> Result<Vec<u8>, ClanError> {
            if self.replies == 0 {
                return Err(ClanError::Transport {
                    peer: self.peer(),
                    reason: "unplugged".into(),
                });
            }
            self.replies -= 1;
            self.inner.recv_frame()
        }

        fn peer(&self) -> String {
            self.inner.peer()
        }
    }

    #[test]
    fn a_round_that_fails_below_the_floor_still_books_its_rows() {
        let cfg = cfg(16);
        let mut threads = Vec::new();
        let mut serve = || {
            let (coord, mut agent_side) = channel_pair();
            threads.push(std::thread::spawn(move || {
                let _ = serve_session(&mut agent_side);
            }));
            coord
        };
        let healthy: Box<dyn Transport> = Box::new(serve());
        let dying = Box::new(DiesAfter {
            inner: serve(),
            replies: 1,
        });
        let mut cluster =
            EdgeCluster::connect_transports(vec![healthy, dying], uncached_spec(cfg.clone()))
                .unwrap();
        cluster.set_recovery_policy(RecoveryPolicy { min_agents: 2 });
        let mut pop = Population::new(cfg, 8);
        let err = cluster.evaluate(&mut pop).unwrap_err();
        assert!(
            matches!(
                err,
                ClanError::Degraded {
                    live: 1,
                    required: 2
                }
            ),
            "{err}"
        );
        let (rows, gather, ledger) = (cluster.agents(), cluster.gather_stats(), cluster.ledger());
        // The dying link answered one of the two runs of one genome the
        // opening wave gave it, and broke reading the other.
        assert_eq!(
            (rows[1].items, rows[1].messages, rows[1].failures),
            (1, 2, 1)
        );
        assert_eq!(rows[1].health, LinkHealth::Suspected);
        assert_eq!(gather.gathers, 1);
        let sum = |f: fn(&AgentStats) -> u64| rows.iter().map(f).sum::<u64>();
        assert_eq!(sum(|a| a.messages), ledger.total_messages());
        assert_eq!(sum(|a| a.wire_bytes), ledger.total_wire_bytes());
        let busy: f64 = rows.iter().map(|a| a.busy_s).sum();
        assert!(busy > 0.0 && (busy - gather.busy_s).abs() <= 1e-9 * gather.busy_s);
        cluster.shutdown();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn churn_schedule_validation() {
        let cfg = cfg(6);
        let mut cluster =
            EdgeCluster::from_source(2, cartpole_spec(&cfg), AgentSource::Threads).unwrap();
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
}
