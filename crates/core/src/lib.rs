//! # clan-core — Collaborative Learning using Asynchronous Neuroevolution
//!
//! The paper's contribution: orchestrating NEAT across a cluster of edge
//! devices under three distribution strategies, named `CLAN_<IRS>` for how
//! **I**nference, **R**eproduction, and **S**peciation are placed:
//!
//! | Config | Inference | Reproduction | Speciation |
//! |--------|-----------|--------------|------------|
//! | Serial | central | central | synchronous |
//! | `CLAN_DCS` | **distributed** | central | synchronous |
//! | `CLAN_DDS` | **distributed** | **distributed** | synchronous |
//! | `CLAN_DDA` | **distributed** | **distributed** | **asynchronous** (per-clan) |
//!
//! Two orchestrators cover the four rows. [`generational`] is one
//! synchronous `I → S → GP → R` step whose inference and reproduction are
//! placed by the `I R` letters ([`SerialOrchestrator`], [`DcsOrchestrator`]
//! and [`DdsOrchestrator`] are its three placements); [`dda`] runs
//! per-clan generations, one clan per device. [`orchestrator_for`] maps a
//! [`ClanTopology`] — which names only those four — to one. Both run
//! the *real* NEAT algorithm (from `clan-neat`) on real environments (from
//! `clan-envs`) while simultaneously accounting:
//!
//! - gene-level compute costs per block (paper Fig 3),
//! - per-message-kind communication (Fig 4),
//! - a simulated cluster timeline from the platform and WiFi models
//!   (Figs 5–11).
//!
//! Serial, DCS, and DDS are *bit-identical* in their evolutionary
//! trajectory for a given seed (order-independent RNG); DDA is a genuinely
//! different algorithm — that's the paper's accuracy-vs-scalability
//! trade-off (Fig 7b).
//!
//! Beyond the analytic cluster model, [`runtime`] provides a real
//! edge cluster over pluggable transports, and [`continuous`]
//! implements the paper's Figure-1 closed loop: deploy an expert, watch
//! its fitness, re-learn when the environment shifts.
//!
//! Inference — the dominant compute block — runs on the host's cores
//! when a driver has no agents (a contiguous chunk of the generation's
//! cache misses each), as many as the population's genes repay; the
//! order-independent RNG discipline makes that bit-identical to the
//! serial path. The centre's own serial sections — central reproduction,
//! content-hashing a population for the cache — use its cores unasked,
//! sized by the same rule ([`clan_neat::fanout`]), with the same
//! bit-identity.
//!
//! # Distributed runtime
//!
//! [`transport`] + [`runtime`] turn the simulated protocols into a real
//! networked deployment:
//!
//! - **Wire format** — one binary frame per protocol message
//!   (`"CLAN"` magic, version, tag, payload; see [`transport::codec`]),
//!   moved by a [`transport::Transport`]. One [`runtime::AgentSource`]
//!   says where agents come from and whether they speak TCP or UDP:
//!   threads over in-process byte channels, threads serving loopback
//!   sockets, or [`transport::agent::AgentServer`] daemons started with
//!   `clan-cli agent --listen ADDR [--udp]`. A coordinator configures
//!   agents over the wire (`Configure` carries workload + NEAT config),
//!   then drives `Evaluate`/`Fitness` rounds and — under
//!   [`DdsOrchestrator`], whose reproduction is distributed —
//!   `BuildChildren`/`Children` rounds, so a live DDS run's measured
//!   ledger shows the parent/child genome traffic the paper blames for
//!   DDS's cost while a live DCS run's shows none.
//! - **Determinism contract** — every episode RNG stream derives from
//!   `(master_seed, genome content hash)` and every reproduction stream
//!   from `(master_seed, generation, child_id)`, never from placement
//!   or arrival order, and genome attributes travel as
//!   exact `f64` bits; a TCP cluster run is therefore *bit-identical*
//!   to a serial run on all four topologies — row `tcp` of the
//!   determinism matrix (`tests/common/mod.rs`; every *condition ×
//!   topology × agent count* claim below is another row of it).
//! - **Measured vs modeled traffic** — the runtime records each
//!   message's real bytes-on-the-wire next to the analytic float
//!   accounting in a [`CommLedger`](clan_netsim::CommLedger);
//!   `CommLedger::framing_overhead` quantifies how much a practical
//!   wire format (f64 attributes, gene keys, length prefixes) exceeds
//!   the paper's 4-bytes-per-gene model.
//! - **From CI smoke to real devices** — the loopback cluster CI runs
//!   (`net-smoke` job: 2 agents, 3 CartPole generations, plus the
//!   equivalence suite) exercises the exact code path of a multi-device
//!   deployment; only the socket addresses change: start
//!   `clan-cli agent --listen 0.0.0.0:PORT` on each device and point
//!   `clan-cli coordinate --agents HOST:PORT,...` at them.
//!
//! Errors are typed end-to-end: malformed frames surface as
//! [`error::FrameError`] (never a panic), disconnects as
//! [`ClanError::Transport`], protocol violations as
//! [`ClanError::Protocol`].
//!
//! # Heterogeneous clusters
//!
//! Real edge swarms mix device generations; splitting work evenly up
//! front makes every generation wait on the slowest node. The runtime
//! needs no hint about who is fast: every round is one pull exchange
//! ([`runtime`]). A generation is cut into id-ordered *runs*, each link
//! keeps [`STREAM_WINDOW`] of them in flight and a fast agent simply comes
//! back for more, while results replay in genome-id order — so the
//! evolved genomes stay bit-identical to a serial run however the work
//! fell (`tests/hetero_equivalence.rs`: one agent behind a
//! [`DelayTransport`](transport::DelayTransport) completes fewer runs,
//! and a round's wire bytes do not depend on which agent is slow).
//! Balance is observable: each agent's wire bytes, work items and busy
//! time land in its [`AgentStats`] row
//! ([`EdgeCluster::agents`](runtime::EdgeCluster::agents)), and measured
//! makespan vs. summed busy time in [`GatherStats`] (both surfaced on
//! [`RunReport`] and in the CLI summary).
//!
//! # Lossy transport
//!
//! The paper's swarm shares a WiFi medium that loses, duplicates, and
//! reorders frames (§IV-A measures 62.24 Mbps / 8.83 ms for 64 B
//! transfers); TCP hides that behind a reliable stream, so the
//! `clan-netsim` WiFi-contention assumptions went unvalidated against a
//! real lossy wire. [`transport::udp`] closes that gap:
//!
//! - **Reliable datagrams** —
//!   [`UdpTransport`](transport::UdpTransport) fragments each frame
//!   into MTU-sized datagrams (`(seq, fragment, count)` headers), sends
//!   them through an ack-clocked sliding window, retransmits what the
//!   cumulative + selective acks or an RTT-derived per-fragment timer
//!   show to be lost, and reassembles in order with deduplication, over any
//!   [`DatagramLink`](transport::DatagramLink) — real UDP sockets
//!   ([`EdgeCluster::from_source`](runtime::EdgeCluster::from_source)
//!   with a UDP [`AgentSource`](runtime::AgentSource),
//!   `clan-cli agent --udp` / `coordinate --udp`) or in-process
//!   channels.
//! - **Deterministic fault injection** —
//!   [`FaultyTransport`](transport::FaultyTransport) perturbs the
//!   datagram stream *below* the ARQ layer with a seeded per-link RNG
//!   (drop / duplicate / reorder, see
//!   [`FaultConfig`](transport::FaultConfig)), so lossy runs are
//!   reproducible: `clan-cli coordinate --udp --loss 0.2 --fault-seed 7`.
//! - **Determinism under loss** — the ARQ layer reconstructs the exact
//!   frame bytes, so a UDP run with 20 % injected loss is
//!   *bit-identical* to a serial run on all four topologies
//!   (`tests/lossy_equivalence.rs`); loss costs only time and the
//!   retransmitted/duplicate bytes booked against each link's
//!   [`AgentStats`] row and the ledger's
//!   [`total_retrans_bytes`](clan_netsim::CommLedger::total_retrans_bytes)
//!   (surfaced on [`RunReport`] and the CLI summary).
//! - **Liveness** — a peer that goes silent mid-generation surfaces a
//!   typed [`ClanError::Timeout`] after the transport's idle deadline,
//!   never a hang; the TCP path mirrors this via
//!   [`TcpTransport::with_read_timeout`](transport::TcpTransport::with_read_timeout).
//! - **Model validation** — `benchmark/`'s `airraid-gen-udp` reports RTT,
//!   datagrams per frame and retransmitted bytes at 5 % seeded loss;
//!   [`WifiModel::transfer_time_fragmented_s`](clan_netsim::WifiModel::transfer_time_fragmented_s)
//!   charges link latency per datagram, as the emulator does, for
//!   messages larger than the link MTU.
//!
//! # Elastic runtime
//!
//! The transports above make a dying agent *observable* (typed
//! [`ClanError::Timeout`]/[`ClanError::Transport`], never a hang); the
//! [`membership`] layer makes it *survivable* — the cluster tolerates
//! device crash, rejoin, and mid-run scale-out:
//!
//! - **Per-link health, one recovery rule** ([`membership`]) — a failed
//!   [`EdgeCluster`] link's in-flight and unread runs go back to the head
//!   of the queue for the survivors, and results replay in id order, so a
//!   churned run is **bit-identical** to a serial one on all four
//!   topologies (`tests/churn_equivalence.rs`, 1/2/4 agents).
//! - **Mid-run join** — new agents attach between generations
//!   ([`EdgeCluster::admit_local`](runtime::EdgeCluster::admit_local)):
//!   they are `Configure`d with the stored session spec and pull work
//!   like founding members.
//! - **Seeded churn injection** —
//!   [`ChurnSchedule`](transport::ChurnSchedule) (`clan-cli coordinate
//!   --churn k1@2,r1@4 [--spare-at HOST:PORT] [--min-agents N]`) kills
//!   agent 1 before round 2 by swapping its transport for a
//!   [`DeadTransport`](transport::DeadTransport) and revives a
//!   replacement before round 4 (respawned in-process, or connected
//!   from a standby address). The crash is simulated; the recovery path
//!   exercised is the production one. CI's `net-smoke` kills a real
//!   agent process mid-run and joins a spare, diffing the output
//!   against a local run.
//! - **Measured recovery cost** — link failures, re-queued runs and
//!   kills/joins land in [`membership::RecoveryStats`] on [`RunReport`]
//!   and the CLI summary; `clan-trace analyze` on the `--trace` of a
//!   `coordinate --churn …` run lists failures per agent and the runs
//!   re-queued.
//!
//! # Async steady-state mode
//!
//! Every orchestrator above is generation-synchronous: a gather barrier
//! ends each round, so the slowest agent prices the whole population.
//! [`AsyncOrchestrator`] is the paper's barrier-free alternative: agents
//! stream `(genome, fitness)` results over the same transports, each
//! arrival triggers one steady-state reproduction event
//! ([`clan_neat::steady_state`]), and every link keeps
//! [`STREAM_WINDOW`] requests in flight, so no agent waits on the
//! coordinator between evaluations either. [`asynchronous`] documents
//! the window, the bootstrap rule and the mode's contract —
//! *virtual-time determinism, not bit-identity to the serial run*:
//! [`run_virtual`](AsyncOrchestrator::run_virtual) (`clan-cli run
//! --async`) is byte-identical per `(seed, schedule)` (CI's
//! `async-smoke` diffs two traces), while
//! [`run_streamed`](AsyncOrchestrator::run_streamed) (`clan-cli
//! coordinate --async`) drives
//! [`EdgeCluster::evaluate_stream`](runtime::EdgeCluster::evaluate_stream)
//! over live links in wall-clock arrival order and is characterized
//! statistically (`tests/convergence.rs`). [`AsyncStats`] on
//! [`RunReport`] carries makespan, evals/sec, wasted idle, insertions,
//! re-dispatches and the completion-order hash; `benchmark/`'s
//! `lander-stream-tcp` reports the live idle share as
//! `runtime.stream_wasted_idle_share`, and `clan-trace analyze` gives
//! the same totals for any `--async --trace` run.
//!
//! # Telemetry
//!
//! [`telemetry`] unifies the fragmented observability surfaces
//! ([`CommLedger`](clan_netsim::CommLedger), [`GatherStats`],
//! [`RecoveryStats`], [`AsyncStats`]) behind one structured event
//! stream — the only event format; the async-only `--event-log` it
//! subsumed is gone — with a
//! **two-clock design**:
//!
//! - **Logical events** carry logical time only (their own sequence
//!   counter, generation indices, virtual microseconds where a mode has
//!   them) and are emitted from the id-ordered replay loops that
//!   already pin fitness equivalence. The determinism contract: for a
//!   given seed the serialized logical stream
//!   ([`RunTrace::logical_text`](telemetry::RunTrace::logical_text)) is
//!   **byte-identical** across serial, loopback-TCP, 20 %-lossy-UDP,
//!   and churned runs on all four topologies
//!   (`tests/trace_equivalence.rs`), and an async virtual run's stream
//!   is byte-identical per `(seed, schedule)` — so traces from
//!   different transports can be `diff`ed directly to localize a
//!   divergence.
//! - **Timing events** (per-link gather spans, retransmissions, churn
//!   transitions, streamed completions) live in a separate wall-clock
//!   annotation channel that never enters the logical stream; every
//!   wall timestamp is captured in [`telemetry::clock`], the single
//!   `Instant::now` site a trace reads (see *Static contract
//!   enforcement* below).
//!
//! A [`Tracer`] handle (no-op unless enabled — `benchmark/` reports
//! its cost as `telemetry.overhead_pct`) is installed by the driver via
//! `ClanDriverBuilder::tracing` (`clan-cli run/coordinate --trace
//! FILE`); the recorded [`RunTrace`] exports as JSONL
//! ([`telemetry::to_jsonl`]), which `clan-trace chrome` renders as
//! per-agent tracks for Perfetto, and its event counts and logical hash
//! land in `RunReport.telemetry` ([`telemetry::TelemetryReport`]). The
//! tracer keeps no counters of its own: totals come from the run's
//! accounting.
//!
//! # Trace analysis & live introspection
//!
//! The trace above is raw material; three consumers turn it into
//! answers:
//!
//! - **`clan-trace`** (`crates/trace-tools`) analyzes recorded traces
//!   *offline*:
//!   `analyze --trace FILE` reconstructs the per-round critical path
//!   from the Timing spans — per-agent busy time, per-round critical
//!   agent, straggler ranking with slowdown factors, retransmission
//!   and recovery attribution, and a wasted-idle total that
//!   reproduces the run's own accounting ([`GatherStats`] for
//!   scatter/gather rounds, [`AsyncStats`] exactly in virtual time;
//!   `tests/trace_intelligence.rs` cross-checks both).
//!   `diff LEFT RIGHT` compares two *logical* streams and reports the
//!   first divergent event framed in run terms (`gen 7, eval of
//!   genome 1234`) — by the equivalence contract above, two same-seed
//!   runs diff clean across transports, so the first divergence *is*
//!   the bug's location. `summarize` renders the per-agent
//!   utilization table alone, and `chrome IN OUT` the whole trace as
//!   Chrome trace-event JSON. Exit codes: 0 clean/identical,
//!   1 divergence found, 2 usage/I-O.
//! - **Live status endpoint** ([`status`], enabled with
//!   [`ClanDriverBuilder::status_addr`] / `clan-cli --status-addr
//!   ADDR`): a `std::net` HTTP thread serving `/metrics` (Prometheus
//!   text exposition of the progress, the fitness-cache totals, one
//!   series per [`AgentStats`] field for each agent, and the
//!   [`GatherStats`] totals), `/health`
//!   (per-agent alive/suspected/dead from [`membership`]), and
//!   `/progress` (generation, eval count, best fitness). All three
//!   render the same snapshot, traced or not. It reads
//!   atomic [`StatusSnapshot`]s published between rounds — never the
//!   hot path — so the equivalence suites stay bit-identical with the
//!   endpoint enabled (pinned by `tests/trace_intelligence.rs`;
//!   measured wall-clock overhead ≈ 2 %, within run-to-run noise).
//! - **Flight recorder** ([`Tracer::with_ring`] /
//!   [`ClanDriverBuilder::trace_ring`] / `clan-cli --trace-ring N
//!   [--postmortem FILE]`): tracing into a bounded ring that keeps
//!   the last N events (the retained logical lines are a byte-exact
//!   suffix of the unbounded stream). When a run dies — typed error,
//!   transport failure, or panic (a hook dumps on unwind) — the ring
//!   is written as a postmortem JSONL that `clan-trace analyze`
//!   attributes; CI's `flight-recorder` job kills a cluster below
//!   `--min-agents` and asserts the postmortem names the kills.
//!
//! # Static contract enforcement
//!
//! Both contracts above are also held at review time, by `cargo clippy
//! -- -D warnings`. `clippy.toml` here and in `clan-neat` disallows
//! `HashMap`/`HashSet` (hash iteration order) and `Instant::now`/
//! `SystemTime::now` (ambient time; allowed module-wide only in
//! [`telemetry::clock`] and [`transport`]). [`transport`], [`runtime`]
//! and [`membership`] deny `unwrap_used`, `expect_used`, `panic`,
//! `unreachable` and `todo` outside tests, [`transport`] also
//! `indexing_slicing`. A waiver is `#[expect(<lint>, reason = "…")]` on
//! the statement or fn: a reasonless one warns and an unfulfilled one
//! fails. The kernel's per-edge sum order and the transport receive
//! deadlines have no lint; tests pin them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::allow_attributes_without_reason)]

pub mod asynchronous;
pub mod continuous;
pub mod dda;
pub mod driver;
pub mod error;
pub mod evaluator;
pub mod generational;
pub mod membership;
pub mod orchestra;
pub mod report;
pub mod runtime;
pub mod status;
pub mod telemetry;
pub mod topology;
pub mod transport;

pub use asynchronous::{AsyncOrchestrator, AsyncStats, LatencySchedule};
pub use continuous::{ContinuousLearner, LearningEvent, MonitorConfig, TaskOutcome};
pub use dda::DdaOrchestrator;
pub use driver::{AsyncClanDriver, AsyncRunOutcome, ClanDriver, ClanDriverBuilder};
pub use error::{ClanError, FrameError};
pub use evaluator::{EngineOptions, Evaluator, InferenceMode};
pub use generational::{DcsOrchestrator, DdsOrchestrator, SerialOrchestrator};
pub use membership::{AgentStats, LinkHealth, RecoveryPolicy, RecoveryStats};
pub use orchestra::{orchestrator_for, GenerationReport, Orchestrator};
pub use report::RunReport;
pub use runtime::{EdgeCluster, GatherStats, StreamCompletion, STREAM_WINDOW};
pub use status::{StatusHandle, StatusServer, StatusSnapshot};
pub use telemetry::{Determinism, EventKind, RunTrace, TelemetryReport, TraceEvent, Tracer};
pub use topology::ClanTopology;
pub use transport::{ClusterSpec, Transport};
