//! The structured event model: one flat, serializable record per
//! observable step of a run, split into two determinism classes.
//!
//! **Logical** events form the deterministic stream: they carry logical
//! time only (their own `lseq` counter, generation indices, virtual
//! microseconds where a mode has them) and are byte-identical per seed
//! across every synchronous execution surface — serial, loopback TCP,
//! lossy UDP, churned — because they are emitted from the id-ordered
//! replay loops that already pin fitness equivalence. **Timing** events
//! are the annotation channel: wall-clock spans, per-link waits,
//! retransmissions, churn transitions — everything that legitimately
//! differs between transports lives here and never contaminates the
//! logical stream.

use super::clock::WallClock;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Which channel an event belongs to (fixed at record time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Determinism {
    /// Part of the deterministic stream: byte-identical per seed across
    /// execution surfaces (and per `(seed, schedule)` in virtual-time
    /// async runs).
    Logical,
    /// Wall-clock / transport annotation: excluded from the pinned
    /// stream, free to differ between runs and modes.
    Timing,
}

/// What happened. Payload fields live on [`TraceEvent`] (sparse, all
/// optional) so the record stays flat for the vendored serde shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// Run preamble: seed, workload, population size.
    RunStart,
    /// A generation's evaluation is about to begin.
    GenerationStart,
    /// One genome's evaluation replayed in id order (fitness bits).
    EvalResult,
    /// A generation finished: best fitness, species, cache window.
    GenerationEnd,
    /// Async steady-state: a genome was put in flight on an agent.
    Dispatch,
    /// Async steady-state: an evaluation finished (`aseq` is its
    /// position in completion order; the fields are what
    /// `AsyncStats::event_log_hash` folds).
    Completion,
    /// Async steady-state: a child was inserted into the population.
    Insertion,
    /// Cluster shape annotation (agent count, transport flavor).
    ClusterInfo,
    /// One gather round's measured makespan.
    GatherRound,
    /// One run's span on its link within a gather (a link pulls several).
    AgentExchange,
    /// Loss-recovery overhead drained from one link (retransmitted and
    /// duplicate datagram bytes).
    Retransmission,
    /// A churn-class link failure was recorded against an agent.
    AgentFailure,
    /// A run a failed link held was re-queued for the survivors.
    ChunkReassigned,
    /// Deterministic churn schedule (or caller) killed an agent.
    AgentKilled,
    /// A previously killed agent slot was revived.
    AgentRevived,
    /// A new agent was admitted mid-run (spare or local).
    AgentJoined,
    /// Run postamble: generations completed.
    RunEnd,
}

impl EventKind {
    /// Stable snake_case label used in the logical stream text, JSONL
    /// consumers, and Chrome event names.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::RunStart => "run_start",
            EventKind::GenerationStart => "gen_start",
            EventKind::EvalResult => "eval",
            EventKind::GenerationEnd => "gen_end",
            EventKind::Dispatch => "dispatch",
            EventKind::Completion => "async",
            EventKind::Insertion => "insert",
            EventKind::ClusterInfo => "cluster",
            EventKind::GatherRound => "gather",
            EventKind::AgentExchange => "exchange",
            EventKind::Retransmission => "retrans",
            EventKind::AgentFailure => "agent_fail",
            EventKind::ChunkReassigned => "reassign",
            EventKind::AgentKilled => "kill",
            EventKind::AgentRevived => "revive",
            EventKind::AgentJoined => "join",
            EventKind::RunEnd => "run_end",
        }
    }
}

/// One trace record. Flat and sparse: every payload slot is optional so
/// a single struct serializes every kind through the vendored serde
/// shim, and unknown-to-a-kind fields simply stay `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Position in the full stream (Logical and Timing interleaved).
    pub seq: u64,
    /// Determinism class, fixed at record time.
    pub class: Determinism,
    /// What happened.
    pub kind: EventKind,
    /// Position in the logical stream (Logical events only); this — not
    /// `seq` — is what stays identical across execution surfaces.
    pub lseq: Option<u64>,
    /// Agent slot the event concerns, when attributable.
    pub agent: Option<u64>,
    /// Virtual time, microseconds (async virtual mode).
    pub vtime_us: Option<u64>,
    /// Wall-clock timestamp, microseconds since the trace epoch
    /// (Timing events; captured by [`super::clock::WallClock`]).
    pub wall_us: Option<u64>,
    /// Duration in microseconds (wall for Timing spans, virtual for
    /// async completions).
    pub dur_us: Option<u64>,
    /// Generation index.
    pub generation: Option<u64>,
    /// Genome id.
    pub genome: Option<u64>,
    /// Fitness as IEEE-754 bits (exact, no decimal round trip).
    pub fitness_bits: Option<u64>,
    /// Master seed (`RunStart`).
    pub seed: Option<u64>,
    /// Population size (`RunStart`).
    pub population: Option<u64>,
    /// Species alive (`GenerationEnd`).
    pub species: Option<u64>,
    /// Fitness-cache hits in the window (`GenerationEnd`).
    pub cache_hits: Option<u64>,
    /// Fitness-cache lookups in the window (`GenerationEnd`).
    pub cache_lookups: Option<u64>,
    /// Completion-order sequence number of `Completion` events.
    pub aseq: Option<u64>,
    /// Inserted child's genome id (`Completion`/`Insertion`).
    pub child: Option<u64>,
    /// Evicted genome id (`Completion`/`Insertion`).
    pub evicted: Option<u64>,
    /// First parent id (`Completion`/`Insertion`).
    pub p1: Option<u64>,
    /// Second parent id (`Completion`/`Insertion`).
    pub p2: Option<u64>,
    /// Generic count payload (items reassigned, agents, completions).
    pub items: Option<u64>,
    /// Byte count payload (retransmission overhead).
    pub bytes: Option<u64>,
    /// Free-form annotation (workload name, message kind, error text).
    pub label: Option<String>,
}

impl TraceEvent {
    /// A bare event of the given class and kind; every payload slot
    /// starts empty and `seq`/`lseq` are assigned by the tracer.
    pub fn base(class: Determinism, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq: 0,
            class,
            kind,
            lseq: None,
            agent: None,
            vtime_us: None,
            wall_us: None,
            dur_us: None,
            generation: None,
            genome: None,
            fitness_bits: None,
            seed: None,
            population: None,
            species: None,
            cache_hits: None,
            cache_lookups: None,
            aseq: None,
            child: None,
            evicted: None,
            p1: None,
            p2: None,
            items: None,
            bytes: None,
            label: None,
        }
    }

    /// The event's line in the deterministic stream text, or `None` for
    /// Timing events. Only logical payload slots are rendered — never
    /// `seq`, wall timestamps, or durations — so the text is invariant
    /// across execution surfaces.
    pub fn logical_line(&self) -> Option<String> {
        if self.class != Determinism::Logical {
            return None;
        }
        let mut line = format!("l={} k={}", self.lseq.unwrap_or(0), self.kind.label());
        if let Some(seed) = self.seed {
            line.push_str(&format!(" seed={seed}"));
        }
        if let Some(w) = &self.label {
            line.push_str(&format!(" w={w}"));
        }
        if let Some(p) = self.population {
            line.push_str(&format!(" pop={p}"));
        }
        if let Some(g) = self.generation {
            line.push_str(&format!(" gen={g}"));
        }
        if let Some(t) = self.vtime_us {
            line.push_str(&format!(" t={t}us"));
        }
        if let Some(a) = self.agent {
            line.push_str(&format!(" a={a}"));
        }
        if let Some(g) = self.genome {
            line.push_str(&format!(" g={g}"));
        }
        if let Some(f) = self.fitness_bits {
            line.push_str(&format!(" f={f:#018X}"));
        }
        if let Some(s) = self.species {
            line.push_str(&format!(" sp={s}"));
        }
        if self.cache_lookups.is_some() || self.cache_hits.is_some() {
            line.push_str(&format!(
                " ch={} cl={}",
                self.cache_hits.unwrap_or(0),
                self.cache_lookups.unwrap_or(0)
            ));
        }
        if self.kind == EventKind::Completion || self.kind == EventKind::Insertion {
            match (self.child, self.p1, self.p2) {
                (Some(c), Some(p1), Some(p2)) => {
                    let evicted = match self.evicted {
                        Some(e) => e.to_string(),
                        None => "-".into(),
                    };
                    line.push_str(&format!(" child={c} evicted={evicted} p={p1},{p2}"));
                }
                _ => line.push_str(" child=- evicted=- p=-"),
            }
        }
        if let Some(n) = self.items {
            line.push_str(&format!(" n={n}"));
        }
        Some(line)
    }
}

/// splitmix64 — the same mix the async event-log hash uses, local so
/// the telemetry layer has no RNG dependency.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the logical-stream fold hash (mirrors the async log's).
const LOGICAL_HASH_SEED: u64 = 0x00A5_15C0_0000_0002;

/// A finished run's collected events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTrace {
    /// Every recorded event, in record order.
    pub events: Vec<TraceEvent>,
}

impl RunTrace {
    /// The deterministic stream: one line per Logical event, newline
    /// terminated. Byte-identical per seed across execution surfaces.
    pub fn logical_text(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            if let Some(line) = ev.logical_line() {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// Order-sensitive fold hash of [`logical_text`](RunTrace::logical_text).
    pub fn logical_hash(&self) -> u64 {
        let mut h = LOGICAL_HASH_SEED;
        for &b in self.logical_text().as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        h
    }

    /// `(logical, timing)` event counts.
    pub fn counts(&self) -> (u64, u64) {
        let logical = self
            .events
            .iter()
            .filter(|e| e.class == Determinism::Logical)
            .count() as u64;
        (logical, self.events.len() as u64 - logical)
    }
}

/// The `RunReport.telemetry` section: event-stream accounting. Default
/// (all zero) with tracing disabled.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Events in the deterministic stream.
    pub logical_events: u64,
    /// Events in the wall-clock annotation channel.
    pub timing_events: u64,
    /// Order-sensitive fold hash of the logical stream text (0 when no
    /// trace was recorded).
    pub logical_hash: u64,
}

impl TelemetryReport {
    /// Summarizes the recorded trace, if tracing was on.
    pub fn from_trace(trace: Option<&RunTrace>) -> TelemetryReport {
        let Some(trace) = trace else {
            return TelemetryReport::default();
        };
        let (logical_events, timing_events) = trace.counts();
        TelemetryReport {
            logical_events,
            timing_events,
            logical_hash: trace.logical_hash(),
        }
    }
}

/// Interior state behind a live tracer.
#[derive(Debug)]
struct Sink {
    events: VecDeque<TraceEvent>,
    /// Flight-recorder bound: `Some(n)` keeps only the last `n` events
    /// (oldest are dropped; `seq`/`lseq` keep counting so the retained
    /// tail is still globally positioned). `None` is unbounded.
    ring_capacity: Option<usize>,
    /// Events discarded by the ring so far.
    dropped: u64,
    seq: u64,
    lseq: u64,
    clock: WallClock,
}

/// A cheap-to-clone recording handle. The default tracer is disabled
/// and every emit is a no-op costing one branch, so instrumented code
/// paths stay free when tracing is off; [`Tracer::new`] turns recording
/// on. Clones share one sink, which is how the evaluator, the edge
/// cluster, and the orchestrators all feed a single stream.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<Sink>>>,
}

impl Tracer {
    /// A live tracer recording into a fresh sink (wall epoch = now).
    pub fn new() -> Tracer {
        Tracer {
            inner: Some(Arc::new(Mutex::new(Sink {
                events: VecDeque::new(),
                ring_capacity: None,
                dropped: 0,
                seq: 0,
                lseq: 0,
                clock: WallClock::start(),
            }))),
        }
    }

    /// A live tracer in flight-recorder mode: only the last `capacity`
    /// events are kept in memory (oldest dropped, `capacity` clamped to
    /// at least 1). `seq`/`lseq` assignment and the wall epoch
    /// behave exactly as in [`Tracer::new`], so the retained tail reads
    /// like the end of an unbounded trace — the logical stream text of
    /// the tail is a suffix of the full run's.
    pub fn with_ring(capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Mutex::new(Sink {
                events: VecDeque::with_capacity(capacity.clamp(1, 65_536)),
                ring_capacity: Some(capacity.max(1)),
                dropped: 0,
                seq: 0,
                lseq: 0,
                clock: WallClock::start(),
            }))),
        }
    }

    /// The no-op handle (same as `Tracer::default()`).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Whether emits are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event: assigns `seq` (and `lseq` for Logical
    /// events) and stamps Timing events with the wall clock. No-op when
    /// disabled; `fill` never runs in that case.
    pub fn emit(&self, class: Determinism, kind: EventKind, fill: impl FnOnce(&mut TraceEvent)) {
        let Some(inner) = &self.inner else { return };
        let Ok(mut sink) = inner.lock() else { return };
        let mut ev = TraceEvent::base(class, kind);
        fill(&mut ev);
        ev.seq = sink.seq;
        sink.seq += 1;
        if class == Determinism::Logical {
            ev.lseq = Some(sink.lseq);
            sink.lseq += 1;
        } else if ev.wall_us.is_none() {
            ev.wall_us = Some(sink.clock.elapsed_us());
        }
        sink.events.push_back(ev);
        if let Some(cap) = sink.ring_capacity {
            while sink.events.len() > cap {
                sink.events.pop_front();
                sink.dropped += 1;
            }
        }
    }

    /// Shorthand for a Logical emit.
    pub fn logical(&self, kind: EventKind, fill: impl FnOnce(&mut TraceEvent)) {
        self.emit(Determinism::Logical, kind, fill);
    }

    /// Shorthand for a Timing emit.
    pub fn timing(&self, kind: EventKind, fill: impl FnOnce(&mut TraceEvent)) {
        self.emit(Determinism::Timing, kind, fill);
    }

    /// Events the flight-recorder ring has discarded so far (always 0
    /// for unbounded tracers and when disabled).
    pub fn ring_dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => match inner.lock() {
                Ok(sink) => sink.dropped,
                Err(_) => 0,
            },
            None => 0,
        }
    }

    /// Drains everything recorded so far into a [`RunTrace`], leaving
    /// the tracer running with empty buffers. `None` when disabled.
    pub fn finish(&self) -> Option<RunTrace> {
        let inner = self.inner.as_ref()?;
        let mut sink = inner.lock().ok()?;
        Some(RunTrace {
            events: std::mem::take(&mut sink.events).into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.logical(EventKind::RunStart, |e| e.seed = Some(1));
        assert!(!t.is_enabled());
        assert!(t.finish().is_none());
    }

    #[test]
    fn sequences_and_classes_are_assigned() {
        let t = Tracer::new();
        t.logical(EventKind::RunStart, |e| e.seed = Some(7));
        t.timing(EventKind::GatherRound, |e| e.dur_us = Some(10));
        t.logical(EventKind::RunEnd, |_| {});
        let trace = t.finish().unwrap();
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.events[0].lseq, Some(0));
        assert_eq!(trace.events[1].lseq, None);
        assert!(trace.events[1].wall_us.is_some());
        assert_eq!(trace.events[2].lseq, Some(1));
        assert_eq!(trace.counts(), (2, 1));
    }

    #[test]
    fn logical_text_excludes_timing_events() {
        let t = Tracer::new();
        t.logical(EventKind::GenerationStart, |e| e.generation = Some(0));
        t.timing(EventKind::Retransmission, |e| {
            e.agent = Some(1);
            e.bytes = Some(512);
        });
        let trace = t.finish().unwrap();
        let text = trace.logical_text();
        assert_eq!(text, "l=0 k=gen_start gen=0\n");
        assert_ne!(trace.logical_hash(), LOGICAL_HASH_SEED);
    }

    #[test]
    fn ring_keeps_the_last_n_events_with_global_positions() {
        let t = Tracer::with_ring(3);
        for g in 0..10u64 {
            t.logical(EventKind::EvalResult, |e| {
                e.genome = Some(g);
                e.fitness_bits = Some(g);
            });
        }
        assert_eq!(t.ring_dropped(), 7);
        let trace = t.finish().unwrap();
        assert_eq!(trace.events.len(), 3);
        // seq/lseq keep counting across drops: the tail is globally
        // positioned exactly as in an unbounded trace.
        assert_eq!(trace.events[0].seq, 7);
        assert_eq!(trace.events[0].lseq, Some(7));
        assert_eq!(trace.events[2].seq, 9);
        assert_eq!(trace.events[2].genome, Some(9));
        assert_eq!(t.ring_dropped(), 7, "draining keeps the drop count");
        let evals = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::EvalResult)
            .count();
        assert_eq!(evals, 3, "the ring keeps only the tail's evals");
    }

    #[test]
    fn ring_tail_is_a_suffix_of_the_unbounded_logical_stream() {
        let full = Tracer::new();
        let ring = Tracer::with_ring(4);
        for t in [&full, &ring] {
            t.logical(EventKind::RunStart, |e| e.seed = Some(3));
            for g in 0..8u64 {
                t.logical(EventKind::EvalResult, |e| e.genome = Some(g));
            }
            t.logical(EventKind::RunEnd, |_| {});
        }
        let full_text = full.finish().unwrap().logical_text();
        let tail_text = ring.finish().unwrap().logical_text();
        assert!(full_text.ends_with(&tail_text));
        assert_eq!(tail_text.lines().count(), 4);
    }

    #[test]
    fn ring_capacity_zero_is_clamped_to_one() {
        let t = Tracer::with_ring(0);
        t.logical(EventKind::RunStart, |_| {});
        t.logical(EventKind::RunEnd, |_| {});
        let trace = t.finish().unwrap();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].kind, EventKind::RunEnd);
    }

    #[test]
    fn finish_drains_but_keeps_recording() {
        let t = Tracer::new();
        t.logical(EventKind::RunStart, |_| {});
        assert_eq!(t.finish().unwrap().events.len(), 1);
        t.logical(EventKind::RunEnd, |_| {});
        let again = t.finish().unwrap();
        assert_eq!(again.events.len(), 1);
        assert_eq!(again.events[0].kind, EventKind::RunEnd);
    }

    #[test]
    fn no_trace_makes_an_empty_report() {
        let t = TelemetryReport::from_trace(None);
        assert_eq!((t.logical_events, t.timing_events), (0, 0));
        assert_eq!(t, TelemetryReport::default());
    }
}
