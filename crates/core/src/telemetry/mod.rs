//! Unified deterministic run tracing: a structured event stream and its
//! exporters, shared by every execution mode. The tracer records events
//! and nothing else; the run's counts and totals live in its own
//! accounting (the per-agent rows, `GatherStats`, the ledger), which is
//! what the report and the live `/metrics` endpoint read.
//!
//! # The two-clock design
//!
//! A run observes two different notions of time and this module keeps
//! them strictly apart:
//!
//! - **Logical time** — generation indices, the id-ordered evaluation
//!   replay, and (in async virtual runs) virtual microseconds. Events
//!   on this clock form the *deterministic stream*: for a given seed it
//!   is byte-identical whether inference ran serially, over loopback
//!   TCP, over 20%-lossy UDP, or through a churn schedule, because it
//!   is emitted from the same replay loops that pin fitness
//!   equivalence. [`RunTrace::logical_text`] serializes exactly this
//!   stream, so two runs can be `diff`ed across transports as a
//!   debugging tool.
//! - **Wall-clock time** — per-link waits, gather makespans,
//!   retransmissions, churn transitions. These are recorded as
//!   [`Determinism::Timing`] events in a separate annotation channel
//!   that never contaminates the logical stream, and every wall
//!   timestamp is captured in [`clock`] (the one module this crate's
//!   `clippy.toml` lets call `Instant::now` for a trace).
//!
//! The [`Tracer`] is a cheap-clonable handle that is a no-op until
//! enabled, so instrumented hot paths cost one branch when tracing is
//! off. The driver installs one tracer per run; the evaluator, the
//! edge runtime, and the orchestrators all record into it, and the
//! result is exported as JSONL ([`to_jsonl`]), the trace's one file
//! format; `clan-trace chrome` renders a JSONL file as per-agent tracks
//! for Perfetto.

pub mod clock;
mod event;
mod export;

pub use event::{Determinism, EventKind, RunTrace, TelemetryReport, TraceEvent, Tracer};
pub use export::{from_jsonl, to_jsonl};
