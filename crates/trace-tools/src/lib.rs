//! # clan-trace-tools — offline trace intelligence for CLAN runs
//!
//! The runtime's two-channel tracer records everything needed to audit a
//! run after the fact: the deterministic **Logical** stream (byte-stable
//! per seed across execution surfaces) and the wall-stamped **Timing**
//! stream (spans, retransmissions, churn). This crate turns those JSONL
//! files into answers:
//!
//! - [`analyze`](analyze::analyze) — reconstructs per-round critical
//!   paths (or async steady-state utilization), ranks stragglers with
//!   slowdown factors, attributes retransmission/recovery overhead, and
//!   totals wasted idle time with the same definitions `AsyncStats`
//!   uses, so the numbers cross-check against the run's own summary.
//! - [`diff`](diff::diff) — compares the Logical streams of two traces
//!   and pinpoints the **first** divergent event with human framing
//!   ("gen 7, eval of genome 1234, fitness 0x…"), ignoring Timing noise.
//! - `summarize` (CLI) — the per-agent utilization table alone.
//! - [`chrome`](chrome::records) — the trace as Chrome trace-event
//!   JSON, one track per agent plus the coordinator's, for Perfetto.
//!
//! Events are `clan_core::telemetry::TraceEvent` itself, read back by
//! the same `serde_json` that wrote them, so reader and writer share one
//! schema; `u64` fitness bits stay exact (never through an `f64`).
//!
//! The `clan-trace` binary fronts all four verbs; exit codes are 0
//! clean/identical, 1 findings/divergence, 2 usage.

pub mod analyze;
pub mod chrome;
pub mod diff;
pub mod event;

pub use analyze::{Analysis, AnalysisMode};
pub use diff::{diff as diff_events, DiffOutcome};

use clan_core::telemetry::{from_jsonl, EventKind, TraceEvent};

/// Parses a trace file from disk.
///
/// # Errors
///
/// IO failure or the first malformed line (1-based) with its parse
/// error.
pub fn load_trace(path: &str) -> Result<Vec<TraceEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs the analyzer over a trace file.
///
/// # Errors
///
/// Propagates [`load_trace`] failures, and [`TooManyAgents`].
pub fn analyze_file(path: &str) -> Result<Analysis, String> {
    analyze::analyze(&load_trace(path)?).map_err(|e| format!("{path}: {e}"))
}

/// Diffs the logical streams of two trace files.
///
/// # Errors
///
/// Propagates [`load_trace`] failures.
pub fn diff_files(left: &str, right: &str) -> Result<DiffOutcome, String> {
    Ok(diff::diff(&load_trace(left)?, &load_trace(right)?))
}

/// Renders a trace file as a Chrome trace-event file, whole before any
/// of it is written, and returns its agent count.
///
/// # Errors
///
/// Propagates [`load_trace`] failures and [`TooManyAgents`]; IO failure
/// writing `output`.
pub fn chrome_file(input: &str, output: &str) -> Result<u64, String> {
    let events = load_trace(input)?;
    let corrupt = |e: TooManyAgents| format!("{input}: {e}");
    let agents = agent_count(&events).map_err(corrupt)?;
    let records = chrome::records(&events).map_err(corrupt)?;
    std::fs::write(output, chrome::render(&records)).map_err(|e| format!("{output}: {e}"))?;
    Ok(agents)
}

/// More agents than any traced cluster has: a trace that counts or names
/// more is corrupt, and a per-agent table or track list sized from it
/// would never finish.
pub const MAX_AGENTS: u64 = 1 << 16;

/// A trace that counts, or names by id, more than [`MAX_AGENTS`] agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyAgents(pub u64);

impl std::fmt::Display for TooManyAgents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} agents: more than the {MAX_AGENTS} a trace can name",
            self.0
        )
    }
}

/// Agents in the traced cluster: the last `ClusterInfo` event's count,
/// else (a `--trace-ring` postmortem that dropped that event) one more
/// than the highest agent id any event names.
///
/// # Errors
///
/// [`TooManyAgents`] when that count, or one more than the highest agent
/// id any event names, is above [`MAX_AGENTS`].
pub fn agent_count(events: &[TraceEvent]) -> Result<u64, TooManyAgents> {
    let recorded = events
        .iter()
        .rev()
        .find_map(|e| e.items.filter(|_| e.kind == EventKind::ClusterInfo));
    let highest = events.iter().filter_map(|e| e.agent).max();
    let named = highest.map_or(0, |a| a.saturating_add(1));
    let count = recorded.unwrap_or(named);
    match count.max(named) {
        n if n > MAX_AGENTS => Err(TooManyAgents(n)),
        _ => Ok(count),
    }
}
