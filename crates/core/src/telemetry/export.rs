//! Trace exporters: JSONL (one machine-readable event per line) and
//! Chrome trace-event JSON (per-agent tracks, loadable in
//! `chrome://tracing` or Perfetto).

use super::event::{RunTrace, TraceEvent};
use serde::{Deserialize, Serialize};

/// Serializes a trace as JSONL: one compact JSON object per event, in
/// record order, newline terminated.
///
/// # Errors
///
/// Returns the shim serializer's error (infallible for well-formed
/// events; the `Result` mirrors `serde_json`).
pub fn to_jsonl(trace: &RunTrace) -> Result<String, serde_json::Error> {
    let mut out = String::new();
    for ev in &trace.events {
        out.push_str(&serde_json::to_string(ev)?);
        out.push('\n');
    }
    Ok(out)
}

/// Parses JSONL produced by [`to_jsonl`] back into events (blank lines
/// skipped).
///
/// # Errors
///
/// The first bad line's number (1-based) and its parse error.
pub fn from_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| serde_json::from_str(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// One record of a Chrome trace-event document, as emitted by
/// [`to_chrome_json`] — also the schema the exporter tests validate
/// against (`ph`/`ts`/`pid`/`tid`/`name` are required on every event).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChromeEvent {
    /// Event phase: `"M"` metadata, `"X"` complete span, `"i"` instant.
    pub ph: String,
    /// Timestamp, microseconds.
    pub ts: u64,
    /// Process id (always 0; one process per trace).
    pub pid: u64,
    /// Thread id = track: one per agent, plus a coordinator track.
    pub tid: u64,
    /// Event (or thread) name.
    pub name: String,
    /// Span duration, microseconds (`"X"` events).
    #[serde(default)]
    pub dur: Option<u64>,
    /// Instant scope (`"i"` events; `"t"` = thread).
    #[serde(default)]
    pub s: Option<String>,
    /// Extra payload.
    #[serde(default)]
    pub args: Option<ChromeArgs>,
}

/// The `args` payload of a Chrome event.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChromeArgs {
    /// Thread name (`"M"` metadata events).
    #[serde(default)]
    pub name: Option<String>,
    /// Genome id, when the event concerns one.
    #[serde(default)]
    pub genome: Option<u64>,
    /// Byte count (retransmission events).
    #[serde(default)]
    pub bytes: Option<u64>,
    /// Item count (reassignments).
    #[serde(default)]
    pub items: Option<u64>,
}

/// A parsed Chrome trace document (`{"traceEvents": [...]}`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChromeDoc {
    /// The flat event array.
    #[serde(rename = "traceEvents")]
    pub trace_events: Vec<ChromeEvent>,
}

impl ChromeDoc {
    /// Track (`thread_name` metadata) names, in emission order.
    pub fn track_names(&self) -> Vec<&str> {
        self.trace_events
            .iter()
            .filter(|e| e.ph == "M" && e.name == "thread_name")
            .filter_map(|e| e.args.as_ref().and_then(|a| a.name.as_deref()))
            .collect()
    }
}

/// Renders a trace as Chrome trace-event JSON with `n_agents` agent
/// tracks plus one coordinator track (tid = `n_agents`). Spans use
/// wall-clock microseconds when the event carries them (live runs) and
/// virtual microseconds otherwise (async virtual runs); events with
/// neither clock (the purely logical generation markers) are carried by
/// the JSONL exporter instead and are skipped here.
pub fn to_chrome_json(trace: &RunTrace, n_agents: usize) -> String {
    let coordinator_tid = n_agents as u64;
    let mut events: Vec<ChromeEvent> = Vec::new();
    for tid in 0..=coordinator_tid {
        let name = if tid == coordinator_tid {
            "coordinator".to_string()
        } else {
            format!("agent{tid}")
        };
        events.push(ChromeEvent {
            ph: "M".into(),
            ts: 0,
            pid: 0,
            tid,
            name: "thread_name".into(),
            dur: None,
            s: None,
            args: Some(ChromeArgs {
                name: Some(name),
                ..ChromeArgs::default()
            }),
        });
    }
    for ev in &trace.events {
        let Some(end) = ev.wall_us.or(ev.vtime_us) else {
            continue;
        };
        let tid = ev.agent.unwrap_or(coordinator_tid);
        let dur = ev.dur_us.unwrap_or(0);
        let args = (ev.genome.is_some() || ev.bytes.is_some() || ev.items.is_some()).then_some(
            ChromeArgs {
                name: None,
                genome: ev.genome,
                bytes: ev.bytes,
                items: ev.items,
            },
        );
        let (ph, ts, dur, s) = if dur > 0 {
            // Durations are stamped at span end; shift back to start.
            ("X", end.saturating_sub(dur), Some(dur), None)
        } else {
            ("i", end, None, Some("t".to_string()))
        };
        events.push(ChromeEvent {
            ph: ph.into(),
            ts,
            pid: 0,
            tid,
            name: ev.kind.label().into(),
            dur,
            s,
            args,
        });
    }
    let doc = ChromeDoc {
        trace_events: events,
    };
    serde_json::to_string(&doc).unwrap_or_else(|_| "{\"traceEvents\":[]}".into())
}

/// Parses (and thereby schema-validates) a Chrome trace document
/// produced by [`to_chrome_json`].
///
/// # Errors
///
/// Returns the shim parser's error when the text is not valid JSON or
/// an event lacks a required key.
pub fn parse_chrome_json(text: &str) -> Result<ChromeDoc, serde_json::Error> {
    serde_json::from_str(text)
}

/// Convenience check used by tests and smoke scripts: every event has
/// the required keys (guaranteed by parsing) and the document exposes
/// exactly `n_agents` agent tracks plus the coordinator.
pub fn chrome_tracks_match(doc: &ChromeDoc, n_agents: usize) -> bool {
    let tracks = doc.track_names();
    let agents = tracks
        .iter()
        .filter(|t| t.starts_with("agent") && t[5..].parse::<u64>().is_ok())
        .count();
    agents == n_agents && tracks.contains(&"coordinator")
}

#[cfg(test)]
mod tests {
    use super::super::event::{Determinism, EventKind, Tracer};
    use super::*;

    fn sample_trace() -> RunTrace {
        let t = Tracer::new();
        t.logical(EventKind::RunStart, |e| {
            e.seed = Some(13);
            e.label = Some("cartpole".into());
            e.population = Some(20);
        });
        t.logical(EventKind::GenerationStart, |e| e.generation = Some(0));
        t.logical(EventKind::EvalResult, |e| {
            e.genome = Some(0);
            e.fitness_bits = Some(0x3FF0_0000_0000_0000);
        });
        t.timing(EventKind::AgentExchange, |e| {
            e.agent = Some(1);
            e.dur_us = Some(250);
        });
        t.timing(EventKind::Retransmission, |e| {
            e.agent = Some(0);
            e.bytes = Some(768);
        });
        t.logical(EventKind::RunEnd, |_| {});
        t.finish().unwrap()
    }

    #[test]
    fn jsonl_round_trips_through_the_shim() {
        let trace = sample_trace();
        let text = to_jsonl(&trace).unwrap();
        assert_eq!(text.lines().count(), trace.events.len());
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, trace.events);
    }

    #[test]
    fn chrome_doc_parses_and_has_required_keys() {
        let trace = sample_trace();
        let json = to_chrome_json(&trace, 3);
        let doc = parse_chrome_json(&json).unwrap();
        assert!(chrome_tracks_match(&doc, 3), "{:?}", doc.track_names());
        // Parsing enforces ph/ts/pid/tid/name on every event; spot-check
        // the span landed on the right track with its duration.
        let span = doc
            .trace_events
            .iter()
            .find(|e| e.ph == "X")
            .expect("exchange span");
        assert_eq!(span.tid, 1);
        assert_eq!(span.dur, Some(250));
        assert_eq!(span.name, "exchange");
    }

    #[test]
    fn purely_logical_events_are_not_chrome_spans() {
        let trace = sample_trace();
        let doc = parse_chrome_json(&to_chrome_json(&trace, 2)).unwrap();
        assert!(doc.trace_events.iter().all(|e| e.name != "gen_start"));
    }

    #[test]
    fn virtual_completions_use_vtime() {
        let t = Tracer::new();
        t.emit(Determinism::Logical, EventKind::Completion, |e| {
            e.aseq = Some(0);
            e.vtime_us = Some(5_000);
            e.dur_us = Some(2_000);
            e.agent = Some(2);
            e.genome = Some(9);
            e.fitness_bits = Some(0);
        });
        let doc = parse_chrome_json(&to_chrome_json(&t.finish().unwrap(), 3)).unwrap();
        let span = doc.trace_events.iter().find(|e| e.ph == "X").unwrap();
        assert_eq!((span.ts, span.dur, span.tid), (3_000, Some(2_000), 2));
    }
}
