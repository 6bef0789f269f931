//! The trace's one file format: JSONL, one machine-readable event per
//! line. `clan-trace chrome` renders such a file for Perfetto.

use super::event::{RunTrace, TraceEvent};

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

#[cfg(test)]
mod tests {
    use super::super::event::{EventKind, Tracer};
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
}
