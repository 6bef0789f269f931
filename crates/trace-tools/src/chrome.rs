//! `clan-trace chrome`: a trace rendered as Chrome trace-event JSON, one
//! track per agent plus a coordinator track, loadable in Perfetto or
//! `chrome://tracing`.

use crate::{agent_count, TooManyAgents};
use clan_core::telemetry::TraceEvent;

/// One record of a Chrome trace-event document: a track's name, a span
/// or an instant. Rendered, it also carries `pid` 0 (one process per
/// trace) and an instant's thread scope `s`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeEvent {
    /// Phase: `"M"` track name, `"X"` complete span, `"i"` instant.
    pub ph: &'static str,
    /// Timestamp (a span's start), microseconds.
    pub ts: u64,
    /// Track: one per agent, then the coordinator's.
    pub tid: u64,
    /// The event kind's label, or `thread_name` on an `"M"` record.
    pub name: &'static str,
    /// Span duration, microseconds (`"X"` records).
    pub dur: Option<u64>,
    /// The track's name (`"M"` records); `args.name` when rendered.
    pub track: Option<String>,
    /// The event's genome id; `args.genome`.
    pub genome: Option<u64>,
    /// The event's byte count; `args.bytes`.
    pub bytes: Option<u64>,
    /// The event's item count; `args.items`.
    pub items: Option<u64>,
}

/// The Chrome records of `events`: one named track per agent of
/// [`agent_count`], then the coordinator's (tid = the agent count), then
/// one record per event. Spans use wall-clock microseconds when the
/// event carries them (live runs) and virtual microseconds otherwise
/// (async virtual runs); events with neither clock (the purely logical
/// generation markers) are skipped.
///
/// # Errors
///
/// [`TooManyAgents`], from [`agent_count`].
pub fn records(events: &[TraceEvent]) -> Result<Vec<ChromeEvent>, TooManyAgents> {
    let coordinator = agent_count(events)?;
    let tracks = (0..=coordinator).map(|tid| ChromeEvent {
        ph: "M",
        tid,
        name: "thread_name",
        track: Some(match tid == coordinator {
            true => "coordinator".to_string(),
            false => format!("agent{tid}"),
        }),
        ..ChromeEvent::default()
    });
    let spans = events.iter().filter_map(|ev| {
        let end = ev.wall_us.or(ev.vtime_us)?;
        let dur = ev.dur_us.filter(|&d| d > 0);
        Some(ChromeEvent {
            ph: if dur.is_some() { "X" } else { "i" },
            // Durations are stamped at span end.
            ts: end.saturating_sub(dur.unwrap_or(0)),
            tid: ev.agent.unwrap_or(coordinator),
            name: ev.kind.label(),
            dur,
            track: None,
            genome: ev.genome,
            bytes: ev.bytes,
            items: ev.items,
        })
    });
    Ok(tracks.chain(spans).collect())
}

/// Renders records as a `{"traceEvents":[…]}` document. Every record
/// carries all of its keys, `null` where absent, and `args` is `null`
/// when all of its keys would be. Names are event labels and
/// `agentN`/`coordinator`, so no string needs escaping.
pub fn render(records: &[ChromeEvent]) -> String {
    let num = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    let text = |v: Option<&str>| v.map_or("null".to_string(), |v| format!("\"{v}\""));
    let body: Vec<String> = records
        .iter()
        .map(|r| {
            let args = match r.track.is_some() || r.genome.or(r.bytes).or(r.items).is_some() {
                true => format!(
                    "{{\"name\":{},\"genome\":{},\"bytes\":{},\"items\":{}}}",
                    text(r.track.as_deref()),
                    num(r.genome),
                    num(r.bytes),
                    num(r.items)
                ),
                false => "null".to_string(),
            };
            let s = text((r.ph == "i").then_some("t"));
            format!(
                "{{\"ph\":\"{}\",\"ts\":{},\"pid\":0,\"tid\":{},\"name\":\"{}\",\"dur\":{},\
                 \"s\":{s},\"args\":{args}}}",
                r.ph,
                r.ts,
                r.tid,
                r.name,
                num(r.dur)
            )
        })
        .collect();
    format!("{{\"traceEvents\":[{}]}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clan_core::telemetry::{Determinism, EventKind, Tracer};

    fn sample_trace() -> Vec<TraceEvent> {
        let t = Tracer::new();
        t.timing(EventKind::ClusterInfo, |e| e.items = Some(3));
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
        t.finish().unwrap().events
    }

    fn track_names(records: &[ChromeEvent]) -> Vec<&str> {
        records.iter().filter_map(|r| r.track.as_deref()).collect()
    }

    #[test]
    fn chrome_doc_parses_and_has_required_keys() {
        let records = records(&sample_trace()).unwrap();
        assert_eq!(
            track_names(&records),
            ["agent0", "agent1", "agent2", "coordinator"]
        );
        // The span landed on its agent's track with its duration.
        let span = records.iter().find(|r| r.ph == "X").expect("exchange span");
        assert_eq!((span.tid, span.dur, span.name), (1, Some(250), "exchange"));
        let json = render(&records);
        assert_eq!(json.matches("\"ph\":").count(), records.len());
        for key in ["ts", "pid", "tid", "name"] {
            assert_eq!(json.matches(&format!(",\"{key}\":")).count(), records.len());
        }
    }

    #[test]
    fn purely_logical_events_are_not_chrome_spans() {
        let records = records(&sample_trace()).unwrap();
        assert!(records.iter().all(|r| r.name != "gen_start"));
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
        let events = t.finish().unwrap().events;
        // No ClusterInfo (a postmortem ring dropped it): agents 0..=2.
        let json = render(&records(&events).unwrap());
        assert!(json.ends_with(
            "{\"ph\":\"X\",\"ts\":3000,\"pid\":0,\"tid\":2,\"name\":\"async\",\
             \"dur\":2000,\"s\":null,\"args\":{\"name\":null,\"genome\":9,\"bytes\":null,\
             \"items\":null}}]}"
        ));
        assert!(json.contains("\"tid\":3,\"name\":\"thread_name\""));
    }

    #[test]
    fn an_impossible_agent_count_is_an_error_not_a_hang() {
        let mut ev = TraceEvent::base(Determinism::Timing, EventKind::ClusterInfo);
        ev.items = Some(u64::MAX);
        assert_eq!(records(&[ev]), Err(TooManyAgents(u64::MAX)));
    }
}
