//! The typed metrics registry and the unified per-agent report section.
//!
//! Counters, gauges, and fixed-bound histograms accumulate alongside
//! the event stream; [`TelemetryReport`] is the serialized summary that
//! lands on `RunReport.telemetry`, absorbing the per-agent wire /
//! retransmission / recovery / streaming numbers that used to be spread
//! over ad-hoc listings into one aligned table.

use crate::membership::RecoveryStats;
use crate::runtime::GatherStats;
use clan_netsim::CommLedger;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use super::event::RunTrace;

/// Fixed bucket upper bounds (seconds) for duration histograms. Fixed
/// so histograms from different runs are always mergeable/comparable.
pub const DURATION_BOUNDS_S: [f64; 8] = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

/// A histogram with fixed bucket bounds: `counts[i]` counts samples
/// `<= bounds[i]`, with one overflow bucket at the end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Bucket upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket sample counts (`bounds.len() + 1` entries; the last
    /// is the overflow bucket).
    pub counts: Vec<u64>,
    /// Total samples observed.
    pub total: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl Histogram {
    /// An empty histogram over the given ascending bounds.
    pub fn with_bounds(bounds: &[f64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
    }

    /// Mean of observed samples (0.0 when empty — never NaN).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::with_bounds(&DURATION_BOUNDS_S)
    }
}

/// Counters, gauges, and histograms keyed by name (BTreeMap: stable,
/// deterministic iteration for serialization and diffing).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins values.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bound histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Adds `by` to the named counter (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records a duration sample into the named histogram (created with
    /// [`DURATION_BOUNDS_S`] on first use).
    pub fn observe_duration(&mut self, name: &str, seconds: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(seconds);
    }

    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4), as served by the live `/metrics` endpoint.
    ///
    /// Names are prefixed `clan_` and sanitized (`.` and any other
    /// non-`[a-zA-Z0-9_]` become `_`); counters get the conventional
    /// `_total` suffix, histograms render cumulative `_bucket{le="…"}`
    /// series ending in `le="+Inf"` plus `_sum`/`_count`. BTreeMap
    /// iteration keeps the exposition deterministic for a given
    /// registry state.
    pub fn prometheus_text(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 5);
            out.push_str("clan_");
            for c in name.chars() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        fn fmt_f64(v: f64) -> String {
            if v == v.trunc() && v.abs() < 1e15 {
                format!("{v:.0}")
            } else {
                format!("{v}")
            }
        }
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n}_total counter\n{n}_total {value}\n"));
        }
        for (name, value) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", fmt_f64(*value)));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            for (bound, count) in h.bounds.iter().zip(&h.counts) {
                cumulative += count;
                out.push_str(&format!(
                    "{n}_bucket{{le=\"{}\"}} {cumulative}\n",
                    fmt_f64(*bound)
                ));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.total));
            out.push_str(&format!("{n}_sum {}\n", fmt_f64(h.sum)));
            out.push_str(&format!("{n}_count {}\n", h.total));
        }
        out
    }
}

/// One agent's row in the unified per-agent table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AgentRow {
    /// Link slot index.
    pub agent: u64,
    /// Messages exchanged with this agent (measured transport).
    pub messages: u64,
    /// Measured wire bytes to/from this agent.
    pub wire_bytes: u64,
    /// Loss-recovery overhead bytes attributed to this agent.
    pub retrans_bytes: u64,
    /// Churn-class failures recorded against this agent.
    pub failures: u64,
    /// Streaming completions served by this agent (async runs).
    pub completions: u64,
    /// Streaming busy seconds (request in flight; async runs).
    pub busy_s: f64,
}

/// The `RunReport.telemetry` section: event-stream accounting plus the
/// unified per-agent table. Default (all zero / empty) for runs
/// recorded before this section existed or with tracing disabled.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Events in the deterministic stream.
    pub logical_events: u64,
    /// Events in the wall-clock annotation channel.
    pub timing_events: u64,
    /// Order-sensitive fold hash of the logical stream text (0 when no
    /// trace was recorded).
    pub logical_hash: u64,
    /// Counters/gauges/histograms accumulated while recording.
    pub metrics: MetricsRegistry,
    /// Per-agent wire/retrans/recovery/streaming numbers, unified.
    pub per_agent: Vec<AgentRow>,
}

impl TelemetryReport {
    /// Assembles the section from whatever sources the run produced:
    /// the recorded trace (if tracing was on), the measured transport
    /// ledger, recovery accounting, and streaming stats (async runs).
    pub fn from_sources(
        trace: Option<&RunTrace>,
        ledger: Option<&CommLedger>,
        recovery: Option<&RecoveryStats>,
        stream: Option<&GatherStats>,
    ) -> TelemetryReport {
        let mut out = TelemetryReport::default();
        if let Some(trace) = trace {
            let (logical, timing) = trace.counts();
            out.logical_events = logical;
            out.timing_events = timing;
            out.logical_hash = trace.logical_hash();
            out.metrics = trace.metrics.clone();
        }
        let n = [
            ledger.map_or(0, |l| l.agent_entries().len()),
            recovery.map_or(0, |r| r.agent_failures.len()),
            stream.map_or(0, |s| s.per_agent_items.len()),
        ]
        .into_iter()
        .max()
        .unwrap_or(0);
        for i in 0..n {
            let mut row = AgentRow {
                agent: i as u64,
                ..AgentRow::default()
            };
            if let Some(entry) = ledger.and_then(|l| l.agent_entries().get(i)) {
                row.messages = entry.messages;
                row.wire_bytes = entry.wire_bytes;
                row.retrans_bytes = entry.retrans_wire_bytes;
            }
            if let Some(r) = recovery {
                row.failures = r.agent_failures.get(i).copied().unwrap_or(0);
            }
            if let Some(s) = stream {
                row.completions = s.per_agent_items.get(i).copied().unwrap_or(0);
                row.busy_s = s.per_agent_busy_s.get(i).copied().unwrap_or(0.0);
            }
            out.per_agent.push(row);
        }
        out
    }

    /// The unified per-agent table, rendered with the report's aligned
    /// text-table style. Empty string when there are no agent rows.
    pub fn agent_table(&self) -> String {
        if self.per_agent.is_empty() {
            return String::new();
        }
        let has_stream = self.per_agent.iter().any(|r| r.completions > 0);
        let mut headers = vec!["agent", "msgs", "wire KiB", "retrans KiB", "fails"];
        if has_stream {
            headers.push("evals");
            headers.push("busy s");
        }
        let rows: Vec<Vec<String>> = self
            .per_agent
            .iter()
            .map(|r| {
                let mut row = vec![
                    r.agent.to_string(),
                    r.messages.to_string(),
                    format!("{:.1}", r.wire_bytes as f64 / 1024.0),
                    format!("{:.1}", r.retrans_bytes as f64 / 1024.0),
                    r.failures.to_string(),
                ];
                if has_stream {
                    row.push(r.completions.to_string());
                    row.push(format!("{:.3}", r.busy_s));
                }
                row
            })
            .collect();
        crate::report::text_table(&headers, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = Histogram::with_bounds(&[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.total, 3);
        assert!((h.mean() - 5.55 / 3.0).abs() < 1e-12);
        assert_eq!(Histogram::default().mean(), 0.0, "empty mean is 0, not NaN");
    }

    #[test]
    fn registry_counts_and_observes() {
        let mut m = MetricsRegistry::default();
        m.inc("events.eval", 3);
        m.inc("events.eval", 2);
        m.observe_duration("dur_s.gather", 0.02);
        m.set_gauge("overlap", 3.5);
        assert_eq!(m.counter("events.eval"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.histograms["dur_s.gather"].total, 1);
        assert_eq!(m.gauges["overlap"], 3.5);
    }

    #[test]
    fn prometheus_exposition_renders_all_three_families() {
        let mut m = MetricsRegistry::default();
        m.inc("events.eval", 12);
        m.set_gauge("progress.best_fitness", 42.5);
        m.observe_duration("dur_s.gather", 0.02);
        m.observe_duration("dur_s.gather", 2.0);
        let text = m.prometheus_text();
        assert!(text.contains("# TYPE clan_events_eval_total counter\n"));
        assert!(text.contains("clan_events_eval_total 12\n"));
        assert!(text.contains("clan_progress_best_fitness 42.5\n"));
        assert!(text.contains("# TYPE clan_dur_s_gather histogram\n"));
        // Buckets are cumulative: the 0.02 sample lands in le="0.01"'s
        // successor, so le="0.1" and every later bound count it.
        assert!(text.contains("clan_dur_s_gather_bucket{le=\"0.1\"} 1\n"));
        assert!(text.contains("clan_dur_s_gather_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("clan_dur_s_gather_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("clan_dur_s_gather_count 2\n"));
        assert!(text.contains("clan_dur_s_gather_sum 2.02\n"));
        // Every non-comment line is "name[{labels}] value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "bad line: {line}");
        }
    }

    #[test]
    fn empty_sources_make_empty_report() {
        let t = TelemetryReport::from_sources(None, None, None, None);
        assert_eq!((t.logical_events, t.timing_events), (0, 0));
        assert!(t.per_agent.is_empty());
        assert_eq!(t.agent_table(), "");
    }

    #[test]
    fn stream_columns_appear_only_for_streaming_runs() {
        let stream = GatherStats {
            per_agent_items: vec![3, 2],
            per_agent_busy_s: vec![0.5, 0.25],
            ..GatherStats::default()
        };
        let t = TelemetryReport::from_sources(None, None, None, Some(&stream));
        assert_eq!(t.per_agent.len(), 2);
        let table = t.agent_table();
        assert!(table.contains("evals"), "{table}");
        let no_stream = TelemetryReport::from_sources(None, None, None, None);
        assert!(!no_stream.agent_table().contains("evals"));
    }
}
