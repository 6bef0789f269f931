//! Critical-path and straggler analysis over a recorded trace.
//!
//! Two execution shapes are recognized automatically:
//!
//! - **Round-based** (the synchronous orchestrators): Timing
//!   `AgentExchange` spans grouped into scatter/gather rounds by the
//!   `GatherRound` markers. A link's busy time in a round is the sum of
//!   its spans (it pulls several runs), and the round's critical path is
//!   the link with the largest sum; per-agent idle is the gap between a
//!   link's own busy time and the round makespan it had to sit through.
//! - **Steady-state** (async modes): `Completion` spans per agent under
//!   virtual (or wall) time. The totals use the same definitions as
//!   `AsyncStats` — makespan = latest completion time, busy = summed
//!   service spans, wasted idle = `agents × makespan − busy` — so the
//!   report cross-checks against the run's own summary.

use crate::{agent_count, TooManyAgents};
use clan_core::telemetry::{Determinism, EventKind, TraceEvent};

/// How the trace's time accounting was reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisMode {
    /// Scatter/gather rounds from Timing spans.
    Rounds,
    /// Async steady-state completions (virtual or wall time).
    SteadyState,
    /// No span-bearing events found.
    Empty,
}

/// Per-agent accounting over the whole trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AgentStat {
    /// Agent slot.
    pub agent: u64,
    /// Spans attributed to the agent (exchanges or completions).
    pub spans: u64,
    /// Summed span time, microseconds.
    pub busy_us: u64,
    /// Mean span, microseconds (0 when no spans).
    pub mean_us: f64,
    /// Rounds in which this agent was the critical path (round mode).
    pub critical_rounds: u64,
    /// Loss-recovery overhead bytes attributed to the agent.
    pub retrans_bytes: u64,
    /// Churn-class failures recorded against the agent.
    pub failures: u64,
    /// Mean-span slowdown vs the fastest agent (1.0 = fastest).
    pub slowdown: f64,
}

/// One scatter/gather round (round mode only).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundStat {
    /// Round index in trace order.
    pub round: u64,
    /// Measured round makespan, microseconds.
    pub makespan_us: u64,
    /// Summed per-link busy time in the round, microseconds.
    pub busy_us: u64,
    /// The agent the round waited on: the largest summed busy time.
    pub critical_agent: Option<u64>,
    /// The critical agent's summed busy time in the round, microseconds.
    pub critical_span_us: u64,
}

/// Churn/recovery event counts over the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounts {
    /// `AgentFailure` events.
    pub failures: u64,
    /// `ChunkReassigned` events: runs a failed link held, re-queued.
    pub reassigns: u64,
    /// Work items inside those runs.
    pub reassigned_items: u64,
    /// `AgentKilled` events.
    pub kills: u64,
    /// `AgentRevived` events.
    pub revives: u64,
    /// `AgentJoined` events.
    pub joins: u64,
}

/// The full analysis result; [`Analysis::render`] is the CLI report.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Reconstruction mode.
    pub mode: AnalysisMode,
    /// Events in the trace (logical, timing).
    pub counts: (u64, u64),
    /// Agents in the cluster ([`agent_count`]).
    pub n_agents: u64,
    /// Per-agent accounting, by slot.
    pub agents: Vec<AgentStat>,
    /// Per-round accounting (round mode only).
    pub rounds: Vec<RoundStat>,
    /// Total makespan, microseconds (summed round makespans in round
    /// mode; latest completion time in steady-state mode).
    pub makespan_us: u64,
    /// Total busy time across agents, microseconds.
    pub busy_us: u64,
    /// `n_agents × makespan − busy`, clamped at 0 — the `AsyncStats`
    /// wasted-idle definition.
    pub wasted_idle_us: u64,
    /// Total retransmission overhead bytes.
    pub retrans_bytes: u64,
    /// Churn/recovery counts.
    pub recovery: RecoveryCounts,
    /// The critical-path straggler: most critical rounds (round mode)
    /// or slowest mean span (steady-state), when any spans exist.
    pub straggler: Option<u64>,
}

fn agent_slot(stats: &mut Vec<AgentStat>, agent: u64) -> &mut AgentStat {
    let idx = agent as usize;
    if stats.len() <= idx {
        for a in stats.len()..=idx {
            stats.push(AgentStat {
                agent: a as u64,
                ..AgentStat::default()
            });
        }
    }
    &mut stats[idx]
}

/// Analyzes a parsed trace. Events must be in record order (as written
/// by the JSONL exporter).
///
/// # Errors
///
/// [`TooManyAgents`], from [`agent_count`], before any per-agent row is
/// allocated.
pub fn analyze(events: &[TraceEvent]) -> Result<Analysis, TooManyAgents> {
    let n_agents = agent_count(events)?;
    let logical = events
        .iter()
        .filter(|e| e.class == Determinism::Logical)
        .count() as u64;
    let counts = (logical, events.len() as u64 - logical);
    let mut agents: Vec<AgentStat> = Vec::new();
    let mut rounds: Vec<RoundStat> = Vec::new();
    let mut recovery = RecoveryCounts::default();
    let mut retrans_bytes = 0u64;

    // Spans of the round currently being gathered: (agent, dur_us).
    let mut open_round: Vec<(u64, u64)> = Vec::new();
    let mut steady_makespan_us = 0u64;
    let mut has_completion_spans = false;

    for ev in events {
        match ev.kind {
            EventKind::AgentExchange => {
                if let (Some(agent), Some(dur)) = (ev.agent, ev.dur_us) {
                    open_round.push((agent, dur));
                    let slot = agent_slot(&mut agents, agent);
                    slot.spans += 1;
                    slot.busy_us += dur;
                }
            }
            EventKind::GatherRound => {
                let makespan_us = ev.dur_us.unwrap_or(0);
                let busy_us = open_round.iter().map(|(_, d)| d).sum();
                let mut per_link: Vec<(u64, u64)> = Vec::new();
                for &(agent, dur) in &open_round {
                    match per_link.iter_mut().find(|(a, _)| *a == agent) {
                        Some((_, sum)) => *sum += dur,
                        None => per_link.push((agent, dur)),
                    }
                }
                let critical = per_link.into_iter().max_by_key(|&(a, d)| (d, a));
                if let Some((agent, _)) = critical {
                    agent_slot(&mut agents, agent).critical_rounds += 1;
                }
                rounds.push(RoundStat {
                    round: rounds.len() as u64,
                    makespan_us,
                    busy_us,
                    critical_agent: critical.map(|(a, _)| a),
                    critical_span_us: critical.map_or(0, |(_, d)| d),
                });
                open_round.clear();
            }
            EventKind::Completion => {
                if let (Some(agent), Some(dur)) = (ev.agent, ev.dur_us) {
                    has_completion_spans = true;
                    let slot = agent_slot(&mut agents, agent);
                    slot.spans += 1;
                    slot.busy_us += dur;
                }
                if let Some(t) = ev.vtime_us.or(ev.wall_us) {
                    steady_makespan_us = steady_makespan_us.max(t);
                }
            }
            EventKind::Retransmission => {
                let bytes = ev.bytes.unwrap_or(0);
                retrans_bytes += bytes;
                if let Some(agent) = ev.agent {
                    agent_slot(&mut agents, agent).retrans_bytes += bytes;
                }
            }
            EventKind::AgentFailure => {
                recovery.failures += 1;
                if let Some(agent) = ev.agent {
                    agent_slot(&mut agents, agent).failures += 1;
                }
            }
            EventKind::ChunkReassigned => {
                recovery.reassigns += 1;
                recovery.reassigned_items += ev.items.unwrap_or(0);
            }
            EventKind::AgentKilled => recovery.kills += 1,
            EventKind::AgentRevived => recovery.revives += 1,
            EventKind::AgentJoined => recovery.joins += 1,
            _ => {}
        }
    }

    let mode = if !rounds.is_empty() {
        AnalysisMode::Rounds
    } else if has_completion_spans {
        AnalysisMode::SteadyState
    } else {
        AnalysisMode::Empty
    };
    let makespan_us = match mode {
        AnalysisMode::Rounds => rounds.iter().map(|r| r.makespan_us).sum(),
        AnalysisMode::SteadyState => steady_makespan_us,
        AnalysisMode::Empty => 0,
    };
    let busy_us: u64 = agents.iter().map(|a| a.busy_us).sum();
    let wasted_idle_us = n_agents.saturating_mul(makespan_us).saturating_sub(busy_us);

    for a in &mut agents {
        a.mean_us = if a.spans == 0 {
            0.0
        } else {
            a.busy_us as f64 / a.spans as f64
        };
    }
    let fastest_mean = agents
        .iter()
        .filter(|a| a.spans > 0)
        .map(|a| a.mean_us)
        .fold(f64::INFINITY, f64::min);
    for a in &mut agents {
        a.slowdown = if a.spans == 0 || !fastest_mean.is_finite() || fastest_mean <= 0.0 {
            0.0
        } else {
            a.mean_us / fastest_mean
        };
    }
    let straggler = match mode {
        AnalysisMode::Rounds => agents
            .iter()
            .filter(|a| a.spans > 0)
            .max_by(|x, y| {
                (x.critical_rounds, x.mean_us)
                    .partial_cmp(&(y.critical_rounds, y.mean_us))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|a| a.agent),
        AnalysisMode::SteadyState => agents
            .iter()
            .filter(|a| a.spans > 0)
            .max_by(|x, y| {
                x.mean_us
                    .partial_cmp(&y.mean_us)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|a| a.agent),
        AnalysisMode::Empty => None,
    };

    Ok(Analysis {
        mode,
        counts,
        n_agents,
        agents,
        rounds,
        makespan_us,
        busy_us,
        wasted_idle_us,
        retrans_bytes,
        recovery,
        straggler,
    })
}

fn seconds(us: u64) -> f64 {
    us as f64 / 1e6
}

impl Analysis {
    /// Renders the per-agent utilization table (the `summarize` verb's
    /// whole output, and part of the full `analyze` report).
    pub fn render_agent_table(&self) -> String {
        let mut out = String::from("per-agent:\n");
        out.push_str("  agent  spans  busy_s    mean_ms   critical  retrans_B  fails  slowdown\n");
        for a in &self.agents {
            out.push_str(&format!(
                "  {:<5}  {:<5}  {:<8.3}  {:<8.3}  {:<8}  {:<9}  {:<5}  {:.2}x\n",
                a.agent,
                a.spans,
                seconds(a.busy_us),
                a.mean_us / 1e3,
                a.critical_rounds,
                a.retrans_bytes,
                a.failures,
                a.slowdown,
            ));
        }
        out
    }

    /// Renders the `summarize` report: utilization header plus the
    /// per-agent table.
    pub fn render_summary(&self) -> String {
        if self.mode == AnalysisMode::Empty {
            return "no span-bearing events; nothing to summarize\n".to_string();
        }
        let mut out = format!(
            "agents: {}  makespan: {:.3}s  busy: {:.3}s  wasted idle: {:.3}s\n",
            self.n_agents,
            seconds(self.makespan_us),
            seconds(self.busy_us),
            seconds(self.wasted_idle_us),
        );
        out.push_str(&self.render_agent_table());
        out
    }

    /// Renders the human-readable `clan-trace analyze` report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "events: {} logical + {} timing\n",
            self.counts.0, self.counts.1
        ));
        match self.mode {
            AnalysisMode::Empty => {
                out.push_str("no span-bearing events; nothing to analyze\n");
                return out;
            }
            AnalysisMode::Rounds => out.push_str(&format!(
                "mode: scatter/gather rounds ({} rounds)\n",
                self.rounds.len()
            )),
            AnalysisMode::SteadyState => out.push_str("mode: async steady-state\n"),
        }
        out.push_str(&format!(
            "agents: {}  makespan: {:.3}s  busy: {:.3}s  wasted idle: {:.3}s ({:.1}% of capacity)\n",
            self.n_agents,
            seconds(self.makespan_us),
            seconds(self.busy_us),
            seconds(self.wasted_idle_us),
            if self.n_agents * self.makespan_us == 0 {
                0.0
            } else {
                100.0 * self.wasted_idle_us as f64 / (self.n_agents * self.makespan_us) as f64
            },
        ));
        out.push_str(&self.render_agent_table());
        if let Some(s) = self.straggler {
            let stat = &self.agents[s as usize];
            match self.mode {
                AnalysisMode::Rounds => out.push_str(&format!(
                    "critical-path straggler: agent {s} — critical in {}/{} rounds, \
                     mean span {:.3}ms, slowdown {:.2}x\n",
                    stat.critical_rounds,
                    self.rounds.len(),
                    stat.mean_us / 1e3,
                    stat.slowdown,
                )),
                AnalysisMode::SteadyState => out.push_str(&format!(
                    "critical-path straggler: agent {s} — mean service {:.3}ms, slowdown {:.2}x\n",
                    stat.mean_us / 1e3,
                    stat.slowdown,
                )),
                AnalysisMode::Empty => {}
            }
        }
        if self.retrans_bytes > 0 {
            out.push_str(&format!(
                "retransmission overhead: {} bytes\n",
                self.retrans_bytes
            ));
        }
        let r = &self.recovery;
        if r.failures + r.reassigns + r.kills + r.revives + r.joins > 0 {
            out.push_str(&format!(
                "recovery: {} failure(s), {} re-queued run(s) ({} item(s)), \
                 {} kill(s), {} revive(s), {} join(s)\n",
                r.failures, r.reassigns, r.reassigned_items, r.kills, r.revives, r.joins
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: EventKind, agent: Option<u64>, dur_us: u64) -> TraceEvent {
        let mut ev = TraceEvent::base(Determinism::Timing, kind);
        ev.agent = agent;
        ev.dur_us = Some(dur_us);
        ev
    }

    fn cluster_info(agents: u64) -> TraceEvent {
        let mut ev = TraceEvent::base(Determinism::Timing, EventKind::ClusterInfo);
        ev.items = Some(agents);
        ev
    }

    #[test]
    fn rounds_mode_finds_the_critical_agent() {
        let mut retrans = TraceEvent::base(Determinism::Timing, EventKind::Retransmission);
        retrans.agent = Some(1);
        retrans.bytes = Some(768);
        let events = [
            cluster_info(3),
            span(EventKind::AgentExchange, Some(0), 1000),
            span(EventKind::AgentExchange, Some(1), 4000),
            span(EventKind::AgentExchange, Some(2), 900),
            span(EventKind::GatherRound, None, 4200),
            span(EventKind::AgentExchange, Some(0), 1100),
            span(EventKind::AgentExchange, Some(1), 3900),
            span(EventKind::AgentExchange, Some(2), 1000),
            span(EventKind::GatherRound, None, 4100),
            retrans,
        ];
        let a = analyze(&events).unwrap();
        assert_eq!(a.mode, AnalysisMode::Rounds);
        assert_eq!(a.n_agents, 3);
        assert_eq!(a.rounds.len(), 2);
        assert_eq!(a.rounds[0].critical_agent, Some(1));
        assert_eq!(a.rounds[0].makespan_us, 4200);
        assert_eq!(a.straggler, Some(1));
        assert_eq!(a.agents[1].critical_rounds, 2);
        assert_eq!(a.makespan_us, 8300);
        assert_eq!(a.busy_us, 11_900);
        assert_eq!(a.wasted_idle_us, 3 * 8300 - 11_900);
        assert_eq!(a.retrans_bytes, 768);
        assert_eq!(a.agents[1].retrans_bytes, 768);
        // Slowdown vs fastest mean (agent 2: mean 950us): agent 1 mean
        // 3950us -> ~4.16x.
        assert!((a.agents[1].slowdown - 3950.0 / 950.0).abs() < 1e-9);
        let text = a.render();
        assert!(text.contains("critical-path straggler: agent 1"), "{text}");
    }

    #[test]
    fn a_rounds_critical_agent_has_the_largest_summed_busy_time() {
        // Agent 0 holds the longest single span, but agent 1 pulled three
        // runs and was busy longer: the round waited on agent 1.
        let events = [
            cluster_info(2),
            span(EventKind::AgentExchange, Some(0), 3000),
            span(EventKind::AgentExchange, Some(1), 1500),
            span(EventKind::AgentExchange, Some(1), 1500),
            span(EventKind::AgentExchange, Some(1), 1500),
            span(EventKind::GatherRound, None, 4600),
        ];
        let a = analyze(&events).unwrap();
        assert_eq!(a.rounds[0].critical_agent, Some(1));
        assert_eq!(a.rounds[0].critical_span_us, 4500);
        assert_eq!(a.rounds[0].busy_us, 7500);
        assert_eq!(a.straggler, Some(1));
        assert_eq!(a.agents[1].critical_rounds, 1);
    }

    #[test]
    fn steady_state_mode_matches_async_stats_definitions() {
        let completion = |agent: u64, vtime_us: u64, dur_us: u64| {
            let mut ev = span(EventKind::Completion, Some(agent), dur_us);
            ev.class = Determinism::Logical;
            ev.vtime_us = Some(vtime_us);
            ev
        };
        let events = [
            cluster_info(2),
            completion(0, 5000, 5000),
            completion(1, 20_000, 20_000),
            completion(0, 10_500, 5500),
        ];
        let a = analyze(&events).unwrap();
        assert_eq!(a.mode, AnalysisMode::SteadyState);
        assert_eq!(a.makespan_us, 20_000);
        assert_eq!(a.busy_us, 30_500);
        assert_eq!(a.wasted_idle_us, 2 * 20_000 - 30_500);
        assert_eq!(a.straggler, Some(1));
        assert!((a.agents[1].slowdown - 20_000.0 / 5250.0).abs() < 1e-9);
    }

    #[test]
    fn an_absurd_makespan_saturates_wasted_idle() {
        let events = [
            cluster_info(crate::MAX_AGENTS),
            span(EventKind::AgentExchange, Some(0), 1000),
            span(EventKind::GatherRound, None, u64::MAX / 2),
        ];
        assert_eq!(analyze(&events).unwrap().wasted_idle_us, u64::MAX - 1000);
    }

    #[test]
    fn an_agent_count_or_id_above_the_bound_is_refused() {
        let over = crate::MAX_AGENTS + 1;
        let gather = span(EventKind::GatherRound, None, 1000);
        for events in [
            vec![cluster_info(over), gather.clone()],
            vec![
                span(EventKind::AgentExchange, Some(over - 1), 1000),
                gather.clone(),
            ],
            vec![
                cluster_info(2),
                span(EventKind::Retransmission, Some(u64::MAX), 0),
            ],
        ] {
            assert!(analyze(&events).is_err(), "{events:?}");
        }
        let last = span(EventKind::AgentExchange, Some(over - 2), 1000);
        assert_eq!(analyze(&[last, gather]).unwrap().n_agents, over - 1);
    }

    #[test]
    fn empty_trace_analyzes_to_empty_mode() {
        let a = analyze(&[]).unwrap();
        assert_eq!(a.mode, AnalysisMode::Empty);
        assert_eq!(a.straggler, None);
        assert!(a.render().contains("nothing to analyze"));
    }
}
