//! Run reports: everything a CLAN run produces, ready for the benches.

use crate::orchestra::GenerationReport;
use clan_distsim::GenerationTimeline;
use clan_envs::Workload;
use clan_netsim::CommLedger;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Complete record of one CLAN run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Workload evaluated.
    pub workload: Workload,
    /// Configuration name (`Serial`, `CLAN_DCS`, ...).
    pub topology_name: String,
    /// Agents in the simulated cluster.
    pub n_agents: usize,
    /// Per-generation reports, in order.
    pub generations: Vec<GenerationReport>,
    /// Communication ledger over the whole run (analytic model).
    pub ledger: CommLedger,
    /// Measured wire traffic when inference ran over a real transport
    /// (threads, loopback TCP, or remote agents); `None` for purely
    /// simulated runs. Kept separate from `ledger` so modeled floats are
    /// never double-counted against measured bytes.
    pub transport: Option<CommLedger>,
    /// Measured scatter/gather timing of the real transport: summed
    /// per-round makespan (slowest link) against summed per-link busy
    /// time — how balanced the partitions actually were. `None` for
    /// purely simulated runs.
    pub gather: Option<crate::runtime::GatherStats>,
    /// Churn-recovery accounting of the real transport: link failures,
    /// chunks reassigned to survivors, injected kills, mid-run joins,
    /// and the measured recovery makespan. `None` for purely simulated
    /// runs.
    pub recovery: Option<crate::membership::RecoveryStats>,
    /// One row per agent — health, traffic, work and failures — read
    /// from the real cluster, or from the simulated agents of a
    /// virtual-time async run. Empty for runs without agents.
    #[serde(default)]
    pub agents: Vec<crate::membership::AgentStats>,
    /// Sum of all generation timelines.
    pub total_timeline: GenerationTimeline,
    /// Mean generation timeline.
    pub mean_timeline: GenerationTimeline,
    /// Best fitness observed across the run.
    pub best_fitness: f64,
    /// First generation whose best fitness reached the workload's
    /// convergence score, if any.
    pub solved_at_generation: Option<u64>,
    /// Estimated cluster energy over the run, joules (0 until
    /// [`with_energy`](RunReport::with_energy) is applied — the driver
    /// does this automatically).
    pub total_energy_j: f64,
    /// Fitness-cache hits summed over all generations (0 when the cache
    /// is disabled).
    #[serde(default)]
    pub cache_hits: u64,
    /// Fitness-cache lookups summed over all generations (0 when the
    /// cache is disabled).
    #[serde(default)]
    pub cache_lookups: u64,
    /// Async steady-state accounting when the run was barrier-free
    /// (`--async`): eval throughput, wasted idle, insertion stats, and
    /// the completion-order fingerprint. `None` for generational runs.
    #[serde(default)]
    pub asynchronous: Option<crate::asynchronous::AsyncStats>,
    /// Telemetry when the run was traced (`--trace`): event counts per
    /// class and the logical-stream fingerprint. Empty (default) when
    /// tracing was off.
    #[serde(default)]
    pub telemetry: crate::telemetry::TelemetryReport,
    /// The structured trace when the run was traced
    /// ([`tracing`](crate::ClanDriverBuilder::tracing)); `None` otherwise.
    /// Not serialized: `clan-cli --trace` writes it as JSONL.
    #[serde(skip)]
    pub trace: Option<crate::telemetry::RunTrace>,
    /// The best genome the run evolved (the orchestrator's best-ever):
    /// the expert a learning phase hands to deployment. `None` before any
    /// evaluation.
    #[serde(default)]
    pub champion: Option<clan_neat::Genome>,
}

impl RunReport {
    /// Assembles a report from a finished run's parts.
    pub fn from_parts(
        workload: Workload,
        topology_name: String,
        n_agents: usize,
        generations: Vec<GenerationReport>,
        ledger: CommLedger,
    ) -> RunReport {
        let total_timeline = generations
            .iter()
            .fold(GenerationTimeline::default(), |acc, g| acc + g.timeline);
        let n = generations.len().max(1) as f64;
        let mean_timeline = GenerationTimeline {
            inference_s: total_timeline.inference_s / n,
            evolution_s: total_timeline.evolution_s / n,
            communication_s: total_timeline.communication_s / n,
        };
        let best_fitness = generations
            .iter()
            .map(|g| g.best_fitness)
            .fold(f64::NEG_INFINITY, f64::max);
        let solved_at_generation = generations
            .iter()
            .find(|g| g.best_fitness >= workload.solved_at())
            .map(|g| g.generation);
        let cache_hits = generations.iter().map(|g| g.cache_hits).sum();
        let cache_lookups = generations.iter().map(|g| g.cache_lookups).sum();
        RunReport {
            workload,
            topology_name,
            n_agents,
            generations,
            ledger,
            transport: None,
            gather: None,
            recovery: None,
            agents: Vec::new(),
            total_timeline,
            mean_timeline,
            best_fitness,
            solved_at_generation,
            total_energy_j: 0.0,
            cache_hits,
            cache_lookups,
            asynchronous: None,
            telemetry: crate::telemetry::TelemetryReport::default(),
            trace: None,
            champion: None,
        }
    }

    /// Fraction of fitness lookups served from the cache over the run
    /// (0.0 when the cache never fielded a lookup).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// Attaches an async steady-state run's accounting. A barrier-free
    /// run has no generations, so the run-level best fitness and the
    /// solved flag are taken from the async stats instead.
    pub fn with_async(mut self, stats: crate::asynchronous::AsyncStats) -> RunReport {
        self.best_fitness = self.best_fitness.max(stats.best_fitness);
        if self.best_fitness >= self.workload.solved_at() {
            self.solved_at_generation.get_or_insert(0);
        }
        self.asynchronous = Some(stats);
        self
    }

    /// Fills in the energy estimate: every node draws active power during
    /// the compute phases (they work their partitions in parallel) and
    /// idle power while the medium is busy.
    pub fn with_energy(mut self, model: clan_hw::EnergyModel) -> RunReport {
        let busy = self.total_timeline.inference_s + self.total_timeline.evolution_s;
        let idle = self.total_timeline.communication_s;
        self.total_energy_j = self.n_agents as f64 * model.energy_j(busy, idle);
        self
    }

    /// Mean energy per generation, joules.
    pub fn mean_generation_energy_j(&self) -> f64 {
        self.total_energy_j / self.generations.len().max(1) as f64
    }

    /// Average seconds per generation (the paper's Fig 11 y-axis).
    pub fn mean_generation_s(&self) -> f64 {
        self.mean_timeline.total_s()
    }

    /// Human-readable run summary.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} on {} with {} agent(s): {} generations",
            self.topology_name,
            self.workload,
            self.n_agents,
            self.generations.len()
        );
        let solved = match (self.solved_at_generation, &self.asynchronous) {
            (None, _) => "not solved".to_string(),
            (Some(_), Some(_)) => "solved".to_string(),
            (Some(g), None) => format!("solved at generation {g}"),
        };
        let _ = writeln!(s, "  best fitness {:.2} ({solved})", self.best_fitness);
        // The analytic timeline and ledger describe generations; a
        // barrier-free run has none.
        if !self.generations.is_empty() {
            let _ = writeln!(
                s,
                "  mean generation: {:.3} s (inference {:.3}, evolution {:.3}, comm {:.3})",
                self.mean_timeline.total_s(),
                self.mean_timeline.inference_s,
                self.mean_timeline.evolution_s,
                self.mean_timeline.communication_s
            );
            let _ = writeln!(
                s,
                "  comm: {} floats in {} messages",
                self.ledger.total_floats(),
                self.ledger.total_messages()
            );
        }
        if let Some(t) = &self.transport {
            // framing_overhead is None on modeled-only ledgers (zero
            // denominator); print n/a instead of a NaN ratio.
            let framing = t
                .framing_overhead()
                .map_or_else(|| "n/a vs".into(), |x| format!("{x:.2}x"));
            let _ = writeln!(
                s,
                "  wire (measured): {} bytes in {} messages ({} the 4-byte/gene model)",
                t.total_wire_bytes(),
                t.total_messages(),
                framing
            );
            if t.total_retrans_bytes() > 0 {
                let _ = writeln!(
                    s,
                    "  loss recovery: {} retransmitted/duplicate bytes ({:.1}% of wire traffic), {} timer probes",
                    t.total_retrans_bytes(),
                    100.0 * t.retrans_overhead().unwrap_or(0.0),
                    self.agents.iter().map(|a| a.timer_probes).sum::<u64>()
                );
            }
        }
        if let Some(g) = &self.gather {
            if g.gathers > 0 {
                let overlap = g
                    .overlap()
                    .map_or_else(|| "n/a".into(), |x| format!("{x:.2}x"));
                let _ = writeln!(
                    s,
                    "  gather (measured): {} rounds, makespan {:.3} s vs per-agent busy {:.3} s (overlap {})",
                    g.gathers, g.makespan_s, g.busy_s, overlap
                );
            }
        }
        if self.cache_lookups > 0 {
            let _ = writeln!(
                s,
                "  fitness cache: {} hit(s) / {} lookup(s) ({:.1}% hit rate)",
                self.cache_hits,
                self.cache_lookups,
                100.0 * self.cache_hit_rate()
            );
        }
        if let Some(a) = &self.asynchronous {
            let _ = writeln!(
                s,
                "  async steady-state: {} eval(s) over {} agent(s) ({}), tournament {}",
                a.total_evals,
                a.agents,
                if a.virtual_time {
                    "virtual time"
                } else {
                    "streamed"
                },
                a.tournament_size
            );
            let _ = writeln!(
                s,
                "  async throughput: makespan {:.3} s, {:.1} evals/s, busy {:.3} s, wasted idle {:.3} s",
                a.makespan_s, a.evals_per_s, a.busy_s, a.wasted_idle_s
            );
            let _ = writeln!(
                s,
                "  async evolution: {} insertion(s), {} best improvement(s), {} redispatch(es)",
                a.insertions, a.best_improvements, a.redispatches
            );
            let _ = writeln!(s, "  async event log hash: {:#018X}", a.event_log_hash);
        }
        let t = &self.telemetry;
        if t.logical_events + t.timing_events > 0 {
            let _ = writeln!(
                s,
                "  telemetry: {} logical + {} timing event(s), logical hash {:#018X}",
                t.logical_events, t.timing_events, t.logical_hash
            );
        }
        for line in agent_table(&self.agents).lines() {
            let _ = writeln!(s, "    {line}");
        }
        if let Some(r) = &self.recovery {
            if r.any_recovery() {
                let _ = writeln!(
                    s,
                    "  recovery: {} link failure(s), {} run(s)/{} item(s) re-queued, \
                     {} kill(s) + {} join(s)",
                    r.failures, r.reassigned_chunks, r.reassigned_items, r.kills, r.joins
                );
            }
        }
        s
    }
}

/// The per-agent table, one line per row; empty without agents.
fn agent_table(agents: &[crate::membership::AgentStats]) -> String {
    if agents.is_empty() {
        return String::new();
    }
    let headers = [
        "agent",
        "msgs",
        "wire KiB",
        "retrans KiB",
        "fails",
        "evals",
        "busy s",
    ];
    let rows: Vec<Vec<String>> = agents
        .iter()
        .enumerate()
        .map(|(i, a)| {
            vec![
                i.to_string(),
                a.messages.to_string(),
                format!("{:.1}", a.wire_bytes as f64 / 1024.0),
                format!("{:.1}", a.retrans_bytes as f64 / 1024.0),
                a.failures.to_string(),
                a.items.to_string(),
                format!("{:.3}", a.busy_s),
            ]
        })
        .collect();
    text_table(&headers, &rows)
}

/// Renders an ASCII table: header row plus data rows, columns padded.
///
/// Shared by the figure binaries so every experiment prints uniformly.
pub fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            let _ = write!(line, "{:>width$}", c, width = widths[i]);
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clan_neat::counters::GenerationCosts;

    fn gen_report(generation: u64, best: f64) -> GenerationReport {
        GenerationReport {
            generation,
            best_fitness: best,
            num_species: 2,
            timeline: GenerationTimeline {
                inference_s: 1.0,
                evolution_s: 0.5,
                communication_s: 0.25,
            },
            costs: GenerationCosts::default(),
            extinction: false,
            cache_hits: 3,
            cache_lookups: 10,
        }
    }

    #[test]
    fn cache_totals_aggregate_and_print() {
        let r = RunReport::from_parts(
            Workload::CartPole,
            "Serial".into(),
            1,
            vec![gen_report(0, 10.0), gen_report(1, 20.0)],
            CommLedger::new(),
        );
        assert_eq!(r.cache_hits, 6);
        assert_eq!(r.cache_lookups, 20);
        assert!((r.cache_hit_rate() - 0.3).abs() < 1e-12);
        assert!(r.summary().contains("fitness cache"));
    }

    #[test]
    fn from_parts_aggregates() {
        let r = RunReport::from_parts(
            Workload::CartPole,
            "CLAN_DCS".into(),
            4,
            vec![gen_report(0, 10.0), gen_report(1, 200.0)],
            CommLedger::new(),
        );
        assert_eq!(r.best_fitness, 200.0);
        assert_eq!(r.solved_at_generation, Some(1));
        assert!((r.total_timeline.total_s() - 3.5).abs() < 1e-12);
        assert!((r.mean_generation_s() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn unsolved_run_has_no_convergence_generation() {
        let r = RunReport::from_parts(
            Workload::CartPole,
            "Serial".into(),
            1,
            vec![gen_report(0, 10.0)],
            CommLedger::new(),
        );
        assert_eq!(r.solved_at_generation, None);
        assert!(r.summary().contains("Serial"));
    }

    #[test]
    fn agent_table_prints_every_column_for_any_run_with_agents() {
        let mut r = RunReport::from_parts(
            Workload::CartPole,
            "CLAN_DCS".into(),
            2,
            vec![gen_report(0, 10.0)],
            CommLedger::new(),
        );
        assert!(!r.summary().contains("evals"), "no agents, no table");
        let row = |items, busy_s| crate::membership::AgentStats {
            items,
            busy_s,
            ..Default::default()
        };
        r.agents = vec![row(3, 0.5), row(2, 0.25)];
        let summary = r.summary();
        let table: Vec<&str> = summary
            .lines()
            .skip_while(|l| !l.trim_start().starts_with("agent"))
            .collect();
        assert!(
            table[0].contains("fails") && table[0].contains("evals"),
            "{summary}"
        );
        assert!(table[0].ends_with("busy s"), "{summary}");
        assert!(table[2].ends_with("3   0.500"), "{summary}");
        assert!(table[3].ends_with("2   0.250"), "{summary}");
    }

    #[test]
    fn best_fitness_line_names_the_generation_or_says_unsolved() {
        let report = |best| {
            RunReport::from_parts(
                Workload::CartPole,
                "Serial".into(),
                1,
                vec![gen_report(0, 10.0), gen_report(1, best)],
                CommLedger::new(),
            )
        };
        assert!(report(200.0).summary().contains("(solved at generation 1)"));
        assert!(report(20.0).summary().contains("(not solved)"));
        // A barrier-free run: solved, but at no generation, and with no
        // generation to average or analytic traffic to book.
        let stats = crate::asynchronous::AsyncStats {
            total_evals: 120,
            tournament_size: 3,
            agents: 2,
            virtual_time: true,
            makespan_s: 0.3,
            busy_s: 0.6,
            wasted_idle_s: 0.0,
            evals_per_s: 400.0,
            insertions: 72,
            best_improvements: 3,
            redispatches: 0,
            event_log_hash: 1,
            best_fitness: 200.0,
        };
        let summary = RunReport::from_parts(
            Workload::CartPole,
            "ASYNC_VIRTUAL".into(),
            2,
            Vec::new(),
            CommLedger::new(),
        )
        .with_async(stats)
        .summary();
        assert!(
            summary.contains("best fitness 200.00 (solved)\n"),
            "{summary}"
        );
        assert!(!summary.contains("mean generation"), "{summary}");
        assert!(!summary.contains("floats in"), "{summary}");
    }

    #[test]
    fn text_table_alignment() {
        let t = text_table(
            &["n", "time"],
            &[
                vec!["1".into(), "10.0".into()],
                vec!["100".into(), "3.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('n'));
        assert!(lines[2].ends_with("10.0"));
    }
}
