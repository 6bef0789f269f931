//! Trace intelligence (PR 10): the offline `clan-trace` analyzer and
//! differ cross-checked against the run's own accounting, plus the
//! determinism contract of the two new observability surfaces — the
//! live status endpoint and the flight-recorder ring must leave the
//! logical event stream byte-identical.

use clan::core::telemetry::{from_jsonl, to_jsonl, Determinism, EventKind, TraceEvent};
use clan::core::{ClanDriver, ClanDriverBuilder, ClanTopology, RunTrace};
use clan::envs::Workload;
use clan_trace_tools::analyze::{analyze, AnalysisMode};
use clan_trace_tools::diff::{diff, DiffOutcome};
use std::io::{Read, Write};

const POP: usize = 20;
const SEED: u64 = 13;
const GENS: u64 = 3;
const SIM_AGENTS: usize = 4;

fn sim_builder() -> ClanDriverBuilder {
    ClanDriver::builder(Workload::CartPole)
        .topology(ClanTopology::dda())
        .agents(SIM_AGENTS)
        .population_size(POP)
        .seed(SEED)
        .tracing(true)
}

fn run_trace(seed: u64) -> RunTrace {
    let driver = sim_builder().seed(seed).build().expect("build");
    let report = driver.run(GENS).expect("run");
    report.trace.expect("tracing was enabled")
}

/// Round-trips a recorded trace through the exporter's JSONL and its
/// line-numbered reader, the path `clan-trace` takes from a `--trace`
/// file.
fn events_of(trace: &RunTrace) -> Vec<TraceEvent> {
    from_jsonl(&to_jsonl(trace).expect("serialize")).expect("the reader parses writer output")
}

#[test]
fn same_seed_traces_diff_identical() {
    let a = events_of(&run_trace(SEED));
    let b = events_of(&run_trace(SEED));
    let out = diff(&a, &b);
    assert!(
        out.is_identical(),
        "same-seed runs must not diverge: {out:?}"
    );
}

#[test]
fn different_seed_diverges_at_the_run_preamble() {
    let a = events_of(&run_trace(SEED));
    let b = events_of(&run_trace(SEED + 1));
    match diff(&a, &b) {
        DiffOutcome::Diverged {
            index, left, right, ..
        } => {
            assert_eq!(index, 0, "seed is in the preamble, so event 0 differs");
            assert!(left.context.contains("run preamble"), "{}", left.context);
            assert!(left.line.contains("seed=13"), "{}", left.line);
            assert!(right.line.contains("seed=14"), "{}", right.line);
        }
        other => panic!("expected divergence, got {other:?}"),
    }
}

#[test]
fn flipped_fitness_bit_is_pinpointed_as_the_first_divergence() {
    let a = events_of(&run_trace(SEED));
    let mut b = events_of(&run_trace(SEED));
    // Corrupt one fitness bit deep in the stream (the 7th eval), the
    // way a faulty agent or a broken reducer would.
    let mut logical_index = 0u64;
    let mut target: Option<(u64, u64)> = None; // (logical index, genome)
    let mut evals_seen = 0;
    for ev in &mut b {
        if ev.class != Determinism::Logical {
            continue;
        }
        if ev.kind == EventKind::EvalResult {
            evals_seen += 1;
            if evals_seen == 7 {
                let bits = ev.fitness_bits.expect("eval carries fitness");
                ev.fitness_bits = Some(bits ^ 1);
                target = Some((logical_index, ev.genome.expect("eval carries genome")));
                break;
            }
        }
        logical_index += 1;
    }
    let (expect_index, genome) = target.expect("trace has at least 7 evals");
    match diff(&a, &b) {
        DiffOutcome::Diverged { index, left, .. } => {
            assert_eq!(
                index, expect_index,
                "must name the corrupted event, not a later one"
            );
            assert!(
                left.context.contains(&format!("eval of genome {genome}")),
                "context must frame the eval: {}",
                left.context
            );
            assert!(
                left.context.contains("gen "),
                "context carries the generation: {}",
                left.context
            );
        }
        other => panic!("expected divergence, got {other:?}"),
    }
}

#[test]
fn truncated_trace_reports_the_short_side() {
    let a = events_of(&run_trace(SEED));
    let mut b = events_of(&run_trace(SEED));
    b.truncate(b.len() - 5); // drops RunEnd (logical) among others
    match diff(&a, &b) {
        DiffOutcome::Truncated {
            short_side, common, ..
        } => {
            assert_eq!(short_side, "right");
            let b_logical = b.iter().filter(|e| e.class == Determinism::Logical).count() as u64;
            assert_eq!(common, b_logical);
        }
        other => panic!("expected truncation, got {other:?}"),
    }
}

#[test]
fn analyzer_round_totals_match_the_reports_gather_stats() {
    let driver = sim_builder()
        .agents(2)
        .topology(ClanTopology::dda())
        .loopback_agents(2)
        .build()
        .expect("build loopback");
    let report = driver.run(GENS).expect("run");
    let trace = report.trace.as_ref().expect("tracing on");
    let analysis = analyze(&events_of(trace)).expect("agents in bounds");
    let gather = report.gather.expect("remote runs gather");

    assert_eq!(analysis.mode, AnalysisMode::Rounds);
    assert_eq!(analysis.rounds.len() as u64, gather.gathers);
    // Timing spans truncate to whole microseconds; allow that loss per
    // round/span plus float slack, nothing more.
    let makespan_err = (analysis.makespan_us as f64 / 1e6 - gather.makespan_s).abs();
    assert!(makespan_err < 5e-3, "makespan drift {makespan_err}s");
    let busy_err = (analysis.busy_us as f64 / 1e6 - gather.busy_s).abs();
    assert!(busy_err < 5e-3, "busy drift {busy_err}s");
    // Every round resolves a critical agent from its exchange spans.
    assert!(analysis.rounds.iter().all(|r| r.critical_agent.is_some()));
}

#[test]
fn analyzer_steady_state_totals_match_async_stats_and_name_the_straggler() {
    // Four virtual agents, one provisioned 4x slower: the acceptance
    // case for straggler attribution.
    let driver = ClanDriver::builder(Workload::CartPole)
        .topology(ClanTopology::dda())
        .agents(SIM_AGENTS)
        .population_size(POP)
        .seed(3)
        .tracing(true)
        .total_evals(200)
        .latency_ms(vec![5.0, 5.0, 5.0, 20.0])
        .build_async()
        .expect("build async");
    let outcome = driver.run().expect("async run");
    let stats = outcome.report.asynchronous.clone().expect("async stats");
    let trace = outcome.report.trace.as_ref().expect("tracing on");
    let analysis = analyze(&events_of(trace)).expect("agents in bounds");

    assert_eq!(analysis.mode, AnalysisMode::SteadyState);
    assert_eq!(analysis.n_agents as usize, stats.agents);
    // Virtual time is exact: the analyzer reconstructs the same
    // makespan / busy / wasted-idle the run computed for itself.
    assert!((analysis.makespan_us as f64 / 1e6 - stats.makespan_s).abs() < 1e-6);
    assert!((analysis.busy_us as f64 / 1e6 - stats.busy_s).abs() < 1e-6);
    assert!((analysis.wasted_idle_us as f64 / 1e6 - stats.wasted_idle_s).abs() < 1e-6);

    assert_eq!(
        analysis.straggler,
        Some(3),
        "the 20ms agent is the straggler"
    );
    let slowdown = analysis.agents[3].slowdown;
    assert!(
        (3.2..=4.8).contains(&slowdown),
        "slowdown {slowdown:.2}x not within 20% of the provisioned 4x skew"
    );
    let report = analysis.render();
    assert!(
        report.contains("critical-path straggler: agent 3"),
        "{report}"
    );
}

#[test]
fn a_live_async_trace_records_the_agents_it_ran_on() {
    // Two loopback links are two devices: the report and the trace
    // name both.
    let driver = ClanDriver::builder(Workload::CartPole)
        .population_size(POP)
        .seed(SEED)
        .tracing(true)
        .total_evals(40)
        .loopback_agents(2)
        .build_async()
        .expect("build async");
    let outcome = driver.run().expect("async run");
    assert_eq!(outcome.report.n_agents, 2);
    let events = events_of(outcome.report.trace.as_ref().expect("tracing on"));
    let cluster = events.iter().find(|e| e.kind == EventKind::ClusterInfo);
    assert_eq!(cluster.and_then(|e| e.items), Some(2));
    let records = clan_trace_tools::chrome::records(&events).expect("renders");
    let tracks: Vec<&str> = records.iter().filter_map(|r| r.track.as_deref()).collect();
    assert_eq!(tracks, ["agent0", "agent1", "coordinator"]);
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect status endpoint");
    let request = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read");
    body
}

#[test]
fn status_endpoint_serves_snapshots_and_preserves_bit_identity() {
    let baseline = run_trace(SEED).logical_text();

    let driver = sim_builder()
        .status_addr("127.0.0.1:0")
        .build()
        .expect("build with status");
    let addr = driver.status_local_addr().expect("endpoint bound");

    let health = http_get(addr, "/health");
    assert!(health.contains("200 OK"), "{health}");
    assert!(health.contains("\"agents\""), "{health}");
    let progress = http_get(addr, "/progress");
    assert!(progress.contains("\"phase\""), "{progress}");
    let metrics = http_get(addr, "/metrics");
    assert!(metrics.contains("200 OK"), "{metrics}");
    let missing = http_get(addr, "/nope");
    assert!(missing.contains("404"), "{missing}");

    let report = driver.run(GENS).expect("run with endpoint");
    assert_eq!(
        report.trace.expect("tracing on").logical_text(),
        baseline,
        "serving status snapshots must not perturb the logical stream"
    );
}

/// `/metrics` renders the cluster's own rows, so an untraced run serves
/// one series per agent from the very first snapshot.
#[test]
fn untraced_metrics_serve_every_agents_row_from_the_start() {
    let driver = sim_builder()
        .tracing(false)
        .topology(ClanTopology::dcs())
        .agents(2)
        .loopback_agents(2)
        .status_addr("127.0.0.1:0")
        .build()
        .expect("build untraced loopback with status");
    let addr = driver.status_local_addr().expect("endpoint bound");
    assert!(http_get(addr, "/progress").contains("\"phase\":\"starting\""));

    let response = http_get(addr, "/metrics");
    let (head, body) = response.split_once("\r\n\r\n").expect("HTTP response");
    assert!(head.contains("version=0.0.4"), "{head}");
    for agent in 0..2 {
        let series = format!("clan_agent_live{{agent=\"{agent}\"}} 1\n");
        assert!(body.contains(&series), "missing {series:?} in {body}");
    }
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').expect("name and value");
        let name = series.split('{').next().unwrap_or_default();
        let labels = &series[name.len()..];
        assert!(name.starts_with("clan_"), "bad name: {line}");
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "{line}"
        );
        assert!(
            labels.is_empty() || labels.ends_with('}'),
            "bad labels: {line}"
        );
        assert!(value.parse::<f64>().is_ok(), "bad value: {line}");
    }
}

#[test]
fn flight_recorder_ring_preserves_identity_and_keeps_a_suffix() {
    let full = run_trace(SEED).logical_text();

    // A ring larger than the run retains everything.
    let driver = sim_builder()
        .trace_ring(1 << 20)
        .build()
        .expect("build big ring");
    let report = driver.run(GENS).expect("run");
    assert_eq!(
        report.trace.expect("ring implies tracing").logical_text(),
        full
    );

    // A small ring retains exactly the last N events, whose logical
    // lines are a byte-for-byte suffix of the unbounded stream.
    let driver = sim_builder()
        .trace_ring(40)
        .build()
        .expect("build small ring");
    let report = driver.run(GENS).expect("run");
    let ring = report.trace.expect("ring implies tracing");
    assert_eq!(ring.events.len(), 40);
    let tail = ring.logical_text();
    assert!(!tail.is_empty(), "a 40-event tail spans logical events");
    assert!(
        full.ends_with(&tail),
        "ring tail must be a suffix of the full stream"
    );
}
