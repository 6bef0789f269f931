//! The telemetry headline: the **logical event stream is part of the
//! determinism contract**.
//!
//! Every matrix row (`tests/common/mod.rs`) compares the Logical channel's
//! hash between its condition and the local reference. This suite pins the
//! same through the driver, whole text, **byte-identical** per seed whether
//! inference ran locally, over TCP, over 20 %-lossy UDP or through a churn
//! schedule: wall-clock reality lives in the Timing channel and never leaks
//! into the logical stream. Async virtual-time runs extend the contract:
//! folding the stream's Completion events reproduces
//! `AsyncStats::event_log_hash`.

mod common;

use clan::core::telemetry::{from_jsonl, to_jsonl};
use clan::core::transport::ChurnSchedule;
use clan::core::{
    ClanDriver, ClanDriverBuilder, ClanTopology, Determinism, EventKind, RunReport, RunTrace,
};
use clan::envs::Workload;
use clan::netsim::MessageKind;
use common::{check, lossy_udp, topologies, POP, SEED, SIM_AGENTS};

const GENERATIONS: u64 = common::GENERATIONS as u64;

fn base_builder(topology: ClanTopology) -> ClanDriverBuilder {
    let agents = if topology == ClanTopology::serial() {
        1
    } else {
        SIM_AGENTS
    };
    ClanDriver::builder(Workload::CartPole)
        .topology(topology)
        .agents(agents)
        .population_size(POP)
        .seed(SEED)
        .tracing(true)
}

fn lossy_udp_builder(topology: ClanTopology) -> ClanDriverBuilder {
    base_builder(topology)
        .loopback_udp_agents(2)
        .udp_config(lossy_udp(5))
}

fn traced_run(builder: ClanDriverBuilder) -> (RunReport, RunTrace) {
    let mut report = builder
        .build()
        .expect("driver builds")
        .run(GENERATIONS)
        .expect("run completes");
    let trace = report.trace.take().expect("tracing was enabled");
    (report, trace)
}

#[test]
fn logical_stream_is_byte_identical_across_transports_on_all_topologies() {
    for topology in topologies() {
        let baseline = traced_run(base_builder(topology)).1.logical_text();
        // Preamble, per-generation markers, replayed evals, postamble.
        assert!(baseline.starts_with("l=0 k=run_start seed=13"));
        assert!(baseline.contains("k=gen_start"));
        assert!(baseline.contains("k=eval"));
        assert!(baseline.contains("k=gen_end"));
        assert!(baseline.ends_with("k=run_end gen=4\n"));

        // Each live surface against a local run over as many devices as
        // it has links: a DDA run evolves one clan per device.
        let churn = ChurnSchedule::new().kill(1, 1).revive(1, 3);
        for (surface, agents, builder) in [
            ("loopback TCP", 2, base_builder(topology).loopback_agents(2)),
            ("20%-lossy UDP", 2, lossy_udp_builder(topology)),
            (
                "churned TCP",
                3,
                base_builder(topology).loopback_agents(3).churn(churn),
            ),
        ] {
            let twin = traced_run(base_builder(topology).agents(agents)).1;
            if topology != ClanTopology::dda() {
                // The other three evolve one population at any count.
                assert_eq!(baseline, twin.logical_text(), "{topology}");
            }
            let trace = traced_run(builder).1;
            assert_eq!(
                twin.logical_text(),
                trace.logical_text(),
                "{topology} over {surface}: logical stream diverged"
            );
            assert_eq!(twin.logical_hash(), trace.logical_hash());
            // The churn was real: the Timing channel saw it, the logical
            // channel did not.
            let killed = trace
                .events
                .iter()
                .any(|e| e.kind == EventKind::AgentKilled);
            assert_eq!(
                killed,
                surface == "churned TCP",
                "{topology} over {surface}"
            );
        }
    }
}

#[test]
fn timing_events_differ_while_logical_hash_does_not() {
    let (local_report, local) = traced_run(base_builder(ClanTopology::dcs()));
    let (udp_report, udp) = traced_run(lossy_udp_builder(ClanTopology::dcs()));
    let (local_logical, local_timing) = local.counts();
    let (udp_logical, udp_timing) = udp.counts();
    assert_eq!(local_logical, udp_logical);
    assert!(
        udp_timing > local_timing,
        "a lossy transport records more annotations ({udp_timing} vs {local_timing})"
    );
    assert!(
        udp.events
            .iter()
            .any(|e| e.kind == EventKind::Retransmission && e.class == Determinism::Timing),
        "20% loss must surface Retransmission annotations"
    );
    assert_eq!(local.logical_hash(), udp.logical_hash());
    // The measured ledger counted the retransmitted bytes.
    let udp_wire = udp_report.transport.expect("UDP agents measure the wire");
    assert!(udp_wire.total_retrans_bytes() > 0);
    // The report sums the fitness-cache windows — and since cache hits
    // are content-addressed, they are transport-invariant.
    assert!(local_report.cache_lookups > 0);
    assert_eq!(local_report.cache_hits, udp_report.cache_hits);
}

#[test]
fn tracing_never_changes_the_evolved_result() {
    check("untraced");
    // ...and an untraced run really records nothing.
    let logical_events = |tracing: bool| {
        let driver = base_builder(ClanTopology::dcs()).tracing(tracing).build();
        let report = driver.unwrap().run(GENERATIONS).unwrap();
        report.telemetry.logical_events
    };
    assert_eq!(logical_events(false), 0);
    assert!(logical_events(true) > 0);
}

#[test]
fn folding_trace_completions_reproduces_the_event_log_hash() {
    use clan::neat::rng::splitmix64;
    let run = || {
        ClanDriver::builder(Workload::CartPole)
            .agents(3)
            .population_size(12)
            .seed(9)
            .total_evals(40)
            .latency_ms(vec![2.0, 8.0, 2.0])
            .tracing(true)
            .build_async()
            .unwrap()
            .run()
            .unwrap()
    };
    let a = run();
    let trace = a.report.trace.as_ref().expect("tracing was enabled");
    let stats = a.report.asynchronous.as_ref().expect("async run");
    // An independent fold over the trace's Completion events, in
    // stream order: sequence, virtual time, agent, genome, fitness
    // bits, then the insertion (child, evicted, parents) or nothing.
    let completions: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Completion)
        .collect();
    let folded = completions.iter().fold(0x00A5_15C0_0000_0001, |h, e| {
        let mut h = splitmix64(h ^ e.aseq.expect("completion sequence"));
        h = splitmix64(h ^ e.vtime_us.expect("virtual time"));
        h = splitmix64(h ^ e.agent.expect("agent"));
        h = splitmix64(h ^ e.genome.expect("genome"));
        h = splitmix64(h ^ e.fitness_bits.expect("fitness"));
        match (e.child, e.evicted, e.p1, e.p2) {
            (Some(child), Some(evicted), Some(p1), Some(p2)) => {
                h = splitmix64(h ^ child);
                h = splitmix64(h ^ evicted);
                h = splitmix64(h ^ p1);
                splitmix64(h ^ p2)
            }
            _ => splitmix64(h),
        }
    });
    assert_eq!(folded, stats.event_log_hash);
    assert_eq!(completions.len() as u64, stats.total_evals);
    assert!(
        trace.events.len() > completions.len(),
        "the trace carries dispatches and the run frame on top of completions"
    );
    // Virtual-time determinism extends to the logical stream.
    let b = run();
    assert_eq!(
        trace.logical_text(),
        b.report.trace.as_ref().unwrap().logical_text()
    );
    assert_eq!(a.report.asynchronous, b.report.asynchronous);
}

#[test]
fn exporters_round_trip_a_real_trace() {
    let trace = traced_run(lossy_udp_builder(ClanTopology::dcs())).1;
    // JSONL: parse back every event bit-exactly.
    let jsonl = to_jsonl(&trace).expect("serializes");
    let events = from_jsonl(&jsonl).expect("parses back");
    assert_eq!(events, trace.events);
    // Chrome: one track per agent plus the coordinator, the agent count
    // read back from the trace itself.
    let records = clan_trace_tools::chrome::records(&events).expect("renders");
    let tracks: Vec<&str> = records.iter().filter_map(|r| r.track.as_deref()).collect();
    assert_eq!(tracks, ["agent0", "agent1", "coordinator"]);
    let chrome = clan_trace_tools::chrome::render(&records);
    assert_eq!(chrome.matches("\"ph\":").count(), records.len());
}

/// A live run has one device count, its link count: DDA over two
/// loopback links evolves two clans whatever `.agents` said before, and
/// its logical stream is a local two-device run's.
#[test]
fn a_live_dda_run_evolves_one_clan_per_link() {
    let live = base_builder(ClanTopology::dda())
        .agents(4)
        .loopback_agents(2);
    let (report, trace) = traced_run(live);
    assert_eq!(report.n_agents, 2);
    let cluster = trace
        .events
        .iter()
        .find(|e| e.kind == EventKind::ClusterInfo);
    assert_eq!(cluster.and_then(|e| e.items), Some(2));
    // Every clan reports its best fitness to the center once a generation.
    let fitness = report.ledger.entry(MessageKind::SendFitness);
    assert_eq!(fitness.messages, 2 * GENERATIONS, "one clan per link");
    let local = traced_run(base_builder(ClanTopology::dda()).agents(2)).1;
    assert_eq!(local.logical_text(), trace.logical_text());
}
