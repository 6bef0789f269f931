//! `clan-cli` — run CLAN deployments from the command line.
//!
//! ```text
//! clan-cli run --workload lunarlander --topology dda --agents 8 --generations 10
//! clan-cli solve --workload cartpole --topology dcs --agents 4 --max-generations 40
//! clan-cli agent --listen 0.0.0.0:7777
//! clan-cli coordinate --agents-at 10.0.0.2:7777,10.0.0.3:7777 --generations 10
//! clan-cli coordinate --loopback 2 --generations 3
//! clan-cli export-champion --workload cartpole --out champion.dot
//! clan-cli list
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency); every flag has a
//! sensible default so `clan-cli run` alone works.

use clan::core::telemetry::{to_chrome_json, to_jsonl, Tracer};
use clan::core::transport::agent::{AgentServer, UdpAgentServer};
use clan::core::transport::{ChurnSchedule, FaultConfig, UdpConfig};
use clan::core::{ClanDriver, ClanDriverBuilder, ClanError, ClanTopology, RunReport, RunTrace};
use clan::envs::Workload;
use clan::hw::PlatformKind;
use clan::neat::{genome_to_dot, FeedForwardNetwork, NeatConfig, Population, Scratch};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if let Err(UsageError(msg)) = validate_flags(command, &Flags(args[1..].to_vec())) {
        eprintln!("usage error: {msg}");
        eprintln!("(see `clan-cli help`)");
        return ExitCode::from(2);
    }
    let result = match command.as_str() {
        "run" => cmd_run(&args[1..], false),
        "solve" => cmd_run(&args[1..], true),
        "agent" => cmd_agent(&args[1..]),
        "coordinate" => cmd_coordinate(&args[1..]),
        "export-champion" => cmd_export(&args[1..]),
        "list" => {
            cmd_list();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
clan-cli — CLAN: collaborative neuroevolution on simulated edge clusters

USAGE:
  clan-cli run   [--workload W] [--topology T] [--agents N] [--generations N]
                 [--population N] [--seed N] [--platform P] [--single-step]
                 [--episodes N] [--eval-threads N] [--no-cache]
                 [--trace FILE] [--trace-chrome FILE]
                 [--trace-ring N [--postmortem FILE]] [--status-addr ADDR]
                 [--async [--total-evals N] [--tournament-size K]
                  [--latency MS,MS,...] [--jitter-pct P]]
  clan-cli solve [same flags; runs until the workload's solved score or
                 --max-generations N]
  clan-cli agent --listen ADDR [--delay-ms N] [--udp]
                 (serve as an edge agent; workload and NEAT config arrive
                 from the coordinator over the wire; --once serves one
                 session then exits; --delay-ms stalls each request to
                 emulate a slower device; --udp serves the loss-tolerant
                 datagram transport instead of TCP)
  clan-cli coordinate [run flags] (--agents-at ADDR,ADDR,... | --loopback N)
                 [--async [--total-evals N] [--tournament-size K]]
                 [--udp [--loss P] [--fault-seed S]] [--min-agents N]
                 [--churn EVENTS] [--spare-at ADDR,ADDR,...]
                 [--trace FILE] [--trace-chrome FILE]
                 [--trace-ring N [--postmortem FILE]] [--status-addr ADDR]
                 (drive a run over real TCP agents; bit-identical to the
                 same run executed locally, however fast each agent is;
                 work is pulled by whichever agent is free. --udp speaks
                 reliable datagrams instead; --loss injects seeded drop
                 faults on every link — the ARQ layer recovers them, so
                 the evolved result is still bit-identical, only the
                 retransmission overhead in the report grows)
  clan-cli export-champion [--workload W] [--generations N] [--seed N]
                 [--out FILE.dot]
  clan-cli list  (available workloads, topologies, platforms)

DEFAULTS: workload=cartpole topology=serial agents=1 generations=5
          population=150 seed=0 platform=pi eval-threads=1

--eval-threads N (run/solve) evaluates each generation's cache misses
on N host threads, the calling one included, a contiguous chunk each;
results are bit-identical to serial, only wall-clock time changes.
`coordinate` rejects it: there the agents evaluate. (On a single-CPU
host, extra threads cannot speed anything up — bench reports mark such
rows flat_expected.)

--no-cache disables the content-addressed fitness cache that lets
elites and unmutated survivors skip re-evaluation. It changes only
wall-clock time, never the evolved result.

--churn k1@2,r1@4 kills agent 1 before round 2 and revives it before
round 4 (deterministic churn injection): the work it held goes back to
the queue for the survivors and the evolved result is still
bit-identical, only the recovery overhead in the report grows.
--spare-at names standby agents a revival may connect; --min-agents N
fails a round that would continue on fewer live agents (default 1).

--trace FILE records a structured run trace as JSONL: a deterministic
logical event stream (byte-identical per seed across serial, TCP, lossy
UDP, and churned runs, and per seed + latency schedule in virtual-time
async mode) plus wall-clock annotations in a separate channel.
--trace-chrome FILE writes the same trace as Chrome trace-event JSON
with one track per agent (open in Perfetto or chrome://tracing). Tracing
never changes the evolved result. Analyze recorded traces offline with `clan-trace`
(critical path, stragglers, divergence diff).

--trace-ring N arms the flight recorder: tracing runs in a bounded ring
that keeps only the last N events, and if the run fails (error or
panic) the ring is dumped to --postmortem FILE (default
clan-postmortem.jsonl) for offline analysis. Combine with --trace FILE
to also write the retained tail on success.

--status-addr ADDR serves a live introspection endpoint over HTTP while
the run executes: /metrics (Prometheus text), /health (per-agent
alive/suspected/dead), /progress (generation or eval counts, best
fitness). It publishes snapshots at generation boundaries only — the
logical event stream stays byte-identical with the endpoint enabled.

--async switches to barrier-free steady-state evolution: every finished
evaluation immediately triggers a tournament reproduction (size
--tournament-size, default 3) that replaces the worst genome, until
--total-evals evaluations (default 10x population) are spent. Local runs
simulate agents under deterministic virtual time (--latency 5,20 sets
per-agent service ms, --jitter-pct the seeded jitter): two runs with the
same --seed and latency schedule produce --trace files that
`clan-trace diff` reports identical. Over real agents (coordinate
--async) the arrival order is wall-clock, so results are statistical
rather than bit-identical.";

/// Where the flight recorder dumps the ring when no `--postmortem FILE`
/// overrides it.
const POSTMORTEM_DEFAULT: &str = "clan-postmortem.jsonl";

/// A command-line misuse caught before any work starts. Rendered with a
/// pointer at the usage text and exit code 2, distinct from runtime
/// failures (exit 1), so scripts can tell "you called it wrong" from
/// "the run failed".
#[derive(Debug, PartialEq, Eq)]
struct UsageError(String);

/// Cross-flag validation that runs before command dispatch. Per-flag
/// value parsing stays with each command; this pass catches
/// combinations that are individually valid but jointly meaningless.
fn validate_flags(command: &str, flags: &Flags) -> Result<(), UsageError> {
    if command == "agent" {
        for f in ["--status-addr", "--trace-ring", "--postmortem"] {
            if flags.get(f).is_some() {
                return Err(UsageError(format!(
                    "{f} is a coordinator-side flag; `agent` has no driver to \
                     introspect (use it on run/solve/coordinate)"
                )));
            }
        }
    }
    if command == "coordinate" && flags.has("--eval-threads") {
        return Err(UsageError(
            "evaluation runs on the agents; --eval-threads applies to run/solve".into(),
        ));
    }
    for f in ["--agent-weights", "--calibrate", "--max-retries"] {
        if flags.has(f) {
            return Err(UsageError(format!(
                "{f} was removed: work is pulled by whichever agent is free; there is \
                 nothing to weight or retry"
            )));
        }
    }
    for f in ["--batch-lanes", "--no-batch"] {
        if flags.has(f) {
            return Err(UsageError(format!(
                "{f} was removed: every network runs through the one activation kernel; \
                 there is no batch width to set"
            )));
        }
    }
    if flags.has("--event-log") {
        return Err(UsageError(
            "--event-log was removed: record the run with --trace FILE and compare two \
             runs with `clan-trace diff`"
                .into(),
        ));
    }
    if flags.get("--postmortem").is_some() && flags.get("--trace-ring").is_none() {
        return Err(UsageError(
            "--postmortem names the flight-recorder dump file and requires --trace-ring N".into(),
        ));
    }
    if flags.get("--trace-ring").is_some() {
        let postmortem = flags.get("--postmortem").unwrap_or(POSTMORTEM_DEFAULT);
        if flags.get("--trace") == Some(postmortem) {
            return Err(UsageError(format!(
                "--trace and the flight-recorder postmortem dump both target `{postmortem}`; \
                 point --postmortem (or --trace) at a different file"
            )));
        }
    }
    Ok(())
}

struct Flags(Vec<String>);

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for {name}")),
        }
    }
}

fn parse_workload(s: &str) -> Result<Workload, String> {
    let lower = s.to_lowercase();
    Workload::ALL
        .into_iter()
        .find(|w| w.name().to_lowercase().contains(&lower))
        .ok_or_else(|| format!("unknown workload `{s}` (try `clan-cli list`)"))
}

/// Parses `--agents-at`'s comma-separated address list: trims each
/// segment, skips empties left by stray commas, and rejects duplicates
/// (a single agent serves one session at a time, so a duplicated
/// address would hang the coordinator) and effectively-empty lists with
/// a clear message instead of a confusing downstream connect error.
fn parse_agent_list(list: &str) -> Result<Vec<String>, String> {
    let mut addrs: Vec<String> = Vec::new();
    for seg in list.split(',') {
        let addr = seg.trim();
        if addr.is_empty() {
            continue;
        }
        if addrs.iter().any(|a| a == addr) {
            return Err(format!(
                "duplicate agent address `{addr}` in --agents-at (each agent serves one session)"
            ));
        }
        addrs.push(addr.to_string());
    }
    if addrs.is_empty() {
        return Err("--agents-at needs at least one HOST:PORT address".into());
    }
    Ok(addrs)
}

fn parse_platform(s: &str) -> Result<PlatformKind, String> {
    match s.to_lowercase().as_str() {
        "pi" | "raspberrypi" | "rpi" => Ok(PlatformKind::RaspberryPi),
        "jetson" | "jetson-cpu" => Ok(PlatformKind::JetsonCpu),
        "jetson-gpu" => Ok(PlatformKind::JetsonGpu),
        "hpc" | "hpc-cpu" => Ok(PlatformKind::HpcCpu),
        "hpc-gpu" => Ok(PlatformKind::HpcGpu),
        "systolic" | "accelerator" => Ok(PlatformKind::Systolic32x32),
        other => Err(format!("unknown platform `{other}`")),
    }
}

fn build_driver(flags: &Flags) -> Result<ClanDriverBuilder, String> {
    let workload = parse_workload(flags.get("--workload").unwrap_or("cartpole"))?;
    let agents: usize = flags.parse("--agents", 1)?;
    let topology = match flags.get("--topology").unwrap_or("serial") {
        "serial" => ClanTopology::serial(),
        "dcs" => ClanTopology::dcs(),
        "dds" => ClanTopology::dds(),
        "dda" => ClanTopology::dda(agents.max(1)),
        other => return Err(format!("unknown topology `{other}`")),
    };
    let mut builder = ClanDriver::builder(workload)
        .topology(topology)
        .agents(agents)
        .population_size(flags.parse("--population", 150)?)
        .seed(flags.parse("--seed", 0)?)
        .episodes_per_eval(flags.parse("--episodes", 1)?)
        .eval_threads(flags.parse("--eval-threads", 1usize)?)
        .platform(parse_platform(flags.get("--platform").unwrap_or("pi"))?);
    if flags.has("--single-step") {
        builder = builder.single_step();
    }
    if flags.has("--no-cache") {
        builder = builder.fitness_cache(false);
    }
    if flags.get("--trace").is_some() || flags.get("--trace-chrome").is_some() {
        builder = builder.tracing(true);
    }
    if let Some(n) = flags.get("--trace-ring") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("invalid value `{n}` for --trace-ring"))?;
        builder = builder.trace_ring(n);
    }
    if let Some(addr) = flags.get("--status-addr") {
        builder = builder.status_addr(addr);
    }
    Ok(builder)
}

/// The flight recorder armed for this invocation, as the postmortem
/// dump path: `Some` exactly when `--trace-ring N` bounded the tracer.
fn postmortem_path(flags: &Flags) -> Option<String> {
    flags.get("--trace-ring").map(|_| {
        flags
            .get("--postmortem")
            .unwrap_or(POSTMORTEM_DEFAULT)
            .to_string()
    })
}

/// Drains the flight-recorder ring into a postmortem JSONL file. Called
/// only on failure paths (run error or panic); best-effort by design —
/// the original error stays the headline, so dump problems go to stderr
/// and are never propagated.
fn dump_postmortem(tracer: &Tracer, path: &str) {
    let dropped = tracer.ring_dropped();
    let Some(trace) = tracer.finish() else { return };
    if trace.events.is_empty() {
        return;
    }
    match to_jsonl(&trace) {
        Ok(jsonl) => match std::fs::write(path, jsonl) {
            Ok(()) => eprintln!(
                "flight recorder: last {} event(s) dumped to {path} \
                 ({dropped} older event(s) had rolled off the ring)",
                trace.events.len()
            ),
            Err(e) => eprintln!("flight recorder: cannot write {path}: {e}"),
        },
        Err(e) => eprintln!("flight recorder: cannot serialize postmortem: {e}"),
    }
}

/// Installs a panic hook that dumps the flight-recorder ring before the
/// default handler runs, so even a crash leaves a postmortem trail. A
/// clean run drains the sink on completion, after which the hook finds
/// nothing to dump.
fn arm_panic_recorder(tracer: Tracer, path: String) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        dump_postmortem(&tracer, &path);
        prev(info);
    }));
}

/// Writes the recorded trace to the files `--trace` (JSONL event
/// stream) and `--trace-chrome` (Chrome trace-event JSON, viewable in
/// Perfetto or `chrome://tracing`) name, when tracing was enabled.
fn write_trace_outputs(
    trace: Option<&RunTrace>,
    flags: &Flags,
    n_agents: usize,
) -> Result<(), String> {
    let Some(trace) = trace else { return Ok(()) };
    if let Some(path) = flags.get("--trace") {
        let jsonl = to_jsonl(trace).map_err(|e| e.to_string())?;
        std::fs::write(path, jsonl).map_err(|e| e.to_string())?;
        let (logical, timing) = trace.counts();
        println!("  trace: {logical} logical + {timing} timing event(s) written to {path}");
    }
    if let Some(path) = flags.get("--trace-chrome") {
        std::fs::write(path, to_chrome_json(trace, n_agents)).map_err(|e| e.to_string())?;
        println!("  chrome trace: {n_agents} agent track(s) written to {path}");
    }
    Ok(())
}

/// Parses `--latency`'s comma-separated per-agent service times (ms).
fn parse_latency_list(list: &str) -> Result<Vec<f64>, String> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<f64>()
                .map_err(|_| format!("invalid latency `{s}` in --latency"))
        })
        .collect::<Result<Vec<f64>, String>>()
        .and_then(|l| {
            if l.is_empty() {
                Err("--latency needs at least one per-agent time in ms".into())
            } else {
                Ok(l)
            }
        })
}

/// `--async` gate: the steady-state flags are meaningless (and therefore
/// rejected) on generational runs.
fn check_async_flags(flags: &Flags) -> Result<bool, String> {
    let is_async = flags.has("--async");
    if !is_async {
        for f in [
            "--total-evals",
            "--tournament-size",
            "--latency",
            "--jitter-pct",
        ] {
            if flags.get(f).is_some() {
                return Err(format!("{f} requires --async"));
            }
        }
    }
    Ok(is_async)
}

/// Applies the `--async` tuning flags to an already backend-configured
/// builder.
fn async_options(
    mut builder: ClanDriverBuilder,
    flags: &Flags,
) -> Result<ClanDriverBuilder, String> {
    if let Some(n) = flags.get("--total-evals") {
        let n: u64 = n
            .parse()
            .map_err(|_| format!("invalid value `{n}` for --total-evals"))?;
        builder = builder.total_evals(n);
    }
    if let Some(k) = flags.get("--tournament-size") {
        let k: usize = k
            .parse()
            .map_err(|_| format!("invalid value `{k}` for --tournament-size"))?;
        builder = builder.tournament_size(k);
    }
    if let Some(list) = flags.get("--latency") {
        builder = builder.latency_ms(parse_latency_list(list)?);
    }
    if let Some(p) = flags.get("--jitter-pct") {
        let p: u32 = p
            .parse()
            .map_err(|_| format!("invalid value `{p}` for --jitter-pct"))?;
        builder = builder.latency_jitter_pct(p);
    }
    Ok(builder)
}

/// The one build → run → postmortem → print path behind `run`, `solve`
/// and `coordinate`, generational or `--async`: builds the driver the
/// flags ask for and hands its run to [`execute`].
fn launch(
    builder: ClanDriverBuilder,
    flags: &Flags,
    until_solved: bool,
) -> Result<RunReport, String> {
    if check_async_flags(flags)? {
        if until_solved {
            return Err(
                "--async runs to a fixed --total-evals budget; use `run`, not `solve`".into(),
            );
        }
        let driver = async_options(builder, flags)?
            .build_async()
            .map_err(|e| e.to_string())?;
        match driver.schedule() {
            Some(s) => println!(
                "async steady-state run: deterministic virtual time, schedule {}",
                s.describe()
            ),
            None => println!("async steady-state run: streaming over the live cluster"),
        }
        let (recorder, status) = (driver.tracer_handle(), driver.status_local_addr());
        return execute(flags, recorder, status, || {
            driver.run().map(|outcome| (outcome.report, outcome.trace))
        });
    }
    let driver = builder.build().map_err(|e| e.to_string())?;
    let (recorder, status) = (driver.tracer_handle(), driver.status_local_addr());
    if until_solved {
        let max = flags.parse("--max-generations", 50u64)?;
        execute(flags, recorder, status, || {
            driver.run_until_solved_with_trace(max)
        })
    } else {
        let gens = flags.parse("--generations", 5u64)?;
        execute(flags, recorder, status, || driver.run_with_trace(gens))
    }
}

/// Runs a built driver: announces the status endpoint, arms the flight
/// recorder, dumps the postmortem ring if the run fails, and prints the
/// report and trace outputs when it succeeds.
fn execute(
    flags: &Flags,
    recorder: Tracer,
    status: Option<std::net::SocketAddr>,
    run: impl FnOnce() -> Result<(RunReport, Option<RunTrace>), ClanError>,
) -> Result<RunReport, String> {
    if let Some(addr) = status {
        println!("  status endpoint: http://{addr} (/metrics /health /progress)");
    }
    let postmortem = postmortem_path(flags);
    if let Some(path) = &postmortem {
        arm_panic_recorder(recorder.clone(), path.clone());
    }
    let (report, trace) = run().map_err(|e| {
        if let Some(path) = &postmortem {
            dump_postmortem(&recorder, path);
        }
        e.to_string()
    })?;
    print_report(&report);
    write_trace_outputs(trace.as_ref(), flags, report.n_agents)?;
    Ok(report)
}

fn print_report(report: &RunReport) {
    print!("{}", report.summary());
    println!("  energy: {:.0} J total", report.total_energy_j);
    // Async steady-state runs have no generations to tabulate.
    if report.generations.is_empty() {
        return;
    }
    // Only show the cache column when the cache actually fielded lookups
    // (it is absent entirely under --no-cache).
    let caching = report.cache_lookups > 0;
    if caching {
        println!("\n  gen   best     species  sim-total(s)  cache-hits");
    } else {
        println!("\n  gen   best     species  sim-total(s)");
    }
    for g in &report.generations {
        if caching {
            println!(
                "  {:>3}   {:>8.1}  {:>6}  {:>10.2}  {:>6}/{} ({:>4.1}%)",
                g.generation,
                g.best_fitness,
                g.num_species,
                g.timeline.total_s(),
                g.cache_hits,
                g.cache_lookups,
                100.0 * g.cache_hits as f64 / g.cache_lookups.max(1) as f64
            );
        } else {
            println!(
                "  {:>3}   {:>8.1}  {:>6}  {:>10.2}",
                g.generation,
                g.best_fitness,
                g.num_species,
                g.timeline.total_s()
            );
        }
    }
}

fn cmd_run(args: &[String], until_solved: bool) -> Result<(), String> {
    let flags = Flags(args.to_vec());
    launch(build_driver(&flags)?, &flags, until_solved).map(|_| ())
}

fn cmd_agent(args: &[String]) -> Result<(), String> {
    let flags = Flags(args.to_vec());
    let listen = flags.get("--listen").unwrap_or("127.0.0.1:7777");
    let delay_ms: u64 = flags.parse("--delay-ms", 0)?;
    let delay = std::time::Duration::from_millis(delay_ms);
    let once = flags.has("--once");
    // Shared startup banner + serve flow over either server type.
    let banner = |addr: std::net::SocketAddr, transport: &str| {
        println!("clan agent listening on {addr}{transport}");
        if delay_ms > 0 {
            println!("  artificial per-request delay: {delay_ms} ms (heterogeneity testing)");
        }
    };
    if flags.has("--udp") {
        let mut server = UdpAgentServer::bind(listen)
            .map_err(|e| e.to_string())?
            .with_delay(delay);
        banner(server.local_addr(), " (udp)");
        if once {
            server.serve_once().map_err(|e| e.to_string())?;
        } else {
            server.serve_forever()
        }
    } else {
        let server = AgentServer::bind(listen)
            .map_err(|e| e.to_string())?
            .with_delay(delay);
        banner(server.local_addr(), "");
        if once {
            server.serve_once().map_err(|e| e.to_string())?;
        } else {
            server.serve_forever()
        }
    }
    println!("session complete");
    Ok(())
}

/// Parses `coordinate`'s UDP flags into a transport config: `--loss P`
/// (drop probability in [0, 1)) and `--fault-seed S` seed the injected
/// faults; both require `--udp`.
fn parse_udp_flags(flags: &Flags) -> Result<Option<UdpConfig>, String> {
    let loss: f64 = flags.parse("--loss", 0.0)?;
    let seed: u64 = flags.parse("--fault-seed", 0)?;
    if !flags.has("--udp") {
        if flags.get("--loss").is_some() || flags.get("--fault-seed").is_some() {
            return Err("--loss/--fault-seed require --udp".into());
        }
        return Ok(None);
    }
    if !loss.is_finite() || !(0.0..1.0).contains(&loss) {
        return Err(format!("--loss must be in [0, 1), got {loss}"));
    }
    let mut cfg = UdpConfig::default();
    if loss > 0.0 {
        cfg = cfg.with_faults(FaultConfig::loss(loss).with_seed(seed));
    }
    Ok(Some(cfg))
}

fn cmd_coordinate(args: &[String]) -> Result<(), String> {
    let flags = Flags(args.to_vec());
    let mut builder = build_driver(&flags)?;
    let loopback: usize = flags.parse("--loopback", 0)?;
    let udp = parse_udp_flags(&flags)?;
    let transport_name = if udp.is_some() { "UDP" } else { "TCP" };
    builder = match (flags.get("--agents-at"), loopback) {
        (Some(_), n) if n > 0 => {
            return Err("--agents-at and --loopback are mutually exclusive".into())
        }
        (Some(list), _) => {
            let addrs = parse_agent_list(list)?;
            println!(
                "coordinating {} remote {transport_name} agent(s): {}",
                addrs.len(),
                addrs.join(", ")
            );
            if udp.is_some() {
                builder.remote_udp_agents(addrs)
            } else {
                builder.remote_agents(addrs)
            }
        }
        (None, 0) => return Err("coordinate needs --agents-at ADDR,... or --loopback N".into()),
        (None, n) => {
            println!("coordinating {n} loopback {transport_name} agent(s)");
            if udp.is_some() {
                builder.loopback_udp_agents(n)
            } else {
                builder.loopback_agents(n)
            }
        }
    };
    if let Some(udp) = udp {
        if let Some(f) = &udp.faults {
            println!(
                "  injected faults: {:.1}% datagram loss, seed {}",
                100.0 * f.drop_p,
                f.seed
            );
        }
        builder = builder.udp_config(udp);
    }
    if let Some(spec) = flags.get("--churn") {
        let schedule: ChurnSchedule = spec.parse()?;
        println!(
            "  churn injection: {} event(s) ({spec})",
            schedule.events().len()
        );
        builder = builder.churn(schedule);
    }
    if let Some(list) = flags.get("--spare-at") {
        let spares = parse_agent_list(list)?;
        println!("  spare agent(s) on standby: {}", spares.join(", "));
        builder = builder.spare_agents(spares);
    }
    if let Some(n) = flags.get("--min-agents") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("invalid value `{n}` for --min-agents"))?;
        builder = builder.min_agents(n);
    }
    let report = launch(builder, &flags, false)?;
    if let Some(t) = &report.transport {
        println!(
            "\n  measured wire traffic: {} bytes in {} messages",
            t.total_wire_bytes(),
            t.total_messages()
        );
        if let Some(overhead) = t.framing_overhead() {
            println!(
                "  framing overhead vs 4-byte/gene model: {overhead:.2}x ({} modeled bytes)",
                t.modeled_bytes()
            );
        }
        if t.total_retrans_bytes() > 0 {
            println!(
                "  loss recovery: {} retransmitted/duplicate bytes ({:.1}% of wire traffic)",
                t.total_retrans_bytes(),
                100.0 * t.retrans_overhead().unwrap_or(0.0)
            );
        }
    }
    // One aligned per-agent table unifying wire, retransmission,
    // failure, and completion numbers (replaces the old ad-hoc rows).
    let table = report.telemetry.agent_table();
    if !table.is_empty() {
        println!("  per-agent:");
        for line in table.lines() {
            println!("    {line}");
        }
    }
    if let Some(g) = &report.gather {
        if g.gathers > 0 {
            let overlap = g
                .overlap()
                .map_or_else(|| "n/a".into(), |x| format!("{x:.2}x"));
            println!(
                "  gather timing: {} rounds, makespan {:.3} s vs per-agent busy {:.3} s (overlap {overlap})",
                g.gathers, g.makespan_s, g.busy_s
            );
        }
    }
    if let Some(r) = &report.recovery {
        if r.any_recovery() {
            println!(
                "  churn survived: {} link failure(s), {} run(s) re-queued, \
                 {} kill(s) + {} join(s)",
                r.failures, r.reassigned_chunks, r.kills, r.joins
            );
            for (i, n) in r.agent_failures.iter().enumerate() {
                if *n > 0 {
                    println!("    agent {i}: {n} failure(s)");
                }
            }
        }
    }
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    let flags = Flags(args.to_vec());
    let workload = parse_workload(flags.get("--workload").unwrap_or("cartpole"))?;
    let generations: u64 = flags.parse("--generations", 10)?;
    let seed: u64 = flags.parse("--seed", 0)?;
    let out = flags.get("--out").unwrap_or("champion.dot");

    let cfg = NeatConfig::builder(workload.obs_dim(), workload.n_actions())
        .population_size(flags.parse("--population", 96)?)
        .build()
        .map_err(|e| e.to_string())?;
    let mut pop = Population::new(cfg.clone(), seed);
    let mut env = workload.make();
    let mut scratch = Scratch::new();
    for _ in 0..generations {
        pop.evaluate(|net: &FeedForwardNetwork, genome| {
            let outcome = clan::envs::run_episode(env.as_mut(), genome.id().0, 200, |obs| {
                net.act_argmax_with(obs, &mut scratch)
            });
            clan::neat::population::Evaluation {
                fitness: outcome.total_reward,
                activations: outcome.steps,
            }
        });
        pop.advance_generation();
    }
    let champion = pop
        .best_ever()
        .ok_or("no champion evolved (zero generations?)")?;
    std::fs::write(out, genome_to_dot(champion, &cfg)).map_err(|e| e.to_string())?;
    let json_path = format!("{out}.json");
    clan::neat::checkpoint::save_genome(champion, &json_path).map_err(|e| e.to_string())?;
    println!(
        "champion (fitness {:.1}) written to {out} (render with `dot -Tpng`) and {json_path}",
        champion.fitness().unwrap_or(f64::NAN)
    );
    Ok(())
}

fn cmd_list() {
    println!("workloads:");
    for w in Workload::ALL {
        println!(
            "  {:<18} {:>4} obs, {:>2} actions, solved at {:>6}, class {}",
            w.name(),
            w.obs_dim(),
            w.n_actions(),
            w.solved_at(),
            w.class()
        );
    }
    println!("\ntopologies: serial, dcs, dds, dda");
    println!("platforms: pi, jetson, jetson-gpu, hpc, hpc-gpu, systolic");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_list_trims_whitespace_and_skips_stray_commas() {
        assert_eq!(
            parse_agent_list("a:1, b:2,").unwrap(),
            vec!["a:1".to_string(), "b:2".to_string()]
        );
        assert_eq!(
            parse_agent_list("  10.0.0.2:7777 ,,10.0.0.3:7777  ").unwrap(),
            vec!["10.0.0.2:7777".to_string(), "10.0.0.3:7777".to_string()]
        );
    }

    #[test]
    fn agent_list_rejects_empty_lists_with_clear_message() {
        for bad in ["", "  ", ",", " , ,, "] {
            let err = parse_agent_list(bad).unwrap_err();
            assert!(err.contains("at least one"), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn agent_list_rejects_duplicates() {
        let err = parse_agent_list("a:1,b:2, a:1").unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        assert!(err.contains("a:1"), "{err}");
    }

    fn flags(args: &[&str]) -> Flags {
        Flags(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn status_addr_on_agent_is_a_usage_error() {
        let err = validate_flags("agent", &flags(&["--status-addr", "127.0.0.1:0"])).unwrap_err();
        assert!(err.0.contains("--status-addr"), "{err:?}");
        assert!(validate_flags("coordinate", &flags(&["--status-addr", "127.0.0.1:0"])).is_ok());
        assert!(validate_flags("run", &flags(&["--status-addr", "127.0.0.1:0"])).is_ok());
    }

    #[test]
    fn eval_threads_on_coordinate_is_a_usage_error() {
        let threads = flags(&["--loopback", "2", "--eval-threads", "4"]);
        let err = validate_flags("coordinate", &threads).unwrap_err();
        assert!(err.0.contains("runs on the agents"), "{err:?}");
        assert!(validate_flags("run", &threads).is_ok());
        assert!(validate_flags("solve", &threads).is_ok());
        assert!(validate_flags("coordinate", &flags(&["--loopback", "2"])).is_ok());
    }

    #[test]
    fn removed_event_log_flag_points_at_trace() {
        let err = validate_flags("run", &flags(&["--async", "--event-log", "e.log"])).unwrap_err();
        assert!(err.0.contains("--trace"), "{err:?}");
    }

    #[test]
    fn removed_weight_calibrate_and_retry_flags_are_usage_errors() {
        for removed in [
            &["--agent-weights", "1,4"][..],
            &["--calibrate"],
            &["--max-retries", "3"],
        ] {
            let err = validate_flags("coordinate", &flags(removed)).unwrap_err();
            assert!(err.0.contains(removed[0]), "{err:?}");
            assert!(
                err.0.contains("pulled by whichever agent is free"),
                "{err:?}"
            );
        }
        assert!(validate_flags("coordinate", &flags(&["--min-agents", "2"])).is_ok());
    }

    #[test]
    fn removed_batch_flags_are_usage_errors() {
        for removed in [&["--batch-lanes", "8"][..], &["--no-batch"]] {
            for command in ["run", "solve", "coordinate"] {
                let err = validate_flags(command, &flags(removed)).unwrap_err();
                assert!(err.0.contains(removed[0]), "{err:?}");
                assert!(err.0.contains("one activation kernel"), "{err:?}");
            }
        }
        assert!(validate_flags("run", &flags(&["--no-cache"])).is_ok());
    }

    #[test]
    fn postmortem_requires_the_ring() {
        let err = validate_flags("run", &flags(&["--postmortem", "pm.jsonl"])).unwrap_err();
        assert!(err.0.contains("--trace-ring"), "{err:?}");
        assert!(validate_flags(
            "run",
            &flags(&["--trace-ring", "64", "--postmortem", "pm.jsonl"])
        )
        .is_ok());
    }

    #[test]
    fn trace_and_postmortem_must_differ() {
        let err = validate_flags(
            "run",
            &flags(&["--trace-ring", "64", "--trace", "clan-postmortem.jsonl"]),
        )
        .unwrap_err();
        assert!(err.0.contains("both target"), "default collision: {err:?}");
        let err = validate_flags(
            "run",
            &flags(&[
                "--trace-ring",
                "64",
                "--trace",
                "t.jsonl",
                "--postmortem",
                "t.jsonl",
            ]),
        )
        .unwrap_err();
        assert!(err.0.contains("t.jsonl"), "{err:?}");
        assert!(validate_flags(
            "run",
            &flags(&[
                "--trace-ring",
                "64",
                "--trace",
                "t.jsonl",
                "--postmortem",
                "pm.jsonl"
            ]),
        )
        .is_ok());
    }

    #[test]
    fn postmortem_path_is_some_exactly_when_the_ring_is_armed() {
        assert_eq!(postmortem_path(&flags(&["--trace", "t.jsonl"])), None);
        assert_eq!(
            postmortem_path(&flags(&["--trace-ring", "64"])),
            Some(POSTMORTEM_DEFAULT.to_string())
        );
        assert_eq!(
            postmortem_path(&flags(&["--trace-ring", "64", "--postmortem", "pm.jsonl"])),
            Some("pm.jsonl".to_string())
        );
    }
}
