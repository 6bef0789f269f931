//! `clan-cli` — run CLAN deployments from the command line.
//!
//! ```text
//! clan-cli run --workload lunarlander --topology dda --agents 8 --generations 10
//! clan-cli agent --listen 0.0.0.0:7777
//! clan-cli coordinate --agents-at 10.0.0.2:7777,10.0.0.3:7777 --generations 10
//! clan-cli coordinate --loopback 2 --generations 3
//! ```
//!
//! Each command has one flag table ([`COMMANDS`]). One pass checks the
//! arguments against it before any work starts: a misused flag is a usage
//! error that names it and exits 2, and a run that fails exits 1. `help`
//! prints each command's synopsis from the same table.

use clan::core::telemetry::{to_jsonl, Tracer};
use clan::core::transport::agent::AgentServer;
use clan::core::transport::{ChurnSchedule, FaultConfig, UdpConfig};
use clan::core::{ClanDriver, ClanDriverBuilder, ClanError, ClanTopology, RunReport, RunTrace};
use clan::envs::Workload;
use clan::hw::PlatformKind;
use clan::neat::{genome_to_dot, NeatConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("usage error: {msg}\n(see `clan-cli help`)");
            ExitCode::from(2)
        }
        Err(Failure::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command did not succeed. A usage error is caught before any
/// work starts and exits 2; a failed run exits 1, so scripts can tell
/// "you called it wrong" from "the run failed".
#[derive(Debug, PartialEq, Eq)]
enum Failure {
    Usage(String),
    Run(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Run(msg)
    }
}

fn usage(msg: impl Into<String>) -> Failure {
    Failure::Usage(msg.into())
}

/// One row of a flag table: the flag, its value's placeholder (empty for
/// a switch) and the flag it requires (empty for none).
type Flag = (&'static str, &'static str, &'static str);

/// The shape of an evolving run and what it records.
const EVOLVE: &[Flag] = &[
    ("--workload", "W", ""),
    ("--topology", "T", ""),
    ("--population", "N", ""),
    ("--seed", "N", ""),
    ("--platform", "P", ""),
    ("--episodes", "N", ""),
    ("--single-step", "", ""),
    ("--trace", "FILE", ""),
    ("--trace-ring", "N", ""),
    ("--postmortem", "FILE", "--trace-ring"),
    ("--status-addr", "ADDR", ""),
];
const GENERATIONS: &[Flag] = &[("--generations", "N", "")];
const SOLVE: &[Flag] = &[("--max-generations", "N", "")];
/// Simulated agents, evaluated on this host's threads.
const LOCAL: &[Flag] = &[("--agents", "N", "")];
const ASYNC: &[Flag] = &[
    ("--async", "", ""),
    ("--total-evals", "N", "--async"),
    ("--tournament-size", "K", "--async"),
];
/// The simulated agents' service times in virtual time.
const LATENCY: &[Flag] = &[
    ("--latency", "MS,MS,...", "--async"),
    ("--jitter-pct", "P", "--async"),
];
/// Where `coordinate`'s agents are and how it reaches them.
const AGENTS: &[Flag] = &[
    ("--agents-at", "ADDR,ADDR,...", ""),
    ("--loopback", "N", ""),
    ("--udp", "", ""),
    ("--loss", "P", "--udp"),
    ("--fault-seed", "S", "--udp"),
    ("--min-agents", "N", ""),
    ("--churn", "EVENTS", ""),
    ("--spare-at", "ADDR,ADDR,...", ""),
];
const AGENT: &[Flag] = &[
    ("--listen", "ADDR", ""),
    ("--once", "", ""),
    ("--delay-ms", "N", ""),
    ("--udp", "", ""),
];
const EXPORT: &[Flag] = &[
    ("--workload", "W", ""),
    ("--generations", "N", ""),
    ("--population", "N", ""),
    ("--seed", "N", ""),
    ("--out", "FILE.dot", ""),
];

/// A flag table, as row groups some commands share.
type Table = &'static [&'static [Flag]];

/// What a command runs once its arguments have passed its flag table.
type Run = fn(&Args) -> Result<(), Failure>;

/// A command: its name, its flag table and what it runs.
type Command = (&'static str, Table, Run);

const COMMANDS: &[Command] = &[
    ("run", &[GENERATIONS, LOCAL, EVOLVE, ASYNC, LATENCY], evolve),
    ("solve", &[SOLVE, LOCAL, EVOLVE], evolve),
    ("agent", &[AGENT], cmd_agent),
    (
        "coordinate",
        &[AGENTS, GENERATIONS, EVOLVE, ASYNC],
        cmd_coordinate,
    ),
    ("export-champion", &[EXPORT], cmd_export),
    ("list", &[], cmd_list),
    ("help", &[], cmd_help),
];

fn rows(table: Table) -> impl Iterator<Item = &'static Flag> {
    table.iter().copied().flatten()
}

const NOTES: &str = "\
`run` evolves for --generations N, `solve` to the workload's solved score.
`agent` serves one coordinator at a time (--once: then exits; --delay-ms
stalls each request like a slower device). `coordinate` drives the run
over the agents at --agents-at or --loopback N spawned here, as many as
it has, bit-identical to a local run however fast each agent is. TCP
unless --udp; --loss drops a seeded share of datagrams, which the ARQ
layer recovers. --churn k1@2,r1@4 kills agent 1 before round 2 and
revives it before round 4, from --spare-at if remote; --min-agents N
fails a round left with fewer live agents. `export-champion` writes the
champion of the serial run `run` makes with the same --seed, --population
and --generations to --out and --out.json; `list` names workloads and
platforms.

DEFAULTS: workload=cartpole topology=serial (coordinate: dcs) agents=1
          generations=5 population=150 seed=0 platform=pi

A run without agents evaluates on every core its genes repay, with the
same result. DDA evolves one clan per agent: analytic comm books genomes
at generation 0 and resyncs only, yet a live run ships every clan per round.

--trace FILE records a JSONL trace whose logical stream is identical per
seed across serial, TCP, lossy UDP and churned runs; analyze it with
`clan-trace`, and `clan-trace chrome` renders it for Perfetto, one track
per agent. --trace-ring N keeps only the last N events and dumps them to
--postmortem FILE (default clan-postmortem.jsonl) if the run fails.
--status-addr ADDR serves /health, /progress and /metrics (each agent's
row and the run's totals, traced or not) over HTTP, per generation.

--async evolves without barriers: each finished evaluation breeds a
--tournament-size K winner (default 3) over the worst genome, until
--total-evals N (default 10x population). Local runs keep deterministic
virtual time (--latency per-agent ms, --jitter-pct seeded jitter), so two
runs with one --seed give identical --trace files; over real agents the
arrival order is wall-clock, and results are statistical.";

fn help() -> String {
    let synopses: String = COMMANDS.iter().map(synopsis).collect();
    format!("clan-cli — CLAN neuroevolution on edge clusters\n\nUSAGE:\n{synopses}\n{NOTES}")
}

/// A command's synopsis from its flag table, wrapped to 78 columns. A
/// flag that requires another is shown inside that flag's brackets.
fn synopsis(&(name, table, _): &Command) -> String {
    let shown = |&(flag, value, _): &Flag| format!("{flag} {value}").trim_end().to_string();
    let mut words = vec![format!("clan-cli {name}")];
    for row in rows(table).filter(|(_, _, requires)| requires.is_empty()) {
        words.push(format!("[{}", shown(row)));
        let dependents = rows(table).filter(|(_, _, requires)| *requires == row.0);
        words.extend(dependents.map(|d| format!("[{}]", shown(d))));
        words.last_mut().expect("pushed above").push(']');
    }
    let (mut out, mut line) = (String::new(), String::from(" "));
    for word in words {
        if line.len() + word.len() >= 78 {
            out += &(line + "\n");
            line = " ".repeat(5);
        }
        line += &format!(" {word}");
    }
    out + &line + "\n"
}

/// Runs the command `args` name, once the rest of `args` has passed its
/// flag table.
fn dispatch(args: &[String]) -> Result<(), Failure> {
    let (run, args) = parse_command(args)?;
    run(&args)
}

/// A command's arguments that passed its flag table: the command, and
/// each flag given at most once, with its value if it takes one.
struct Args(&'static str, Vec<(&'static str, Option<String>)>);

fn parse_command(args: &[String]) -> Result<(Run, Args), Failure> {
    let (name, rest) = args.split_first().ok_or_else(|| usage("missing command"))?;
    let name = if name == "--help" || name == "-h" {
        "help"
    } else {
        name
    };
    let &(name, table, run) = COMMANDS
        .iter()
        .find(|(command, _, _)| *command == name)
        .ok_or_else(|| usage(format!("unknown command `{name}`")))?;
    let mut parsed = Args(name, Vec::new());
    let mut rest = rest.iter().peekable();
    while let Some(word) = rest.next() {
        let &(flag, placeholder, _) = rows(table)
            .find(|(flag, _, _)| flag == word)
            .ok_or_else(|| usage(format!("`{name}` takes no `{word}`")))?;
        if parsed.has(flag) {
            return Err(usage(format!("{flag} is given twice")));
        }
        let value = match rest.next_if(|v| !placeholder.is_empty() && !v.starts_with("--")) {
            None if !placeholder.is_empty() => {
                return Err(usage(format!("{flag} needs a value: {flag} {placeholder}")))
            }
            value => value.cloned(),
        };
        parsed.1.push((flag, value));
    }
    for &(flag, _, requires) in rows(table) {
        if parsed.has(flag) && !requires.is_empty() && !parsed.has(requires) {
            return Err(usage(format!("{flag} requires {requires}")));
        }
    }
    Ok((run, parsed))
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.1.iter().any(|(name, _)| *name == flag)
    }

    fn text(&self, flag: &str) -> Option<&str> {
        let found = self.1.iter().find(|(name, _)| *name == flag);
        found.and_then(|(_, value)| value.as_deref())
    }

    /// `flag`'s value through `parse`, `None` when the flag is absent; a
    /// value `parse` rejects is a usage error naming the flag.
    fn get_with<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, Failure> {
        let parse = |v| parse(v).map_err(|e| usage(format!("{flag} `{v}`: {e}")));
        self.text(flag).map(parse).transpose()
    }

    /// `flag`'s value as a `T`, `None` when the flag is absent.
    fn get<T: std::str::FromStr<Err: std::fmt::Display>>(
        &self,
        flag: &str,
    ) -> Result<Option<T>, Failure> {
        self.get_with(flag, |v| v.parse().map_err(|e: T::Err| e.to_string()))
    }
}

/// Resolves `--workload`: an exact name in any case, or a fragment of
/// exactly one name. `car` is in both Cartpole-v0 and MountainCar-v0, so
/// it is refused rather than guessed.
fn parse_workload(s: &str) -> Result<Workload, String> {
    let lower = s.to_lowercase();
    let name = |w: &Workload| w.name().to_lowercase();
    if let Some(w) = Workload::ALL.into_iter().find(|w| name(w) == lower) {
        return Ok(w);
    }
    let matches: Vec<Workload> = Workload::ALL
        .into_iter()
        .filter(|w| name(w).contains(&lower))
        .collect();
    let names = |ws: &[Workload]| ws.iter().map(|w| w.name()).collect::<Vec<_>>().join(", ");
    match matches[..] {
        [w] => Ok(w),
        [] => Err(format!("matches none of {}", names(&Workload::ALL))),
        _ => Err(format!("matches {}; name one", names(&matches))),
    }
}

/// The trimmed, non-empty items of a comma-separated list.
fn items(list: &str) -> impl Iterator<Item = &str> {
    list.split(',').map(str::trim).filter(|s| !s.is_empty())
}

/// Parses `--agents-at`'s comma-separated address list, skipping empties
/// left by stray commas. Duplicates (a single agent serves one session
/// at a time, so a duplicated address would hang the coordinator) and
/// effectively-empty lists get a clear message instead of a confusing
/// downstream connect error.
fn parse_agent_list(list: &str) -> Result<Vec<String>, String> {
    let mut addrs: Vec<String> = Vec::new();
    for addr in items(list) {
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

/// Parses `--latency`'s comma-separated per-agent service times (ms).
fn parse_latency_list(list: &str) -> Result<Vec<f64>, String> {
    let ms = items(list).map(|s| s.parse().map_err(|_| format!("invalid latency `{s}`")));
    let ms = ms.collect::<Result<Vec<f64>, String>>()?;
    if ms.is_empty() {
        return Err("needs at least one per-agent time in ms".into());
    }
    Ok(ms)
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

/// The driver `args` describe, before its devices are counted. On real
/// agents (`coordinate`) the topology defaults to DCS, and serial, which
/// runs nothing on them, is refused.
fn build_driver(args: &Args, on_agents: bool) -> Result<ClanDriverBuilder, Failure> {
    let topology = match args
        .text("--topology")
        .unwrap_or(if on_agents { "dcs" } else { "serial" })
    {
        "serial" if on_agents => return Err(usage("--topology serial runs nothing on agents")),
        "serial" => ClanTopology::serial(),
        "dcs" => ClanTopology::dcs(),
        "dds" => ClanTopology::dds(),
        "dda" => ClanTopology::dda(),
        other => return Err(usage(format!("unknown --topology `{other}`"))),
    };
    let workload = args.get_with("--workload", parse_workload)?;
    let platform = args.get_with("--platform", parse_platform)?;
    let mut builder = ClanDriver::builder(workload.unwrap_or(Workload::CartPole))
        .topology(topology)
        .population_size(args.get("--population")?.unwrap_or(150))
        .seed(args.get("--seed")?.unwrap_or(0))
        .episodes_per_eval(args.get("--episodes")?.unwrap_or(1))
        .platform(platform.unwrap_or(PlatformKind::RaspberryPi))
        .tracing(args.has("--trace"));
    if args.has("--single-step") {
        builder = builder.single_step();
    }
    if let Some(n) = args.get("--trace-ring")? {
        builder = builder.trace_ring(n);
    }
    if let Some(addr) = args.text("--status-addr") {
        builder = builder.status_addr(addr);
    }
    Ok(builder)
}

/// Where the flight recorder dumps the ring when no `--postmortem FILE`
/// overrides it.
const POSTMORTEM_DEFAULT: &str = "clan-postmortem.jsonl";

/// The flight recorder armed for this invocation, as the postmortem
/// dump path: `Some` exactly when `--trace-ring N` bounded the tracer.
/// A `--trace` naming the same file is a usage error.
fn postmortem_path(args: &Args) -> Result<Option<String>, Failure> {
    if !args.has("--trace-ring") {
        return Ok(None);
    }
    let postmortem = args.text("--postmortem").unwrap_or(POSTMORTEM_DEFAULT);
    if args.text("--trace") == Some(postmortem) {
        return Err(usage(format!(
            "--trace and the flight-recorder postmortem dump both target `{postmortem}`; \
             point --postmortem (or --trace) at a different file"
        )));
    }
    Ok(Some(postmortem.to_string()))
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

/// Writes the recorded trace as JSONL to the file `--trace` names, when
/// tracing was enabled.
fn write_trace(trace: Option<&RunTrace>, args: &Args) -> Result<(), String> {
    let (Some(trace), Some(path)) = (trace, args.text("--trace")) else {
        return Ok(());
    };
    let jsonl = to_jsonl(trace).map_err(|e| e.to_string())?;
    std::fs::write(path, jsonl).map_err(|e| e.to_string())?;
    let (logical, timing) = trace.counts();
    println!("  trace: {logical} logical + {timing} timing event(s) written to {path}");
    Ok(())
}

/// `run` and `solve`: evolve over `--agents N` simulated agents.
fn evolve(args: &Args) -> Result<(), Failure> {
    let agents = args.get("--agents")?.unwrap_or(1);
    launch(build_driver(args, false)?.agents(agents), args)
}

/// A run's outcome: its report, carrying its trace when traced.
type Outcome = Result<RunReport, ClanError>;

/// The one build → run → postmortem → print path behind `run`, `solve`
/// and `coordinate`, generational or `--async`: builds the driver the
/// arguments ask for, announces the status endpoint, arms the flight
/// recorder, dumps the postmortem ring if the run fails, and prints the
/// report and trace outputs when it succeeds.
fn launch(mut builder: ClanDriverBuilder, args: &Args) -> Result<(), Failure> {
    let postmortem = postmortem_path(args)?;
    let (recorder, status, run): (Tracer, _, Box<dyn FnOnce() -> Outcome>) = if args.has("--async")
    {
        if let Some(n) = args.get("--total-evals")? {
            builder = builder.total_evals(n);
        }
        if let Some(k) = args.get("--tournament-size")? {
            builder = builder.tournament_size(k);
        }
        if let Some(latencies) = args.get_with("--latency", parse_latency_list)? {
            builder = builder.latency_ms(latencies);
        }
        if let Some(p) = args.get("--jitter-pct")? {
            builder = builder.latency_jitter_pct(p);
        }
        let driver = builder.build_async().map_err(|e| e.to_string())?;
        match driver.schedule() {
            Some(s) => println!(
                "async steady-state run: deterministic virtual time, schedule {}",
                s.describe()
            ),
            None => println!("async steady-state run: streaming over the live cluster"),
        }
        let (recorder, status) = (driver.tracer_handle(), driver.status_local_addr());
        let run = move || driver.run().map(|outcome| outcome.report);
        (recorder, status, Box::new(run))
    } else {
        let until_solved = args.0 == "solve";
        let generations = match until_solved {
            true => args.get("--max-generations")?.unwrap_or(50),
            false => args.get("--generations")?.unwrap_or(5),
        };
        let driver = builder.build().map_err(|e| e.to_string())?;
        let (recorder, status) = (driver.tracer_handle(), driver.status_local_addr());
        let run = move || match until_solved {
            true => driver.run_until_solved(generations),
            false => driver.run(generations),
        };
        (recorder, status, Box::new(run))
    };
    if let Some(addr) = status {
        println!("  status endpoint: http://{addr} (/metrics /health /progress)");
    }
    if let Some(path) = &postmortem {
        arm_panic_recorder(recorder.clone(), path.clone());
    }
    let report = run().map_err(|e| {
        if let Some(path) = &postmortem {
            dump_postmortem(&recorder, path);
        }
        e.to_string()
    })?;
    print_report(&report);
    Ok(write_trace(report.trace.as_ref(), args)?)
}

fn print_report(report: &RunReport) {
    print!("{}", report.summary());
    // Async steady-state runs have no generations to charge or tabulate.
    if report.generations.is_empty() {
        return;
    }
    println!("  energy: {:.0} J total", report.total_energy_j);
    // Only show the cache column when the cache actually fielded lookups.
    let caching = report.cache_lookups > 0;
    let column = if caching { "  cache-hits" } else { "" };
    println!("\n  gen   best     species  sim-total(s){column}");
    for g in &report.generations {
        let hits = match caching {
            true => format!(
                "  {:>6}/{} ({:>4.1}%)",
                g.cache_hits,
                g.cache_lookups,
                100.0 * g.cache_hits as f64 / g.cache_lookups.max(1) as f64
            ),
            false => String::new(),
        };
        let (gen, best, species) = (g.generation, g.best_fitness, g.num_species);
        let total = g.timeline.total_s();
        println!("  {gen:>3}   {best:>8.1}  {species:>6}  {total:>10.2}{hits}");
    }
}

fn cmd_agent(args: &Args) -> Result<(), Failure> {
    let listen = args.text("--listen").unwrap_or("127.0.0.1:7777");
    let delay_ms: u64 = args.get("--delay-ms")?.unwrap_or(0);
    let udp = args.has("--udp").then(UdpConfig::default);
    let transport = if udp.is_some() { " (udp)" } else { "" };
    let mut server = AgentServer::bind(listen, udp)
        .map_err(|e| e.to_string())?
        .with_delay(std::time::Duration::from_millis(delay_ms));
    println!("clan agent listening on {}{transport}", server.local_addr());
    if delay_ms > 0 {
        println!("  artificial per-request delay: {delay_ms} ms (heterogeneity testing)");
    }
    if !args.has("--once") {
        server.serve_forever()
    }
    server.serve_once().map_err(|e| e.to_string())?;
    println!("session complete");
    Ok(())
}

/// `coordinate`'s transport: TCP unless `--udp`, whose links drop a
/// seeded `--loss P` share of datagrams when asked to.
fn udp_config(args: &Args) -> Result<Option<UdpConfig>, Failure> {
    if !args.has("--udp") {
        return Ok(None);
    }
    let loss = args.get_with("--loss", |p| match p.parse::<f64>() {
        Ok(p) if (0.0..1.0).contains(&p) => Ok(p),
        _ => Err("must be a drop probability in [0, 1)".into()),
    })?;
    let mut cfg = UdpConfig::default();
    if let Some(loss) = loss.filter(|p| *p > 0.0) {
        let seed = args.get("--fault-seed")?.unwrap_or(0);
        cfg = cfg.with_faults(FaultConfig::loss(loss).with_seed(seed));
    }
    Ok(Some(cfg))
}

/// `coordinate`: the run `run` would make, over the agents it has — the
/// `--agents-at` daemons or `--loopback N` spawned here. Their number is
/// the run's one device count: the modelled cluster's and DDA's clans.
fn cmd_coordinate(args: &Args) -> Result<(), Failure> {
    let remote = args.get_with("--agents-at", parse_agent_list)?;
    let loopback = match (&remote, args.get("--loopback")?) {
        (Some(_), None) => 0,
        (None, Some(n)) if n > 0 => n,
        (Some(_), Some(_)) => return Err(usage("--agents-at and --loopback exclude each other")),
        _ => return Err(usage("coordinate needs --agents-at or --loopback N > 0")),
    };
    let udp = udp_config(args)?;
    let churn = args.get::<ChurnSchedule>("--churn")?;
    let spares = args.get_with("--spare-at", parse_agent_list)?;
    let min_agents = args.get("--min-agents")?;
    let mut builder = build_driver(args, true)?;

    let transport = if udp.is_some() { "UDP" } else { "TCP" };
    builder = match remote {
        Some(addrs) => {
            let (n, list) = (addrs.len(), addrs.join(", "));
            println!("coordinating {n} remote {transport} agent(s): {list}");
            builder.remote_agents(addrs)
        }
        None => {
            println!("coordinating {loopback} loopback {transport} agent(s)");
            builder.loopback_agents(loopback)
        }
    };
    if let Some(udp) = udp {
        if let Some(f) = &udp.faults {
            let (loss, seed) = (100.0 * f.drop_p, f.seed);
            println!("  injected faults: {loss:.1}% datagram loss, seed {seed}");
        }
        builder = builder.udp_config(udp);
    }
    if let (Some(schedule), Some(spec)) = (churn, args.text("--churn")) {
        let events = schedule.events().len();
        println!("  churn injection: {events} event(s) ({spec})");
        builder = builder.churn(schedule);
    }
    if let Some(spares) = spares {
        println!("  spare agent(s) on standby: {}", spares.join(", "));
        builder = builder.spare_agents(spares);
    }
    if let Some(n) = min_agents {
        builder = builder.min_agents(n);
    }
    launch(builder, args)
}

/// `export-champion`: the champion of the serial run `run` makes with the
/// same seed, population and generations.
fn cmd_export(args: &Args) -> Result<(), Failure> {
    let workload = args.get_with("--workload", parse_workload)?;
    let workload = workload.unwrap_or(Workload::CartPole);
    let (seed, generations) = (args.get("--seed")?, args.get("--generations")?);
    let report = ClanDriver::builder(workload)
        .population_size(args.get("--population")?.unwrap_or(96))
        .seed(seed.unwrap_or(0))
        .build()
        .and_then(|driver| driver.run(generations.unwrap_or(10)))
        .map_err(|e| e.to_string())?;
    let missing = || "no champion evolved (zero generations?)".to_string();
    let champion = report.champion.ok_or_else(missing)?;
    let dims = NeatConfig::builder(workload.obs_dim(), workload.n_actions()).build();
    let dot = genome_to_dot(&champion, &dims.map_err(|e| e.to_string())?);
    let out = args.text("--out").unwrap_or("champion.dot");
    std::fs::write(out, dot).map_err(|e| e.to_string())?;
    let json_path = format!("{out}.json");
    clan::neat::checkpoint::save_genome(&champion, &json_path).map_err(|e| e.to_string())?;
    println!(
        "champion (fitness {:.1}) written to {out} (render with `dot -Tpng`) and {json_path}",
        champion.fitness().unwrap_or(f64::NAN)
    );
    Ok(())
}

fn cmd_list(_: &Args) -> Result<(), Failure> {
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
    Ok(())
}

fn cmd_help(_: &Args) -> Result<(), Failure> {
    println!("{}", help());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

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

    fn words(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// The arguments of a command line its flag table accepts.
    fn accepted(args: &[&str]) -> Args {
        match parse_command(&words(args)) {
            Ok((_, parsed)) => parsed,
            Err(e) => panic!("{args:?} -> {e:?}"),
        }
    }

    /// The message of the usage error (exit 2) a command line ends in.
    /// Every misuse fails before a driver is built, so nothing runs.
    fn misuse(args: &[&str]) -> String {
        match dispatch(&words(args)) {
            Err(Failure::Usage(msg)) => msg,
            other => panic!("{args:?} -> {other:?}, not a usage error"),
        }
    }

    #[test]
    fn every_misuse_is_a_usage_error_naming_its_flag() {
        // Each command line, and what its message must name.
        let cases: &[(&[&str], &[&str])] = &[
            (&["run", "--generation", "2"], &["--generation"]),
            (&["run", "--seed", "1", "--seed", "2"], &["--seed", "twice"]),
            (&["run", "--trace", "--single-step"], &["--trace"]),
            (&["run", "--generations"], &["--generations"]),
            (&["run", "stray"], &["stray"]),
            (&["bogus"], &["bogus"]),
            (
                &["run", "--total-evals", "60"],
                &["--total-evals", "--async"],
            ),
            (
                &["coordinate", "--loopback", "2", "--loss", "0.1"],
                &["--loss", "--udp"],
            ),
            (
                &["coordinate", "--loopback", "2", "--fault-seed", "7"],
                &["--fault-seed"],
            ),
            // The removed flags have tests of their own below.
            // The agent count of `coordinate` is the agents it has.
            (
                &["coordinate", "--loopback", "2", "--agents", "2"],
                &["--agents"],
            ),
            (&["coordinate"], &["--loopback"]),
            (&["coordinate", "--loopback", "0"], &["--loopback"]),
            (
                &["coordinate", "--loopback", "2", "--agents-at", "a:1"],
                &["--agents-at"],
            ),
            (
                &["coordinate", "--loopback", "2", "--topology", "serial"],
                &["--topology"],
            ),
            (&["solve", "--async"], &["--async"]),
            (&["run", "--no-cache"], &["--no-cache"]),
            (&["run", "--population", "many"], &["--population", "many"]),
            (
                &["run", "--workload", "car"],
                &["Cartpole-v0", "MountainCar-v0"],
            ),
            (&["run", "--topology", "ring"], &["--topology"]),
            (
                &["coordinate", "--loopback", "2", "--udp", "--loss", "1.5"],
                &["--loss"],
            ),
            (&["coordinate", "--agents-at", "a:1,a:1"], &["duplicate"]),
            (&["export-champion", "--out"], &["--out"]),
        ];
        for (args, named) in cases {
            let msg = misuse(args);
            for name in *named {
                assert!(msg.contains(name), "{args:?} -> {msg}");
            }
        }
        for args in [
            &["run", "--trace", "t.jsonl", "--single-step"][..],
            &["run", "--async", "--total-evals", "60", "--latency", "2,8"],
            &["coordinate", "--agents-at", "a:1", "--udp", "--loss", "0.1"],
            &["export-champion", "--population", "24", "--out", "c.dot"],
        ] {
            accepted(args);
        }
    }

    #[test]
    fn removed_event_log_flag_points_at_trace() {
        let msg = misuse(&["run", "--async", "--event-log", "e.log"]);
        assert!(msg.contains("--event-log"), "{msg}");
        // The usage error points at help, whose `run` line offers --trace.
        assert!(synopsis(&COMMANDS[0]).contains("[--trace FILE]"));
        accepted(&["run", "--async", "--trace", "e.log"]);
    }

    #[test]
    fn removed_weight_calibrate_and_retry_flags_are_usage_errors() {
        for removed in [
            &["coordinate", "--agent-weights", "1,4"][..],
            &["coordinate", "--calibrate"],
            &["coordinate", "--max-retries", "3"],
        ] {
            let msg = misuse(removed);
            assert!(msg.contains(removed[1]), "{msg}");
        }
        accepted(&["coordinate", "--loopback", "2", "--min-agents", "2"]);
    }

    #[test]
    fn removed_batch_flags_are_usage_errors() {
        for removed in [&["--batch-lanes", "8"][..], &["--no-batch"]] {
            for command in ["run", "solve", "coordinate"] {
                let args: Vec<&str> = [command].iter().chain(removed).copied().collect();
                let msg = misuse(&args);
                assert!(msg.contains(removed[0]), "{msg}");
            }
        }
        accepted(&["run", "--single-step"]);
    }

    #[test]
    fn removed_eval_threads_flag_is_a_usage_error() {
        // A run without agents derives its evaluation threads.
        for command in ["run", "solve", "coordinate"] {
            let msg = misuse(&[command, "--eval-threads", "4"]);
            assert!(msg.contains("--eval-threads"), "{msg}");
        }
        accepted(&["coordinate", "--loopback", "2"]);
    }

    #[test]
    fn removed_trace_chrome_flag_is_a_usage_error() {
        // `clan-trace chrome` renders any --trace file instead.
        for command in ["run", "solve", "coordinate"] {
            let msg = misuse(&[command, "--trace-chrome", "x.json"]);
            assert!(msg.contains("--trace-chrome"), "{msg}");
        }
        accepted(&["run", "--trace", "x.jsonl"]);
    }

    #[test]
    fn status_addr_on_agent_is_a_usage_error() {
        let msg = misuse(&["agent", "--status-addr", "127.0.0.1:0"]);
        assert!(msg.contains("--status-addr"), "{msg}");
        accepted(&["coordinate", "--status-addr", "127.0.0.1:0"]);
        accepted(&["run", "--status-addr", "127.0.0.1:0"]);
    }

    #[test]
    fn exported_champion_is_the_one_run_evolves() {
        let dir = std::env::temp_dir().join(format!("clan-cli-export-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (workload, population, seed, generations) in [
            (Workload::CartPole, 24, 5, 3),
            (Workload::MountainCar, 16, 2, 2),
        ] {
            let out = dir.join(format!("{workload}.dot"));
            let (population_arg, seed_arg) = (population.to_string(), seed.to_string());
            dispatch(&words(&[
                "export-champion",
                "--workload",
                workload.name(),
                "--population",
                &population_arg,
                "--seed",
                &seed_arg,
                "--generations",
                &generations.to_string(),
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
            let json = format!("{}.json", out.display());
            let exported = clan::neat::checkpoint::load_genome(json).unwrap();
            let run = ClanDriver::builder(workload)
                .population_size(population)
                .seed(seed)
                .build()
                .unwrap()
                .run(generations)
                .unwrap();
            let fitness = exported.fitness().unwrap();
            assert_eq!(fitness.to_bits(), run.best_fitness.to_bits(), "{workload}");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn postmortem_requires_the_ring() {
        let msg = misuse(&["run", "--postmortem", "pm.jsonl"]);
        assert!(msg.contains("--trace-ring"), "{msg}");
        accepted(&["run", "--trace-ring", "64", "--postmortem", "pm.jsonl"]);
    }

    #[test]
    fn help_lists_exactly_the_flags_each_table_accepts() {
        let flags_in = |text: &str| -> BTreeSet<String> {
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|w| w.starts_with("--") && w.len() > 2)
                .map(String::from)
                .collect()
        };
        let mut every = BTreeSet::new();
        for command @ &(name, table, _) in COMMANDS {
            let names: BTreeSet<String> = rows(table).map(|f| f.0.to_string()).collect();
            assert_eq!(flags_in(&synopsis(command)), names, "{name}");
            for (_, _, required) in rows(table).filter(|f| !f.2.is_empty()) {
                assert!(names.contains(*required), "{name}: {required}");
            }
            every.extend(names);
        }
        let notes = flags_in(NOTES);
        assert!(notes.is_subset(&every), "{:?}", notes.difference(&every));
        assert!(
            help().lines().all(|l| l.chars().count() <= 80),
            "{}",
            help()
        );
    }

    #[test]
    fn workload_is_an_exact_name_or_a_unique_fragment() {
        for (arg, workload) in [
            ("cartpole", Workload::CartPole),
            ("airraid", Workload::AirRaid),
            ("alien", Workload::Alien),
            ("lunarlander", Workload::LunarLander),
            ("mountain", Workload::MountainCar),
            ("ALIEN-RAM-V0", Workload::Alien),
        ] {
            assert_eq!(parse_workload(arg), Ok(workload), "{arg}");
        }
        for (arg, named) in [
            ("car", &["Cartpole-v0", "MountainCar-v0"][..]),
            ("v0", &["Cartpole-v0", "Alien-ram-v0"]),
            ("a", &["Airraid-ram-v0", "LunarLander-v2"]),
            ("pong", &["Cartpole-v0", "Alien-ram-v0"]),
        ] {
            let err = parse_workload(arg).unwrap_err();
            for name in named {
                assert!(err.contains(name), "{arg} -> {err}");
            }
        }
    }

    #[test]
    fn trace_and_postmortem_must_differ() {
        let collides = |args: &[&str]| match postmortem_path(&accepted(args)) {
            Err(Failure::Usage(msg)) => msg,
            other => panic!("{args:?} -> {other:?}"),
        };
        let msg = collides(&[
            "run",
            "--trace-ring",
            "64",
            "--trace",
            "clan-postmortem.jsonl",
        ]);
        assert!(msg.contains("both target"), "default collision: {msg}");
        let msg = collides(&[
            "run",
            "--trace-ring",
            "64",
            "--trace",
            "t.jsonl",
            "--postmortem",
            "t.jsonl",
        ]);
        assert!(msg.contains("t.jsonl"), "{msg}");
        let distinct = [
            "run",
            "--trace-ring",
            "64",
            "--trace",
            "t.jsonl",
            "--postmortem",
            "pm.jsonl",
        ];
        assert!(postmortem_path(&accepted(&distinct)).is_ok());
    }

    #[test]
    fn postmortem_path_is_some_exactly_when_the_ring_is_armed() {
        let path = |args: &[&str]| postmortem_path(&accepted(args));
        assert_eq!(path(&["run", "--trace", "t.jsonl"]), Ok(None));
        assert_eq!(
            path(&["run", "--trace-ring", "64"]),
            Ok(Some(POSTMORTEM_DEFAULT.to_string()))
        );
        assert_eq!(
            path(&["run", "--trace-ring", "64", "--postmortem", "pm.jsonl"]),
            Ok(Some("pm.jsonl".to_string()))
        );
    }
}
