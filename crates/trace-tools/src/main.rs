//! `clan-trace` CLI.
//!
//! ```text
//! clan-trace analyze --trace FILE     # critical path, stragglers, recovery
//! clan-trace summarize --trace FILE   # per-agent utilization table only
//! clan-trace diff LEFT RIGHT          # first logical divergence, framed
//! clan-trace chrome IN.jsonl OUT.json # Chrome trace-event JSON, for Perfetto
//! ```
//!
//! Exit codes: 0 analyzed / identical, 1 divergence or truncation found,
//! 2 usage or I/O error, or a corrupt trace (a malformed line, more
//! agents than `MAX_AGENTS`).

use clan_trace_tools::{analyze_file, chrome_file, diff_files};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("analyze") => run_analysis(&args[1..], false),
        Some("summarize") => run_analysis(&args[1..], true),
        Some("diff") => run_diff(&args[1..]),
        Some("chrome") => run_chrome(&args[1..]),
        Some(other) => Ok(usage(&format!("unknown command `{other}`"))),
        None => Ok(usage("missing command")),
    };
    // A trace that cannot be read or is corrupt (or a Chrome file
    // written) exits 2.
    outcome.unwrap_or_else(|e| {
        eprintln!("clan-trace: {e}");
        ExitCode::from(2)
    })
}

fn trace_arg(args: &[String]) -> Result<String, String> {
    let mut path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => match it.next() {
                Some(v) => path = Some(v.clone()),
                None => return Err("--trace needs a file".into()),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    path.ok_or_else(|| "--trace FILE is required".into())
}

fn run_analysis(args: &[String], summary_only: bool) -> Result<ExitCode, String> {
    let path = match trace_arg(args) {
        Ok(p) => p,
        Err(e) => return Ok(usage(&e)),
    };
    let a = analyze_file(&path)?;
    print!(
        "{}",
        if summary_only {
            a.render_summary()
        } else {
            a.render()
        }
    );
    Ok(ExitCode::SUCCESS)
}

fn run_diff(args: &[String]) -> Result<ExitCode, String> {
    let [left, right] = args else {
        return Ok(usage("diff needs exactly two trace files"));
    };
    let outcome = diff_files(left, right)?;
    print!("{}", outcome.render());
    Ok(match outcome.is_identical() {
        true => ExitCode::SUCCESS,
        false => ExitCode::FAILURE,
    })
}

fn run_chrome(args: &[String]) -> Result<ExitCode, String> {
    let [input, output] = args else {
        return Ok(usage("chrome needs a trace file and an output file"));
    };
    let agents = chrome_file(input, output)?;
    println!("chrome trace: {agents} agent track(s) written to {output}");
    Ok(ExitCode::SUCCESS)
}

fn usage(err: &str) -> ExitCode {
    eprintln!("clan-trace: {err}");
    eprintln!(
        "usage: clan-trace analyze --trace FILE | clan-trace summarize --trace FILE \
         | clan-trace diff LEFT RIGHT | clan-trace chrome IN.jsonl OUT.json"
    );
    ExitCode::from(2)
}
