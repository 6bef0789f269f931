//! The `clan-trace` binary on hostile input: a trace file is read from
//! outside the process, so a malformed line or an impossible agent id
//! must end in exit code 2 and a `path: …` message, never in an abort or
//! a report sized by the id.

use std::process::Command;

#[test]
fn deeply_nested_line_exits_2_naming_the_line() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("nested.jsonl");
    std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
    let file = path.to_str().unwrap();
    let out_path = path.with_extension("chrome.json");
    let out_file = out_path.to_str().unwrap();
    let _ = std::fs::remove_file(&out_path);
    for args in [
        vec!["analyze", "--trace", file],
        vec!["diff", file, file],
        vec!["chrome", file, out_file],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_clan-trace"))
            .args(&args)
            .output()
            .unwrap();
        // A stack overflow would be a signal (no code; 134 from a shell).
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{file}: line 1: ")), "{stderr}");
    }
    // `chrome` renders in full before it writes: a bad trace leaves no file.
    assert!(!out_path.exists(), "{out_file} was written");
}

/// A trace naming an agent id beyond `MAX_AGENTS` is corrupt: every verb
/// that sizes a per-agent table from it refuses it with exit 2 instead of
/// growing a row per id.
#[test]
fn an_agent_id_beyond_the_bound_exits_2() {
    use clan_core::telemetry::{to_jsonl, Determinism, EventKind, TraceEvent};
    use clan_core::RunTrace;
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for agent in [1_000_000, u64::MAX] {
        let mut exchange = TraceEvent::base(Determinism::Timing, EventKind::AgentExchange);
        exchange.agent = Some(agent);
        exchange.dur_us = Some(1000);
        let mut gather = TraceEvent::base(Determinism::Timing, EventKind::GatherRound);
        gather.dur_us = Some(1000);
        let trace = RunTrace {
            events: vec![exchange, gather],
        };
        let path = dir.join(format!("agent-{agent}.jsonl"));
        std::fs::write(&path, to_jsonl(&trace).unwrap()).unwrap();
        let file = path.to_str().unwrap();
        let out_path = path.with_extension("chrome.json");
        let out_file = out_path.to_str().unwrap();
        let _ = std::fs::remove_file(&out_path);
        for args in [
            vec!["analyze", "--trace", file],
            vec!["summarize", "--trace", file],
            vec!["chrome", file, out_file],
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_clan-trace"))
                .args(&args)
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(2), "{args:?}: {}", out.status);
            assert!(out.stdout.is_empty(), "{args:?} printed a report");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(&format!("{file}: ")), "{stderr}");
            assert!(stderr.contains("more than the 65536"), "{stderr}");
        }
        assert!(!out_path.exists(), "{out_file} was written");
    }
}
