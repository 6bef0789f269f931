//! The benchmark's own contract: the names the binary emits are the
//! names `BENCHMARK.json` lists, and the smoke mode runs all four
//! workloads end to end with every check on.

use clan_benchmark::json::{self, as_f64, get};
use clan_benchmark::spec::{is_valid_name, Bounds, MetricDef, END_TO_END, PER_LAYER};
use clan_benchmark::workloads::WORKLOADS;
use serde::Value;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'v>(v: &'v Value, key: &str) -> &'v str {
    get(v, key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("string member {key} in {v:?}"))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_map()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn assert_lists(listed: &[Value], defs: &[MetricDef], with_bound: bool) {
    assert_eq!(listed.len(), defs.len());
    for (entry, def) in listed.iter().zip(defs) {
        assert_eq!(str_of(entry, "name"), def.name);
        assert_eq!(str_of(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(str_of(entry, "better"), def.better.as_str(), "{}", def.name);
        let expected: &[&str] = if with_bound {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(entry), expected, "{}", def.name);
    }
}

#[test]
fn emitted_names_equal_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = |key| get(&doc, key).and_then(Value::as_seq).expect("a list");

    let workloads = list("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, def) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(str_of(entry, "name"), def.name);
        assert_eq!(str_of(entry, "why"), def.why);
        assert!(
            def.why.len() <= 200 && !def.why.contains('\n'),
            "{}",
            def.name
        );
    }
    assert_lists(list("end_to_end"), &END_TO_END, true);
    assert_lists(list("per_layer"), &PER_LAYER, false);

    let bounds = Bounds::parse(&json::to_line(doc.clone())).expect("bounds parse");
    for def in &END_TO_END {
        let bound = bounds
            .of(def.name)
            .expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", def.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn every_emitted_name_is_made_of_the_allowed_characters() {
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
    for name in names {
        assert!(is_valid_name(name), "{name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}: unit {:?}",
            m.name,
            m.unit
        );
    }
    assert!(!is_valid_name("") && !is_valid_name(".x") && !is_valid_name("a b"));
}

/// Asserts `line` is the contract's result object for `defs`.
fn assert_contract_line(line: &str, defs: &[MetricDef]) {
    let doc = json::parse(line).expect("result line parses");
    assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(get(&doc, "correct"), Some(&Value::Bool(true)), "{line}");
    assert_eq!(get(&doc, "failed").and_then(as_f64), Some(0.0));
    assert!(get(&doc, "attempted").and_then(as_f64).unwrap() >= 1.0);
    let metrics = get(&doc, "metrics").expect("metrics");
    let names: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(keys(metrics), names);
    for def in defs {
        let m = get(metrics, def.name).unwrap();
        assert_eq!(keys(m), ["value", "unit"]);
        assert_eq!(str_of(m, "unit"), def.unit);
        assert!(get(m, "value").and_then(as_f64).unwrap().is_finite());
    }
}

#[test]
fn smoke_mode_runs_every_workload_with_checks_on() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let run = Command::new(env!("CARGO_BIN_EXE_clan-benchmark"))
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
    assert!(
        run.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    // Each child's last line is the contract object of its pass.
    let result_lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(result_lines.len(), 2 * WORKLOADS.len());
    for pair in result_lines.chunks(2) {
        assert_contract_line(pair[0], &END_TO_END);
        assert_contract_line(pair[1], &PER_LAYER);
    }
    for def in &WORKLOADS {
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            let prefix = format!("{} {} ", def.name, metric.name);
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with(&prefix) && l.ends_with(metric.unit)),
                "no `{prefix}<value> {}` line",
                metric.unit
            );
        }
    }

    let results = std::fs::read_to_string(out.join("results.json")).expect("results.json");
    let results = json::parse(&results).expect("results.json parses");
    assert!(get(&results, "host_cpus").and_then(as_f64).unwrap() >= 1.0);
    for key in ["seed", "rustc", "commit"] {
        assert!(get(&results, key).is_some(), "results.json records {key}");
    }
    let workloads = get(&results, "workloads").expect("workloads");
    for def in &WORKLOADS {
        let passes = get(workloads, def.name).expect(def.name);
        let value = |pass: &str, metric: &str| {
            get(passes, pass)
                .and_then(|p| get(p, "metrics"))
                .and_then(|m| get(m, metric))
                .and_then(|m| get(m, "value"))
                .and_then(as_f64)
                .unwrap_or_else(|| panic!("{} {pass} {metric}", def.name))
        };
        for metric in &END_TO_END {
            assert!(
                value("end_to_end", metric.name) > 0.0,
                "{} {}",
                def.name,
                metric.name
            );
        }
        // The workloads use the transport layer differently.
        let retransmitted = value("per_layer", "transport.retrans_bytes_ratio");
        if def.name.ends_with("-udp") {
            assert!(retransmitted > 0.0, "{}: lossy UDP retransmits", def.name);
        } else {
            assert_eq!(
                retransmitted, 0.0,
                "{}: TCP never retransmits frames",
                def.name
            );
        }
        let trace = std::fs::read_to_string(out.join(format!("{}.trace.json", def.name)))
            .expect("one Chrome trace per workload");
        assert!(trace.contains("\"traceEvents\""));
    }

    // The same file compared with itself is within every bound.
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let compare = Command::new(env!("CARGO_BIN_EXE_clan-benchmark"))
        .arg("compare")
        .arg(out.join("results.json"))
        .arg(out.join("results.json"))
        .arg("--spec")
        .arg(spec)
        .output()
        .expect("compare runs");
    let text = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{text}");
    assert!(
        text.contains("within-bound") && !text.contains(" worse"),
        "{text}"
    );
}
