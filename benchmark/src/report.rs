//! What one workload process reports: named metric values, the
//! attempted/failed operation tally, and their renderings — the
//! `workload metric value unit` lines, the contract's final JSON line,
//! and the detail document the parent aggregates into `results.json`.

use crate::json::{self, map, string};
use crate::spec::MetricDef;
use crate::stats::Summary;
use serde::Value;

/// Attempted and failed operations: one per driver run and one per
/// correctness check.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: a typed error, an unsolved seed, or a
    /// failed check.
    pub failed: u64,
    /// One line per failure, printed to stderr.
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    /// Counts a fallible operation, keeping its value when it succeeded.
    pub fn attempt<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        match result {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// One metric's measured value(s).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// Which metric.
    pub def: &'static MetricDef,
    /// Reported value, with the min / max over the repetitions beside
    /// it (a single sample for most per-layer metrics).
    pub summary: Summary,
}

/// Everything one `--workload NAME --trace T` process measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced (per-layer) pass.
    pub traced: bool,
    /// Timed repetitions behind each summary.
    pub repetitions: usize,
    /// Operation tally.
    pub ops: Ops,
    /// The metrics, in table order.
    pub metrics: Vec<MetricValue>,
}

impl Outcome {
    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    /// The `workload metric value unit` lines.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{} {} {} {}\n",
                self.workload, m.def.name, m.summary.value, m.def.unit
            ));
        }
        out.push_str(&format!(
            "{} ops {} count\n{} failed_ops {} count\n",
            self.workload, self.ops.attempted, self.workload, self.ops.failed
        ));
        out
    }

    /// The contract's last stdout line: `correct`, `attempted`,
    /// `failed`, and each metric's value with its unit.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.def.name,
                map([
                    ("value", Value::Float(m.summary.value)),
                    ("unit", string(m.def.unit)),
                ]),
            )
        });
        json::to_line(map([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.ops.attempted)),
            ("failed", Value::UInt(self.ops.failed)),
            ("metrics", map(metrics)),
        ]))
    }

    /// The detail document: the contract fields plus min/max/n per
    /// metric and the failure notes.
    pub fn detail(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.def.name,
                map([
                    ("value", Value::Float(m.summary.value)),
                    ("min", Value::Float(m.summary.min)),
                    ("max", Value::Float(m.summary.max)),
                    ("n", Value::UInt(m.summary.n as u64)),
                    ("unit", string(m.def.unit)),
                    ("better", string(m.def.better.as_str())),
                ]),
            )
        });
        map([
            ("workload", string(self.workload)),
            ("traced", Value::Bool(self.traced)),
            ("repetitions", Value::UInt(self.repetitions as u64)),
            ("ops", Value::UInt(self.ops.attempted)),
            ("failed_ops", Value::UInt(self.ops.failed)),
            (
                "failures",
                Value::Seq(self.ops.failures.iter().map(string).collect()),
            ),
            ("metrics", map(metrics)),
        ])
    }
}
