//! `clan-benchmark compare A.json B.json`: holds two `results.json`
//! files against each other, metric by metric, under the bounds
//! `BENCHMARK.json` fixes. A is the base of every ratio.

use crate::json::{as_f64, get};
use crate::spec::{Better, Bounds};
use crate::stats::Summary;
use serde::Value;

/// What a (workload, metric) pair shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of B reads better than every run of A.
    Better,
    /// B's value is no worse than A's by more than the bound.
    WithinBound,
    /// B's value is worse than A's by more than the bound.
    Worse,
    /// A stored min–max spread exceeds the bound, so a difference of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for a metric that improves in direction `better`
/// and may worsen by `bound` (a share of A's value).
pub fn verdict(better: Better, bound: f64, a: &Summary, b: &Summary) -> Verdict {
    let (worse_by, every_run_better, every_run_worse) = match better {
        Better::Lower => (b.value - a.value, b.max < a.min, b.min > a.max),
        Better::Higher => (a.value - b.value, b.min > a.max, b.max < a.min),
    };
    // One sample a side (peak RSS) has no runs to hold against each
    // other: only the values and the bound speak.
    let repeated = a.n > 1 && b.n > 1;
    let (every_run_better, every_run_worse) =
        (repeated && every_run_better, repeated && every_run_worse);
    let beyond_bound = worse_by > bound * a.value.abs();
    if every_run_better {
        Verdict::Better
    } else if a.spread() > bound || b.spread() > bound {
        if every_run_worse && beyond_bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if beyond_bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

fn summary_of(metric: &Value) -> Option<Summary> {
    let f = |k| get(metric, k).and_then(as_f64);
    Some(Summary {
        value: f("value")?,
        min: f("min")?,
        max: f("max")?,
        n: f("n")? as usize,
    })
}

fn failure_share(pass: &Value) -> f64 {
    let f = |k| get(pass, k).and_then(as_f64).unwrap_or(0.0);
    f("failed_ops") / f("ops").max(1.0)
}

/// Compares two parsed `results.json` documents; returns the report
/// text and whether B regressed (any `worse`, or a larger share of
/// failed operations).
///
/// # Errors
///
/// A message naming the first workload or metric missing from B.
pub fn compare(a: &Value, b: &Value, bounds: &Bounds) -> Result<(String, bool), String> {
    let workloads = |doc| {
        get(doc, "workloads")
            .and_then(Value::as_map)
            .ok_or("results file has no workloads map")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = format!(
        "{:<18} {:<30} {:>14} {:>14} {:>9}  verdict (ratio = B / A)\n",
        "workload", "metric", "A", "B", "ratio"
    );
    let mut regressed = false;
    for (name, passes_a) in wa {
        let passes_b = wb
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("workload {name} is missing from B"))?;
        for pass in ["end_to_end", "per_layer"] {
            let (Some(pa), Some(pb)) = (get(passes_a, pass), get(passes_b, pass)) else {
                continue;
            };
            let (fa, fb) = (failure_share(pa), failure_share(pb));
            if fb > fa {
                regressed = true;
                out.push_str(&format!(
                    "{name:<18} {:<30} {fa:>14.4} {fb:>14.4} {:>9}  worse\n",
                    format!("{pass}.failure_share"),
                    "-"
                ));
            }
            let metrics = get(pa, "metrics").and_then(Value::as_map).unwrap_or(&[]);
            for (metric, va) in metrics {
                let vb = get(pb, "metrics")
                    .and_then(|m| get(m, metric))
                    .ok_or_else(|| format!("{name} {metric} is missing from B"))?;
                let (Some(sa), Some(sb)) = (summary_of(va), summary_of(vb)) else {
                    return Err(format!("{name} {metric}: malformed summary"));
                };
                let ratio = if sa.value == 0.0 {
                    "-".to_string()
                } else {
                    format!("{:.4}", sb.value / sa.value)
                };
                let judged = bounds.of(metric).and_then(|bound| {
                    let better = match get(va, "better").and_then(Value::as_str)? {
                        "higher" => Better::Higher,
                        _ => Better::Lower,
                    };
                    Some(verdict(better, bound, &sa, &sb))
                });
                regressed |= judged == Some(Verdict::Worse);
                out.push_str(&format!(
                    "{name:<18} {metric:<30} {:>14.6} {:>14.6} {ratio:>9}  {}\n",
                    sa.value,
                    sb.value,
                    // Per-layer metrics carry no bound: shown, not judged.
                    judged.map_or("layer", Verdict::as_str),
                ));
            }
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(min: f64, value: f64, max: f64) -> Summary {
        Summary {
            value,
            min,
            max,
            n: 3,
        }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        use Better::{Higher, Lower};
        let a = s(99.0, 100.0, 101.0);
        assert_eq!(
            verdict(Lower, 0.10, &a, &s(104.0, 105.0, 106.0)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(Lower, 0.10, &a, &s(114.0, 115.0, 116.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Higher, 0.10, &a, &s(114.0, 115.0, 116.0)),
            Verdict::Better
        );
        assert_eq!(
            verdict(Higher, 0.10, &a, &s(84.0, 85.0, 86.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Lower, 0.10, &a, &s(90.0, 91.0, 92.0)),
            Verdict::Better
        );
        // Overlapping runs and a spread wider than the bound: noise.
        assert_eq!(
            verdict(Lower, 0.10, &a, &s(80.0, 112.0, 130.0)),
            Verdict::Unresolved
        );
        // A single sample a side is judged on the values alone.
        let one = |v: f64| Summary {
            value: v,
            min: v,
            max: v,
            n: 1,
        };
        assert_eq!(
            verdict(Lower, 0.10, &one(100.0), &one(99.0)),
            Verdict::WithinBound
        );
        // Wide spread, but every run of B is worse and beyond the bound.
        assert_eq!(
            verdict(Lower, 0.10, &a, &s(120.0, 140.0, 160.0)),
            Verdict::Worse
        );
    }

    #[test]
    fn compare_flags_worse_metrics_and_failure_shares() {
        let bounds = Bounds::parse(
            r#"{"end_to_end":[{"name":"evals_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let doc = |value: f64, failed: u64| {
            crate::json::parse(&format!(
                r#"{{"workloads":{{"w":{{"end_to_end":{{"ops":10,"failed_ops":{failed},
                "metrics":{{"evals_per_s":{{"value":{value},"min":{value},"max":{value},
                "n":3,"unit":"1/s","better":"higher"}}}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let (text, regressed) = compare(&doc(100.0, 0), &doc(95.0, 0), &bounds).unwrap();
        assert!(!regressed, "{text}");
        assert!(text.contains("within-bound"));
        let (text, regressed) = compare(&doc(100.0, 0), &doc(80.0, 0), &bounds).unwrap();
        assert!(regressed && text.contains("worse"), "{text}");
        let (_, regressed) = compare(&doc(100.0, 0), &doc(100.0, 1), &bounds).unwrap();
        assert!(regressed, "a larger failure share is a regression");
        assert!(compare(
            &doc(1.0, 0),
            &crate::json::parse(r#"{"workloads":{}}"#).unwrap(),
            &bounds
        )
        .is_err());
    }
}
