//! The benchmark's vocabulary: workload names, metric names, units and
//! directions, as the binary emits them. `../BENCHMARK.json` lists the
//! same names (a test holds the two equal) and adds the regression
//! bounds, which [`Bounds`] reads back for `compare`.

use crate::json;
use serde::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, overheads).
    Lower,
    /// Larger is better (throughputs, hit rates).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: [MetricDef; 6] = [
    lower("setup_s", "s"),
    higher("evals_per_s", "1/s"),
    lower("time_to_solve_s", "s"),
    lower("cpu_ms_per_eval", "ms"),
    lower("wire_bytes_per_eval", "B"),
    lower("peak_rss_mib", "MiB"),
];

/// Single-layer metrics from the traced pass, named by module. A layer
/// that is not on a workload's path is timed out of band there; counts
/// and ratios of an absent mechanism read 0.
pub const PER_LAYER: [MetricDef; 38] = [
    lower("network.activate_ns", "ns"),
    lower("network.genes_per_activation", "count"),
    lower("network.compile_us_per_genome", "us"),
    lower("batch.activate_ns_per_lane", "ns"),
    higher("cache.hit_rate", "ratio"),
    lower("envs.step_ns", "ns"),
    lower("envs.steps_per_eval", "count"),
    lower("evaluator.eval_us_per_genome", "us"),
    lower("species.speciate_ms", "ms"),
    lower("reproduction.plan_ms", "ms"),
    lower("reproduction.reproduce_ms", "ms"),
    lower("reproduction.install_ms", "ms"),
    lower("steady_state.insert_us", "us"),
    lower("codec.encode_us_per_genome", "us"),
    lower("codec.decode_us_per_genome", "us"),
    lower("codec.bytes_per_genome", "B"),
    lower("codec.framing_overhead_x", "x"),
    lower("transport.frame_rtt_ms", "ms"),
    higher("transport.mib_per_s", "MiB/s"),
    lower("transport.datagrams_per_frame", "count"),
    lower("transport.retrans_bytes_ratio", "ratio"),
    lower("transport.link_failures", "count"),
    lower("runtime.gather_ms_p50", "ms"),
    lower("runtime.busy_ms_p50", "ms"),
    lower("runtime.idle_share", "ratio"),
    lower("runtime.wire_overhead_ms", "ms"),
    lower("runtime.stream_wasted_idle_share", "ratio"),
    lower("runtime.redispatches", "count"),
    lower("driver.gen_ms_p50", "ms"),
    lower("driver.gen_ms_p90", "ms"),
    lower("driver.self_ms", "ms"),
    lower("driver.gens_to_solve", "count"),
    lower("telemetry.overhead_pct", "%"),
    lower("telemetry.events_per_gen", "count"),
    lower("budget.residual_pct", "%"),
    lower("bench.span_overhead_pct", "%"),
    lower("evaluator.share_of_gen_pct", "%"),
    lower("evolution.share_of_gen_pct", "%"),
];

/// Looks a metric up in either table.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Whether `name` is made of the characters the contract allows.
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The end-to-end regression bounds fixed in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds(Vec<(String, f64)>);

impl Bounds {
    /// Reads the `end_to_end[*].{name,bound}` pairs out of the text of a
    /// `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A message naming what is malformed.
    pub fn parse(text: &str) -> Result<Bounds, String> {
        let doc = json::parse(text)?;
        let list = json::get(&doc, "end_to_end")
            .and_then(Value::as_seq)
            .ok_or("BENCHMARK.json: no end_to_end list")?;
        let mut bounds = Vec::with_capacity(list.len());
        for m in list {
            let name = json::get(m, "name")
                .and_then(Value::as_str)
                .ok_or("BENCHMARK.json: end_to_end entry without a name")?;
            let bound = json::get(m, "bound")
                .and_then(json::as_f64)
                .ok_or_else(|| format!("BENCHMARK.json: {name} has no bound"))?;
            bounds.push((name.to_string(), bound));
        }
        Ok(Bounds(bounds))
    }

    /// The bound of `metric`, as a share of the baseline's median.
    pub fn of(&self, metric: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == metric).map(|(_, b)| *b)
    }
}
