//! Divergence diffing over two deterministic (Logical) streams.
//!
//! Two runs with the same seed and workload must produce byte-identical
//! logical streams regardless of execution surface. When they do not,
//! the interesting question is *where they first disagree* — one flipped
//! fitness bit early in generation 3 matters far more than the thousands
//! of downstream lines it perturbs. `diff` walks both streams in lockstep
//! and reports the first divergent logical event with enough framing to
//! act on ("gen 7, eval of genome 1234, fitness 0x…").

use crate::event::describe;
use clan_core::telemetry::{Determinism, EventKind, TraceEvent};

/// One side's view of a logical position: the rendered stream line plus
/// the human framing of the event behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffSide {
    /// The event's `logical_line()` rendering.
    pub line: String,
    /// [`describe`] with tracked generation context.
    pub context: String,
}

/// Outcome of diffing two traces.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffOutcome {
    /// Logical streams are identical (count included).
    Identical {
        /// Number of logical events compared.
        events: u64,
    },
    /// The streams disagree at a position both sides reach.
    Diverged {
        /// 0-based index into the logical stream.
        index: u64,
        /// Left side at the divergence.
        left: DiffSide,
        /// Right side at the divergence.
        right: DiffSide,
        /// Matching lines immediately before the divergence (up to 3).
        preceding: Vec<String>,
    },
    /// One stream is a strict prefix of the other.
    Truncated {
        /// Logical events both sides share.
        common: u64,
        /// Which side ended early: "left" or "right".
        short_side: &'static str,
        /// The first unmatched event on the longer side.
        next: DiffSide,
    },
}

fn logical_only(events: &[TraceEvent]) -> Vec<&TraceEvent> {
    events
        .iter()
        .filter(|e| e.class == Determinism::Logical)
        .collect()
}

fn side(ev: &TraceEvent, generation: Option<u64>) -> DiffSide {
    DiffSide {
        line: ev.logical_line().unwrap_or_default(),
        context: describe(ev, generation),
    }
}

/// Diffs the logical streams of two parsed traces (Timing events are
/// ignored — they are expected to vary run to run).
pub fn diff(left: &[TraceEvent], right: &[TraceEvent]) -> DiffOutcome {
    let l = logical_only(left);
    let r = logical_only(right);
    let mut preceding: Vec<String> = Vec::new();
    // Generation framing: per-genome events don't carry their
    // generation, so track the last GenerationStart seen on each side.
    let mut gen_l: Option<u64> = None;
    let mut gen_r: Option<u64> = None;

    for (i, (le, re)) in l.iter().zip(r.iter()).enumerate() {
        if le.kind == EventKind::GenerationStart {
            gen_l = le.generation;
        }
        if re.kind == EventKind::GenerationStart {
            gen_r = re.generation;
        }
        let ll = le.logical_line().unwrap_or_default();
        let rl = re.logical_line().unwrap_or_default();
        if ll != rl {
            return DiffOutcome::Diverged {
                index: i as u64,
                left: side(le, gen_l),
                right: side(re, gen_r),
                preceding,
            };
        }
        preceding.push(ll);
        if preceding.len() > 3 {
            preceding.remove(0);
        }
    }

    match l.len().cmp(&r.len()) {
        std::cmp::Ordering::Equal => DiffOutcome::Identical {
            events: l.len() as u64,
        },
        std::cmp::Ordering::Less => DiffOutcome::Truncated {
            common: l.len() as u64,
            short_side: "left",
            next: side(r[l.len()], gen_r),
        },
        std::cmp::Ordering::Greater => DiffOutcome::Truncated {
            common: r.len() as u64,
            short_side: "right",
            next: side(l[r.len()], gen_l),
        },
    }
}

impl DiffOutcome {
    /// Renders the human-readable `clan-trace diff` report.
    pub fn render(&self) -> String {
        match self {
            DiffOutcome::Identical { events } => {
                format!("identical: {events} logical event(s), no divergence\n")
            }
            DiffOutcome::Diverged {
                index,
                left,
                right,
                preceding,
            } => {
                let mut out = format!("diverged at logical event {index}\n");
                out.push_str(&format!("  context: {}\n", left.context));
                for p in preceding {
                    out.push_str(&format!("    = {p}\n"));
                }
                out.push_str(&format!("    < {}\n", left.line));
                out.push_str(&format!("    > {}\n", right.line));
                if left.context != right.context {
                    out.push_str(&format!("  right-side context: {}\n", right.context));
                }
                out
            }
            DiffOutcome::Truncated {
                common,
                short_side,
                next,
            } => format!(
                "truncated: streams identical for {common} logical event(s), \
                 then the {short_side} trace ends\n  next on the longer side: {} ({})\n",
                next.line, next.context
            ),
        }
    }

    /// True when the two streams were byte-identical.
    pub fn is_identical(&self) -> bool {
        matches!(self, DiffOutcome::Identical { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(fitness_mid: u64, truncate: bool) -> Vec<TraceEvent> {
        let logical = |lseq: u64, kind: EventKind| {
            let mut ev = TraceEvent::base(Determinism::Logical, kind);
            ev.lseq = Some(lseq);
            ev
        };
        let mut start = logical(0, EventKind::RunStart);
        start.seed = Some(42);
        start.label = Some("xor".into());
        start.population = Some(8);
        let mut cluster = TraceEvent::base(Determinism::Timing, EventKind::ClusterInfo);
        cluster.items = Some(2);
        let mut generation = logical(1, EventKind::GenerationStart);
        generation.generation = Some(0);
        let mut eval = logical(2, EventKind::EvalResult);
        eval.genome = Some(7);
        eval.fitness_bits = Some(fitness_mid);
        let mut events = vec![start, cluster, generation, eval];
        if !truncate {
            events.push(logical(3, EventKind::RunEnd));
        }
        events
    }

    #[test]
    fn identical_streams_report_identical() {
        let out = diff(&trace(100, false), &trace(100, false));
        assert_eq!(out, DiffOutcome::Identical { events: 4 });
        assert!(out.is_identical());
    }

    #[test]
    fn flipped_fitness_bit_is_pinpointed_with_generation_context() {
        let out = diff(&trace(100, false), &trace(101, false));
        match &out {
            DiffOutcome::Diverged {
                index,
                left,
                right,
                preceding,
            } => {
                assert_eq!(*index, 2);
                assert!(left.line.contains("f=0x0000000000000064"), "{}", left.line);
                assert!(
                    right.line.contains("f=0x0000000000000065"),
                    "{}",
                    right.line
                );
                assert_eq!(
                    left.context,
                    "gen 0, eval of genome 7, fitness 0x0000000000000064"
                );
                assert_eq!(preceding.len(), 2);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        assert!(out.render().contains("gen 0, eval of genome 7"));
    }

    #[test]
    fn truncated_stream_names_the_short_side_and_next_event() {
        let out = diff(&trace(100, true), &trace(100, false));
        match &out {
            DiffOutcome::Truncated {
                common,
                short_side,
                next,
            } => {
                assert_eq!(*common, 3);
                assert_eq!(*short_side, "left");
                assert_eq!(next.context, "run postamble");
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn timing_events_never_cause_divergence() {
        let mut right = trace(100, false);
        // Perturb a Timing event's payload: diff must not care.
        for ev in &mut right {
            if ev.kind == EventKind::ClusterInfo {
                ev.items = Some(99);
            }
        }
        assert!(diff(&trace(100, false), &right).is_identical());
    }
}
