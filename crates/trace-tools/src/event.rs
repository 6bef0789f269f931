//! The human framing `diff` puts around one [`TraceEvent`]; trace files
//! load through the writer's own `clan_core::telemetry::from_jsonl`.

use clan_core::telemetry::{EventKind, TraceEvent};

/// A one-phrase human description of the event, used by `diff` to
/// frame a divergence ("gen 7, eval of genome 1234, …"). The caller
/// supplies the generation context tracked while scanning, since
/// per-genome events do not carry their generation.
pub fn describe(ev: &TraceEvent, current_generation: Option<u64>) -> String {
    let gen_prefix = match ev.generation.or(current_generation) {
        Some(g) => format!("gen {g}, "),
        None => String::new(),
    };
    match ev.kind {
        EventKind::RunStart => format!(
            "run preamble (seed {}, workload {}, population {})",
            ev.seed.unwrap_or(0),
            ev.label.as_deref().unwrap_or("?"),
            ev.population.unwrap_or(0)
        ),
        EventKind::GenerationStart => format!("start of gen {}", ev.generation.unwrap_or(0)),
        EventKind::EvalResult => format!(
            "{gen_prefix}eval of genome {}, fitness {:#018X}",
            ev.genome.unwrap_or(0),
            ev.fitness_bits.unwrap_or(0)
        ),
        EventKind::GenerationEnd => format!(
            "end of gen {} (best fitness {:#018X}, {} species)",
            ev.generation.unwrap_or(0),
            ev.fitness_bits.unwrap_or(0),
            ev.species.unwrap_or(0)
        ),
        EventKind::Dispatch => format!(
            "dispatch of genome {} to agent {} at t={}us",
            ev.genome.unwrap_or(0),
            ev.agent.unwrap_or(0),
            ev.vtime_us.unwrap_or(0)
        ),
        EventKind::Completion => format!(
            "completion e={} of genome {} on agent {}, fitness {:#018X}",
            ev.aseq.unwrap_or(0),
            ev.genome.unwrap_or(0),
            ev.agent.unwrap_or(0),
            ev.fitness_bits.unwrap_or(0)
        ),
        EventKind::Insertion => format!(
            "insertion of child {} (evicting {})",
            ev.child.unwrap_or(0),
            ev.evicted.map_or("-".into(), |e| e.to_string())
        ),
        EventKind::RunEnd => "run postamble".to_string(),
        other => format!("{gen_prefix}{} event", other.label()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clan_core::telemetry::{from_jsonl, Determinism};

    fn eval_line() -> String {
        let mut ev = TraceEvent::base(Determinism::Logical, EventKind::EvalResult);
        ev.seq = 2;
        ev.lseq = Some(2);
        ev.genome = Some(7);
        ev.fitness_bits = Some(0x3FF0_0000_0000_0000);
        serde_json::to_string(&ev).unwrap()
    }

    #[test]
    fn describe_frames_an_eval_with_the_tracked_generation() {
        let ev = &from_jsonl(&eval_line()).unwrap()[0];
        assert_eq!(ev.fitness_bits, Some(0x3FF0_0000_0000_0000));
        assert_eq!(
            ev.logical_line().unwrap(),
            "l=2 k=eval g=7 f=0x3FF0000000000000"
        );
        assert_eq!(
            describe(ev, Some(4)),
            "gen 4, eval of genome 7, fitness 0x3FF0000000000000"
        );
    }

    #[test]
    fn jsonl_reports_the_bad_line() {
        let line = eval_line();
        for bad in [
            "{oops}".to_string(),
            line.replace("\"EvalResult\"", "\"NotAKind\""),
            "[".repeat(1_000_000),
        ] {
            let e = from_jsonl(&format!("{line}\n\n{bad}\n")).unwrap_err();
            assert!(e.starts_with("line 3:"), "{e}");
        }
    }
}
