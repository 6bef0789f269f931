//! The determinism matrix's own rows: one `#[test]` per condition, each
//! over every workload x topology x agent count its `MATRIX` row lists
//! (see `tests/common/mod.rs`). Conditions that had a test before the
//! matrix existed assert their row from `tests/*_equivalence.rs`, under
//! the name they always had; a new condition is one row there and one
//! line here.

mod common;

use clan::core::{ClanTopology, InferenceMode};
use clan::envs::Workload;
use common::{check, compare, local_evaluator, orchestrator_seeded, run, GENERATIONS, SEED};

#[test]
fn local_threads_2() {
    check("threads-2");
}

#[test]
fn local_threads_4() {
    check("threads-4");
}

#[test]
fn local_threads_8() {
    check("threads-8");
}

#[test]
fn udp_clean() {
    check("udp-clean");
}

#[test]
fn single_step_over_tcp() {
    check("single-step-tcp");
}

/// The oracle can fail: a matrix that compared a run with itself would
/// pass whatever the code did, so hand its comparison runs that *did*
/// evolve differently and demand a mismatch that names the cell.
#[test]
fn a_different_run_is_reported_as_a_mismatch_naming_its_cell() {
    let topology = ClanTopology::dcs();
    let evolve = |seed: u64, generations: usize| {
        let local = local_evaluator(Workload::CartPole, InferenceMode::MultiStep);
        run(
            &mut *orchestrator_seeded(topology, 2, local, seed),
            generations,
        )
    };
    let cell = "oracle x CLAN_DCS x 2 agent(s)";
    let reference = evolve(SEED, GENERATIONS);
    assert_eq!(
        compare(cell, &reference, &evolve(SEED, GENERATIONS)),
        Ok(())
    );
    for (subject, what) in [
        (evolve(SEED + 1, GENERATIONS), "diverged"),
        (
            evolve(SEED, GENERATIONS - 1),
            "3 generations vs the reference's 4",
        ),
    ] {
        let mismatch = compare(cell, &reference, &subject).unwrap_err();
        for part in [cell, what] {
            assert!(
                mismatch.contains(part),
                "{mismatch:?} does not say {part:?}"
            );
        }
    }
    // Each thing the contract covers is compared, not only the first —
    // and a subject that lost its tracer does not pass the trace half.
    let mut other_best = reference.clone();
    other_best.best = evolve(SEED + 1, GENERATIONS).best;
    let mut other_trace = reference.clone();
    other_trace.logical = reference.logical.map(|h| h ^ 1);
    let mut no_trace = reference.clone();
    no_trace.logical = None;
    for (subject, what) in [
        (other_best, "best-ever genome"),
        (other_trace, "Logical trace hash"),
        (no_trace, "Logical trace hash None"),
    ] {
        let mismatch = compare(cell, &reference, &subject).unwrap_err();
        assert!(
            mismatch.contains(what),
            "{mismatch:?} does not say {what:?}"
        );
        // Symmetric: the reference missing what the subject has fails too.
        assert!(compare(cell, &subject, &reference).is_err());
    }
}
