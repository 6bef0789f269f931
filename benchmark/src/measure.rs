//! The end-to-end pass: tracing off, whole driver runs timed from
//! outside through `ClanDriverBuilder::{build, build_async}` and
//! `run*`, a fresh cluster per driver run, identical work per
//! repetition. A repetition is a fixed sequence of driver runs (its
//! *segments*); each timing is the sum over segments of the segment's
//! quietest reading across the repetitions (see [`quiet_sum`]).

use crate::host;
use crate::report::{MetricValue, Ops, Outcome};
use crate::spec;
use crate::stats::{quiet_sum, Summary};
use crate::workloads::{Inputs, Shape, WorkloadDef, POPULATION, SERIAL_CHECK_GENERATIONS};
use clan_core::{AsyncClanDriver, ClanDriver, ClanError, RunReport};
use std::time::{Duration, Instant};

/// Two repetitions at least, so "identical work per repetition" is
/// checked even when `--seconds` is shorter than one of them.
const MIN_REPETITIONS: usize = 2;

/// The per-generation `(best_fitness bits, species)` sequence of one
/// NEAT seed's run: what bit-identity is judged on.
pub type Trajectory = Vec<(u64, usize)>;

/// Reads a run's trajectory out of its report.
fn trajectory(report: &RunReport) -> Trajectory {
    report
        .generations
        .iter()
        .map(|g| (g.best_fitness.to_bits(), g.num_species))
        .collect()
}

/// One driver run's raw readings: a segment of a repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Segment {
    /// Wall of `build()` / `build_async()`.
    build_s: f64,
    /// Wall of the `run*` call.
    run_s: f64,
    /// Process CPU seconds consumed across the `run*` call.
    cpu_s: f64,
    /// Genome evaluations completed (cache hits included).
    evals: u64,
    /// First-transmission bytes from the run's transport ledger.
    wire_bytes: u64,
}

/// One repetition's raw readings.
#[derive(Debug, Clone, Default, PartialEq)]
struct Repetition {
    /// One per driver run that completed, in run order.
    segments: Vec<Segment>,
    /// Trajectory per NEAT seed, in run order (empty for the stream).
    trajectories: Vec<(u64, Trajectory)>,
}

impl Repetition {
    fn total(&self, f: impl Fn(&Segment) -> f64) -> f64 {
        self.segments.iter().map(f).sum()
    }

    fn evals(&self) -> f64 {
        self.total(|s| s.evals as f64)
    }

    fn per_segment(&self, f: impl Fn(&Segment) -> f64) -> Vec<f64> {
        self.segments.iter().map(f).collect()
    }
}

/// A driver ready to run, as `shape` needs it.
enum Built {
    Generational(Box<ClanDriver>),
    Stream(Box<AsyncClanDriver>),
}

/// Builds the driver for one run of `shape`: spawn agents, connect,
/// `Configure` handshake, initial population.
fn build(
    def: &WorkloadDef,
    shape: Shape,
    neat_seed: u64,
    inputs: &Inputs,
) -> Result<Built, ClanError> {
    let builder = def.builder(neat_seed, inputs);
    Ok(match shape {
        Shape::Stream { evals, .. } => {
            Built::Stream(Box::new(builder.total_evals(evals).build_async()?))
        }
        Shape::Solve { .. } | Shape::Generations { .. } => {
            Built::Generational(Box::new(builder.build()?))
        }
    })
}

/// Runs one repetition of `shape`, counting each driver run in `ops`.
fn repetition(def: &WorkloadDef, shape: Shape, inputs: &Inputs, ops: &mut Ops) -> Repetition {
    let mut rep = Repetition::default();
    for neat_seed in shape.neat_seeds(inputs) {
        let what = format!("{} seed {neat_seed}", def.name);
        let t = Instant::now();
        let built = build(def, shape, neat_seed, inputs);
        let build_s = t.elapsed().as_secs_f64();
        let Some(built) = ops.attempt(&what, built) else {
            continue;
        };
        let cpu_before = host::cpu_seconds();
        let t = Instant::now();
        let run = match (shape, built) {
            (Shape::Solve { cap, .. }, Built::Generational(d)) => d.run_until_solved(cap),
            (Shape::Generations { generations, .. }, Built::Generational(d)) => d.run(generations),
            (Shape::Stream { .. }, Built::Stream(d)) => d.run().map(|outcome| outcome.report),
            _ => unreachable!("build() pairs each shape with its driver kind"),
        };
        let run_s = t.elapsed().as_secs_f64();
        let cpu_s = match (cpu_before, host::cpu_seconds()) {
            (Some(before), Some(after)) => after - before,
            _ => 0.0,
        };
        let Some(report) = ops.attempt(&what, run) else {
            continue;
        };
        let evals = match shape {
            Shape::Stream { evals, .. } => match &report.asynchronous {
                Some(stats) => {
                    check_stream_counts(ops, &what, evals, stats);
                    stats.total_evals
                }
                None => {
                    ops.check(false, || format!("{what}: async run reported no stats"));
                    continue;
                }
            },
            Shape::Solve { .. } | Shape::Generations { .. } => {
                if matches!(shape, Shape::Solve { .. }) {
                    ops.check(report.solved_at_generation.is_some(), || {
                        format!(
                            "{what}: unsolved after {} generations",
                            report.generations.len()
                        )
                    });
                }
                rep.trajectories.push((neat_seed, trajectory(&report)));
                (POPULATION * report.generations.len()) as u64
            }
        };
        rep.segments.push(Segment {
            build_s,
            run_s,
            cpu_s,
            evals,
            wire_bytes: report
                .transport
                .as_ref()
                .map_or(0, |l| l.total_wire_bytes()),
        });
    }
    rep
}

/// The stream's correctness gate: the budget was spent exactly, every
/// completion after the bootstrap wave inserted a child, and no genome
/// had to be dispatched twice.
pub fn check_stream_counts(ops: &mut Ops, what: &str, budget: u64, stats: &clan_core::AsyncStats) {
    ops.check(stats.total_evals == budget, || {
        format!(
            "{what}: {} evals for a budget of {budget}",
            stats.total_evals
        )
    });
    ops.check(
        stats.insertions == stats.total_evals.saturating_sub(POPULATION as u64),
        || {
            format!(
                "{what}: {} insertions for {} evals",
                stats.insertions, stats.total_evals
            )
        },
    );
    ops.check(stats.redispatches == 0, || {
        format!(
            "{what}: {} redispatches on a healthy cluster",
            stats.redispatches
        )
    });
}

/// Runs the in-process serial reference for `neat_seed` and holds the
/// first generations of `observed` against it, bit for bit.
fn check_against_serial(def: &WorkloadDef, neat_seed: u64, observed: &Trajectory, ops: &mut Ops) {
    let generations = SERIAL_CHECK_GENERATIONS.min(observed.len() as u64);
    let what = format!("{} seed {neat_seed} serial reference", def.name);
    let run = def
        .serial_builder(neat_seed)
        .build()
        .and_then(|d| d.run(generations));
    let Some(report) = ops.attempt(&what, run) else {
        return;
    };
    let serial = trajectory(&report);
    ops.check(serial[..] == observed[..serial.len()], || {
        format!("{what}: cluster run diverges from serial within {generations} generations")
    });
}

/// The `--trace 0` pass of one workload.
pub fn end_to_end(def: &'static WorkloadDef, seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let inputs = Inputs::from_seed(seed);
    let mut ops = Ops::default();

    // Discarded: lets lazy set-up (allocator arenas, loopback sockets,
    // page cache of the binary) finish before anything is timed. The
    // smoke mode checks outputs, not speed, and skips it.
    if !smoke {
        repetition(def, def.warmup, &inputs, &mut ops);
    }

    let shape = def.shape(smoke);
    let mut reps: Vec<Repetition> = Vec::new();
    let mut measured = Duration::ZERO;
    // A repetition that would overrun `seconds` by more than it falls
    // short without is not started, so a run takes what it is given.
    let mut last = Duration::ZERO;
    while reps.len() < MIN_REPETITIONS || (measured + last / 2).as_secs_f64() < seconds {
        let t = Instant::now();
        reps.push(repetition(def, shape, &inputs, &mut ops));
        last = t.elapsed();
        measured += last;
    }

    let first = &reps[0];
    for (i, rep) in reps.iter().enumerate().skip(1) {
        ops.check(rep.trajectories == first.trajectories, || {
            format!(
                "{}: repetition {i} evolved differently from repetition 0",
                def.name
            )
        });
    }
    if let Some((neat_seed, observed)) = first.trajectories.first() {
        check_against_serial(def, *neat_seed, observed, &mut ops);
    }

    let peak_rss = ops.attempt("VmHWM", host::peak_rss_mib().ok_or("unreadable"));

    // A repetition with a failed run has a segment missing and nothing
    // to hold against the others; it is already counted in `failed`.
    let runs = shape.neat_seeds(&inputs).len();
    let complete: Vec<&Repetition> = reps.iter().filter(|r| r.segments.len() == runs).collect();
    ops.check(
        complete
            .iter()
            .all(|r| r.total(|s| s.cpu_s) > 0.0 && r.evals() > 0.0),
        || {
            format!(
                "{}: a repetition recorded no CPU time or no evaluations",
                def.name
            )
        },
    );

    let per_rep =
        |f: &dyn Fn(&Repetition) -> f64| -> Vec<f64> { complete.iter().map(|r| f(r)).collect() };
    let quiet = |f: fn(&Segment) -> f64| {
        let readings: Vec<Vec<f64>> = complete.iter().map(|r| r.per_segment(f)).collect();
        quiet_sum(&readings).unwrap_or(0.0)
    };
    // The same in every repetition: the trajectories are (checked
    // above), and a stream spends its budget exactly.
    let evals = complete.first().map_or(0.0, |r| r.evals());
    let run_s = quiet(|s| s.run_s);
    let cpu_s = quiet(|s| s.cpu_s);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let around = |value: f64, samples: Vec<f64>| Summary::around(value, &samples);
    let summaries = [
        // One build per segment: the wall of one of them.
        (
            "setup_s",
            around(
                ratio(quiet(|s| s.build_s), runs as f64),
                per_rep(&|r| r.total(|s| s.build_s) / runs as f64),
            ),
        ),
        (
            "evals_per_s",
            around(
                ratio(evals, run_s),
                per_rep(&|r| r.evals() / r.total(|s| s.run_s)),
            ),
        ),
        // On the solve workload every run stops at the solving
        // generation, so the summed run wall *is* the time to solve;
        // elsewhere it is the wall of the fixed budget.
        (
            "time_to_solve_s",
            around(run_s, per_rep(&|r| r.total(|s| s.run_s))),
        ),
        (
            "cpu_ms_per_eval",
            around(
                ratio(cpu_s * 1e3, evals),
                per_rep(&|r| r.total(|s| s.cpu_s) * 1e3 / r.evals()),
            ),
        ),
        (
            "wire_bytes_per_eval",
            Summary::of(&per_rep(&|r| r.total(|s| s.wire_bytes as f64) / r.evals())),
        ),
        ("peak_rss_mib", Summary::of(&[peak_rss.unwrap_or(0.0)])),
    ];
    let metrics = summaries
        .into_iter()
        .map(|(name, summary)| MetricValue {
            def: spec::metric(name).expect("an END_TO_END name"),
            summary: summary.unwrap_or(Summary::ZERO),
        })
        .collect();
    Outcome {
        workload: def.name,
        traced: false,
        repetitions: reps.len(),
        ops,
        metrics,
    }
}
