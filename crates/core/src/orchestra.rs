//! The orchestrator interface and machinery shared by both orchestrators
//! — [`Generational`](crate::generational::Generational) (Serial, DCS,
//! DDS) and [`DdaOrchestrator`]: partitioned evaluation with per-agent
//! gene accounting and communication-phase bookkeeping. The state
//! transitions themselves (recording an evaluation, the `S → GP → R`
//! step, best-ever tracking) belong to [`Population`]; this crate decides
//! only *where* each block runs and what that costs.

use crate::dda::DdaOrchestrator;
use crate::error::ClanError;
use crate::evaluator::Evaluator;
use crate::generational::{DcsOrchestrator, DdsOrchestrator, SerialOrchestrator};
use crate::telemetry::{EventKind, Tracer};
use crate::topology::{ClanTopology, Paper};
use clan_distsim::{Cluster, GenerationTimeline, TimelineRecorder};
use clan_neat::counters::GenerationCosts;
use clan_neat::population::GenerationSummary;
use clan_neat::{Genome, NeatConfig, Population};
use clan_netsim::{CommLedger, MessageKind};
use serde::{Deserialize, Serialize};

/// Floats of framing (genome id + length) accompanying a genome transfer.
pub(crate) const GENOME_HEADER_FLOATS: u64 = 2;
/// Floats per fitness report entry (genome id + fitness).
pub(crate) const FITNESS_ENTRY_FLOATS: u64 = 2;
/// Floats per spawn-count entry (species id + count).
pub(crate) const SPAWN_ENTRY_FLOATS: u64 = 2;
/// Floats per child spec in a parent list (child id + two parent ids).
pub(crate) const PARENT_LIST_ENTRY_FLOATS: u64 = 3;

/// Summary of one generation under any orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerationReport {
    /// Generation index that was just evaluated and evolved.
    pub generation: u64,
    /// Best fitness observed in the evaluated population.
    pub best_fitness: f64,
    /// Species alive after speciation (summed over clans for DDA).
    pub num_species: usize,
    /// Simulated cluster timeline of the generation.
    pub timeline: GenerationTimeline,
    /// Gene-level compute costs of the generation.
    pub costs: GenerationCosts,
    /// Whether a population (or clan) went extinct and was re-seeded.
    pub extinction: bool,
    /// Fitness-cache hits this generation (evaluations served without
    /// running episodes). Not part of `costs`: a hit replays the full
    /// gene accounting, so cost counters are identical cache-on/off.
    #[serde(default)]
    pub cache_hits: u64,
    /// Fitness-cache lookups this generation (= genomes submitted while
    /// caching was enabled; 0 when disabled).
    #[serde(default)]
    pub cache_lookups: u64,
}

/// A CLAN configuration driving real NEAT evolution while accounting the
/// simulated cluster's time and traffic.
///
/// Implementations differ only in *where* inference and reproduction run
/// (`step_generation`); everything measured on an attached real
/// transport is read through the shared [`Evaluator`].
pub trait Orchestrator {
    /// Runs one full generation (inference + evolution + communication).
    ///
    /// # Errors
    ///
    /// Returns [`ClanError`] on unrecoverable NEAT failures (extinction is
    /// handled internally when `reset_on_extinction` is set).
    fn step_generation(&mut self) -> Result<GenerationReport, ClanError>;

    /// Best genome observed so far across the whole run.
    fn best_ever(&self) -> Option<&Genome>;

    /// Communication ledger for the run so far.
    fn ledger(&self) -> &CommLedger;

    /// The evaluator running this configuration's inference — and, when
    /// it carries an [`EdgeCluster`](crate::runtime::EdgeCluster), the
    /// handle on the real transport.
    fn evaluator(&self) -> &Evaluator;

    /// Mutable evaluator access (tracer installation, cluster surgery
    /// between generations).
    fn evaluator_mut(&mut self) -> &mut Evaluator;

    /// Installs a telemetry tracer: generation and evaluation events are
    /// recorded into it from the same deterministic replay loops that
    /// pin fitness equivalence.
    fn install_tracer(&mut self, tracer: Tracer) {
        self.evaluator_mut().set_tracer(tracer);
    }
}

/// Builds the orchestrator implementing `topology`: a fresh population
/// from `(cfg, seed)` evolved over the simulated `cluster`, inference
/// running through `evaluator`. DDA evolves one clan per device of
/// `cluster`, and alone reads `resync_every` (which
/// [`ClanDriverBuilder::build`](crate::ClanDriverBuilder::build) rejects
/// elsewhere).
///
/// # Errors
///
/// [`ClanError::InvalidSetup`] on DDA clans below two genomes, or a
/// zero resync interval.
pub fn orchestrator_for(
    topology: ClanTopology,
    cfg: NeatConfig,
    seed: u64,
    evaluator: Evaluator,
    cluster: Cluster,
    resync_every: Option<u64>,
) -> Result<Box<dyn Orchestrator>, ClanError> {
    let orchestrator: Box<dyn Orchestrator> = match topology.0 {
        Paper::Dda => {
            let dda = DdaOrchestrator::new(cfg, evaluator, cluster, seed)?;
            match resync_every {
                Some(r) => Box::new(dda.with_resync_every(r)?),
                None => Box::new(dda),
            }
        }
        Paper::Serial => Box::new(SerialOrchestrator::new(
            Population::new(cfg, seed),
            evaluator,
            cluster,
        )),
        Paper::Dcs => Box::new(DcsOrchestrator::new(
            Population::new(cfg, seed),
            evaluator,
            cluster,
        )),
        Paper::Dds => Box::new(DdsOrchestrator::new(
            Population::new(cfg, seed),
            evaluator,
            cluster,
        )),
    };
    Ok(orchestrator)
}

/// The simulated testbed an orchestrator charges its work to: the
/// cluster model, the timeline of the generation in progress, and the
/// ledger of modeled messages.
#[derive(Debug)]
pub(crate) struct Testbed {
    pub(crate) cluster: Cluster,
    pub(crate) recorder: TimelineRecorder,
    ledger: CommLedger,
}

impl Testbed {
    pub(crate) fn new(cluster: Cluster) -> Testbed {
        Testbed {
            cluster,
            recorder: TimelineRecorder::new(),
            ledger: CommLedger::new(),
        }
    }

    pub(crate) fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    /// One communication phase: opens `channels` center↔agent channels
    /// and sends one message per payload (in floats/genes), recording
    /// each in the ledger and charging the time the shared medium was
    /// busy to the generation's timeline.
    pub(crate) fn comm<I>(&mut self, kind: MessageKind, channels: usize, payload_floats: I)
    where
        I: IntoIterator<Item = u64>,
    {
        let net = self.cluster.net();
        let mut time = net.channel_setup_s * channels as f64;
        for floats in payload_floats {
            self.ledger.record(kind, floats);
            time += net.gene_transfer_time_s(floats);
        }
        self.recorder.add_communication(time);
    }
}

/// Evaluates the population with genomes partitioned into per-agent
/// chunks; returns the inference genes processed by each agent.
///
/// Every result goes through [`Population::record_evaluation`], so
/// Figure-3 style accounting stays correct no matter which configuration
/// ran the inference.
///
/// When the evaluator runs several threads — a local driver run uses
/// the cores its population's genes repay — or a real agent cluster attached with
/// [`Evaluator::with_remote`](crate::Evaluator::with_remote) — the
/// per-genome evaluations are computed across those workers first and
/// then recorded in genome-id order, so fitness, `CostCounters`, and the
/// per-agent gene totals are bit-identical to the serial path at any
/// thread count and over any transport.
pub(crate) fn evaluate_partitioned(
    pop: &mut Population,
    evaluator: &mut Evaluator,
    counts: &[usize],
) -> Result<Vec<u64>, ClanError> {
    debug_assert_eq!(counts.iter().sum::<usize>(), pop.len());
    // Generation-start is logical: emitted before any transport work so
    // the pinned stream is independent of how inference is dispatched.
    // It deliberately excludes the partition layout (serial and cluster
    // runs differ there); agent counts live in Timing-class events.
    evaluator
        .tracer()
        .logical(EventKind::GenerationStart, |ev| {
            ev.generation = Some(pop.generation());
            ev.population = Some(pop.len() as u64);
        });
    // Compute every evaluation first, in genome-id order — remotely over
    // the attached cluster or on the evaluator's own threads
    // (cache-filtered) — leaving all
    // bookkeeping to the deterministic loop below. Cache hits replay the
    // same accounting as fresh evaluations, so costs and timelines are
    // identical whichever engine features are enabled.
    let precomputed = match evaluator.remote_cluster_mut() {
        Some(cluster) => cluster.evaluate_collect(pop)?,
        None => evaluator.evaluate_population_local(pop),
    };
    debug_assert!(
        precomputed.iter().map(|r| &r.0).eq(pop.genomes().keys()),
        "one result per genome, id-ordered"
    );
    let mut results = precomputed.into_iter();
    let mut genes_per_agent = Vec::with_capacity(counts.len());
    // Contiguous per-agent chunks of the id-ordered results.
    for &count in counts {
        let mut agent_genes = 0u64;
        for (id, eval, genes_per_activation) in results.by_ref().take(count) {
            agent_genes += eval.activations * genes_per_activation;
            // Logical: flattened chunk iteration is genome-id order for
            // any partition, so this stream is partition-independent.
            // No agent index here — that would differ across variants.
            evaluator.tracer().logical(EventKind::EvalResult, |ev| {
                ev.genome = Some(id.0);
                ev.fitness_bits = Some(eval.fitness.to_bits());
            });
            pop.record_evaluation(id, eval, genes_per_activation)
                .expect("id comes from population");
        }
        genes_per_agent.push(agent_genes);
    }
    Ok(genes_per_agent)
}

/// The tail every orchestrator ends a generation with: closes the
/// recorder's timeline, drains the cache window, and emits the logical
/// generation-end event (best fitness bit-exact, surviving species, the
/// cache window — every field equivalence-pinned across execution
/// modes). `evolved` is what the evolution step reported (summed over
/// clans for DDA).
pub(crate) fn finish_generation(
    evaluator: &mut Evaluator,
    recorder: &mut TimelineRecorder,
    evolved: &GenerationSummary,
) -> GenerationReport {
    let (cache_hits, cache_lookups) = evaluator.take_cache_window();
    let report = GenerationReport {
        generation: evolved.generation,
        best_fitness: evolved.best_fitness,
        num_species: evolved.num_species,
        timeline: recorder.finish_generation(),
        costs: evolved.costs,
        extinction: evolved.extinction,
        cache_hits,
        cache_lookups,
    };
    evaluator.tracer().logical(EventKind::GenerationEnd, |ev| {
        ev.generation = Some(report.generation);
        ev.fitness_bits = Some(report.best_fitness.to_bits());
        ev.species = Some(report.num_species as u64);
        ev.cache_hits = Some(report.cache_hits);
        ev.cache_lookups = Some(report.cache_lookups);
    });
    report
}

/// Genome transfer payload in floats: its genes plus framing.
pub(crate) fn genome_payload(genome: &Genome) -> u64 {
    genome.num_genes() + GENOME_HEADER_FLOATS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::InferenceMode;
    use clan_envs::Workload;
    use clan_hw::Platform;
    use clan_neat::NeatConfig;
    use clan_netsim::WifiModel;

    fn small_pop(n: usize, seed: u64) -> Population {
        let cfg = NeatConfig::builder(4, 2)
            .population_size(n)
            .build()
            .unwrap();
        Population::new(cfg, seed)
    }

    #[test]
    fn comm_phase_records_and_times() {
        let cluster = Cluster::homogeneous(Platform::raspberry_pi(), 3, WifiModel::default());
        let mut sim = Testbed::new(cluster);
        sim.comm(MessageKind::SendFitness, 3, vec![10, 10, 10]);
        let setup = 3.0 * sim.cluster.net().channel_setup_s;
        assert!(sim.recorder.current().communication_s > setup);
        assert_eq!(sim.ledger().entry(MessageKind::SendFitness).floats, 30);
        assert_eq!(sim.ledger().entry(MessageKind::SendFitness).messages, 3);
    }

    #[test]
    fn evaluate_partitioned_sets_all_fitness() {
        let mut pop = small_pop(10, 1);
        let mut ev = Evaluator::new(Workload::CartPole, InferenceMode::MultiStep);
        let genes = evaluate_partitioned(&mut pop, &mut ev, &[4, 3, 3]).unwrap();
        assert_eq!(genes.len(), 3);
        assert!(genes.iter().all(|&g| g > 0));
        assert!(pop.genomes().values().all(|g| g.fitness().is_some()));
        assert_eq!(pop.counters().current().episodes, 10);
    }

    #[test]
    fn evaluate_partitioned_identical_regardless_of_partition() {
        let run = |counts: &[usize]| {
            let mut pop = small_pop(12, 2);
            let mut ev = Evaluator::new(Workload::CartPole, InferenceMode::MultiStep);
            evaluate_partitioned(&mut pop, &mut ev, counts).unwrap();
            pop.genomes()
                .values()
                .map(|g| g.fitness().unwrap())
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(&[12]), run(&[4, 4, 4]));
        assert_eq!(run(&[12]), run(&[6, 3, 2, 1]));
    }
}
