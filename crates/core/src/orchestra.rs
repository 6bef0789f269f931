//! The orchestrator interface and machinery shared by all CLAN
//! configurations: partitioned evaluation with per-agent gene accounting,
//! communication-phase bookkeeping, and central evolution.

use crate::dcs::DcsOrchestrator;
use crate::dda::DdaOrchestrator;
use crate::dds::DdsOrchestrator;
use crate::error::ClanError;
use crate::evaluator::Evaluator;
use crate::membership::{AgentHealth, RecoveryStats};
use crate::runtime::GatherStats;
use crate::serial::SerialOrchestrator;
use crate::telemetry::{EventKind, Tracer};
use crate::topology::{ClanTopology, SpeciationMode};
use clan_distsim::{Cluster, GenerationTimeline, TimelineRecorder};
use clan_neat::counters::GenerationCosts;
use clan_neat::{Genome, GenomeId, NeatConfig, NeatError, Population};
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

impl GenerationReport {
    /// Cache hit rate of the generation (0.0 when caching is disabled).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }
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

    /// Measured wire traffic of the attached real transport, when the
    /// orchestrator's evaluator runs inference over an
    /// [`EdgeCluster`](crate::runtime::EdgeCluster) (threads, loopback
    /// TCP, or remote devices). `None` for purely simulated runs.
    fn transport_ledger(&self) -> Option<&CommLedger> {
        self.evaluator().remote_ledger()
    }

    /// Measured scatter/gather timing of the attached real transport
    /// (makespan vs. summed per-link busy time — the load-imbalance
    /// signal). `None` for purely simulated runs.
    fn gather_stats(&self) -> Option<GatherStats> {
        self.evaluator().remote_gather_stats()
    }

    /// Churn-recovery accounting of the attached real transport (link
    /// failures, reassigned chunks, recovery makespan). `None` for
    /// purely simulated runs.
    fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.evaluator().remote_recovery_stats()
    }

    /// Per-agent link membership of the attached real transport
    /// (alive/suspected/dead, failure counts), as served by the live
    /// `/health` introspection endpoint. `None` for purely simulated
    /// runs.
    fn membership(&self) -> Option<Vec<AgentHealth>> {
        self.evaluator().remote_membership()
    }

    /// Installs a telemetry tracer: generation and evaluation events are
    /// recorded into it from the same deterministic replay loops that
    /// pin fitness equivalence.
    fn install_tracer(&mut self, tracer: Tracer) {
        self.evaluator_mut().set_tracer(tracer);
    }
}

/// Builds the orchestrator implementing `topology`: a fresh population
/// from `(cfg, seed)` evolved over the simulated `cluster`, inference
/// running through `evaluator`. `resync_every` applies to DDA only.
///
/// # Errors
///
/// [`ClanError::InvalidSetup`] on a placement combination no
/// orchestrator implements, DDA clans below two genomes, or a zero
/// resync interval.
pub fn orchestrator_for(
    topology: ClanTopology,
    cfg: NeatConfig,
    seed: u64,
    evaluator: Evaluator,
    cluster: Cluster,
    resync_every: Option<u64>,
) -> Result<Box<dyn Orchestrator>, ClanError> {
    if let SpeciationMode::Asynchronous { .. } = topology.speciation {
        let dda = DdaOrchestrator::new(cfg, evaluator, cluster, seed)?;
        return Ok(match resync_every {
            Some(r) => Box::new(dda.with_resync_every(r)?),
            None => Box::new(dda),
        });
    }
    let pop = Population::new(cfg, seed);
    if topology == ClanTopology::serial() {
        Ok(Box::new(SerialOrchestrator::new(pop, evaluator, cluster)))
    } else if topology == ClanTopology::dcs() {
        Ok(Box::new(DcsOrchestrator::new(pop, evaluator, cluster)))
    } else if topology == ClanTopology::dds() {
        Ok(Box::new(DdsOrchestrator::new(pop, evaluator, cluster)))
    } else {
        Err(ClanError::InvalidSetup {
            reason: format!("unsupported topology {topology}"),
        })
    }
}

/// Splits the ordered id list into contiguous per-agent chunks of the
/// given sizes.
pub(crate) fn chunk_ids(ids: &[GenomeId], counts: &[usize]) -> Vec<Vec<GenomeId>> {
    debug_assert_eq!(counts.iter().sum::<usize>(), ids.len());
    let mut chunks = Vec::with_capacity(counts.len());
    let mut start = 0;
    for &c in counts {
        chunks.push(ids[start..start + c].to_vec());
        start += c;
    }
    chunks
}

/// Communication bookkeeping: records every message in the ledger and
/// returns the simulated time the shared medium was busy.
#[derive(Debug, Default)]
pub(crate) struct Comm {
    ledger: CommLedger,
}

impl Comm {
    pub(crate) fn new() -> Comm {
        Comm::default()
    }

    pub(crate) fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    /// One communication phase: opens `channels` center↔agent channels
    /// and sends one message per payload (in floats/genes). Returns the
    /// phase's simulated duration.
    pub(crate) fn phase<I>(
        &mut self,
        cluster: &Cluster,
        kind: MessageKind,
        channels: usize,
        payload_floats: I,
    ) -> f64
    where
        I: IntoIterator<Item = u64>,
    {
        let mut time = cluster.net().channel_setup_s * channels as f64;
        for floats in payload_floats {
            self.ledger.record(kind, floats);
            time += cluster.net().gene_transfer_time_s(floats);
        }
        time
    }
}

/// Evaluates the population with genomes partitioned into per-agent
/// chunks; returns the inference genes processed by each agent.
///
/// Fitness is written back into the population and the population's cost
/// counters are charged, so Figure-3 style accounting stays correct no
/// matter which configuration ran the inference.
///
/// When the evaluator carries a [`crate::parallel::ParallelEvaluator`]
/// pool — or a real agent cluster attached with
/// [`Evaluator::with_remote`](crate::Evaluator::with_remote) — the
/// per-genome evaluations are computed across those workers first; the
/// accounting below then replays them in genome-id order, so fitness,
/// `CostCounters`, and the per-agent gene totals are bit-identical to
/// the serial path at any thread count and over any transport.
pub(crate) fn evaluate_partitioned(
    pop: &mut Population,
    evaluator: &mut Evaluator,
    counts: &[usize],
) -> Result<Vec<u64>, ClanError> {
    let ids: Vec<GenomeId> = pop.genomes().keys().copied().collect();
    let chunks = chunk_ids(&ids, counts);
    // Generation-start is logical: emitted before any transport work so
    // the pinned stream is independent of how inference is dispatched.
    // It deliberately excludes the partition layout (serial and cluster
    // runs differ there); agent counts live in Timing-class events.
    evaluator
        .tracer()
        .logical(EventKind::GenerationStart, |ev| {
            ev.generation = Some(pop.generation());
            ev.population = Some(ids.len() as u64);
        });
    // Compute every evaluation first, in genome-id order — remotely over
    // the attached cluster, across the local thread pool, or serially
    // (batched by shape, cache-filtered) on this thread — leaving all
    // bookkeeping to the deterministic loop below. Cache hits replay the
    // same accounting as fresh evaluations, so costs and timelines are
    // identical whichever engine features are enabled.
    let mut precomputed = match evaluator.remote_cluster_mut() {
        Some(cluster) => cluster.evaluate_collect(pop)?.into_iter(),
        None => evaluator.evaluate_population_local(pop).into_iter(),
    };
    let mut genes_per_agent = Vec::with_capacity(chunks.len());
    for chunk in &chunks {
        let mut agent_genes = 0u64;
        for &id in chunk {
            let (rid, eval, genes_per_activation) =
                precomputed.next().expect("one result per genome");
            debug_assert_eq!(rid, id, "results must be id-ordered");
            let genes = eval.activations * genes_per_activation;
            agent_genes += genes;
            pop.counters_mut().record_inference(genes);
            pop.counters_mut().record_episode();
            // Logical: flattened chunk iteration is genome-id order for
            // any partition, so this stream is partition-independent.
            // No agent index here — that would differ across variants.
            evaluator.tracer().logical(EventKind::EvalResult, |ev| {
                ev.genome = Some(id.0);
                ev.fitness_bits = Some(eval.fitness.to_bits());
            });
            pop.set_fitness(id, eval.fitness)
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
/// modes).
pub(crate) fn finish_generation(
    evaluator: &mut Evaluator,
    recorder: &mut TimelineRecorder,
    generation: u64,
    best_fitness: f64,
    num_species: usize,
    costs: GenerationCosts,
    extinction: bool,
) -> GenerationReport {
    let (cache_hits, cache_lookups) = evaluator.take_cache_window();
    let report = GenerationReport {
        generation,
        best_fitness,
        num_species,
        timeline: recorder.finish_generation(),
        costs,
        extinction,
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

/// Outcome of running speciation + planning + reproduction centrally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CentralEvolution {
    pub speciation_genes: u64,
    pub reproduction_genes: u64,
    pub num_species: usize,
    pub extinction: bool,
}

/// Runs the full central evolution path (serial and DCS): speciate, plan,
/// reproduce, install. Handles extinction per the config.
pub(crate) fn central_evolution(pop: &mut Population) -> Result<CentralEvolution, ClanError> {
    let speciation = pop.speciate();
    let repro_before = pop.counters().current().reproduction_genes;
    let (num_species, extinction) = match pop.plan_generation() {
        Ok(plan) => {
            let children = pop.reproduce_centrally(&plan);
            pop.install_next_generation(children);
            (speciation.species_count, false)
        }
        Err(NeatError::Extinction) => {
            if !pop.config().reset_on_extinction {
                return Err(NeatError::Extinction.into());
            }
            pop.reset_population();
            (0, true)
        }
        Err(e) => return Err(e.into()),
    };
    let reproduction_genes = pop.counters().current().reproduction_genes - repro_before;
    Ok(CentralEvolution {
        speciation_genes: speciation.genes_processed,
        reproduction_genes,
        num_species,
        extinction,
    })
}

/// Helper shared by orchestrators: update the best-ever genome tracker
/// from an evaluated population.
pub(crate) fn track_best(best_ever: &mut Option<Genome>, pop: &Population) {
    if let Some(best) = pop.best() {
        let new_f = best.fitness().expect("best() implies fitness");
        let cur_f = best_ever.as_ref().and_then(Genome::fitness);
        if cur_f.is_none_or(|c| new_f > c) {
            *best_ever = Some(best.clone());
        }
    }
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
    fn chunk_ids_contiguous() {
        let ids: Vec<GenomeId> = (0..10).map(GenomeId).collect();
        let chunks = chunk_ids(&ids, &[4, 3, 3]);
        assert_eq!(chunks[0].len(), 4);
        assert_eq!(chunks[1][0], GenomeId(4));
        assert_eq!(chunks[2][2], GenomeId(9));
    }

    #[test]
    fn comm_phase_records_and_times() {
        let cluster = Cluster::homogeneous(Platform::raspberry_pi(), 3, WifiModel::default());
        let mut comm = Comm::new();
        let t = comm.phase(&cluster, MessageKind::SendFitness, 3, vec![10, 10, 10]);
        assert!(t > 3.0 * cluster.net().channel_setup_s);
        assert_eq!(comm.ledger().entry(MessageKind::SendFitness).floats, 30);
        assert_eq!(comm.ledger().entry(MessageKind::SendFitness).messages, 3);
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

    #[test]
    fn central_evolution_advances_population() {
        let mut pop = small_pop(12, 3);
        let mut ev = Evaluator::new(Workload::CartPole, InferenceMode::MultiStep);
        evaluate_partitioned(&mut pop, &mut ev, &[12]).unwrap();
        let out = central_evolution(&mut pop).unwrap();
        assert!(out.num_species >= 1);
        assert!(out.speciation_genes > 0);
        assert!(out.reproduction_genes > 0);
        assert!(!out.extinction);
        assert_eq!(pop.generation(), 1);
    }

    #[test]
    fn track_best_keeps_maximum() {
        let mut pop = small_pop(5, 4);
        let mut best = None;
        let mut ev = Evaluator::new(Workload::CartPole, InferenceMode::MultiStep);
        evaluate_partitioned(&mut pop, &mut ev, &[5]).unwrap();
        track_best(&mut best, &pop);
        let first = best.as_ref().unwrap().fitness().unwrap();
        // A worse population later must not displace the best.
        for id in pop.genomes().keys().copied().collect::<Vec<_>>() {
            pop.set_fitness(id, -100.0).unwrap();
        }
        track_best(&mut best, &pop);
        assert_eq!(best.unwrap().fitness().unwrap(), first);
    }
}
