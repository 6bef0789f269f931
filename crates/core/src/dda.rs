//! `CLAN_DDA` — Distributed inference and reproduction with
//! **Asynchronous Speciation** (paper §III-D-2, "Soft Scaling").
//!
//! The population is split into *clans*, one per agent. Each clan runs
//! the entire NEAT loop — inference, speciation, planning, reproduction —
//! locally and independently; after the one-time initial distribution,
//! **no genomes ever cross the network again**. Only a per-generation
//! best-fitness scalar flows to the center for convergence monitoring,
//! which is why DDA's communication bar in Figure 4 is orders of
//! magnitude below DCS/DDS.
//!
//! The price is algorithmic: speciation over `1/k` of the population
//! explores less, so convergence takes more generations as clans grow
//! (Figure 7b). The paper sketches *periodic global speciation* as future
//! work; [`ClanTopology::dda_resync`](crate::ClanTopology::dda_resync)
//! implements it — every `R` generations all genomes are pooled and
//! redistributed round-robin, at the cost of one genome-broadcast round.

use crate::error::ClanError;
use crate::evaluator::Evaluator;
use crate::orchestra::{
    evaluate_partitioned, finish_generation, genome_payload, GenerationReport, Orchestrator,
    Testbed,
};
use clan_distsim::Cluster;
use clan_neat::population::GenerationSummary;
use clan_neat::rng::derive_seed;
use clan_neat::{Genome, NeatConfig, Population};
use clan_netsim::{CommLedger, MessageKind};
use std::num::NonZeroU64;

/// Id space reserved for genomes reassigned during global resync, far
/// above any id a clan allocates naturally.
const RESYNC_ID_BASE: u64 = 1 << 40;

/// The asynchronous-speciation configuration.
#[derive(Debug)]
pub struct DdaOrchestrator {
    clans: Vec<Population>,
    evaluator: Evaluator,
    sim: Testbed,
    generation: u64,
    resync_every: Option<NonZeroU64>,
    next_resync_id: u64,
}

impl DdaOrchestrator {
    /// Creates a `CLAN_DDA` run: `cfg.population_size` genomes split into
    /// one clan per agent of `cluster`, **sized by device throughput**
    /// ([`Cluster::partition_by_throughput`]) so a Jetson's clan evolves
    /// proportionally more genomes than a Pi's and asynchronous
    /// generations stay balanced. On a homogeneous cluster (the paper's
    /// testbed) the throughput weights are equal and the split degrades
    /// bit-for-bit to the historical even partition. With `resync_every`,
    /// every that many generations all clans' genomes are pooled and
    /// dealt back round-robin (periodic global speciation).
    ///
    /// # Errors
    ///
    /// Returns [`ClanError::InvalidSetup`] if any clan would have fewer
    /// than two genomes.
    pub fn new(
        cfg: NeatConfig,
        evaluator: Evaluator,
        cluster: Cluster,
        seed: u64,
        resync_every: Option<NonZeroU64>,
    ) -> Result<DdaOrchestrator, ClanError> {
        let total = cfg.population_size;
        let sizes = cluster.partition_by_throughput(total);
        if sizes.iter().any(|&s| s < 2) {
            return Err(ClanError::InvalidSetup {
                reason: format!(
                    "population {total} split over {} clans leaves a clan with < 2 genomes",
                    cluster.n_agents()
                ),
            });
        }
        let clans = sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| {
                let mut clan_cfg = cfg.clone();
                clan_cfg.population_size = size;
                let clan_seed = derive_seed(seed, &[0xC1A2, i as u64]);
                Population::new(clan_cfg, clan_seed)
            })
            .collect();
        Ok(DdaOrchestrator {
            clans,
            evaluator,
            sim: Testbed::new(cluster),
            generation: 0,
            resync_every,
            next_resync_id: RESYNC_ID_BASE,
        })
    }

    /// The independent clan populations.
    pub fn clans(&self) -> &[Population] {
        &self.clans
    }

    /// Pools every clan's genomes and deals them back round-robin,
    /// charging the genome broadcast to the ledger.
    fn global_resync(&mut self) {
        let n = self.clans.len();
        let mut pooled: Vec<Genome> =
            Vec::with_capacity(self.clans.iter().map(Population::len).sum());
        for clan in &self.clans {
            pooled.extend(clan.genomes().values().cloned());
        }
        // Fresh globally unique ids keep per-clan id spaces disjoint.
        for g in &mut pooled {
            g.set_id(clan_neat::GenomeId(self.next_resync_id));
            self.next_resync_id += 1;
        }
        // Each genome crosses the network twice: agent -> center -> agent.
        let payloads: Vec<u64> = pooled
            .iter()
            .flat_map(|g| [genome_payload(g), genome_payload(g)])
            .collect();
        self.sim.comm(MessageKind::SendGenomes, 2 * n, payloads);

        let mut buckets: Vec<Vec<Genome>> = (0..n).map(|_| Vec::new()).collect();
        for (i, g) in pooled.into_iter().enumerate() {
            buckets[i % n].push(g);
        }
        for (clan, bucket) in self.clans.iter_mut().zip(buckets) {
            clan.replace_genomes(bucket);
        }
    }
}

impl Orchestrator for DdaOrchestrator {
    fn step_generation(&mut self) -> Result<GenerationReport, ClanError> {
        let generation = self.generation;
        let n_agents = self.sim.cluster.n_agents();

        // COMM (generation 0 only) — initial clan distribution. After
        // this, genomes never travel again (absent resync).
        if generation == 0 {
            let payloads: Vec<u64> = self
                .clans
                .iter()
                .flat_map(|c| c.genomes().values().map(genome_payload))
                .collect();
            self.sim.comm(MessageKind::SendGenomes, n_agents, payloads);
        }

        // Each clan runs a full local generation.
        let mut inference_genes = Vec::with_capacity(n_agents);
        let mut evolution_genes = Vec::with_capacity(n_agents);
        let mut evolved = GenerationSummary {
            generation,
            num_species: 0,
            best_fitness: f64::NEG_INFINITY,
            costs: Default::default(),
            extinction: false,
        };
        for clan in &mut self.clans {
            let size = clan.len();
            let genes = evaluate_partitioned(clan, &mut self.evaluator, &[size])?;
            inference_genes.push(genes[0]);
            let evo = clan.try_advance_generation(|p, plan| {
                Ok::<_, ClanError>(p.reproduce_centrally(plan))
            })?;
            evolution_genes.push(evo.costs.evolution_genes());
            evolved.best_fitness = evolved.best_fitness.max(evo.best_fitness);
            evolved.num_species += evo.num_species;
            evolved.extinction |= evo.extinction;
            evolved.costs += evo.costs;
        }
        self.sim
            .recorder
            .add_inference(self.sim.cluster.parallel_inference_time_s(&inference_genes));
        self.sim
            .recorder
            .add_evolution(self.sim.cluster.parallel_evolution_time_s(&evolution_genes));

        // COMM — one best-fitness scalar per clan for convergence
        // monitoring (clan id + fitness).
        let clans = self.clans.len();
        self.sim
            .comm(MessageKind::SendFitness, clans, (0..clans).map(|_| 2u64));

        self.generation += 1;

        // Optional periodic global speciation (future-work extension).
        if let Some(r) = self.resync_every {
            if self.generation.is_multiple_of(r.get()) {
                self.global_resync();
            }
        }

        Ok(finish_generation(
            &mut self.evaluator,
            &mut self.sim.recorder,
            &evolved,
        ))
    }

    /// The best over the clans' own trackers (the lowest clan among
    /// equals).
    fn best_ever(&self) -> Option<&Genome> {
        self.clans
            .iter()
            .filter_map(Population::best_ever)
            .reduce(|best, g| {
                if g.fitness() > best.fitness() {
                    g
                } else {
                    best
                }
            })
    }

    fn ledger(&self) -> &CommLedger {
        self.sim.ledger()
    }

    fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    fn evaluator_mut(&mut self) -> &mut Evaluator {
        &mut self.evaluator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::InferenceMode;
    use clan_envs::Workload;
    use clan_hw::Platform;
    use clan_netsim::WifiModel;

    fn make(pop: usize, agents: usize, seed: u64) -> DdaOrchestrator {
        make_resync(pop, agents, seed, None)
    }

    fn make_resync(
        pop: usize,
        agents: usize,
        seed: u64,
        resync_every: Option<NonZeroU64>,
    ) -> DdaOrchestrator {
        let w = Workload::CartPole;
        let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
            .population_size(pop)
            .build()
            .unwrap();
        DdaOrchestrator::new(
            cfg,
            Evaluator::new(w, InferenceMode::MultiStep),
            Cluster::homogeneous(Platform::raspberry_pi(), agents, WifiModel::default()),
            seed,
            resync_every,
        )
        .unwrap()
    }

    #[test]
    fn one_clan_per_device() {
        for agents in 1..=3 {
            assert_eq!(make(12, agents, 1).clans().len(), agents);
        }
    }

    #[test]
    fn clans_partition_population() {
        let o = make(30, 4, 1);
        let sizes: Vec<usize> = o.clans().iter().map(Population::len).collect();
        assert_eq!(sizes, vec![8, 8, 7, 7]);
        assert_eq!(sizes.iter().sum::<usize>(), 30);
    }

    #[test]
    fn heterogeneous_clusters_size_clans_by_throughput() {
        use clan_hw::PlatformKind;
        let w = Workload::CartPole;
        let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
            .population_size(36)
            .build()
            .unwrap();
        // A Jetson CPU models 3.5x a Pi's inference throughput: its clan
        // gets ~3.5x the genomes instead of the old even split.
        let fast = clan_hw::Platform::new(PlatformKind::JetsonCpu);
        let slow = clan_hw::Platform::raspberry_pi();
        let cluster = Cluster::new(slow, vec![fast, slow], WifiModel::default());
        let evaluator = Evaluator::new(w, InferenceMode::MultiStep);
        let o = DdaOrchestrator::new(cfg, evaluator, cluster, 1, None).unwrap();
        let sizes: Vec<usize> = o.clans().iter().map(Population::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 36);
        assert_eq!(sizes, vec![28, 8], "3.5:1 throughput ratio sizes the clans");
        // And the run still steps.
        let mut o = o;
        o.step_generation().unwrap();
    }

    #[test]
    fn too_small_clans_rejected() {
        let w = Workload::CartPole;
        let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
            .population_size(5)
            .build()
            .unwrap();
        let err = DdaOrchestrator::new(
            cfg,
            Evaluator::new(w, InferenceMode::MultiStep),
            Cluster::homogeneous(Platform::raspberry_pi(), 4, WifiModel::default()),
            1,
            None,
        );
        assert!(matches!(err, Err(ClanError::InvalidSetup { .. })));
    }

    #[test]
    fn genomes_only_travel_at_init() {
        let mut o = make(20, 4, 2);
        o.step_generation().unwrap();
        let after_g0 = o.ledger().entry(MessageKind::SendGenomes);
        assert_eq!(after_g0.messages, 20);
        for _ in 0..3 {
            o.step_generation().unwrap();
        }
        assert_eq!(
            o.ledger().entry(MessageKind::SendGenomes).messages,
            20,
            "no genome traffic after initialization"
        );
        assert_eq!(o.ledger().entry(MessageKind::SendFitness).messages, 16);
        assert_eq!(o.ledger().entry(MessageKind::SendChildren).messages, 0);
        assert_eq!(o.ledger().entry(MessageKind::SendParentGenomes).messages, 0);
    }

    #[test]
    fn communication_far_below_dds() {
        let mut dda = make(20, 4, 3);
        let mut dds = {
            let w = Workload::CartPole;
            let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
                .population_size(20)
                .build()
                .unwrap();
            crate::DdsOrchestrator::new(
                Population::new(cfg, 3),
                Evaluator::new(w, InferenceMode::MultiStep),
                Cluster::homogeneous(Platform::raspberry_pi(), 4, WifiModel::default()),
            )
        };
        for _ in 0..3 {
            dda.step_generation().unwrap();
            dds.step_generation().unwrap();
        }
        assert!(
            dda.ledger().total_floats() * 3 < dds.ledger().total_floats(),
            "DDA {} vs DDS {}",
            dda.ledger().total_floats(),
            dds.ledger().total_floats()
        );
    }

    #[test]
    fn clans_evolve_independently_and_deterministically() {
        let run = |seed: u64| {
            let mut o = make(24, 3, seed);
            for _ in 0..3 {
                o.step_generation().unwrap();
            }
            o.clans()
                .iter()
                .flat_map(|c| c.genomes().values().cloned())
                .collect::<Vec<Genome>>()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a, b);
        assert_ne!(a, run(10));
    }

    #[test]
    fn resync_shuffles_genomes_across_clans() {
        let mut o = make_resync(24, 3, 4, NonZeroU64::new(2));
        let genome_msgs_before = o.ledger().entry(MessageKind::SendGenomes).messages;
        o.step_generation().unwrap();
        o.step_generation().unwrap(); // resync fires after this one
        let genome_msgs_after = o.ledger().entry(MessageKind::SendGenomes).messages;
        assert!(
            genome_msgs_after > genome_msgs_before + 24,
            "resync must move genomes: {genome_msgs_before} -> {genome_msgs_after}"
        );
        // Populations remain well-formed.
        for clan in o.clans() {
            assert_eq!(clan.len(), 8);
        }
        // And the run can continue.
        o.step_generation().unwrap();
    }

    #[test]
    fn reports_aggregate_species_across_clans() {
        let mut o = make(24, 3, 5);
        let r = o.step_generation().unwrap();
        assert!(r.num_species >= 3, "each clan has at least one species");
        assert!(r.best_fitness.is_finite());
        assert!(r.costs.episodes == 24);
    }
}
