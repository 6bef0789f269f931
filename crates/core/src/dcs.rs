//! `CLAN_DCS` — Distributed inference, Central reproduction, Synchronous
//! speciation (paper §III-D-1).
//!
//! Every generation the center ships each genome to an agent, agents
//! evaluate in parallel (population-level parallelism), fitness flows
//! back, and the center runs speciation + planning + reproduction alone.
//! Simple and effective while multi-step inference dominates; Amdahl's law
//! catches up once evolution and communication stop shrinking.

use crate::error::ClanError;
use crate::evaluator::Evaluator;
use crate::orchestra::{
    evaluate_partitioned, finish_generation, genome_payload, GenerationReport, Orchestrator,
    Testbed, FITNESS_ENTRY_FLOATS,
};
use clan_distsim::Cluster;
use clan_neat::{Genome, Population};
use clan_netsim::{CommLedger, MessageKind};

/// The distributed-inference configuration.
#[derive(Debug)]
pub struct DcsOrchestrator {
    pop: Population,
    evaluator: Evaluator,
    sim: Testbed,
}

impl DcsOrchestrator {
    /// Creates a `CLAN_DCS` run of `pop` over `cluster`.
    pub fn new(pop: Population, evaluator: Evaluator, cluster: Cluster) -> DcsOrchestrator {
        DcsOrchestrator {
            pop,
            evaluator,
            sim: Testbed::new(cluster),
        }
    }

    /// The underlying population.
    pub fn population(&self) -> &Population {
        &self.pop
    }
}

impl Orchestrator for DcsOrchestrator {
    fn step_generation(&mut self) -> Result<GenerationReport, ClanError> {
        let n_agents = self.sim.cluster.n_agents();
        let center = *self.sim.cluster.center();
        let counts = self.sim.cluster.partition(self.pop.len());

        // COMM — center sends every genome to its assigned agent
        // (one message per genome; one channel per agent).
        let payloads: Vec<u64> = self.pop.genomes().values().map(genome_payload).collect();
        self.sim.comm(MessageKind::SendGenomes, n_agents, payloads);

        // I — distributed inference, barrier-synchronized.
        let genes = evaluate_partitioned(&mut self.pop, &mut self.evaluator, &counts)?;
        self.sim
            .recorder
            .add_inference(self.sim.cluster.parallel_inference_time_s(&genes));

        // COMM — agents return fitness (one batched message per agent).
        let fitness_payloads = counts.iter().map(|&c| c as u64 * FITNESS_ENTRY_FLOATS);
        self.sim
            .comm(MessageKind::SendFitness, n_agents, fitness_payloads);

        // S, GP, R — central.
        let evo = self.pop.try_advance_generation()?;
        self.sim
            .recorder
            .add_evolution(center.evolution_time_s(evo.costs.evolution_genes()));

        Ok(finish_generation(
            &mut self.evaluator,
            &mut self.sim.recorder,
            &evo,
        ))
    }

    fn best_ever(&self) -> Option<&Genome> {
        self.pop.best_ever()
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
    use crate::serial::SerialOrchestrator;
    use clan_envs::Workload;
    use clan_hw::Platform;
    use clan_neat::NeatConfig;
    use clan_netsim::WifiModel;

    fn make(pop_size: usize, agents: usize, seed: u64) -> DcsOrchestrator {
        let w = Workload::CartPole;
        let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
            .population_size(pop_size)
            .build()
            .unwrap();
        DcsOrchestrator::new(
            Population::new(cfg, seed),
            Evaluator::new(w, InferenceMode::MultiStep),
            Cluster::homogeneous(Platform::raspberry_pi(), agents, WifiModel::default()),
        )
    }

    #[test]
    fn records_genome_and_fitness_traffic() {
        let mut o = make(12, 3, 1);
        o.step_generation().unwrap();
        let genomes = o.ledger().entry(MessageKind::SendGenomes);
        let fitness = o.ledger().entry(MessageKind::SendFitness);
        assert_eq!(genomes.messages, 12, "one message per genome");
        assert_eq!(fitness.messages, 3, "one fitness batch per agent");
        assert_eq!(fitness.floats, 24);
        assert_eq!(o.ledger().entry(MessageKind::SendChildren).messages, 0);
    }

    #[test]
    fn inference_time_shrinks_with_agents() {
        let t = |agents: usize| {
            let mut o = make(30, agents, 2);
            o.step_generation().unwrap().timeline.inference_s
        };
        let t1 = t(1);
        let t5 = t(5);
        assert!(t5 < t1 * 0.5, "5 agents should beat 1 by >2x: {t1} vs {t5}");
    }

    #[test]
    fn communication_grows_with_agents() {
        let c = |agents: usize| {
            let mut o = make(30, agents, 3);
            o.step_generation().unwrap().timeline.communication_s
        };
        assert!(c(8) > c(2), "channel setup scales with agent count");
    }

    #[test]
    fn dcs_matches_serial_trajectory_exactly() {
        // The paper's implicit invariant (and our order-independent RNG
        // guarantee): distributing inference must not change evolution.
        let w = Workload::CartPole;
        let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
            .population_size(20)
            .build()
            .unwrap();
        let mut serial = SerialOrchestrator::new(
            Population::new(cfg.clone(), 7),
            Evaluator::new(w, InferenceMode::MultiStep),
            Cluster::homogeneous(Platform::raspberry_pi(), 1, WifiModel::default()),
        );
        let mut dcs = make(20, 4, 7);
        for _ in 0..4 {
            let a = serial.step_generation().unwrap();
            let b = dcs.step_generation().unwrap();
            assert_eq!(a.best_fitness, b.best_fitness);
            assert_eq!(a.num_species, b.num_species);
        }
        assert_eq!(
            serial.population().genomes(),
            dcs.population().genomes(),
            "populations must be bit-identical"
        );
    }
}
