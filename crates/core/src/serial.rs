//! Serial baseline: the entire NEAT loop on a single node.
//!
//! This is the "localized implementation" the paper compares against in
//! Figures 9–11 — no communication, all compute on one platform (a lone
//! Pi, a Jetson, or the HPC box).

use crate::error::ClanError;
use crate::evaluator::Evaluator;
use crate::orchestra::{
    evaluate_partitioned, finish_generation, GenerationReport, Orchestrator, Testbed,
};
use clan_distsim::Cluster;
use clan_neat::{Genome, Population};
use clan_netsim::CommLedger;

/// Runs every compute block on the cluster's center node.
#[derive(Debug)]
pub struct SerialOrchestrator {
    pop: Population,
    evaluator: Evaluator,
    sim: Testbed,
}

impl SerialOrchestrator {
    /// Creates a serial run of `pop` on the center of `cluster`.
    pub fn new(pop: Population, evaluator: Evaluator, cluster: Cluster) -> SerialOrchestrator {
        SerialOrchestrator {
            pop,
            evaluator,
            sim: Testbed::new(cluster),
        }
    }

    /// The underlying population (for inspection in tests/benches).
    pub fn population(&self) -> &Population {
        &self.pop
    }
}

impl Orchestrator for SerialOrchestrator {
    fn step_generation(&mut self) -> Result<GenerationReport, ClanError> {
        let center = *self.sim.cluster.center();

        // Phase I — all inference on the center.
        let pop_len = self.pop.len();
        let genes = evaluate_partitioned(&mut self.pop, &mut self.evaluator, &[pop_len])?;
        self.sim
            .recorder
            .add_inference(center.inference_time_s(genes[0]));

        // Phases S, GP, R — all on the center.
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
    use clan_envs::Workload;
    use clan_hw::Platform;
    use clan_neat::NeatConfig;
    use clan_netsim::WifiModel;

    fn orchestrator(pop_size: usize, seed: u64) -> SerialOrchestrator {
        let w = Workload::CartPole;
        let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
            .population_size(pop_size)
            .build()
            .unwrap();
        SerialOrchestrator::new(
            Population::new(cfg, seed),
            Evaluator::new(w, InferenceMode::MultiStep),
            Cluster::homogeneous(Platform::raspberry_pi(), 1, WifiModel::default()),
        )
    }

    #[test]
    fn serial_has_zero_communication() {
        let mut o = orchestrator(16, 1);
        for _ in 0..3 {
            let r = o.step_generation().unwrap();
            assert_eq!(r.timeline.communication_s, 0.0);
            assert!(r.timeline.inference_s > 0.0);
            assert!(r.timeline.evolution_s > 0.0);
        }
        assert_eq!(o.ledger().total_messages(), 0);
    }

    #[test]
    fn reports_generation_sequence() {
        let mut o = orchestrator(12, 2);
        for expect in 0..4 {
            let r = o.step_generation().unwrap();
            assert_eq!(r.generation, expect);
        }
    }

    #[test]
    fn best_ever_is_tracked() {
        let mut o = orchestrator(20, 3);
        assert!(o.best_ever().is_none());
        o.step_generation().unwrap();
        assert!(o.best_ever().is_some());
    }

    #[test]
    fn inference_dominates_for_multistep_cartpole() {
        // Figure 3's headline: inference is the costliest block. (The
        // orders-of-magnitude gap appears at the paper's population of
        // 150; at test scale we assert strict dominance.)
        let mut o = orchestrator(24, 4);
        let r = o.step_generation().unwrap();
        assert!(r.costs.inference_genes > r.costs.evolution_genes());
    }
}
