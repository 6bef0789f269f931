//! `CLAN_DDS` — Distributed inference and reproduction, Synchronous
//! speciation (paper §III-D-1, "Distributed Reproduction").
//!
//! Agents both evaluate and *build* the next generation's children, but
//! synchronous speciation still needs every genome's structure at the
//! center. The result is the paper's cautionary tale: children stream to
//! the center each generation, parent genomes stream back out to the
//! agents that need them, and communication "starts to dominate from the
//! outset" — evolution never scales past two agents (Fig 6).
//!
//! The genomes an agent evaluates are the children it just built, so —
//! unlike DCS — no genome transfer precedes inference (only the
//! generation-0 initial distribution).
//!
//! With a live [`EdgeCluster`](crate::runtime::EdgeCluster) attached to
//! the evaluator, reproduction really crosses the wire: child specs and
//! the parents they name go out as `BuildChildren` frames and the built
//! genomes come back as `Children`, so the measured transport ledger
//! shows the same back-and-forth the analytic one models.

use crate::error::ClanError;
use crate::evaluator::Evaluator;
use crate::orchestra::{
    evaluate_partitioned, finish_generation, genome_payload, GenerationReport, Orchestrator,
    Testbed, FITNESS_ENTRY_FLOATS, PARENT_LIST_ENTRY_FLOATS, SPAWN_ENTRY_FLOATS,
};
use clan_distsim::Cluster;
use clan_neat::population::GenerationSummary;
use clan_neat::{GenerationPlan, Genome, NeatError, Population};
use clan_netsim::{CommLedger, MessageKind};

/// The distributed-reproduction configuration.
#[derive(Debug)]
pub struct DdsOrchestrator {
    pop: Population,
    evaluator: Evaluator,
    sim: Testbed,
}

impl DdsOrchestrator {
    /// Creates a `CLAN_DDS` run of `pop` over `cluster`.
    pub fn new(pop: Population, evaluator: Evaluator, cluster: Cluster) -> DdsOrchestrator {
        DdsOrchestrator {
            pop,
            evaluator,
            sim: Testbed::new(cluster),
        }
    }

    /// The underlying population.
    pub fn population(&self) -> &Population {
        &self.pop
    }

    /// Phase `R`, distributed: ships `plan` to the agents, has each build
    /// its share of the children, gathers them back and installs them as
    /// the next generation.
    fn reproduce_distributed(&mut self, plan: &GenerationPlan) -> Result<(), ClanError> {
        let n_agents = self.sim.cluster.n_agents();
        // COMM — ship the plan to the agents: spawn counts, parent lists,
        // and the parent genomes themselves. The chosen parents are not
        // necessarily resident on the agent that will build a given child,
        // so the center sends the whole parent pool to every agent — the
        // "repeated back and forth of genomes" the paper blames for DDS's
        // costs.
        let n_species = plan.species_plans.len() as u64;
        self.sim.comm(
            MessageKind::SendSpawnCount,
            n_agents,
            (0..n_agents).map(|_| n_species * SPAWN_ENTRY_FLOATS),
        );

        let child_counts = self.sim.cluster.partition(plan.children.len());
        self.sim.comm(
            MessageKind::SendParentList,
            n_agents,
            child_counts
                .iter()
                .map(|&c| c as u64 * PARENT_LIST_ENTRY_FLOATS),
        );

        let parent_payloads: Vec<u64> = plan
            .parent_ids()
            .into_iter()
            .map(|id| genome_payload(self.pop.genome(id).expect("parents are resident")))
            .collect();
        self.sim.comm(
            MessageKind::SendParentGenomes,
            n_agents,
            parent_payloads.repeat(n_agents),
        );

        // R — distributed reproduction: each agent builds a contiguous
        // chunk of the plan's children. Over a live cluster the specs
        // and parents are shipped out and the children gathered back
        // (in plan order, whichever agent built them); the reproduction
        // cost `build_child` charges locally is charged here instead.
        let children: Vec<Genome> = match self.evaluator.remote_cluster_mut() {
            Some(edge) => {
                let built = edge.build_children(&self.pop, plan)?;
                for child in &built {
                    self.pop
                        .counters_mut()
                        .record_reproduction(child.num_genes());
                }
                built
            }
            None => self.pop.reproduce_centrally(plan),
        };
        let mut built_genes = children.iter().map(Genome::num_genes);
        let repro_genes_per_agent: Vec<u64> = child_counts
            .iter()
            .map(|&count| built_genes.by_ref().take(count).sum())
            .collect();
        self.sim.recorder.add_evolution(
            self.sim
                .cluster
                .parallel_evolution_time_s(&repro_genes_per_agent),
        );

        // COMM — children stream back for the next synchronous speciation.
        self.sim.comm(
            MessageKind::SendChildren,
            n_agents,
            children.iter().map(genome_payload),
        );

        self.pop.install_next_generation(children);
        Ok(())
    }
}

impl Orchestrator for DdsOrchestrator {
    fn step_generation(&mut self) -> Result<GenerationReport, ClanError> {
        let generation = self.pop.generation();
        let n_agents = self.sim.cluster.n_agents();
        let center = *self.sim.cluster.center();
        let counts = self.sim.cluster.partition(self.pop.len());

        // COMM (generation 0 only) — initial population distribution.
        if generation == 0 {
            let payloads: Vec<u64> = self.pop.genomes().values().map(genome_payload).collect();
            self.sim.comm(MessageKind::SendGenomes, n_agents, payloads);
        }

        // I — distributed inference on resident genomes.
        let genes = evaluate_partitioned(&mut self.pop, &mut self.evaluator, &counts)?;
        self.sim
            .recorder
            .add_inference(self.sim.cluster.parallel_inference_time_s(&genes));

        // COMM — fitness back to the center (speciation and planning
        // need it).
        self.sim.comm(
            MessageKind::SendFitness,
            n_agents,
            counts.iter().map(|&c| c as u64 * FITNESS_ENTRY_FLOATS),
        );

        let best_fitness = self
            .pop
            .best()
            .and_then(Genome::fitness)
            .expect("population was just evaluated");

        // S — synchronous speciation at the center (it has every genome:
        // generation 0 created them there, later ones arrived as
        // children).
        let speciation = self.pop.speciate();
        self.sim
            .recorder
            .add_evolution(center.evolution_time_s(speciation.genes_processed));

        // GP — central planning; R — distributed. Total extinction
        // re-seeds at the center instead, as the central step does.
        let (num_species, extinction) = match self.pop.plan_generation() {
            Ok(plan) => {
                self.reproduce_distributed(&plan)?;
                (speciation.species_count, false)
            }
            Err(NeatError::Extinction) if self.pop.config().reset_on_extinction => {
                self.pop.reset_population();
                (0, true)
            }
            Err(e) => return Err(e.into()),
        };
        let evolved = GenerationSummary {
            generation,
            num_species,
            best_fitness,
            costs: self.pop.counters_mut().finish_generation(),
            extinction,
        };
        Ok(finish_generation(
            &mut self.evaluator,
            &mut self.sim.recorder,
            &evolved,
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

    fn make(pop_size: usize, agents: usize, seed: u64) -> DdsOrchestrator {
        let w = Workload::CartPole;
        let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
            .population_size(pop_size)
            .build()
            .unwrap();
        DdsOrchestrator::new(
            Population::new(cfg, seed),
            Evaluator::new(w, InferenceMode::MultiStep),
            Cluster::homogeneous(Platform::raspberry_pi(), agents, WifiModel::default()),
        )
    }

    #[test]
    fn genome_traffic_flows_both_ways() {
        let mut o = make(12, 3, 1);
        o.step_generation().unwrap();
        let l = o.ledger();
        assert_eq!(l.entry(MessageKind::SendGenomes).messages, 12, "gen-0 init");
        assert_eq!(l.entry(MessageKind::SendChildren).messages, 12);
        assert_eq!(l.entry(MessageKind::SendSpawnCount).messages, 3);
        assert_eq!(l.entry(MessageKind::SendParentList).messages, 3);
        assert!(l.entry(MessageKind::SendParentGenomes).messages > 0);

        // Generation 1: no re-initialization.
        o.step_generation().unwrap();
        assert_eq!(o.ledger().entry(MessageKind::SendGenomes).messages, 12);
    }

    #[test]
    fn dds_communication_exceeds_dcs() {
        // Figure 4's counter-intuitive finding: distributing reproduction
        // *increases* communication.
        let mut dds = make(20, 4, 2);
        let mut dcs = crate::dcs::DcsOrchestrator::new(
            Population::new(
                NeatConfig::builder(4, 2)
                    .population_size(20)
                    .build()
                    .unwrap(),
                2,
            ),
            Evaluator::new(Workload::CartPole, InferenceMode::MultiStep),
            Cluster::homogeneous(Platform::raspberry_pi(), 4, WifiModel::default()),
        );
        // Skip DDS's one-time init cost by comparing steady-state gen 1.
        dds.step_generation().unwrap();
        dcs.step_generation().unwrap();
        let dds_floats_g0 = dds.ledger().total_floats();
        let dcs_floats_g0 = dcs.ledger().total_floats();
        dds.step_generation().unwrap();
        dcs.step_generation().unwrap();
        let dds_gen1 = dds.ledger().total_floats() - dds_floats_g0;
        let dcs_gen1 = dcs.ledger().total_floats() - dcs_floats_g0;
        assert!(
            dds_gen1 > dcs_gen1,
            "DDS {dds_gen1} floats should exceed DCS {dcs_gen1}"
        );
    }

    #[test]
    fn dds_matches_serial_trajectory_exactly() {
        let w = Workload::CartPole;
        let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
            .population_size(16)
            .build()
            .unwrap();
        let mut serial = SerialOrchestrator::new(
            Population::new(cfg, 5),
            Evaluator::new(w, InferenceMode::MultiStep),
            Cluster::homogeneous(Platform::raspberry_pi(), 1, WifiModel::default()),
        );
        let mut dds = make(16, 3, 5);
        for _ in 0..4 {
            let a = serial.step_generation().unwrap();
            let b = dds.step_generation().unwrap();
            assert_eq!(a.best_fitness, b.best_fitness);
        }
        assert_eq!(serial.population().genomes(), dds.population().genomes());
    }

    #[test]
    fn evolution_time_split_across_agents() {
        let one = {
            let mut o = make(24, 1, 6);
            o.step_generation().unwrap();
            o.step_generation().unwrap().timeline.evolution_s
        };
        let four = {
            let mut o = make(24, 4, 6);
            o.step_generation().unwrap();
            o.step_generation().unwrap().timeline.evolution_s
        };
        assert!(
            four < one,
            "reproduction should parallelize: {four} vs {one}"
        );
    }
}
