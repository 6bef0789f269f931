//! The synchronous configurations — Serial, `CLAN_DCS` and `CLAN_DDS`
//! (paper §III-D-1): one `I → S → GP → R` generation whose speciation and
//! planning stay central, placed by the `CLAN_<I R>` letters of
//! [`ClanTopology`](crate::ClanTopology).
//!
//! - **Serial** — every block on the center, no communication: the
//!   "localized implementation" of Figures 9–11.
//! - **DCS** — *distributed inference*: every generation the center
//!   ships each genome to an agent, agents evaluate in parallel and
//!   fitness flows back. Simple and effective while multi-step inference
//!   dominates; Amdahl's law catches up once evolution and communication
//!   stop shrinking.
//! - **DDS** — *distributed inference and reproduction*: agents evaluate
//!   the children they just built, so genomes go out only once (generation
//!   0), but synchronous speciation still needs every genome at the
//!   center. Children stream in each generation and the parent pool
//!   streams out — the paper's cautionary tale, where communication
//!   "starts to dominate from the outset" (Fig 6). With a live
//!   [`EdgeCluster`](crate::runtime::EdgeCluster) attached to the
//!   evaluator, reproduction really crosses the wire as
//!   `BuildChildren`/`Children` frames.
//!
//! The three evolve bit-identical populations per seed; only the booked
//! time and traffic differ.

use crate::error::ClanError;
use crate::evaluator::Evaluator;
use crate::orchestra::{
    evaluate_partitioned, finish_generation, genome_payload, GenerationReport, Orchestrator,
    Testbed, FITNESS_ENTRY_FLOATS, PARENT_LIST_ENTRY_FLOATS, SPAWN_ENTRY_FLOATS,
};
use clan_distsim::Cluster;
use clan_neat::{GenerationPlan, Genome, Population};
use clan_netsim::{CommLedger, MessageKind};

/// A synchronous-speciation orchestrator whose inference and reproduction
/// run on the agents when `DISTRIBUTED_INFERENCE` /
/// `DISTRIBUTED_REPRODUCTION` are set, on the center otherwise.
#[derive(Debug)]
pub struct Generational<const DISTRIBUTED_INFERENCE: bool, const DISTRIBUTED_REPRODUCTION: bool> {
    pop: Population,
    evaluator: Evaluator,
    sim: Testbed,
}

/// Serial: every block on the center.
pub type SerialOrchestrator = Generational<false, false>;
/// `CLAN_DCS`: distributed inference, central reproduction.
pub type DcsOrchestrator = Generational<true, false>;
/// `CLAN_DDS`: distributed inference and reproduction.
pub type DdsOrchestrator = Generational<true, true>;

impl<const DI: bool, const DR: bool> Generational<DI, DR> {
    /// Creates a run of `pop` over `cluster`.
    pub fn new(pop: Population, evaluator: Evaluator, cluster: Cluster) -> Self {
        // Central inference with distributed reproduction is no paper
        // configuration: of the four placements only the aliases compile.
        const { assert!(DI || !DR) };
        Generational {
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

impl<const DI: bool, const DR: bool> Orchestrator for Generational<DI, DR> {
    fn step_generation(&mut self) -> Result<GenerationReport, ClanError> {
        let n_agents = self.sim.cluster.n_agents();
        let center = *self.sim.cluster.center();
        let counts = if DI {
            self.sim.cluster.partition(self.pop.len())
        } else {
            vec![self.pop.len()]
        };

        // COMM — genomes out to the agents that evaluate them: every
        // generation, unless the agents built them (then generation 0 only).
        if DI && (!DR || self.pop.generation() == 0) {
            let payloads: Vec<u64> = self.pop.genomes().values().map(genome_payload).collect();
            self.sim.comm(MessageKind::SendGenomes, n_agents, payloads);
        }

        // I — barrier-synchronized; fitness back (one batch per agent).
        let genes = evaluate_partitioned(&mut self.pop, &mut self.evaluator, &counts)?;
        if DI {
            self.sim
                .recorder
                .add_inference(self.sim.cluster.parallel_inference_time_s(&genes));
            let fitness_payloads = counts.iter().map(|&c| c as u64 * FITNESS_ENTRY_FLOATS);
            self.sim
                .comm(MessageKind::SendFitness, n_agents, fitness_payloads);
        } else {
            self.sim
                .recorder
                .add_inference(center.inference_time_s(genes[0]));
        }

        // S, GP on the center; R where it is placed. Distributed R books
        // its own parallel time and traffic, leaving the center speciation.
        let (sim, evaluator) = (&mut self.sim, &mut self.evaluator);
        let evo = self.pop.try_advance_generation(|pop, plan| match DR {
            true => reproduce_distributed(sim, evaluator, pop, plan),
            false => Ok(pop.reproduce_centrally(plan)),
        })?;
        let center_genes = match DR {
            true => evo.costs.speciation_genes,
            false => evo.costs.evolution_genes(),
        };
        self.sim
            .recorder
            .add_evolution(center.evolution_time_s(center_genes));
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

/// Phase `R`, distributed: ships `plan` to the agents, has each build its
/// contiguous share of the children and gathers them back in plan order.
fn reproduce_distributed(
    sim: &mut Testbed,
    evaluator: &mut Evaluator,
    pop: &mut Population,
    plan: &GenerationPlan,
) -> Result<Vec<Genome>, ClanError> {
    let n_agents = sim.cluster.n_agents();
    // COMM — spawn counts, parent lists, and the parent genomes. A chosen
    // parent need not be resident on the agent building a given child, so
    // the whole parent pool goes to every agent — the "repeated back and
    // forth of genomes" the paper blames for DDS's costs.
    let n_species = plan.species_plans.len() as u64;
    sim.comm(
        MessageKind::SendSpawnCount,
        n_agents,
        (0..n_agents).map(|_| n_species * SPAWN_ENTRY_FLOATS),
    );
    let child_counts = sim.cluster.partition(plan.children.len());
    sim.comm(
        MessageKind::SendParentList,
        n_agents,
        child_counts
            .iter()
            .map(|&c| c as u64 * PARENT_LIST_ENTRY_FLOATS),
    );
    let parent_payloads: Vec<u64> = plan
        .parent_ids()
        .into_iter()
        .map(|id| genome_payload(pop.genome(id).expect("parents are resident")))
        .collect();
    sim.comm(
        MessageKind::SendParentGenomes,
        n_agents,
        parent_payloads.repeat(n_agents),
    );

    // R — over a live cluster the specs and parents really go out; the
    // reproduction cost `build_child` charges locally is charged here.
    let children = match evaluator.remote_cluster_mut() {
        Some(edge) => {
            let built = edge.build_children(pop, plan)?;
            for child in &built {
                pop.counters_mut().record_reproduction(child.num_genes());
            }
            built
        }
        None => pop.reproduce_centrally(plan),
    };
    let mut built_genes = children.iter().map(Genome::num_genes);
    let repro_genes_per_agent: Vec<u64> = child_counts
        .iter()
        .map(|&count| built_genes.by_ref().take(count).sum())
        .collect();
    sim.recorder.add_evolution(
        sim.cluster
            .parallel_evolution_time_s(&repro_genes_per_agent),
    );

    // COMM — children stream back for the next synchronous speciation.
    sim.comm(
        MessageKind::SendChildren,
        n_agents,
        children.iter().map(genome_payload),
    );
    Ok(children)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::InferenceMode;
    use clan_envs::Workload;
    use clan_hw::Platform;
    use clan_neat::NeatConfig;
    use clan_netsim::WifiModel;

    fn make<const DI: bool, const DR: bool>(
        pop_size: usize,
        agents: usize,
        seed: u64,
    ) -> Generational<DI, DR> {
        let w = Workload::CartPole;
        let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
            .population_size(pop_size)
            .build()
            .unwrap();
        Generational::new(
            Population::new(cfg, seed),
            Evaluator::new(w, InferenceMode::MultiStep),
            Cluster::homogeneous(Platform::raspberry_pi(), agents, WifiModel::default()),
        )
    }

    #[test]
    fn serial_has_zero_communication() {
        let mut o: SerialOrchestrator = make(16, 1, 1);
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
        let mut o: SerialOrchestrator = make(12, 1, 2);
        for expect in 0..4 {
            let r = o.step_generation().unwrap();
            assert_eq!(r.generation, expect);
        }
    }

    #[test]
    fn best_ever_is_tracked() {
        let mut o: SerialOrchestrator = make(20, 1, 3);
        assert!(o.best_ever().is_none());
        o.step_generation().unwrap();
        assert!(o.best_ever().is_some());
    }

    #[test]
    fn inference_dominates_for_multistep_cartpole() {
        // Figure 3's headline: inference is the costliest block. (The
        // orders-of-magnitude gap appears at the paper's population of
        // 150; at test scale we assert strict dominance.)
        let mut o: SerialOrchestrator = make(24, 1, 4);
        let r = o.step_generation().unwrap();
        assert!(r.costs.inference_genes > r.costs.evolution_genes());
    }

    #[test]
    fn dcs_records_genome_and_fitness_traffic() {
        let mut o: DcsOrchestrator = make(12, 3, 1);
        o.step_generation().unwrap();
        let genomes = o.ledger().entry(MessageKind::SendGenomes);
        let fitness = o.ledger().entry(MessageKind::SendFitness);
        assert_eq!(genomes.messages, 12, "one message per genome");
        assert_eq!(fitness.messages, 3, "one fitness batch per agent");
        assert_eq!(fitness.floats, 24);
        assert_eq!(o.ledger().entry(MessageKind::SendChildren).messages, 0);

        // Every generation ships the population again.
        o.step_generation().unwrap();
        assert_eq!(o.ledger().entry(MessageKind::SendGenomes).messages, 24);
    }

    #[test]
    fn dcs_inference_time_shrinks_with_agents() {
        let t = |agents: usize| {
            let mut o: DcsOrchestrator = make(30, agents, 2);
            o.step_generation().unwrap().timeline.inference_s
        };
        let t1 = t(1);
        let t5 = t(5);
        assert!(t5 < t1 * 0.5, "5 agents should beat 1 by >2x: {t1} vs {t5}");
    }

    #[test]
    fn dcs_communication_grows_with_agents() {
        let c = |agents: usize| {
            let mut o: DcsOrchestrator = make(30, agents, 3);
            o.step_generation().unwrap().timeline.communication_s
        };
        assert!(c(8) > c(2), "channel setup scales with agent count");
    }

    #[test]
    fn dds_genome_traffic_flows_both_ways() {
        let mut o: DdsOrchestrator = make(12, 3, 1);
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
        // *increases* communication. Steady-state generation 1 skips
        // DDS's one-time initial distribution.
        let mut dds: DdsOrchestrator = make(20, 4, 2);
        let mut dcs: DcsOrchestrator = make(20, 4, 2);
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
    fn dds_evolution_time_split_across_agents() {
        let evolution_s = |agents: usize| {
            let mut o: DdsOrchestrator = make(24, agents, 6);
            o.step_generation().unwrap();
            o.step_generation().unwrap().timeline.evolution_s
        };
        let (one, four) = (evolution_s(1), evolution_s(4));
        assert!(
            four < one,
            "reproduction should parallelize: {four} vs {one}"
        );
    }
}
