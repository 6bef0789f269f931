//! The elastic-membership headline: an agent **crashing mid-run** (and a
//! replacement joining later) changes nothing about the evolution.
//!
//! For every CLAN topology (Serial / DCS / DDS / DDA) and cluster size
//! (1 / 2 / 4 agents), a run whose inference executes over a cluster
//! with a seeded kill/revive schedule — the victim's transport swapped
//! for a dead stub at a scatter-round boundary, its chunks reassigned
//! to survivors, a replacement agent configured into the slot later —
//! must be *bit-identical* to the purely local run: same per-generation
//! reports (fitness, species, cost counters, modeled timelines), same
//! best-ever genome. Churn costs only time, measured in
//! `RecoveryStats`; it never leaks into the result.
//!
//! Also pinned here: chunk reassignment conserves genomes (no loss, no
//! duplication) under *arbitrary* churn schedules (proptest), mid-run
//! join over channel, TCP, and UDP transports, and the typed errors a
//! cluster degrades into when churn drains it below the policy floor.
//!
//! CI's `net-smoke` job runs this suite on every push.

use clan::core::membership::RecoveryPolicy;
use clan::core::runtime::EdgeCluster;
use clan::core::transport::{ChurnAction, ChurnSchedule, ClusterSpec};
use clan::core::{
    orchestrator_for, ClanError, ClanTopology, Evaluator, GenerationReport, InferenceMode,
    Orchestrator,
};
use clan::distsim::Cluster;
use clan::envs::Workload;
use clan::hw::Platform;
use clan::neat::{Genome, NeatConfig, Population};
use clan::netsim::WifiModel;
use proptest::prelude::*;

const POP: usize = 20;
const SIM_AGENTS: usize = 4;
const GENERATIONS: usize = 4;
const SEED: u64 = 41;

fn neat_cfg() -> NeatConfig {
    let w = Workload::CartPole;
    NeatConfig::builder(w.obs_dim(), w.n_actions())
        .population_size(POP)
        .build()
        .unwrap()
}

/// The kill/revive plan for an `n`-agent cluster. With two or more
/// agents the last one dies before round 1 (its chunk is reassigned to
/// survivors) and a replacement joins before round 3; a lone agent gets
/// a crash-and-reboot (kill + revive at the same boundary), since there
/// is nobody left to reassign to.
fn plan_for(n_agents: usize) -> ChurnSchedule {
    if n_agents == 1 {
        ChurnSchedule::new().kill(0, 1).revive(0, 1)
    } else {
        ChurnSchedule::new()
            .kill(n_agents - 1, 1)
            .revive(n_agents - 1, 3)
    }
}

/// The four paper configurations over the simulated `SIM_AGENTS` cluster.
fn topologies() -> [ClanTopology; 4] {
    [
        ClanTopology::serial(),
        ClanTopology::dcs(),
        ClanTopology::dds(),
        ClanTopology::dda(SIM_AGENTS),
    ]
}

/// Builds `topology`'s orchestrator around the given evaluator.
fn orchestrator(topology: ClanTopology, evaluator: Evaluator) -> Box<dyn Orchestrator> {
    let agents = if topology == ClanTopology::serial() {
        1
    } else {
        SIM_AGENTS
    };
    let sim = Cluster::homogeneous(Platform::raspberry_pi(), agents, WifiModel::default());
    orchestrator_for(topology, neat_cfg(), SEED, evaluator, sim, None).expect("clans large enough")
}

fn run(mut o: Box<dyn Orchestrator>) -> (Vec<GenerationReport>, Genome) {
    let reports = (0..GENERATIONS)
        .map(|_| o.step_generation().expect("generation steps"))
        .collect();
    (
        reports,
        o.best_ever().expect("evaluated runs have a best").clone(),
    )
}

fn local_evaluator() -> Evaluator {
    Evaluator::new(Workload::CartPole, InferenceMode::MultiStep)
}

/// Cache-off spec for tests that re-evaluate one fixed population to
/// probe the transport: with the fitness cache on, the repeat rounds
/// would be served center-side and no traffic would fly.
fn uncached_spec() -> ClusterSpec {
    ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, neat_cfg()).with_engine(
        clan::core::EngineOptions {
            cache: false,
            ..Default::default()
        },
    )
}

/// A channel cluster of `n_agents` with `plan` installed, behind an
/// evaluator.
fn evaluator_with_churn(n_agents: usize, plan: ChurnSchedule) -> Evaluator {
    let mut cluster = EdgeCluster::spawn(
        n_agents,
        Workload::CartPole,
        InferenceMode::MultiStep,
        neat_cfg(),
    )
    .expect("channel cluster spawns");
    cluster.set_churn(plan).expect("plan fits the cluster");
    local_evaluator().with_remote(cluster)
}

fn churned_evaluator(n_agents: usize) -> Evaluator {
    evaluator_with_churn(n_agents, plan_for(n_agents))
}

#[test]
fn churned_runs_bit_identical_to_serial_on_all_topologies() {
    for topology in topologies() {
        let (local_reports, local_best) = run(orchestrator(topology, local_evaluator()));
        for n_agents in [1usize, 2, 4] {
            let (net_reports, net_best) = run(orchestrator(topology, churned_evaluator(n_agents)));
            assert_eq!(
                local_reports, net_reports,
                "{topology} over {n_agents} churned agent(s): generation reports diverged"
            );
            assert_eq!(
                local_best, net_best,
                "{topology} over {n_agents} churned agent(s): best-ever genome diverged"
            );
        }
    }
}

#[test]
fn dds_agent_killed_during_the_reproduction_scatter_is_bit_identical() {
    // A live DDS generation scatters twice — `Evaluate`, then
    // `BuildChildren` — so the odd cluster rounds are reproduction
    // scatters. Killing agent 0 before round 1 loses its chunk of
    // generation 0's child specs mid-reproduction; the specs are
    // reassigned to the survivors and the run must not notice.
    let (local_reports, local_best) = run(orchestrator(ClanTopology::dds(), local_evaluator()));
    let plan = ChurnSchedule::new().kill(0, 1).revive(0, 3);
    let mut o = orchestrator(ClanTopology::dds(), evaluator_with_churn(3, plan));
    let first = o.step_generation().expect("generation 0 survives the kill");
    assert_eq!(first, local_reports[0]);
    let stats = o.recovery_stats().expect("remote run records recovery");
    assert_eq!(stats.rounds, 2, "one Evaluate + one BuildChildren round");
    assert_eq!(stats.kills, 1);
    assert!(
        stats.reassigned_chunks >= 1 && stats.reassigned_items >= 1,
        "the lost child specs were reassigned: {stats:?}"
    );
    let rest: Vec<GenerationReport> = (1..GENERATIONS)
        .map(|_| o.step_generation().expect("generation steps"))
        .collect();
    assert_eq!(rest[..], local_reports[1..]);
    assert_eq!(o.best_ever(), Some(&local_best));
}

#[test]
fn recovery_is_visible_in_the_stats() {
    let mut o = orchestrator(ClanTopology::dcs(), churned_evaluator(4));
    for _ in 0..GENERATIONS {
        o.step_generation().unwrap();
    }
    let stats = o.recovery_stats().expect("remote run records recovery");
    assert_eq!(stats.kills, 1);
    assert!(stats.joins >= 1, "the replacement join is counted");
    assert!(stats.failures >= 1, "the kill was observed as a failure");
    assert!(stats.reassigned_chunks >= 1);
    assert!(stats.reassigned_items >= 1);
    assert!(
        stats.agent_failures[SIM_AGENTS - 1] >= 1,
        "failures attributed to the killed slot: {stats:?}"
    );
}

#[test]
fn mid_run_join_over_tcp_and_udp_is_bit_identical() {
    let spec = uncached_spec;
    let fitness_of = |cluster: &mut EdgeCluster| {
        let mut pop = Population::new(neat_cfg(), SEED);
        cluster.evaluate(&mut pop).unwrap();
        let first: Vec<f64> = pop
            .genomes()
            .values()
            .map(|g| g.fitness().unwrap())
            .collect();
        cluster.admit_local().expect("cluster mints a replacement");
        cluster.evaluate(&mut pop).unwrap();
        let second: Vec<f64> = pop
            .genomes()
            .values()
            .map(|g| g.fitness().unwrap())
            .collect();
        (first, second)
    };
    let mut tcp = EdgeCluster::spawn_local_spec(2, spec()).expect("tcp loopback binds");
    let mut udp = EdgeCluster::spawn_local_udp_cfg(2, spec(), Default::default())
        .expect("udp loopback binds");
    let (tcp_a, tcp_b) = fitness_of(&mut tcp);
    let (udp_a, udp_b) = fitness_of(&mut udp);
    assert_eq!(tcp_a, udp_a, "TCP and UDP clusters agree before the join");
    assert_eq!(tcp_b, udp_b, "...and after it");
    assert_eq!(tcp_a, tcp_b, "the join changes placement, not results");
    assert_eq!(tcp.n_agents(), 3);
    assert_eq!(udp.n_agents(), 3);
    for cluster in [&tcp, &udp] {
        assert!(
            cluster.ledger().agent_entries()[2].messages > 0,
            "the joined agent carried traffic"
        );
    }
    tcp.shutdown();
    udp.shutdown();
}

#[test]
fn churn_drained_below_the_floor_is_a_typed_error() {
    // Kill everyone, never revive: the run must fail typed, not hang.
    let mut cluster = EdgeCluster::spawn_spec(2, uncached_spec()).unwrap();
    cluster
        .set_churn(ChurnSchedule::new().kill(0, 1).kill(1, 1))
        .unwrap();
    let mut evaluator = local_evaluator().with_remote(cluster);
    let mut pop = Population::new(neat_cfg(), SEED);
    let step = |ev: &mut Evaluator, pop: &mut Population| -> Result<(), ClanError> {
        // Route through the evaluator's remote cluster like the
        // orchestrators do.
        let ids_before = pop.len();
        let cluster = ev_remote(ev);
        cluster.evaluate(pop)?;
        assert_eq!(pop.len(), ids_before);
        Ok(())
    };
    step(&mut evaluator, &mut pop).expect("round 0 is churn-free");
    let err = step(&mut evaluator, &mut pop).unwrap_err();
    assert!(
        matches!(
            err,
            ClanError::Transport { .. } | ClanError::Degraded { .. }
        ),
        "expected a typed churn error, got {err}"
    );
    // And the policy floor: with min_agents 2, losing one of two agents
    // refuses to limp along on the survivor.
    let mut cluster = EdgeCluster::spawn_spec(2, uncached_spec()).unwrap();
    cluster.set_recovery_policy(RecoveryPolicy::default().with_min_agents(2));
    cluster.set_churn(ChurnSchedule::new().kill(0, 1)).unwrap();
    let mut evaluator = local_evaluator().with_remote(cluster);
    step(&mut evaluator, &mut pop).expect("round 0 is churn-free");
    let err = step(&mut evaluator, &mut pop).unwrap_err();
    assert!(
        matches!(
            err,
            ClanError::Transport { .. } | ClanError::Degraded { .. }
        ),
        "expected a floor violation, got {err}"
    );
}

/// Test-only accessor: the orchestrators reach the remote cluster
/// through `evaluate_partitioned`; here we drive it directly.
fn ev_remote(ev: &mut Evaluator) -> &mut EdgeCluster {
    ev.remote_cluster_mut().expect("evaluator has a cluster")
}

/// An arbitrary (but always-survivable) churn schedule over `agents`
/// agents: each scheduled kill targets a distinct agent below
/// `agents - 1` (so at least one agent always survives) and is revived
/// two rounds later.
fn arb_schedule(agents: usize, rounds: u64) -> impl Strategy<Value = ChurnSchedule> {
    proptest::collection::vec((0..agents.max(2) - 1, 1..rounds.max(2)), 0..3).prop_map(
        move |kills| {
            let mut plan = ChurnSchedule::new();
            let mut seen = Vec::new();
            for (agent, round) in kills {
                if seen.contains(&agent) {
                    continue;
                }
                seen.push(agent);
                plan = plan.kill(agent, round).revive(agent, round + 2);
            }
            plan
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Reassignment conserves genomes under arbitrary kill/revive
    /// schedules: every genome gets exactly one fitness, every fitness
    /// matches the serial evaluation — no loss, no duplication, no
    /// divergence.
    #[test]
    fn reassignment_conserves_genomes_under_arbitrary_churn(
        plan in arb_schedule(3, 4),
        seed in 0u64..1000,
    ) {
        let cfg = neat_cfg();
        let serial: Vec<(u64, f64)> = {
            let mut pop = Population::new(cfg.clone(), seed);
            let mut ev = local_evaluator();
            for _ in 0..4 {
                let ids: Vec<_> = pop.genomes().keys().copied().collect();
                for id in ids {
                    let net = clan::neat::FeedForwardNetwork::compile(
                        pop.genome(id).unwrap(),
                        &cfg,
                    );
                    let s = ev.seed_for(pop.master_seed(), pop.genome(id).unwrap());
                    let fit = ev.evaluate(&net, s).fitness;
                    pop.set_fitness(id, fit).unwrap();
                }
            }
            pop.genomes().iter().map(|(id, g)| (id.0, g.fitness().unwrap())).collect()
        };
        // Cache off: this property re-evaluates one fixed population per
        // round, and reassignment only happens when items actually fly.
        let mut cluster = EdgeCluster::spawn_spec(3, uncached_spec()).unwrap();
        cluster.set_churn(plan).unwrap();
        let mut pop = Population::new(cfg, seed);
        for _ in 0..4 {
            cluster.evaluate(&mut pop).unwrap();
        }
        let churned: Vec<(u64, f64)> = pop
            .genomes()
            .iter()
            .map(|(id, g)| (id.0, g.fitness().expect("every genome evaluated")))
            .collect();
        prop_assert_eq!(&churned, &serial, "conservation + equality");
        cluster.shutdown();
    }

    /// Seeded schedules are pure functions of their seed, and kills
    /// always pair with revivals (the generator's invariant the
    /// equivalence tests rely on).
    #[test]
    fn seeded_schedules_are_reproducible(seed in any::<u64>()) {
        let a = ChurnSchedule::seeded(seed, 4, 6, 0.25);
        prop_assert_eq!(&a, &ChurnSchedule::seeded(seed, 4, 6, 0.25));
        let kills = a.events().iter().filter(|e| e.action == ChurnAction::Kill).count();
        let revives = a.events().iter().filter(|e| e.action == ChurnAction::Revive).count();
        prop_assert_eq!(kills, revives);
    }
}
