//! An agent **crashing mid-run** (and a replacement joining later)
//! changes nothing about the evolution: the `churn` matrix row
//! (`tests/common/mod.rs`). Churn costs only time, measured in
//! `RecoveryStats`. Also pinned here: a kill landing in DDS's reproduction
//! scatter, reassignment conserving genomes under *arbitrary* schedules
//! (proptest), mid-run join over TCP and UDP, a killed slot revived from a
//! spare `clan-cli agent` daemon over TCP and UDP, and the typed errors a
//! cluster degrades into when churn drains it below the policy floor.

mod common;

use clan::core::membership::RecoveryPolicy;
use clan::core::runtime::{AgentSource, EdgeCluster};
use clan::core::transport::{ChurnAction, ChurnSchedule, ClusterSpec, UdpConfig};
use clan::core::{ClanError, ClanTopology, EngineOptions, Evaluator, InferenceMode};
use clan::envs::Workload;
use clan::neat::Population;
use common::{
    check, compare, fitnesses, fresh_population, local_evaluator, neat_cfg, orchestrator, run,
    spec, Condition, GENERATIONS, SIM_AGENTS,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};

const CARTPOLE: Workload = Workload::CartPole;
const MULTI: InferenceMode = InferenceMode::MultiStep;

/// Cache-off spec for tests that re-evaluate one fixed population to
/// probe the transport: with the fitness cache on, the repeat rounds
/// would be served center-side and no traffic would fly.
fn uncached_spec() -> ClusterSpec {
    spec(CARTPOLE, MULTI).with_engine(EngineOptions {
        cache: false,
        ..Default::default()
    })
}

#[test]
fn churned_runs_bit_identical_to_serial_on_all_topologies() {
    check("churn");
}

#[test]
fn dds_agent_killed_during_the_reproduction_scatter_is_bit_identical() {
    // A live DDS generation scatters twice — `Evaluate`, then
    // `BuildChildren` — so the odd cluster rounds are reproduction
    // scatters. Killing agent 0 before round 1 loses its chunk of
    // generation 0's child specs mid-reproduction; the specs are
    // reassigned to the survivors and the run must not notice.
    let dds = ClanTopology::dds();
    let local = local_evaluator(CARTPOLE, MULTI);
    let reference = run(&mut *orchestrator(dds, SIM_AGENTS, local), GENERATIONS);
    let mut cluster =
        EdgeCluster::from_source(3, spec(CARTPOLE, MULTI), AgentSource::Threads).unwrap();
    cluster
        .set_churn(ChurnSchedule::new().kill(0, 1).revive(0, 3))
        .unwrap();
    let remote = local_evaluator(CARTPOLE, MULTI).with_remote(cluster);
    let mut o = orchestrator(dds, SIM_AGENTS, remote);
    let first = o.step_generation().expect("generation 0 survives the kill");
    let stats = o
        .evaluator()
        .remote_recovery_stats()
        .expect("remote run records recovery");
    assert_eq!(stats.rounds, 2, "one Evaluate + one BuildChildren round");
    assert_eq!(stats.kills, 1);
    assert!(
        stats.reassigned_chunks >= 1 && stats.reassigned_items >= 1,
        "the lost child specs were reassigned: {stats:?}"
    );
    let mut subject = run(&mut *o, GENERATIONS - 1);
    subject.reports.insert(0, first);
    let cell = "kill in the reproduction scatter x CLAN_DDS x 3 agent(s)";
    assert_eq!(compare(cell, &reference, &subject), Ok(()));
}

#[test]
fn recovery_is_visible_in_the_stats() {
    let mut o = Condition::Churn.orchestrator(ClanTopology::dcs(), 4);
    run(&mut *o, GENERATIONS);
    let stats = o
        .evaluator()
        .remote_recovery_stats()
        .expect("remote run records recovery");
    assert_eq!(stats.kills, 1);
    assert!(stats.joins >= 1, "the replacement join is counted");
    assert!(stats.failures >= 1, "the kill was observed as a failure");
    assert!(stats.reassigned_chunks >= 1);
    assert!(stats.reassigned_items >= 1);
    let rows = o.evaluator().remote_agent_stats();
    assert!(
        rows[3].failures >= 1,
        "failures attributed to the killed slot: {rows:?}"
    );
}

#[test]
fn mid_run_join_over_tcp_and_udp_is_bit_identical() {
    let around_a_join = |cluster: &mut EdgeCluster| {
        let mut pop = fresh_population();
        cluster.evaluate(&mut pop).unwrap();
        let before = fitnesses(&pop);
        cluster.admit_local().expect("cluster mints a replacement");
        cluster.evaluate(&mut pop).unwrap();
        (before, fitnesses(&pop))
    };
    let mut tcp = Condition::Tcp.cluster(uncached_spec(), 2).expect("live");
    let mut udp = Condition::UdpClean
        .cluster(uncached_spec(), 2)
        .expect("live");
    let (tcp_a, tcp_b) = around_a_join(&mut tcp);
    let (udp_a, udp_b) = around_a_join(&mut udp);
    assert_eq!(tcp_a, udp_a, "TCP and UDP clusters agree before the join");
    assert_eq!(tcp_b, udp_b, "...and after it");
    assert_eq!(tcp_a, tcp_b, "the join changes placement, not results");
    for cluster in [tcp, udp] {
        assert_eq!(cluster.n_agents(), 3);
        assert!(
            cluster.agents()[2].messages > 0,
            "the joined agent carried traffic"
        );
        cluster.shutdown();
    }
}

/// `clan-cli agent --once` daemons on ephemeral loopback ports, killed
/// when dropped (a UDP daemon whose coordinator vanished would otherwise
/// wait out its liveness window).
struct Daemons(Vec<(Child, BufReader<ChildStdout>)>);

impl Daemons {
    /// Starts `n` daemons — TCP, or UDP with `--udp` — and returns them
    /// with the addresses their banners name.
    fn start(n: usize, udp: bool) -> (Daemons, Vec<String>) {
        let mut daemons = Daemons(Vec::new());
        let mut addrs = Vec::new();
        for _ in 0..n {
            let mut child = Command::new(env!("CARGO_BIN_EXE_clan-cli"))
                .args(["agent", "--listen", "127.0.0.1:0", "--once"])
                .args(udp.then_some("--udp"))
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("agent daemon starts");
            let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
            let mut banner = String::new();
            let read = stdout.read_line(&mut banner);
            // Kept open, so the daemon's last line has somewhere to go.
            daemons.0.push((child, stdout));
            read.expect("daemon banner");
            let addr = banner
                .split_whitespace()
                .find(|word| word.starts_with("127.0.0.1:"))
                .unwrap_or_else(|| panic!("no address in banner {banner:?}"));
            addrs.push(addr.to_string());
        }
        (daemons, addrs)
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        for (child, _) in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn remote_daemons_revive_a_killed_slot_from_a_spare_over_tcp_and_udp() {
    // Two `clan-cli agent` daemons found the cluster and a third stands
    // by: slot 1 dies before round 1, and its revival before round 3
    // connects the spare — the remote arm of the respawn path, on either
    // transport.
    let dcs = ClanTopology::dcs();
    let local = local_evaluator(CARTPOLE, MULTI);
    let reference = run(&mut *orchestrator(dcs, SIM_AGENTS, local), GENERATIONS);
    for udp in [None, Some(UdpConfig::default())] {
        let (_daemons, mut addrs) = Daemons::start(3, udp.is_some());
        let spare = addrs.pop().expect("three daemons");
        let spec = spec(CARTPOLE, MULTI);
        let remote = AgentSource::Remote {
            udp: udp.clone(),
            spares: addrs.clone(),
        };
        let mut cluster =
            EdgeCluster::from_source(addrs.len(), spec, remote).expect("the daemons answer");
        cluster.set_spares(vec![spare]).expect("a remote cluster");
        cluster
            .set_churn(ChurnSchedule::new().kill(1, 1).revive(1, 3))
            .expect("the spare covers the revival");
        let remote = local_evaluator(CARTPOLE, MULTI).with_remote(cluster);
        let mut o = orchestrator(dcs, SIM_AGENTS, remote);
        let subject = run(&mut *o, GENERATIONS);
        let stats = o
            .evaluator()
            .remote_recovery_stats()
            .expect("remote run records recovery");
        assert_eq!((stats.kills, stats.joins), (1, 1), "{stats:?}");
        let transport = if udp.is_some() { "UDP" } else { "TCP" };
        let cell = format!("kill + spare revival x CLAN_DCS x 2 {transport} daemon(s)");
        assert_eq!(compare(&cell, &reference, &subject), Ok(()));
    }
}

#[test]
fn churn_drained_below_the_floor_is_a_typed_error() {
    // Round 0 is churn-free; round 1 must fail typed, not hang.
    let second_round_error = |cluster: EdgeCluster| -> ClanError {
        // Route through the evaluator's remote cluster like the
        // orchestrators do.
        let mut evaluator = local_evaluator(CARTPOLE, MULTI).with_remote(cluster);
        let cluster = evaluator.remote_cluster_mut().expect("just attached");
        let mut pop = fresh_population();
        cluster.evaluate(&mut pop).expect("round 0 is churn-free");
        let err = cluster.evaluate(&mut pop).unwrap_err();
        assert!(
            matches!(
                err,
                ClanError::Transport { .. } | ClanError::Degraded { .. }
            ),
            "expected a typed churn error, got {err}"
        );
        err
    };
    // Kill everyone, never revive.
    let mut cluster = EdgeCluster::from_source(2, uncached_spec(), AgentSource::Threads).unwrap();
    cluster
        .set_churn(ChurnSchedule::new().kill(0, 1).kill(1, 1))
        .unwrap();
    second_round_error(cluster);
    // And the policy floor: with min_agents 2, losing one of two agents
    // refuses to limp along on the survivor.
    let mut cluster = EdgeCluster::from_source(2, uncached_spec(), AgentSource::Threads).unwrap();
    cluster.set_recovery_policy(RecoveryPolicy { min_agents: 2 });
    cluster.set_churn(ChurnSchedule::new().kill(0, 1)).unwrap();
    second_round_error(cluster);
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
        let cfg = neat_cfg(CARTPOLE);
        let serial = {
            let mut pop = Population::new(cfg.clone(), seed);
            let mut ev = local_evaluator(CARTPOLE, MULTI);
            let ids: Vec<_> = pop.genomes().keys().copied().collect();
            for id in ids {
                let genome = pop.genome(id).unwrap();
                let net = clan::neat::FeedForwardNetwork::compile(genome, &cfg);
                let episode_seed =
                    Evaluator::episode_seed(pop.master_seed(), genome.content_hash(), 1, MULTI);
                let fit = ev.evaluate(&net, episode_seed).fitness;
                pop.set_fitness(id, fit).unwrap();
            }
            fitnesses(&pop)
        };
        // Cache off: this property re-evaluates one fixed population per
        // round, and reassignment only happens when items actually fly.
        let mut cluster = EdgeCluster::from_source(3, uncached_spec(), AgentSource::Threads).unwrap();
        cluster.set_churn(plan).unwrap();
        let mut pop = Population::new(cfg, seed);
        for _ in 0..4 {
            cluster.evaluate(&mut pop).unwrap();
        }
        prop_assert_eq!(fitnesses(&pop), serial, "conservation + equality");
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
