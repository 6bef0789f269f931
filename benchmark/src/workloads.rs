//! The four workloads and the one load shape they share.
//!
//! Closed loop: one coordinator thread that waits for replies, two
//! loopback agents (agent threads in this process over real sockets),
//! population 150, default engine options. Two agents is what fits the
//! two cores of the reference box; see the README for `nproc < 2`.

use clan_core::transport::{ClusterSpec, FaultConfig, UdpConfig};
use clan_core::{
    ClanDriver, ClanDriverBuilder, ClanError, ClanTopology, EdgeCluster, EngineOptions, Evaluator,
    InferenceMode,
};
use clan_envs::Workload;
use clan_neat::NeatConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Loopback agents (= connections) per cluster.
pub const AGENTS: usize = 2;
/// Genomes per generation.
pub const POPULATION: usize = 150;
/// Default workload seed (the repo's existing `BENCH_SEED`).
pub const DEFAULT_SEED: u64 = 20_200_824;
/// Generations the in-process serial reference is run for.
pub const SERIAL_CHECK_GENERATIONS: u64 = 10;

/// How much work one repetition is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `run_until_solved(cap)` once per NEAT seed of a fixed pool.
    Solve {
        /// NEAT master seeds, all known to solve within `cap`.
        pool: &'static [u64],
        /// Generation cap per seed.
        cap: u64,
    },
    /// `run(generations)` once per NEAT seed, `runs` seeds drawn from
    /// `--seed`.
    Generations {
        /// Driver runs per repetition.
        runs: usize,
        /// Generations per run.
        generations: u64,
    },
    /// Async steady-state `build_async().run()` to an eval budget, once
    /// per NEAT seed of a fixed pool.
    Stream {
        /// NEAT master seeds.
        pool: &'static [u64],
        /// Evaluations per seed (bootstrap wave included).
        evals: u64,
    },
}

/// What carries the frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Wire {
    /// Loopback TCP.
    Tcp,
    /// Loopback reliable-UDP with this share of datagrams dropped by
    /// the seeded fault injector.
    Udp {
        /// Injected datagram loss probability.
        loss: f64,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadDef {
    /// Fixed name; later issues refer to it.
    pub name: &'static str,
    /// One line on why it exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Environment evolved on.
    pub env: Workload,
    /// Episodes averaged per evaluation.
    pub episodes: u32,
    /// Transport.
    pub wire: Wire,
    /// One timed repetition.
    pub full: Shape,
    /// The discarded warm-up before the timed repetitions.
    pub warmup: Shape,
    /// One repetition under `--smoke`.
    pub smoke: Shape,
    /// The traced pass runs its out-of-band probes every this many
    /// generations.
    pub probe_every: u64,
}

// Every repetition is a sequence of short driver runs, one per NEAT
// seed, so that each run is a segment the end-to-end pass can take from
// its quietest repetition (`stats::quiet_sum`).
//
// Why fixed pools on the two LunarLander workloads: how much work a run
// is depends on the trajectory it evolves. Generations-to-solve is
// heavy-tailed over NEAT seeds (10 to 87 for seeds 0-23), and a stream's
// episode lengths moved its evals/s 3.5x between two seeds, so pools
// drawn from `--seed` would move every timing by far more than any
// bound with no change in speed. `--seed` picks where in the pool a
// repetition starts instead; the Atari workloads, whose work per
// generation barely depends on the trajectory, draw their NEAT seeds
// from it.
const SOLVE_POOL: [u64; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
const SOLVE_POOL_SMALL: [u64; 1] = [16];
const STREAM_POOL: [u64; 25] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
];
const STREAM_POOL_SMALL: [u64; 1] = [0];

/// The workloads, in the order they run.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "lander-solve-tcp",
        why: "Compute-bound time-to-solve: LunarLander x3 episodes over TCP; gather is activation kernel + env step + evaluator, genomes are tiny so codec/transport/speciation do little.",
        env: Workload::LunarLander,
        episodes: 3,
        wire: Wire::Tcp,
        full: Shape::Solve {
            pool: &SOLVE_POOL,
            cap: 300,
        },
        warmup: Shape::Solve {
            pool: &SOLVE_POOL_SMALL,
            cap: 300,
        },
        smoke: Shape::Solve {
            pool: &SOLVE_POOL_SMALL,
            cap: 300,
        },
        probe_every: 10,
    },
    WorkloadDef {
        name: "alien-gen-tcp",
        why: "Evolution- and communication-bound: Alien-ram genomes of ~2.3k genes over TCP; central speciation + reproduction and codec + transport + compile dominate, episodes do almost nothing.",
        env: Workload::Alien,
        episodes: 1,
        wire: Wire::Tcp,
        full: Shape::Generations {
            runs: 5,
            generations: 5,
        },
        warmup: Shape::Generations {
            runs: 1,
            generations: 2,
        },
        smoke: Shape::Generations {
            runs: 1,
            generations: 2,
        },
        probe_every: 5,
    },
    WorkloadDef {
        name: "airraid-gen-udp",
        why: "Same codec and scatter/gather as alien-gen-tcp over reliable-UDP with 5% seeded loss: fragmentation + ARQ + retransmit timer; wall is mostly waiting, so CPU and throughput move apart.",
        env: Workload::AirRaid,
        episodes: 1,
        wire: Wire::Udp { loss: 0.05 },
        full: Shape::Generations {
            runs: 2,
            generations: 5,
        },
        warmup: Shape::Generations {
            runs: 1,
            generations: 1,
        },
        smoke: Shape::Generations {
            runs: 1,
            generations: 1,
        },
        probe_every: 2,
    },
    WorkloadDef {
        name: "lander-stream-tcp",
        why: "Async steady-state over TCP: one genome per frame, dispatch-on-completion, steady_state insertion, SoA batching bypassed; per-message overhead dominates, batching/big-frame changes must not show.",
        env: Workload::LunarLander,
        episodes: 3,
        wire: Wire::Tcp,
        full: Shape::Stream {
            pool: &STREAM_POOL,
            evals: 2_000,
        },
        warmup: Shape::Stream {
            pool: &STREAM_POOL_SMALL,
            evals: 2_000,
        },
        smoke: Shape::Stream {
            pool: &STREAM_POOL_SMALL,
            evals: 1_500,
        },
        probe_every: 0,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Every input the program receives, generated from the workload seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inputs {
    /// First NEAT master seed of the fixed-generation workloads; a
    /// repetition's runs take it and the ones that follow.
    pub neat_seed: u64,
    /// Seed of the UDP fault injector.
    pub fault_seed: u64,
    /// Seed of probe inputs (observations, actions).
    pub probe_seed: u64,
    /// Where in a NEAT-seed pool a repetition starts.
    pub pool_rotation: usize,
}

impl Inputs {
    /// Derives the inputs from `--seed`.
    pub fn from_seed(seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        Inputs {
            neat_seed: rng.next_u64(),
            fault_seed: rng.next_u64(),
            probe_seed: rng.next_u64(),
            pool_rotation: rng.next_u64() as usize,
        }
    }
}

impl Shape {
    /// The NEAT seeds one repetition runs, in order.
    pub fn neat_seeds(&self, inputs: &Inputs) -> Vec<u64> {
        match self {
            Shape::Solve { pool, .. } | Shape::Stream { pool, .. } => {
                let start = inputs.pool_rotation % pool.len();
                (0..pool.len())
                    .map(|i| pool[(start + i) % pool.len()])
                    .collect()
            }
            Shape::Generations { runs, .. } => (0..*runs as u64)
                .map(|i| inputs.neat_seed.wrapping_add(i))
                .collect(),
        }
    }
}

impl WorkloadDef {
    /// The repetition size for this mode.
    pub fn shape(&self, smoke: bool) -> Shape {
        if smoke {
            self.smoke
        } else {
            self.full
        }
    }

    /// The NEAT configuration every path uses (defaults at the
    /// benchmark's population).
    pub fn neat_config(&self) -> NeatConfig {
        NeatConfig::builder(self.env.obs_dim(), self.env.n_actions())
            .population_size(POPULATION)
            .build()
            .expect("default NEAT configuration is valid")
    }

    /// UDP tuning with the seeded loss, `None` on TCP.
    pub fn udp_config(&self, inputs: &Inputs) -> Option<UdpConfig> {
        match self.wire {
            Wire::Tcp => None,
            Wire::Udp { loss } => Some(
                UdpConfig::default()
                    .with_faults(FaultConfig::loss(loss).with_seed(inputs.fault_seed)),
            ),
        }
    }

    /// The driver builder for one run: DCS over the workload's loopback
    /// transport, everything else at its default.
    pub fn builder(&self, neat_seed: u64, inputs: &Inputs) -> ClanDriverBuilder {
        let b = ClanDriver::builder(self.env)
            .topology(ClanTopology::dcs())
            .agents(AGENTS)
            .population_size(POPULATION)
            .episodes_per_eval(self.episodes)
            .seed(neat_seed);
        match self.udp_config(inputs) {
            None => b.loopback_agents(AGENTS),
            Some(udp) => b.loopback_udp_agents(AGENTS).udp_config(udp),
        }
    }

    /// The same serial, in-process: the bit-identity reference.
    pub fn serial_builder(&self, neat_seed: u64) -> ClanDriverBuilder {
        ClanDriver::builder(self.env)
            .population_size(POPULATION)
            .episodes_per_eval(self.episodes)
            .seed(neat_seed)
    }

    /// The session spec the driver would push to its agents.
    pub fn cluster_spec(&self) -> ClusterSpec {
        ClusterSpec::new(self.env, InferenceMode::MultiStep, self.neat_config())
            .with_episodes(self.episodes)
            .with_engine(EngineOptions::default())
    }

    /// A live two-agent cluster exactly as the driver would spawn it,
    /// for the hand-driven traced pass.
    ///
    /// # Errors
    ///
    /// Socket or agent-spawn failures.
    pub fn spawn_cluster(&self, inputs: &Inputs) -> Result<EdgeCluster, ClanError> {
        match self.udp_config(inputs) {
            None => EdgeCluster::spawn_local_spec(AGENTS, self.cluster_spec()),
            Some(udp) => EdgeCluster::spawn_local_udp_cfg(AGENTS, self.cluster_spec(), udp),
        }
    }

    /// A local evaluator on this workload's episode plan.
    pub fn evaluator(&self, options: EngineOptions) -> Evaluator {
        Evaluator::with_options(
            self.env,
            InferenceMode::MultiStep,
            self.episodes,
            1,
            options,
        )
    }

    /// A local evaluator with an agent session's engine options (batch
    /// lanes on, cache off): agent service without the wire.
    pub fn agent_evaluator(&self) -> Evaluator {
        self.evaluator(self.cluster_spec().agent_engine_options())
    }

    /// The coordinator-side evaluator the driver pairs with a cluster.
    pub fn coordinator_evaluator(&self, cluster: EdgeCluster) -> Evaluator {
        self.evaluator(EngineOptions::default())
            .with_remote(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(Inputs::from_seed(7), Inputs::from_seed(7));
        let (a, b) = (Inputs::from_seed(7), Inputs::from_seed(8));
        assert_ne!(a.neat_seed, b.neat_seed);
        assert_ne!(a.fault_seed, b.fault_seed);
        assert_ne!(a.neat_seed, a.fault_seed, "streams are independent");
    }

    #[test]
    fn solve_pool_is_rotated_never_resampled() {
        let shape = WORKLOADS[0].full;
        let mut a = shape.neat_seeds(&Inputs::from_seed(1));
        let mut b = shape.neat_seeds(&Inputs::from_seed(2));
        assert_eq!(a.len(), 16);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "every seed runs the same pool");
        assert_eq!(a, SOLVE_POOL.to_vec());
    }
}
