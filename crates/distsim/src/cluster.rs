//! Cluster description: one center, N agents, a shared wireless medium,
//! and the work partitioners (even and throughput-weighted) every
//! scatter path routes through.

use clan_hw::Platform;
use clan_netsim::WifiModel;
use serde::{Deserialize, Serialize};

/// Splits `items` into `shares` counts as evenly as possible (earlier
/// shares get the remainder). Zero shares yields an empty split instead
/// of a divide-by-zero panic.
pub fn partition_even(items: usize, shares: usize) -> Vec<usize> {
    if shares == 0 {
        return Vec::new();
    }
    let base = items / shares;
    let rem = items % shares;
    (0..shares).map(|i| base + usize::from(i < rem)).collect()
}

/// Splits `items` across `weights.len()` shares proportionally to the
/// weights, using largest-remainder rounding (ties broken toward lower
/// indices, so the split is deterministic).
///
/// Guarantees:
///
/// - the counts always sum to exactly `items`;
/// - equal weights degrade to [`partition_even`] bit-for-bit;
/// - no share with a positive weight is starved (left at zero) while
///   `items` is at least the number of positive-weight shares;
/// - non-finite, negative, or all-zero weights fall back to the even
///   split rather than producing garbage.
pub fn partition_weighted(items: usize, weights: &[f64]) -> Vec<usize> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let total: f64 = weights.iter().sum();
    if !weights.iter().all(|w| w.is_finite() && *w >= 0.0) || total <= 0.0 {
        return partition_even(items, n);
    }
    // Largest-remainder method: floor every quota, then hand the
    // leftover items to the largest fractional parts.
    let mut counts = Vec::with_capacity(n);
    let mut fractions: Vec<(f64, usize)> = Vec::with_capacity(n);
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let quota = items as f64 * (w / total);
        let base = quota.floor() as usize;
        counts.push(base);
        assigned += base;
        fractions.push((quota - base as f64, i));
    }
    fractions.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("fractions are finite")
            .then(a.1.cmp(&b.1))
    });
    // Exact arithmetic leaves at most n-1 items; cycling guards against
    // floating-point quotas summing a hair under `items`.
    for k in 0..items.saturating_sub(assigned) {
        counts[fractions[k % n].1] += 1;
    }
    // No-starve pass: while there are enough items to go around, every
    // positive-weight share gets at least one (taken from the current
    // largest allocation — deterministically the lowest such index).
    let positive = weights.iter().filter(|w| **w > 0.0).count();
    if items >= positive {
        for i in 0..n {
            if weights[i] > 0.0 && counts[i] == 0 {
                let donor = (0..n)
                    .max_by(|&a, &b| counts[a].cmp(&counts[b]).then(b.cmp(&a)))
                    .expect("n > 0");
                if counts[donor] >= 2 {
                    counts[donor] -= 1;
                    counts[i] += 1;
                }
            }
        }
    }
    counts
}

/// A CLAN deployment: a central coordinator plus worker agents.
///
/// In the paper's testbed every node is a Raspberry Pi and one of them
/// doubles as the center; [`Cluster::homogeneous`] models exactly that.
/// Heterogeneous clusters (e.g. systolic-accelerated agents, Fig 10c) use
/// [`Cluster::new`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    center: Platform,
    agents: Vec<Platform>,
    net: WifiModel,
}

impl Cluster {
    /// Builds a cluster from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if `agents` is empty.
    pub fn new(center: Platform, agents: Vec<Platform>, net: WifiModel) -> Cluster {
        assert!(!agents.is_empty(), "a cluster needs at least one agent");
        Cluster {
            center,
            agents,
            net,
        }
    }

    /// A cluster of `n_agents` identical nodes (the paper's Pi testbed);
    /// the center runs on the same platform kind.
    pub fn homogeneous(platform: Platform, n_agents: usize, net: WifiModel) -> Cluster {
        Cluster::new(platform, vec![platform; n_agents], net)
    }

    /// The central coordinator's platform.
    pub fn center(&self) -> &Platform {
        &self.center
    }

    /// Worker agents.
    pub fn agents(&self) -> &[Platform] {
        &self.agents
    }

    /// Number of worker agents.
    pub fn n_agents(&self) -> usize {
        self.agents.len()
    }

    /// The wireless medium model.
    pub fn net(&self) -> &WifiModel {
        &self.net
    }

    /// Splits `items` work units across agents as evenly as possible;
    /// returns per-agent counts (earlier agents get the remainder).
    /// An agent-less cluster yields an empty split, never a panic.
    pub fn partition(&self, items: usize) -> Vec<usize> {
        partition_even(items, self.agents.len())
    }

    /// Per-agent capability weights from the static platform throughput
    /// model (inference genes/second) — the seed for heterogeneity-aware
    /// partitioning before any round-trip times are measured.
    pub fn inference_weights(&self) -> Vec<f64> {
        self.agents
            .iter()
            .map(|p| p.inference_genes_per_sec)
            .collect()
    }

    /// [`partition`](Cluster::partition) weighted by each agent's
    /// modeled inference throughput: a Jetson in a swarm of Pis gets a
    /// proportionally larger chunk.
    pub fn partition_by_throughput(&self, items: usize) -> Vec<usize> {
        partition_weighted(items, &self.inference_weights())
    }

    /// Barrier-synchronized parallel inference: the phase costs the
    /// slowest agent's time.
    pub fn parallel_inference_time_s(&self, genes_per_agent: &[u64]) -> f64 {
        assert_eq!(genes_per_agent.len(), self.agents.len());
        self.agents
            .iter()
            .zip(genes_per_agent)
            .map(|(p, &g)| p.inference_time_s(g))
            .fold(0.0, f64::max)
    }

    /// Barrier-synchronized parallel evolution work.
    pub fn parallel_evolution_time_s(&self, genes_per_agent: &[u64]) -> f64 {
        assert_eq!(genes_per_agent.len(), self.agents.len());
        self.agents
            .iter()
            .zip(genes_per_agent)
            .map(|(p, &g)| p.evolution_time_s(g))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clan_hw::PlatformKind;

    fn pi_cluster(n: usize) -> Cluster {
        Cluster::homogeneous(Platform::raspberry_pi(), n, WifiModel::default())
    }

    #[test]
    fn partition_balanced() {
        let c = pi_cluster(4);
        assert_eq!(c.partition(150), vec![38, 38, 37, 37]);
        assert_eq!(c.partition(4), vec![1, 1, 1, 1]);
        assert_eq!(c.partition(2), vec![1, 1, 0, 0]);
        assert_eq!(c.partition(0), vec![0, 0, 0, 0]);
    }

    #[test]
    fn partition_sums_to_items() {
        for n in 1..20 {
            let c = pi_cluster(n);
            for items in [0usize, 1, 7, 150, 151] {
                assert_eq!(c.partition(items).iter().sum::<usize>(), items);
            }
        }
    }

    #[test]
    fn parallel_time_is_max() {
        let c = pi_cluster(3);
        let t = c.parallel_inference_time_s(&[10_000, 30_000, 20_000]);
        let slowest = Platform::raspberry_pi().inference_time_s(30_000);
        assert_eq!(t, slowest);
    }

    #[test]
    fn heterogeneous_cluster_uses_each_platform() {
        let fast = Platform::new(PlatformKind::Systolic32x32);
        let slow = Platform::raspberry_pi();
        let c = Cluster::new(slow, vec![fast, slow], WifiModel::default());
        let t = c.parallel_inference_time_s(&[1_000_000, 10_000]);
        // The Pi's 10k genes (1 s) outlast the accelerator's 1M genes (1 s at 1e6 g/s).
        assert!(t <= slow.inference_time_s(10_000) + 1.1);
    }

    #[test]
    #[should_panic(expected = "at least one agent")]
    fn empty_cluster_rejected() {
        Cluster::new(Platform::raspberry_pi(), vec![], WifiModel::default());
    }

    #[test]
    fn partition_even_zero_shares_is_empty_not_a_panic() {
        assert_eq!(partition_even(0, 0), Vec::<usize>::new());
        assert_eq!(partition_even(150, 0), Vec::<usize>::new());
        assert_eq!(partition_weighted(150, &[]), Vec::<usize>::new());
    }

    #[test]
    fn weighted_matches_even_under_equal_weights() {
        for items in [0usize, 1, 2, 5, 150, 151] {
            for n in 1..8 {
                assert_eq!(
                    partition_weighted(items, &vec![3.5; n]),
                    partition_even(items, n),
                    "items={items} n={n}"
                );
            }
        }
    }

    #[test]
    fn weighted_tracks_throughput_skew() {
        // One agent 4x faster than the other three: it takes ~4/7 of
        // the work, and everyone still gets a share.
        let counts = partition_weighted(140, &[4.0, 1.0, 1.0, 1.0]);
        assert_eq!(counts.iter().sum::<usize>(), 140);
        assert_eq!(counts, vec![80, 20, 20, 20]);
    }

    #[test]
    fn weighted_never_starves_positive_weight_shares() {
        // 5 items over 4 agents must busy every agent (the even-split
        // `chunks(div_ceil)` bug left one idle).
        let counts = partition_weighted(5, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(counts, vec![2, 1, 1, 1]);
        // Extreme skew: the slow agent still gets one item.
        let counts = partition_weighted(10, &[1000.0, 1.0]);
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts[1] >= 1, "slow agent starved: {counts:?}");
    }

    #[test]
    fn weighted_degenerate_weights_fall_back_to_even() {
        assert_eq!(partition_weighted(9, &[0.0, 0.0, 0.0]), vec![3, 3, 3]);
        assert_eq!(partition_weighted(9, &[f64::NAN, 1.0, 1.0]), vec![3, 3, 3]);
        assert_eq!(partition_weighted(9, &[-1.0, 2.0, 2.0]), vec![3, 3, 3]);
    }

    #[test]
    fn zero_weight_agents_get_nothing_when_weights_are_valid() {
        let counts = partition_weighted(12, &[1.0, 0.0, 2.0]);
        assert_eq!(counts.iter().sum::<usize>(), 12);
        assert_eq!(counts[1], 0);
    }

    #[test]
    fn cluster_partitions_by_modeled_throughput() {
        let fast = Platform::new(PlatformKind::JetsonCpu); // 3.5x a Pi
        let slow = Platform::raspberry_pi();
        let c = Cluster::new(slow, vec![fast, slow], WifiModel::default());
        let counts = c.partition_by_throughput(90);
        assert_eq!(counts.iter().sum::<usize>(), 90);
        assert_eq!(counts, vec![70, 20], "3.5:1 throughput ratio");
        assert_eq!(c.inference_weights().len(), 2);
    }
}
