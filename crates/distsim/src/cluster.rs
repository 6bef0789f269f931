//! Cluster description: one platform for the center and N agents, a
//! shared wireless medium, and the even work partition every scatter path
//! routes through.

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

/// A CLAN deployment: a central coordinator plus worker agents, all of
/// one platform.
///
/// In the paper's testbed every node is a Raspberry Pi and one of them
/// doubles as the center; every run models exactly that, on the platform
/// it names (Fig 10c's accelerated devices are whole clusters of them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    platform: Platform,
    n_agents: usize,
    net: WifiModel,
}

impl Cluster {
    /// A cluster of `n_agents` identical nodes (the paper's Pi testbed);
    /// the center runs on the same platform kind.
    ///
    /// # Panics
    ///
    /// Panics if `n_agents` is zero.
    pub fn homogeneous(platform: Platform, n_agents: usize, net: WifiModel) -> Cluster {
        assert!(n_agents > 0, "a cluster needs at least one agent");
        Cluster {
            platform,
            n_agents,
            net,
        }
    }

    /// The central coordinator's platform, which every agent shares.
    pub fn center(&self) -> &Platform {
        &self.platform
    }

    /// Number of worker agents.
    pub fn n_agents(&self) -> usize {
        self.n_agents
    }

    /// The wireless medium model.
    pub fn net(&self) -> &WifiModel {
        &self.net
    }

    /// Splits `items` work units across agents as evenly as possible;
    /// returns per-agent counts (earlier agents get the remainder).
    pub fn partition(&self, items: usize) -> Vec<usize> {
        partition_even(items, self.n_agents)
    }

    /// Barrier-synchronized parallel inference: the phase costs the
    /// slowest agent's time.
    pub fn parallel_inference_time_s(&self, genes_per_agent: &[u64]) -> f64 {
        assert_eq!(genes_per_agent.len(), self.n_agents);
        genes_per_agent
            .iter()
            .map(|&g| self.platform.inference_time_s(g))
            .fold(0.0, f64::max)
    }

    /// Barrier-synchronized parallel evolution work.
    pub fn parallel_evolution_time_s(&self, genes_per_agent: &[u64]) -> f64 {
        assert_eq!(genes_per_agent.len(), self.n_agents);
        genes_per_agent
            .iter()
            .map(|&g| self.platform.evolution_time_s(g))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    #[should_panic(expected = "at least one agent")]
    fn empty_cluster_rejected() {
        Cluster::homogeneous(Platform::raspberry_pi(), 0, WifiModel::default());
    }

    #[test]
    fn partition_even_zero_shares_is_empty_not_a_panic() {
        assert_eq!(partition_even(0, 0), Vec::<usize>::new());
        assert_eq!(partition_even(150, 0), Vec::<usize>::new());
    }
}
