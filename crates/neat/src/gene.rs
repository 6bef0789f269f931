//! Gene primitives: typed identifiers, node genes, and connection genes.
//!
//! Terminology follows the CLAN paper (Table II): a *gene* is the basic
//! 32-bit building block — either a neuron (node gene) or a synapse
//! (connection gene). A *genome* is the collection of genes describing one
//! network topology.

use crate::rng::splitmix64;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node gene.
///
/// Mirrors `neat-python`'s key scheme: inputs are negative
/// (`-1 ..= -n_in`), outputs are `0 ..= n_out - 1`, and hidden nodes are
/// positive. Hidden nodes created by *add-node* mutations receive ids
/// derived from the split connection's endpoints (see
/// [`NodeId::derived_from_split`]) so that the same structural innovation
/// gets the same id on every agent — a distributed-friendly replacement for
/// NEAT's global innovation counter.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub i64);

impl NodeId {
    /// Floor of the id range reserved for hash-derived hidden nodes.
    ///
    /// Inputs/outputs and any statically allocated hidden nodes live far
    /// below this, so derived ids can never collide with them.
    pub const DERIVED_FLOOR: i64 = 1 << 32;

    /// The id of the `i`-th network input (0-based).
    #[inline]
    pub fn input(i: usize) -> NodeId {
        NodeId(-(i as i64) - 1)
    }

    /// The id of the `i`-th network output (0-based).
    #[inline]
    pub fn output(i: usize) -> NodeId {
        NodeId(i as i64)
    }

    /// Whether this id denotes a network input (inputs have no node gene).
    #[inline]
    pub fn is_input(self) -> bool {
        self.0 < 0
    }

    /// Whether this id denotes one of the first `n_out` outputs.
    #[inline]
    pub fn is_output(self, n_out: usize) -> bool {
        self.0 >= 0 && (self.0 as usize) < n_out
    }

    /// Deterministically derives the id of a hidden node created by
    /// splitting connection `key`, for the `occurrence`-th time within one
    /// genome lineage.
    ///
    /// Two agents splitting the same connection of the same genome produce
    /// the same id, preserving crossover alignment without any shared
    /// counter. The id is mapped into `[DERIVED_FLOOR, i64::MAX)`; with a
    /// 63-bit space and at most a few thousand hidden nodes per genome the
    /// collision probability is negligible, and collisions are handled by
    /// bumping `occurrence`.
    pub fn derived_from_split(key: ConnKey, occurrence: u32) -> NodeId {
        // Chained (non-commutative) mixing: direction and occurrence each
        // feed a fresh splitmix round, so (a, b) and (b, a) diverge even
        // for degenerate bit patterns like -1.
        let h = splitmix64(
            splitmix64(splitmix64(key.input.0 as u64) ^ key.output.0 as u64)
                ^ (occurrence as u64 ^ 0xA11CE),
        );
        // Map into the reserved positive range.
        let span = (i64::MAX - NodeId::DERIVED_FLOOR) as u64;
        NodeId(NodeId::DERIVED_FLOOR + (h % span) as i64)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a genome, unique within one population run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct GenomeId(pub u64);

impl fmt::Display for GenomeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Identifier of a species.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SpeciesId(pub u32);

impl fmt::Display for SpeciesId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Key of a connection gene: the ordered pair of endpoint nodes.
///
/// Following `neat-python`, historical markings are the endpoint pair
/// itself — two connections are "the same gene" iff they join the same
/// nodes, which makes crossover alignment deterministic with no registry.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ConnKey {
    /// Source node (may be an input).
    pub input: NodeId,
    /// Destination node (never an input).
    pub output: NodeId,
}

impl ConnKey {
    /// Creates a key from endpoints.
    #[inline]
    pub fn new(input: NodeId, output: NodeId) -> ConnKey {
        ConnKey { input, output }
    }
}

impl fmt::Display for ConnKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.input, self.output)
    }
}

/// A neuron gene: bias and response multiplier. Every node is the
/// sigmoid of its bias plus its response times the sum of its weighted
/// inputs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeGene {
    /// Additive bias applied before activation.
    pub bias: f64,
    /// Multiplier applied to the summed input (`neat-python` response).
    pub response: f64,
}

impl Default for NodeGene {
    fn default() -> Self {
        NodeGene {
            bias: 0.0,
            response: 1.0,
        }
    }
}

impl NodeGene {
    /// Attribute distance to another node gene, as used by genome
    /// compatibility distance: `|Δbias| + |Δresponse|`.
    pub fn distance(&self, other: &NodeGene) -> f64 {
        (self.bias - other.bias).abs() + (self.response - other.response).abs()
    }
}

/// A synapse gene: weight plus an enabled flag.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConnGene {
    /// Connection weight.
    pub weight: f64,
    /// Disabled connections are retained in the genome (for historical
    /// alignment) but skipped during network construction.
    pub enabled: bool,
}

impl Default for ConnGene {
    fn default() -> Self {
        ConnGene {
            weight: 0.0,
            enabled: true,
        }
    }
}

impl ConnGene {
    /// Attribute distance: `|Δweight|` plus one if enabled flags differ.
    pub fn distance(&self, other: &ConnGene) -> f64 {
        let mut d = (self.weight - other.weight).abs();
        if self.enabled != other.enabled {
            d += 1.0;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_output_id_ranges_disjoint() {
        for i in 0..64 {
            assert!(NodeId::input(i).is_input());
            assert!(!NodeId::output(i).is_input());
            assert!(NodeId::output(i).is_output(64));
            assert!(!NodeId::input(i).is_output(64));
        }
    }

    #[test]
    fn derived_ids_above_floor_and_stable() {
        let key = ConnKey::new(NodeId::input(0), NodeId::output(0));
        let a = NodeId::derived_from_split(key, 0);
        let b = NodeId::derived_from_split(key, 0);
        assert_eq!(a, b);
        assert!(a.0 >= NodeId::DERIVED_FLOOR);
        let c = NodeId::derived_from_split(key, 1);
        assert_ne!(a, c, "occurrence must disambiguate repeated splits");
    }

    #[test]
    fn derived_ids_differ_by_key() {
        let k1 = ConnKey::new(NodeId::input(0), NodeId::output(0));
        let k2 = ConnKey::new(NodeId::input(1), NodeId::output(0));
        let k3 = ConnKey::new(NodeId::output(0), NodeId::input(0));
        assert_ne!(
            NodeId::derived_from_split(k1, 0),
            NodeId::derived_from_split(k2, 0)
        );
        assert_ne!(
            NodeId::derived_from_split(k1, 0),
            NodeId::derived_from_split(k3, 0),
            "direction matters"
        );
    }

    #[test]
    fn node_gene_distance_counts_attribute_changes() {
        let a = NodeGene::default();
        let mut b = a;
        assert_eq!(a.distance(&b), 0.0);
        b.bias = 1.5;
        assert!((a.distance(&b) - 1.5).abs() < 1e-12);
        b.response = 0.5;
        assert!((a.distance(&b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn conn_gene_distance_counts_enable_flip() {
        let a = ConnGene {
            weight: 1.0,
            enabled: true,
        };
        let b = ConnGene {
            weight: -1.0,
            enabled: false,
        };
        assert!((a.distance(&b) - 3.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::input(0).to_string(), "n-1");
        assert_eq!(NodeId::output(2).to_string(), "n2");
        assert_eq!(GenomeId(7).to_string(), "g7");
        assert_eq!(SpeciesId(3).to_string(), "s3");
        let k = ConnKey::new(NodeId::input(0), NodeId::output(1));
        assert_eq!(k.to_string(), "n-1->n1");
    }
}
