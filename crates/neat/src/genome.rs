//! Genomes: collections of node and connection genes describing one
//! network topology, plus the genetic operators that evolve them.
//!
//! Operator semantics follow `neat-python` (the implementation the CLAN
//! paper modified): attribute-wise crossover from the fitter parent,
//! independent structural mutation probabilities, and a compatibility
//! distance normalized by the larger genome's gene count.
//!
//! Both gene tables are [`GeneTable`]s — flat key-ascending runs — and
//! the operators work on the runs: crossover and distance are two-pointer
//! merges, a node's successors one contiguous range of the connection run.

use crate::config::NeatConfig;
use crate::error::NeatError;
use crate::gene::{ConnGene, ConnKey, GenomeId, NodeGene, NodeId};
use crate::table::GeneTable;
use rand::seq::IteratorRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// One member of a NEAT population.
///
/// A genome owns its node genes (outputs + hidden; inputs are implicit,
/// following `neat-python`) and connection genes keyed by endpoint pair.
/// The genome's *size in genes* — nodes plus connections — is the unit of
/// both compute and communication cost throughout the CLAN reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Genome {
    id: GenomeId,
    nodes: GeneTable<NodeId, NodeGene>,
    conns: GeneTable<ConnKey, ConnGene>,
    fitness: Option<f64>,
}

/// The connections leaving `node`: one contiguous range of the
/// `(input, output)`-ordered run.
fn successors(conns: &[(ConnKey, ConnGene)], node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    let from = conns.partition_point(|(k, _)| k.input < node);
    conns[from..]
        .iter()
        .take_while(move |(k, _)| k.input == node)
        .map(|(k, _)| k.output)
}

impl Genome {
    /// Creates an initial genome: one node gene per output, wired to the
    /// inputs according to `cfg.initial_connection`.
    pub fn new_initial<R: Rng + ?Sized>(cfg: &NeatConfig, id: GenomeId, rng: &mut R) -> Genome {
        use crate::config::InitialConnection as Ic;
        let nodes = (0..cfg.num_outputs)
            .map(|o| (NodeId::output(o), Self::new_node(cfg, rng)))
            .collect();
        // Weights are drawn input by input, outputs ascending, but input ids
        // *descend*: the draw order is the key order with its per-input blocks
        // reversed, so reversing the run, then each block, sorts it.
        let inputs = match cfg.initial_connection {
            Ic::Unconnected => 0,
            _ => cfg.num_inputs,
        };
        let mut drawn = Vec::with_capacity(inputs * cfg.num_outputs);
        for i in 0..inputs {
            for o in 0..cfg.num_outputs {
                let wired = match cfg.initial_connection {
                    Ic::Partial(p) => rng.gen::<f64>() < p,
                    _ => true,
                };
                if wired {
                    let gene = ConnGene {
                        weight: cfg.weight.init(rng),
                        enabled: true,
                    };
                    drawn.push((ConnKey::new(NodeId::input(i), NodeId::output(o)), gene));
                }
            }
        }
        drawn.reverse();
        for block in drawn.chunk_by_mut(|a, b| a.0.input == b.0.input) {
            block.reverse();
        }
        drawn.shrink_to_fit(); // `Partial` wires fewer pairs than it reserved
        let conns = GeneTable::from_sorted(drawn).expect("each input's block reversed back");
        Genome::from_parts(id, nodes, conns)
    }

    fn new_node<R: Rng + ?Sized>(cfg: &NeatConfig, rng: &mut R) -> NodeGene {
        NodeGene {
            bias: cfg.bias.init(rng),
            response: cfg.response.init(rng),
            activation: Default::default(),
            aggregation: Default::default(),
        }
    }

    /// Reassembles a genome from its constituent gene tables. Fitness
    /// starts unset; callers that carried one re-apply it with
    /// [`set_fitness`](Genome::set_fitness).
    ///
    /// Structural validity is the caller's responsibility —
    /// [`check_invariants`](Genome::check_invariants) verifies all of it,
    /// and [`FeedForwardNetwork::try_compile`](crate::FeedForwardNetwork::try_compile)
    /// the part inference depends on, at no extra cost.
    pub fn from_parts(
        id: GenomeId,
        nodes: GeneTable<NodeId, NodeGene>,
        conns: GeneTable<ConnKey, ConnGene>,
    ) -> Genome {
        Genome {
            id,
            nodes,
            conns,
            fitness: None,
        }
    }

    /// [`from_parts`](Genome::from_parts) for gene runs that arrive in key
    /// order (wire decoding): each `Vec` becomes its table as it stands.
    ///
    /// # Errors
    ///
    /// [`NeatError::InvalidGenome`] unless both runs strictly ascend by
    /// key (no key out of order, none twice).
    pub fn from_sorted_runs(
        id: GenomeId,
        nodes: Vec<(NodeId, NodeGene)>,
        conns: Vec<(ConnKey, ConnGene)>,
    ) -> Result<Genome, NeatError> {
        let unsorted = |what: &str, at: usize| NeatError::InvalidGenome {
            genome: id.0,
            reason: format!("{what} gene {at} does not ascend past the key before it"),
        };
        Ok(Genome::from_parts(
            id,
            GeneTable::from_sorted(nodes).map_err(|at| unsorted("node", at))?,
            GeneTable::from_sorted(conns).map_err(|at| unsorted("connection", at))?,
        ))
    }

    /// This genome's identifier.
    pub fn id(&self) -> GenomeId {
        self.id
    }

    /// Reassigns the identifier (used when cloning elites into the next
    /// generation).
    pub fn set_id(&mut self, id: GenomeId) {
        self.id = id;
    }

    /// Last assigned fitness, if any.
    pub fn fitness(&self) -> Option<f64> {
        self.fitness
    }

    /// Assigns fitness (higher is better).
    pub fn set_fitness(&mut self, fitness: f64) {
        self.fitness = Some(fitness);
    }

    /// Clears fitness (done when a genome enters a new generation).
    pub fn clear_fitness(&mut self) {
        self.fitness = None;
    }

    /// Node genes (outputs + hidden), keyed by id.
    pub fn nodes(&self) -> &GeneTable<NodeId, NodeGene> {
        &self.nodes
    }

    /// Connection genes keyed by endpoint pair.
    pub fn conns(&self) -> &GeneTable<ConnKey, ConnGene> {
        &self.conns
    }

    /// Total gene count: node genes + connection genes.
    ///
    /// This is the paper's cost unit — a gene is one 32-bit datum, so this
    /// is also the float count transferred when the genome is communicated.
    pub fn num_genes(&self) -> u64 {
        (self.nodes.len() + self.conns.len()) as u64
    }

    /// Canonical content hash: a stable 64-bit digest of every gene's
    /// identity and attributes, independent of the genome's [`id`] and
    /// [`fitness`] and of the order genes were inserted (the key-ordered
    /// gene tables define the canonical iteration order).
    ///
    /// Two genomes hash equal iff they are structurally equal gene for
    /// gene (up to the negligible 64-bit collision probability), so the
    /// hash can content-address evaluation results: an elite copied into
    /// the next generation under a fresh [`GenomeId`] hashes identically
    /// to its source. Floats contribute their exact bit patterns
    /// ([`f64::to_bits`]), so even a 1-ulp weight change produces an
    /// unrelated hash.
    ///
    /// The digest chains every field through
    /// [`splitmix64`](crate::rng::splitmix64), which makes it stable
    /// across platforms and releases of the standard library (unlike
    /// `std::hash::Hash`).
    ///
    /// [`id`]: Genome::id
    /// [`fitness`]: Genome::fitness
    pub fn content_hash(&self) -> u64 {
        use crate::rng::splitmix64;
        let mut h = splitmix64(0x0C04_7E47 ^ self.nodes.len() as u64);
        let mut mix = |v: u64| h = splitmix64(h ^ splitmix64(v));
        for (id, node) in self.nodes.as_slice() {
            mix(id.0 as u64);
            mix(node.bias.to_bits());
            mix(node.response.to_bits());
            mix(node.activation as u64);
            mix(node.aggregation as u64);
        }
        mix(self.conns.len() as u64);
        for (key, conn) in self.conns.as_slice() {
            mix(key.input.0 as u64);
            mix(key.output.0 as u64);
            mix(conn.weight.to_bits());
            mix(u64::from(conn.enabled));
        }
        h
    }

    /// `(hidden_nodes, connections)` — NEAT's usual complexity measure.
    pub fn complexity(&self, cfg: &NeatConfig) -> (usize, usize) {
        let hidden = self
            .nodes
            .keys()
            .filter(|n| !n.is_output(cfg.num_outputs))
            .count();
        (hidden, self.conns.len())
    }

    // ------------------------------------------------------------------
    // Compatibility distance
    // ------------------------------------------------------------------

    /// Genomic compatibility distance (`neat-python` formula): node-gene
    /// distance plus connection-gene distance, each being
    /// `(disjoint_coefficient * disjoint + weight_coefficient * Σ attr_dist) / max_gene_count`.
    pub fn distance(&self, other: &Genome, cfg: &NeatConfig) -> f64 {
        // Two-pointer merge over the key-ordered runs (distances dominate
        // speciation); matching genes contribute in ascending key order.
        fn merged<K: Ord, G>(
            a: &[(K, G)],
            b: &[(K, G)],
            attr_dist: impl Fn(&G, &G) -> f64,
            cfg: &NeatConfig,
        ) -> f64 {
            let (mut i, mut j, mut matched) = (0, 0, 0usize);
            let mut matching = 0.0f64;
            while i < a.len() && j < b.len() {
                match a[i].0.cmp(&b[j].0) {
                    Ordering::Equal => {
                        matching +=
                            attr_dist(&a[i].1, &b[j].1) * cfg.compatibility_weight_coefficient;
                        matched += 1;
                        i += 1;
                        j += 1;
                    }
                    Ordering::Less => i += 1,
                    Ordering::Greater => j += 1,
                }
            }
            let disjoint = (a.len() + b.len() - 2 * matched) as f64;
            let max_len = a.len().max(b.len()).max(1) as f64;
            (cfg.compatibility_disjoint_coefficient * disjoint + matching) / max_len
        }
        let (nodes, conns) = (self.nodes.as_slice(), self.conns.as_slice());
        merged(nodes, other.nodes.as_slice(), NodeGene::distance, cfg)
            + merged(conns, other.conns.as_slice(), ConnGene::distance, cfg)
    }

    // ------------------------------------------------------------------
    // Crossover
    // ------------------------------------------------------------------

    /// Produces a child by crossover.
    ///
    /// `fitter` contributes all disjoint/excess genes; matching genes pick
    /// each attribute from either parent with probability 0.5. Callers must
    /// pass the higher-fitness parent first (ties broken deterministically
    /// by the caller).
    ///
    /// Both parents' gene tables are key-ordered runs, so matching genes
    /// are found by one two-pointer merge and each child table is written
    /// once, at exact capacity — no per-gene lookup or insert. The RNG is
    /// drawn once per attribute of each matching gene, in the fitter
    /// parent's key order (nodes, then connections).
    pub fn crossover<R: Rng + ?Sized>(
        fitter: &Genome,
        other: &Genome,
        child_id: GenomeId,
        rng: &mut R,
    ) -> Genome {
        fn pick<T: Copy, R: Rng + ?Sized>(rng: &mut R, a: T, b: T) -> T {
            if rng.gen::<bool>() {
                a
            } else {
                b
            }
        }
        // Genes only the less fit parent has are not inherited.
        let nodes = fitter
            .nodes
            .merge_matching(&other.nodes, |g1, g2| NodeGene {
                bias: pick(rng, g1.bias, g2.bias),
                response: pick(rng, g1.response, g2.response),
                activation: pick(rng, g1.activation, g2.activation),
                aggregation: pick(rng, g1.aggregation, g2.aggregation),
            });
        let conns = fitter
            .conns
            .merge_matching(&other.conns, |g1, g2| ConnGene {
                weight: pick(rng, g1.weight, g2.weight),
                enabled: pick(rng, g1.enabled, g2.enabled),
            });
        Genome::from_parts(child_id, nodes, conns)
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Applies one full mutation pass: structural mutations (each with its
    /// configured probability) followed by attribute mutation of every
    /// gene. Feed-forward validity (acyclicity) is preserved.
    pub fn mutate<R: Rng + ?Sized>(&mut self, cfg: &NeatConfig, rng: &mut R) {
        if rng.gen::<f64>() < cfg.node_add_prob {
            self.mutate_add_node(cfg, rng);
        }
        if rng.gen::<f64>() < cfg.node_delete_prob {
            self.mutate_delete_node(cfg, rng);
        }
        if rng.gen::<f64>() < cfg.conn_add_prob {
            self.mutate_add_connection(cfg, rng);
        }
        if rng.gen::<f64>() < cfg.conn_delete_prob {
            self.mutate_delete_connection(rng);
        }
        self.mutate_attributes(cfg, rng);
    }

    /// Splits a random enabled connection: disables it and inserts a new
    /// hidden node with two fresh connections (1.0 into the node, the old
    /// weight out of it).
    pub fn mutate_add_node<R: Rng + ?Sized>(&mut self, cfg: &NeatConfig, rng: &mut R) {
        let Some((&key, _)) = self.conns.iter().filter(|(_, c)| c.enabled).choose(rng) else {
            return;
        };
        // Derive a collision-free node id for this split.
        let mut occurrence = 0u32;
        let new_id = loop {
            let cand = NodeId::derived_from_split(key, occurrence);
            if !self.nodes.contains_key(&cand) {
                break cand;
            }
            occurrence += 1;
        };
        let old_weight = self.conns.get_mut(&key).map(|c| {
            c.enabled = false;
            c.weight
        });
        let Some(old_weight) = old_weight else { return };
        self.nodes.insert(new_id, Self::new_node(cfg, rng));
        self.conns.insert(
            ConnKey::new(key.input, new_id),
            ConnGene {
                weight: 1.0,
                enabled: true,
            },
        );
        self.conns.insert(
            ConnKey::new(new_id, key.output),
            ConnGene {
                weight: old_weight,
                enabled: true,
            },
        );
    }

    /// Removes a random hidden node and all connections incident to it.
    /// Output nodes are never removed.
    pub fn mutate_delete_node<R: Rng + ?Sized>(&mut self, cfg: &NeatConfig, rng: &mut R) {
        let Some(&victim) = self
            .nodes
            .keys()
            .filter(|n| !n.is_output(cfg.num_outputs))
            .choose(rng)
        else {
            return;
        };
        self.nodes.remove(&victim);
        self.conns
            .retain(|k, _| k.input != victim && k.output != victim);
    }

    /// Adds a connection between a random source (input or node) and a
    /// random non-input destination. If the pair already exists the gene is
    /// re-enabled; pairs that would create a cycle are rejected.
    pub fn mutate_add_connection<R: Rng + ?Sized>(&mut self, cfg: &NeatConfig, rng: &mut R) {
        // Sources: the inputs, then the node run. Destinations: the node run.
        let nodes = self.nodes.as_slice();
        if nodes.is_empty() {
            return;
        }
        let input = match rng.gen_range(0..cfg.num_inputs + nodes.len()) {
            i if i < cfg.num_inputs => NodeId::input(i),
            i => nodes[i - cfg.num_inputs].0,
        };
        let output = nodes[rng.gen_range(0..nodes.len())].0;
        let key = ConnKey::new(input, output);
        if let Some(existing) = self.conns.get_mut(&key) {
            existing.enabled = true;
            return;
        }
        if self.creates_cycle(input, output) {
            return;
        }
        self.conns.insert(
            key,
            ConnGene {
                weight: cfg.weight.init(rng),
                enabled: true,
            },
        );
    }

    /// Removes a random connection gene.
    pub fn mutate_delete_connection<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if let Some(&key) = self.conns.keys().choose(rng) {
            self.conns.remove(&key);
        }
    }

    /// Mutates every gene's float attributes and (rarely) transfer
    /// functions and enabled flags, per the configured rates.
    pub fn mutate_attributes<R: Rng + ?Sized>(&mut self, cfg: &NeatConfig, rng: &mut R) {
        for gene in self.conns.values_mut() {
            gene.weight = cfg.weight.mutate(gene.weight, rng);
            if rng.gen::<f64>() < cfg.enabled_mutate_rate {
                gene.enabled = !gene.enabled;
            }
        }
        for gene in self.nodes.values_mut() {
            gene.bias = cfg.bias.mutate(gene.bias, rng);
            gene.response = cfg.response.mutate(gene.response, rng);
            if cfg.activation_mutate_rate > 0.0 && rng.gen::<f64>() < cfg.activation_mutate_rate {
                gene.activation =
                    crate::Activation::ALL[rng.gen_range(0..crate::Activation::ALL.len())];
            }
            if cfg.aggregation_mutate_rate > 0.0 && rng.gen::<f64>() < cfg.aggregation_mutate_rate {
                gene.aggregation =
                    crate::Aggregation::ALL[rng.gen_range(0..crate::Aggregation::ALL.len())];
            }
        }
    }

    /// Returns true if adding `input -> output` would create a directed
    /// cycle — a path `output -> … -> input` exists — over all connection
    /// genes (disabled ones may be re-enabled later, so they count).
    fn creates_cycle(&self, input: NodeId, output: NodeId) -> bool {
        let mut visited = BTreeSet::new();
        let mut pending = vec![output];
        while let Some(n) = pending.pop() {
            if n == input {
                return true;
            }
            if visited.insert(n) {
                pending.extend(successors(self.conns.as_slice(), n));
            }
        }
        false
    }

    /// Checks structural invariants; used by tests and debug assertions.
    ///
    /// Verifies that all `num_outputs` output node genes exist, connection
    /// endpoints reference existing nodes (or inputs), no connection ends
    /// at an input, and the graph is acyclic.
    pub fn check_invariants(&self, cfg: &NeatConfig) -> Result<(), String> {
        for o in 0..cfg.num_outputs {
            if !self.nodes.contains_key(&NodeId::output(o)) {
                return Err(format!("missing output node {o}"));
            }
        }
        for key in self.conns.keys() {
            if key.output.is_input() {
                return Err(format!("connection {key} ends at an input"));
            }
            if !key.input.is_input() && !self.nodes.contains_key(&key.input) {
                return Err(format!("connection {key} has dangling source"));
            }
            if !self.nodes.contains_key(&key.output) {
                return Err(format!("connection {key} has dangling destination"));
            }
            if key.input.is_input() && (key.input.0 < -(cfg.num_inputs as i64)) {
                return Err(format!("connection {key} references input out of range"));
            }
        }
        // Acyclicity via Kahn's algorithm, nodes named by their position in
        // the node run (nothing ends at an input, so inputs are left out).
        let conns = self.conns.as_slice();
        let position = |n: &NodeId| self.nodes.search(n).expect("endpoints checked above");
        let mut indeg = vec![0usize; self.nodes.len()];
        for key in self.conns.keys().filter(|k| !k.input.is_input()) {
            indeg[position(&key.output)] += 1;
        }
        let mut ready: Vec<usize> = (0..indeg.len()).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(i) = ready.pop() {
            seen += 1;
            for next in successors(conns, self.nodes.as_slice()[i].0) {
                let j = position(&next);
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    ready.push(j);
                }
            }
        }
        if seen != self.nodes.len() {
            return Err("connection graph contains a cycle".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InitialConnection;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(inputs: usize, outputs: usize) -> NeatConfig {
        NeatConfig::builder(inputs, outputs).build().unwrap()
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn initial_genome_full_wiring() {
        let cfg = cfg(3, 2);
        let g = Genome::new_initial(&cfg, GenomeId(0), &mut rng(1));
        assert_eq!(g.nodes().len(), 2);
        assert_eq!(g.conns().len(), 6);
        assert_eq!(g.num_genes(), 8);
        g.check_invariants(&cfg).unwrap();
    }

    #[test]
    fn initial_genome_unconnected() {
        let cfg = NeatConfig::builder(3, 2)
            .initial_connection(InitialConnection::Unconnected)
            .build()
            .unwrap();
        let g = Genome::new_initial(&cfg, GenomeId(0), &mut rng(1));
        assert_eq!(g.conns().len(), 0);
        assert_eq!(g.nodes().len(), 2);
    }

    #[test]
    fn initial_genome_partial_between_bounds() {
        let cfg = NeatConfig::builder(10, 10)
            .initial_connection(InitialConnection::Partial(0.5))
            .build()
            .unwrap();
        let g = Genome::new_initial(&cfg, GenomeId(0), &mut rng(7));
        assert!(g.conns().len() < 100);
        assert!(!g.conns().is_empty());
    }

    #[test]
    fn initial_connection_run_equals_the_sorted_collect() {
        use InitialConnection as Ic;
        for (inputs, outputs) in [(7, 4), (128, 18)] {
            for wiring in [Ic::Full, Ic::Partial(0.3), Ic::Unconnected] {
                let cfg = NeatConfig::builder(inputs, outputs)
                    .initial_connection(wiring)
                    .build()
                    .unwrap();
                for seed in 0..8 {
                    let mut drew = rng(seed);
                    let g = Genome::new_initial(&cfg, GenomeId(0), &mut drew);
                    // The build the block reversal replaced: the same draws
                    // gathered in draw order, sorted by the collect.
                    let mut r = rng(seed);
                    for _ in 0..outputs {
                        Genome::new_node(&cfg, &mut r);
                    }
                    let mut drawn = Vec::new();
                    for i in 0..inputs {
                        for o in 0..outputs {
                            let wired = match wiring {
                                Ic::Full => true,
                                Ic::Partial(p) => r.gen::<f64>() < p,
                                Ic::Unconnected => break,
                            };
                            if wired {
                                let gene = ConnGene {
                                    weight: cfg.weight.init(&mut r),
                                    enabled: true,
                                };
                                drawn.push((
                                    ConnKey::new(NodeId::input(i), NodeId::output(o)),
                                    gene,
                                ));
                            }
                        }
                    }
                    let sorted: GeneTable<ConnKey, ConnGene> = drawn.into_iter().collect();
                    assert_eq!(
                        g.conns(),
                        &sorted,
                        "{inputs}x{outputs} {wiring:?} seed {seed}"
                    );
                    assert_eq!(drew.gen::<u64>(), r.gen::<u64>(), "same draws");
                }
            }
        }
    }

    #[test]
    fn distance_self_is_zero() {
        let cfg = cfg(4, 2);
        let g = Genome::new_initial(&cfg, GenomeId(0), &mut rng(2));
        assert_eq!(g.distance(&g, &cfg), 0.0);
    }

    #[test]
    fn distance_symmetric() {
        let cfg = cfg(4, 2);
        let a = Genome::new_initial(&cfg, GenomeId(0), &mut rng(3));
        let mut b = Genome::new_initial(&cfg, GenomeId(1), &mut rng(4));
        b.mutate_add_node(&cfg, &mut rng(5));
        let d1 = a.distance(&b, &cfg);
        let d2 = b.distance(&a, &cfg);
        assert!((d1 - d2).abs() < 1e-12);
        assert!(d1 > 0.0);
    }

    #[test]
    fn add_node_splits_connection() {
        let cfg = cfg(2, 1);
        let mut g = Genome::new_initial(&cfg, GenomeId(0), &mut rng(6));
        let conns_before = g.conns().len();
        let disabled_before = g.conns().values().filter(|c| !c.enabled).count();
        g.mutate_add_node(&cfg, &mut rng(7));
        assert_eq!(g.conns().len(), conns_before + 2);
        assert_eq!(
            g.conns().values().filter(|c| !c.enabled).count(),
            disabled_before + 1
        );
        assert_eq!(g.nodes().len(), 2);
        g.check_invariants(&cfg).unwrap();
    }

    #[test]
    fn add_node_twice_distinct_ids() {
        let cfg = cfg(1, 1);
        let mut g = Genome::new_initial(&cfg, GenomeId(0), &mut rng(8));
        for s in 0..10 {
            g.mutate_add_node(&cfg, &mut rng(100 + s));
            g.check_invariants(&cfg).unwrap();
        }
        assert!(g.nodes().len() >= 3, "hidden nodes should accumulate");
    }

    #[test]
    fn delete_node_never_removes_outputs() {
        let cfg = cfg(2, 2);
        let mut g = Genome::new_initial(&cfg, GenomeId(0), &mut rng(9));
        for s in 0..20 {
            g.mutate_delete_node(&cfg, &mut rng(200 + s));
        }
        assert_eq!(g.nodes().len(), 2, "outputs must survive");
        g.check_invariants(&cfg).unwrap();
    }

    #[test]
    fn delete_node_removes_incident_connections() {
        let cfg = cfg(1, 1);
        let mut g = Genome::new_initial(&cfg, GenomeId(0), &mut rng(10));
        g.mutate_add_node(&cfg, &mut rng(11));
        assert_eq!(g.nodes().len(), 2);
        // Repeated deletion attempts eventually hit the hidden node.
        for s in 0..50 {
            g.mutate_delete_node(&cfg, &mut rng(300 + s));
            g.check_invariants(&cfg).unwrap();
        }
        assert_eq!(g.nodes().len(), 1);
        for key in g.conns().keys() {
            assert!(key.input.is_input() || g.nodes().contains_key(&key.input));
        }
    }

    #[test]
    fn add_connection_no_cycles_ever() {
        let cfg = cfg(3, 2);
        let mut g = Genome::new_initial(&cfg, GenomeId(0), &mut rng(12));
        for s in 0..200 {
            let mut r = rng(400 + s);
            g.mutate_add_node(&cfg, &mut r);
            g.mutate_add_connection(&cfg, &mut r);
            g.check_invariants(&cfg).unwrap();
        }
    }

    #[test]
    fn creates_cycle_detects_two_edge_loop() {
        let a = NodeId::output(0);
        let b = NodeId(5);
        let g = Genome::from_parts(
            GenomeId(0),
            [(a, NodeGene::default()), (b, NodeGene::default())].into(),
            [(ConnKey::new(a, b), ConnGene::default())].into(),
        );
        assert!(g.creates_cycle(b, a));
        assert!(!g.creates_cycle(a, b));
        assert!(g.creates_cycle(a, a));
    }

    #[test]
    fn creates_cycle_follows_paths_through_every_successor_range() {
        // -1 -> 7 -> 3 -> 0 and 7 -> 9 -> 0: closing 0 -> 7 or 3 -> 7
        // would loop, 9 -> 3 would not.
        let ids = [0, 3, 7, 9].map(|n| (NodeId(n), NodeGene::default()));
        let edges = [(-1, 7), (7, 3), (3, 0), (7, 9), (9, 0)]
            .map(|(i, o)| (ConnKey::new(NodeId(i), NodeId(o)), ConnGene::default()));
        let g = Genome::from_parts(GenomeId(0), ids.into(), edges.into());
        g.check_invariants(&cfg(1, 1)).unwrap();
        assert!(g.creates_cycle(NodeId(0), NodeId(7)));
        assert!(g.creates_cycle(NodeId(3), NodeId(7)));
        assert!(g.creates_cycle(NodeId(0), NodeId(9)));
        assert!(!g.creates_cycle(NodeId(9), NodeId(3)));
        assert!(!g.creates_cycle(NodeId(-1), NodeId(0)));
        let looped = Genome::from_parts(
            GenomeId(1),
            ids.into(),
            edges
                .into_iter()
                .chain([(ConnKey::new(NodeId(0), NodeId(7)), ConnGene::default())])
                .collect(),
        );
        assert_eq!(
            looped.check_invariants(&cfg(1, 1)).unwrap_err(),
            "connection graph contains a cycle"
        );
    }

    #[test]
    fn from_sorted_runs_rejects_out_of_order_and_duplicate_keys() {
        let node = |n| (NodeId(n), NodeGene::default());
        let conn = |i, o| (ConnKey::new(NodeId(i), NodeId(o)), ConnGene::default());
        let ok = Genome::from_sorted_runs(
            GenomeId(4),
            vec![node(0), node(1)],
            vec![conn(-2, 0), conn(-2, 1), conn(-1, 0)],
        )
        .unwrap();
        assert_eq!(ok.num_genes(), 5);
        for (nodes, conns, what) in [
            (vec![node(1), node(0)], vec![], "node gene 1"),
            (vec![node(0), node(0)], vec![], "node gene 1"),
            (
                vec![node(0)],
                vec![conn(-1, 0), conn(-2, 0)],
                "connection gene 1",
            ),
            (
                vec![node(0)],
                vec![conn(-2, 0), conn(-1, 0), conn(-1, 0)],
                "connection gene 2",
            ),
        ] {
            match Genome::from_sorted_runs(GenomeId(4), nodes, conns) {
                Err(NeatError::InvalidGenome { genome: 4, reason }) => {
                    assert!(reason.starts_with(what), "{reason}")
                }
                other => panic!("expected InvalidGenome, got {other:?}"),
            }
        }
    }

    #[test]
    fn crossover_child_keys_subset_of_fitter() {
        let cfg = cfg(3, 1);
        let mut a = Genome::new_initial(&cfg, GenomeId(0), &mut rng(13));
        let mut b = Genome::new_initial(&cfg, GenomeId(1), &mut rng(14));
        a.mutate_add_node(&cfg, &mut rng(15));
        b.mutate_add_connection(&cfg, &mut rng(16));
        let child = Genome::crossover(&a, &b, GenomeId(2), &mut rng(17));
        for k in child.conns().keys() {
            assert!(a.conns().contains_key(k), "child conn {k} not in fitter");
        }
        for k in child.nodes().keys() {
            assert!(a.nodes().contains_key(k), "child node {k} not in fitter");
        }
        assert_eq!(child.id(), GenomeId(2));
        child.check_invariants(&cfg).unwrap();
    }

    #[test]
    fn crossover_matching_attrs_from_either_parent() {
        let cfg = cfg(2, 1);
        let mut a = Genome::new_initial(&cfg, GenomeId(0), &mut rng(18));
        let mut b = a.clone();
        b.set_id(GenomeId(1));
        for c in a.conns.values_mut() {
            c.weight = 1.0;
        }
        for c in b.conns.values_mut() {
            c.weight = -1.0;
        }
        let child = Genome::crossover(&a, &b, GenomeId(2), &mut rng(19));
        for c in child.conns().values() {
            assert!(c.weight == 1.0 || c.weight == -1.0);
        }
    }

    /// The lookup-per-gene, insert-per-gene crossover the merge replaced,
    /// kept as the reference the equivalence proptest below checks it
    /// against.
    fn crossover_by_lookup<R: Rng + ?Sized>(
        fitter: &Genome,
        other: &Genome,
        child_id: GenomeId,
        rng: &mut R,
    ) -> Genome {
        fn flip<T, R: Rng + ?Sized>(rng: &mut R, a: T, b: T) -> T {
            if rng.gen::<bool>() {
                a
            } else {
                b
            }
        }
        let mut nodes = GeneTable::default();
        for (k, g1) in fitter.nodes.iter() {
            let gene = match other.nodes.get(k) {
                Some(g2) => NodeGene {
                    bias: flip(rng, g1.bias, g2.bias),
                    response: flip(rng, g1.response, g2.response),
                    activation: flip(rng, g1.activation, g2.activation),
                    aggregation: flip(rng, g1.aggregation, g2.aggregation),
                },
                None => *g1,
            };
            nodes.insert(*k, gene);
        }
        let mut conns = GeneTable::default();
        for (k, g1) in fitter.conns.iter() {
            let gene = match other.conns.get(k) {
                Some(g2) => ConnGene {
                    weight: flip(rng, g1.weight, g2.weight),
                    enabled: flip(rng, g1.enabled, g2.enabled),
                },
                None => *g1,
            };
            conns.insert(*k, gene);
        }
        Genome::from_parts(child_id, nodes, conns)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(400))]

        /// The merge-join must be indistinguishable from the lookup-based
        /// crossover it replaced: the same child, and the RNG left in the
        /// same state (so every later draw of the reproduction stream is
        /// unchanged too).
        fn merge_join_crossover_matches_the_lookup_reference(
            seed in proptest::any::<u64>(),
            shape in 0u8..5,
            n1 in 0u32..12,
            n2 in 0u32..12,
        ) {
            // Transfer functions mutate too, so all four node attributes
            // can differ between matching genes.
            let cfg = NeatConfig::builder(3, 2)
                .activation_mutate_rate(0.3)
                .aggregation_mutate_rate(0.3)
                .build()
                .unwrap();
            let mut r = rng(seed);
            let mutated = |g: &mut Genome, n: u32, r: &mut StdRng| {
                for _ in 0..n {
                    g.mutate(&cfg, r);
                }
            };
            let mut p1 = Genome::new_initial(&cfg, GenomeId(0), &mut r);
            let mut p2;
            match shape {
                // Unrelated lineages: disjoint and excess genes on both sides.
                0 => {
                    p2 = Genome::new_initial(&cfg, GenomeId(1), &mut r);
                    mutated(&mut p1, n1, &mut r);
                    mutated(&mut p2, n2, &mut r);
                }
                // A shared ancestor (common hidden ids), then divergence.
                1 => {
                    mutated(&mut p1, n1, &mut r);
                    p2 = p1.clone();
                    mutated(&mut p1, n2, &mut r);
                    mutated(&mut p2, n2, &mut r);
                }
                // A genome crossed with itself.
                2 => {
                    mutated(&mut p1, n1, &mut r);
                    p2 = p1.clone();
                }
                // Hidden nodes on the fitter side only, then on the other.
                _ => {
                    p2 = p1.clone();
                    for _ in 0..=n1 {
                        p1.mutate_add_node(&cfg, &mut r);
                    }
                    p2.mutate_attributes(&cfg, &mut r);
                    proptest::prop_assert!(p1.nodes.len() > p2.nodes.len());
                    if shape == 4 {
                        std::mem::swap(&mut p1, &mut p2);
                    }
                }
            }
            let (mut ra, mut rb) = (rng(seed ^ 0xC0), rng(seed ^ 0xC0));
            let child = Genome::crossover(&p1, &p2, GenomeId(9), &mut ra);
            let reference = crossover_by_lookup(&p1, &p2, GenomeId(9), &mut rb);
            proptest::prop_assert_eq!(&child, &reference);
            proptest::prop_assert_eq!(child.content_hash(), reference.content_hash());
            proptest::prop_assert_eq!(ra.gen::<u64>(), rb.gen::<u64>(), "RNG streams diverged");
        }
    }

    #[test]
    fn mutation_preserves_invariants_over_many_generations() {
        let cfg = cfg(4, 2);
        let mut g = Genome::new_initial(&cfg, GenomeId(0), &mut rng(20));
        for s in 0..300 {
            g.mutate(&cfg, &mut rng(1000 + s));
            g.check_invariants(&cfg).unwrap();
        }
    }

    #[test]
    fn deterministic_mutation_same_seed() {
        let cfg = cfg(4, 2);
        let mut a = Genome::new_initial(&cfg, GenomeId(0), &mut rng(21));
        let mut b = a.clone();
        a.mutate(&cfg, &mut rng(22));
        b.mutate(&cfg, &mut rng(22));
        assert_eq!(a, b);
    }

    #[test]
    fn fitness_lifecycle() {
        let cfg = cfg(1, 1);
        let mut g = Genome::new_initial(&cfg, GenomeId(0), &mut rng(23));
        assert_eq!(g.fitness(), None);
        g.set_fitness(3.5);
        assert_eq!(g.fitness(), Some(3.5));
        g.clear_fitness();
        assert_eq!(g.fitness(), None);
    }

    #[test]
    fn enabled_conn_count() {
        let cfg = cfg(2, 2);
        let enabled = |g: &Genome| g.conns().values().filter(|c| c.enabled).count();
        let mut g = Genome::new_initial(&cfg, GenomeId(0), &mut rng(24));
        assert_eq!(enabled(&g), 4);
        g.mutate_add_node(&cfg, &mut rng(25));
        assert_eq!(enabled(&g), 5, "split disables one, adds two");
    }

    #[test]
    fn content_hash_ignores_id_and_fitness() {
        let cfg = cfg(3, 2);
        let g = Genome::new_initial(&cfg, GenomeId(0), &mut rng(30));
        let mut relabeled = g.clone();
        relabeled.set_id(GenomeId(999));
        relabeled.set_fitness(42.0);
        assert_eq!(g.content_hash(), relabeled.content_hash());
    }

    #[test]
    fn content_hash_changes_with_any_gene_attribute() {
        let cfg = cfg(2, 1);
        let base = Genome::new_initial(&cfg, GenomeId(0), &mut rng(31));
        let h = base.content_hash();

        let mut weight = base.clone();
        let key = *weight.conns().keys().next().unwrap();
        weight.conns.get_mut(&key).unwrap().weight += f64::EPSILON;
        assert_ne!(h, weight.content_hash(), "1-ulp weight change must show");

        let mut disabled = base.clone();
        disabled.conns.get_mut(&key).unwrap().enabled = false;
        assert_ne!(h, disabled.content_hash());

        let mut structural = base.clone();
        structural.mutate_add_node(&cfg, &mut rng(32));
        assert_ne!(h, structural.content_hash());
    }

    #[test]
    fn content_hash_is_insertion_order_independent() {
        // from_parts with tables collected in a different arrival order
        // must hash identically: the sorted run is the canonical form.
        let cfg = cfg(3, 2);
        let g = Genome::new_initial(&cfg, GenomeId(7), &mut rng(33));
        let nodes_rev = g.nodes().iter().rev().map(|(k, v)| (*k, *v)).collect();
        let conns_rev = g.conns().iter().rev().map(|(k, v)| (*k, *v)).collect();
        let rebuilt = Genome::from_parts(GenomeId(8), nodes_rev, conns_rev);
        assert_eq!(g.content_hash(), rebuilt.content_hash());
    }
}
