//! Phenotype: a feed-forward network compiled from a [`Genome`].
//!
//! Compilation resolves the genome's gene graph into an indexed,
//! topologically ordered evaluation plan once, so that the (many) per-step
//! activations during an episode are cheap. Only nodes *required* for the
//! outputs are evaluated, mirroring `neat-python`.
//!
//! # The inference hot path
//!
//! Evaluation is the dominant compute block of a CLAN generation (the
//! paper's Figure 3), and a 200-step episode calls the network 200 times.
//! One entry point serves that loop:
//! [`activate_into`](FeedForwardNetwork::activate_into) (and
//! [`act_argmax_with`](FeedForwardNetwork::act_argmax_with) on top of it).
//! The caller owns a [`Scratch`] whose buffers are reused across steps,
//! episodes, and networks; after the buffers have grown to a network's
//! size once, no heap allocation happens per step.
//!
//! Compilation itself is also on the per-generation hot path (every
//! genome recompiles every generation), so it runs entirely on indexed
//! `Vec` passes over the genome's key-ordered gene runs: a node is named
//! by its position in the node run, found by binary search, and nothing
//! is copied out of the genome but the plan itself.

use crate::activation::{Activation, Aggregation};
use crate::config::NeatConfig;
use crate::error::NeatError;
use crate::gene::{GenomeId, NodeId};
use crate::genome::Genome;
use serde::{Deserialize, Serialize};

/// One node's compiled evaluation plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct EvalNode {
    pub(crate) bias: f64,
    pub(crate) response: f64,
    pub(crate) activation: Activation,
    pub(crate) aggregation: Aggregation,
    /// `(value_slot, weight)` pairs for incoming enabled connections.
    pub(crate) incoming: Vec<(usize, f64)>,
}

/// Caller-owned, reusable buffers for allocation-free activation.
///
/// A `Scratch` grows to the largest network it has served and then stays
/// at that size, so a per-worker (or per-episode-loop) instance makes
/// every subsequent [`FeedForwardNetwork::activate_into`] call free of
/// heap allocation. Buffers are wiped per call; no state leaks between
/// activations, so one `Scratch` may serve many different networks.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Value slots: inputs first, then nodes in topological order.
    values: Vec<f64>,
    /// Per-node weighted-input staging (non-`Sum` aggregations only).
    weighted: Vec<f64>,
    /// Output values of the last activation.
    outputs: Vec<f64>,
}

impl Scratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Output slice of the most recent
    /// [`activate_into`](FeedForwardNetwork::activate_into) call.
    pub fn outputs(&self) -> &[f64] {
        &self.outputs
    }
}

/// A compiled feed-forward network.
///
/// ```
/// use clan_neat::{Genome, GenomeId, NeatConfig, FeedForwardNetwork};
/// use clan_neat::network::Scratch;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let cfg = NeatConfig::builder(2, 1).build()?;
/// let genome = Genome::new_initial(&cfg, GenomeId(0), &mut StdRng::seed_from_u64(7));
/// let net = FeedForwardNetwork::compile(&genome, &cfg);
///
/// // Caller-owned buffers, reused across steps.
/// let mut scratch = Scratch::new();
/// let out = net.activate_into(&[0.5, -0.5], &mut scratch);
/// assert_eq!(out.len(), 1);
/// # Ok::<(), clan_neat::NeatError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedForwardNetwork {
    genome_id: GenomeId,
    num_inputs: usize,
    num_outputs: usize,
    /// Evaluation plan in topological order; slot `num_inputs + i` holds
    /// the value of `nodes[i]`.
    nodes: Vec<EvalNode>,
    /// Value slot of each network output.
    output_slots: Vec<usize>,
    /// Genes touched per activation (enabled connections + evaluated
    /// nodes) — the paper's inference cost unit.
    genes_per_activation: u64,
}

impl FeedForwardNetwork {
    /// Compiles `genome` into an evaluation plan.
    ///
    /// Nodes not on any path to an output are pruned; an output with no
    /// incoming connections still produces `activation(bias)`.
    ///
    /// For genomes this process evolved itself. One that arrived from
    /// outside (a wire frame, a file) goes through
    /// [`try_compile`](Self::try_compile).
    ///
    /// # Panics
    ///
    /// Panics where `try_compile` returns an error: the genome breaks an
    /// invariant every genetic operator preserves.
    pub fn compile(genome: &Genome, cfg: &NeatConfig) -> FeedForwardNetwork {
        FeedForwardNetwork::try_compile(genome, cfg)
            .unwrap_or_else(|e| panic!("genome invariant broken: {e}"))
    }

    /// [`compile`](Self::compile) for a genome of unknown provenance:
    /// the structural faults that would make the plan unbuildable or
    /// its activation read out of bounds are errors, not panics.
    ///
    /// The checks are the ones the compilation passes make anyway — the
    /// output lookup, the endpoint resolution and Kahn's count — so a
    /// valid genome pays nothing for them.
    ///
    /// The whole pass is index-based: node ids are resolved once into
    /// positions within the genome's node run, and the
    /// reachability/topological/grouping passes run over flat `Vec`s.
    ///
    /// # Errors
    ///
    /// [`NeatError::InvalidGenome`] if an output has no node gene, an
    /// enabled connection reads an input past `cfg.num_inputs`, or the
    /// enabled connections the outputs depend on form a cycle.
    pub fn try_compile(genome: &Genome, cfg: &NeatConfig) -> Result<FeedForwardNetwork, NeatError> {
        let invalid = |reason: String| NeatError::InvalidGenome {
            genome: genome.id().0,
            reason,
        };
        let num_inputs = cfg.num_inputs;
        let n_nodes = genome.nodes().len();
        let idx_of = |id: NodeId| genome.nodes().search(&id).ok();

        // Single pass over the sorted connection genes: resolve endpoints
        // to indices. `src` is `usize::MAX - slot` for network inputs.
        // Dangling endpoints (possible only for genomes bypassing the
        // invariant checks) are skipped, as before.
        const INPUT_BASE: usize = usize::MAX;
        struct Edge {
            src: usize,
            dst: usize,
            weight: f64,
        }
        let mut edges: Vec<Edge> = Vec::with_capacity(genome.conns().len());
        for (key, gene) in genome.conns().as_slice() {
            if !gene.enabled {
                continue;
            }
            let Some(dst) = idx_of(key.output) else {
                continue;
            };
            let src = if key.input.is_input() {
                // `-1` is observation 0; unsigned so `i64::MIN` is a
                // large index, not an overflow.
                let obs = key.input.0.unsigned_abs() - 1;
                if obs >= num_inputs as u64 {
                    return Err(invalid(format!(
                        "connection {key} reads input {obs} of {num_inputs}"
                    )));
                }
                INPUT_BASE - obs as usize
            } else {
                match idx_of(key.input) {
                    Some(i) => i,
                    None => continue,
                }
            };
            edges.push(Edge {
                src,
                dst,
                weight: gene.weight,
            });
        }
        let is_input_src = |src: usize| src > n_nodes;

        // Required nodes: reachable *backwards* from outputs over enabled
        // connections, plus the outputs themselves. Reverse adjacency in
        // CSR form (counts → offsets → fill), node-to-node edges only.
        let mut rev_deg = vec![0u32; n_nodes];
        for e in &edges {
            if !is_input_src(e.src) {
                rev_deg[e.dst] += 1;
            }
        }
        let mut rev_off = vec![0usize; n_nodes + 1];
        for i in 0..n_nodes {
            rev_off[i + 1] = rev_off[i] + rev_deg[i] as usize;
        }
        let mut rev_adj = vec![0u32; rev_off[n_nodes]];
        let mut rev_fill = rev_off.clone();
        for e in &edges {
            if !is_input_src(e.src) {
                rev_adj[rev_fill[e.dst]] = e.src as u32;
                rev_fill[e.dst] += 1;
            }
        }
        let mut required = vec![false; n_nodes];
        // The queue opens with the outputs, in output order, and only
        // ever grows: its head doubles as the output index list below.
        let mut queue: Vec<u32> = (0..cfg.num_outputs)
            .map(|o| {
                idx_of(NodeId::output(o))
                    .map(|i| i as u32)
                    .ok_or_else(|| invalid(format!("output {o} has no node gene")))
            })
            .collect::<Result<_, _>>()?;
        let mut head = 0;
        while head < queue.len() {
            let n = queue[head] as usize;
            head += 1;
            if required[n] {
                continue;
            }
            required[n] = true;
            queue.extend_from_slice(&rev_adj[rev_off[n]..rev_off[n + 1]]);
        }
        // (A required node may have been queued twice before its flag was
        // set; the `continue` above deduplicates, exactly like the old
        // BTreeSet insert.)

        // Topological order of the required subgraph (Kahn), forward
        // adjacency in CSR form over required-to-required edges.
        let mut indeg = vec![0u32; n_nodes];
        let mut fwd_deg = vec![0u32; n_nodes];
        let mut conn_count = 0u64;
        for e in &edges {
            if !required[e.dst] {
                continue;
            }
            if is_input_src(e.src) {
                conn_count += 1;
            } else if required[e.src] {
                conn_count += 1;
                indeg[e.dst] += 1;
                fwd_deg[e.src] += 1;
            }
        }
        let mut fwd_off = vec![0usize; n_nodes + 1];
        for i in 0..n_nodes {
            fwd_off[i + 1] = fwd_off[i] + fwd_deg[i] as usize;
        }
        let mut fwd_adj = vec![0u32; fwd_off[n_nodes]];
        let mut fwd_fill = fwd_off.clone();
        for e in &edges {
            if !is_input_src(e.src) && required[e.src] && required[e.dst] {
                fwd_adj[fwd_fill[e.src]] = e.dst as u32;
                fwd_fill[e.src] += 1;
            }
        }
        let n_required = required.iter().filter(|&&r| r).count();
        let mut order: Vec<u32> = Vec::with_capacity(n_required);
        // Seed with indegree-zero required nodes in sorted-id order, then
        // process FIFO — identical order to the previous map-based Kahn.
        let mut ready: Vec<u32> = (0..n_nodes as u32)
            .filter(|&i| required[i as usize] && indeg[i as usize] == 0)
            .collect();
        let mut ready_head = 0;
        while ready_head < ready.len() {
            let n = ready[ready_head];
            ready_head += 1;
            order.push(n);
            for &m in &fwd_adj[fwd_off[n as usize]..fwd_off[n as usize + 1]] {
                indeg[m as usize] -= 1;
                if indeg[m as usize] == 0 {
                    ready.push(m);
                }
            }
        }
        if order.len() != n_required {
            return Err(invalid("enabled connections form a cycle".into()));
        }

        // Slot assignment: inputs first, then nodes in topological order.
        let mut slot_of_node = vec![usize::MAX; n_nodes];
        for (i, &n) in order.iter().enumerate() {
            slot_of_node[n as usize] = num_inputs + i;
        }
        let slot_of_src = |src: usize| -> usize {
            if is_input_src(src) {
                INPUT_BASE - src // the input's observation index
            } else {
                slot_of_node[src]
            }
        };
        // Group enabled connections by destination in one pass; the edge
        // list preserves the sorted connection-gene order, so each node's
        // incoming list is ordered by source id exactly as before.
        let mut incoming: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_nodes];
        for e in &edges {
            if required[e.dst] && (is_input_src(e.src) || required[e.src]) {
                incoming[e.dst].push((slot_of_src(e.src), e.weight));
            }
        }
        let mut nodes = Vec::with_capacity(order.len());
        for &n in &order {
            let gene = genome.nodes().as_slice()[n as usize].1;
            nodes.push(EvalNode {
                bias: gene.bias,
                response: gene.response,
                activation: gene.activation,
                aggregation: gene.aggregation,
                incoming: std::mem::take(&mut incoming[n as usize]),
            });
        }
        let output_slots = queue[..cfg.num_outputs]
            .iter()
            .map(|&i| slot_of_node[i as usize])
            .collect();
        Ok(FeedForwardNetwork {
            genome_id: genome.id(),
            num_inputs,
            num_outputs: cfg.num_outputs,
            genes_per_activation: conn_count + order.len() as u64,
            nodes,
            output_slots,
        })
    }

    /// Id of the genome this network was compiled from.
    pub fn genome_id(&self) -> GenomeId {
        self.genome_id
    }

    /// Number of expected inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of outputs produced by [`activate_into`](Self::activate_into).
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Genes touched per activation — the paper's inference cost unit
    /// (enabled connections plus evaluated nodes).
    pub fn genes_per_activation(&self) -> u64 {
        self.genes_per_activation
    }

    /// Compiled evaluation plan, for the batched SoA tier ([`crate::batch`]).
    pub(crate) fn eval_nodes(&self) -> &[EvalNode] {
        &self.nodes
    }

    /// Value slots of the network outputs, for the batched SoA tier.
    pub(crate) fn output_slot_list(&self) -> &[usize] {
        &self.output_slots
    }

    /// Runs one forward pass into caller-owned buffers and returns the
    /// output slice (also available as [`Scratch::outputs`]).
    ///
    /// Once `scratch` has grown to this network's size, no heap
    /// allocation occurs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`num_inputs`](Self::num_inputs).
    pub fn activate_into<'s>(&self, inputs: &[f64], scratch: &'s mut Scratch) -> &'s [f64] {
        assert_eq!(
            inputs.len(),
            self.num_inputs,
            "expected {} inputs, got {}",
            self.num_inputs,
            inputs.len()
        );
        let Scratch {
            values,
            weighted,
            outputs,
        } = scratch;
        values.clear();
        values.resize(self.num_inputs + self.nodes.len(), 0.0);
        values[..self.num_inputs].copy_from_slice(inputs);
        for (i, node) in self.nodes.iter().enumerate() {
            let agg = match node.aggregation {
                // Sum (the common case) needs no staging buffer. THE
                // canonical per-edge order: `Aggregation::apply` and the SoA
                // kernel match this fold (`sum_runs_left_to_right_…` pins it).
                Aggregation::Sum => node
                    .incoming
                    .iter()
                    .map(|&(slot, w)| values[slot] * w)
                    .sum(),
                _ => {
                    weighted.clear();
                    weighted.extend(node.incoming.iter().map(|&(slot, w)| values[slot] * w));
                    node.aggregation.apply(weighted)
                }
            };
            values[self.num_inputs + i] = node.activation.apply(node.bias + node.response * agg);
        }
        outputs.clear();
        outputs.extend(self.output_slots.iter().map(|&s| values[s]));
        outputs
    }

    /// Index of the maximum output — the usual discrete-action policy —
    /// over caller-owned buffers.
    ///
    /// Among exact ties the *last* maximal output wins (exact ties are
    /// realistic — e.g. `Relu` outputs are exactly `0.0` for all negative
    /// pre-activations). A NaN output (an `inf - inf` behind `Identity`)
    /// never wins against a number; only if every output is NaN does the
    /// last index come back.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`num_inputs`](Self::num_inputs).
    pub fn act_argmax_with(&self, inputs: &[f64], scratch: &mut Scratch) -> usize {
        let out = self.activate_into(inputs, scratch);
        let mut best = 0;
        for (i, &v) in out.iter().enumerate().skip(1) {
            if v >= out[best] || out[best].is_nan() {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(i: usize, o: usize) -> NeatConfig {
        NeatConfig::builder(i, o).build().unwrap()
    }

    fn genome(cfg: &NeatConfig, seed: u64) -> Genome {
        Genome::new_initial(cfg, GenomeId(0), &mut StdRng::seed_from_u64(seed))
    }

    fn outputs(net: &FeedForwardNetwork, inputs: &[f64]) -> Vec<f64> {
        net.activate_into(inputs, &mut Scratch::new()).to_vec()
    }

    fn argmax(net: &FeedForwardNetwork, inputs: &[f64]) -> usize {
        net.act_argmax_with(inputs, &mut Scratch::new())
    }

    #[test]
    fn outputs_have_expected_arity() {
        let cfg = cfg(3, 2);
        let net = FeedForwardNetwork::compile(&genome(&cfg, 1), &cfg);
        let out = outputs(&net, &[0.1, 0.2, 0.3]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "expected 2 inputs")]
    fn wrong_input_arity_panics() {
        let cfg = cfg(2, 1);
        let net = FeedForwardNetwork::compile(&genome(&cfg, 1), &cfg);
        let mut scratch = Scratch::new();
        net.activate_into(&[0.0], &mut scratch);
    }

    #[test]
    fn unconnected_output_is_activation_of_bias() {
        let cfg = crate::NeatConfig::builder(1, 1)
            .initial_connection(crate::config::InitialConnection::Unconnected)
            .build()
            .unwrap();
        let g = genome(&cfg, 2);
        let bias = g.nodes()[&NodeId::output(0)].bias;
        let net = FeedForwardNetwork::compile(&g, &cfg);
        let out = outputs(&net, &[123.0]);
        let expected = Activation::Sigmoid.apply(bias);
        assert!((out[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn disabled_connections_ignored() {
        // An add-node split disables the original connection; the compiled
        // network must route through the new hidden node only.
        let cfg = cfg(1, 1);
        let mut g = genome(&cfg, 3);
        g.mutate_add_node(&cfg, &mut StdRng::seed_from_u64(4));
        let net = FeedForwardNetwork::compile(&g, &cfg);
        // Path is input -> hidden -> output: 2 enabled conns + 2 nodes.
        assert_eq!(net.genes_per_activation(), 4);
        assert!(outputs(&net, &[1.0])[0].is_finite());
    }

    #[test]
    fn genes_per_activation_counts_enabled_required_only() {
        let cfg = cfg(2, 1);
        let g = genome(&cfg, 5);
        let net = FeedForwardNetwork::compile(&g, &cfg);
        // 2 enabled connections + 1 output node.
        assert_eq!(net.genes_per_activation(), 3);
    }

    #[test]
    fn argmax_policy_in_range() {
        let cfg = cfg(4, 3);
        let net = FeedForwardNetwork::compile(&genome(&cfg, 6), &cfg);
        for i in 0..20 {
            let x = i as f64 / 10.0;
            let a = argmax(&net, &[x, -x, x * 0.5, 1.0]);
            assert!(a < 3);
        }
    }

    #[test]
    fn deeper_topologies_stay_finite() {
        let cfg = cfg(4, 2);
        let mut g = genome(&cfg, 7);
        let mut r = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            g.mutate(&cfg, &mut r);
        }
        g.check_invariants(&cfg).unwrap();
        let net = FeedForwardNetwork::compile(&g, &cfg);
        let out = outputs(&net, &[0.9, -0.9, 0.1, 0.0]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn genome_with_all_connections_deleted_still_works() {
        // Heavy deletion can strand outputs entirely; the network must
        // degrade to activation(bias), never panic.
        let cfg = cfg(3, 2);
        let mut g = genome(&cfg, 11);
        let mut r = StdRng::seed_from_u64(12);
        for _ in 0..200 {
            g.mutate_delete_connection(&mut r);
        }
        assert_eq!(g.conns().len(), 0);
        let net = FeedForwardNetwork::compile(&g, &cfg);
        let out = outputs(&net, &[1.0, 2.0, 3.0]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|v| v.is_finite()));
        // Only the two output nodes are touched.
        assert_eq!(net.genes_per_activation(), 2);
    }

    /// A hand-built genome for two inputs and one output: output node 0,
    /// hidden node 5, and the given `(input, output)` connections.
    fn hand_built(conns: &[(i64, i64)]) -> Genome {
        use crate::gene::{ConnGene, ConnKey, NodeGene};
        Genome::from_parts(
            GenomeId(77),
            [0, 5]
                .map(|id| (NodeId(id), NodeGene::default()))
                .into_iter()
                .collect(),
            conns
                .iter()
                .map(|&(i, o)| (ConnKey::new(NodeId(i), NodeId(o)), ConnGene::default()))
                .collect(),
        )
    }

    #[test]
    fn try_compile_rejects_what_would_panic_later() {
        let cfg = cfg(2, 1);
        let reason = |g: &Genome, cfg: &NeatConfig| match FeedForwardNetwork::try_compile(g, cfg) {
            Err(NeatError::InvalidGenome { genome: 77, reason }) => reason,
            other => panic!("expected InvalidGenome, got {other:?}"),
        };
        let ok = hand_built(&[(-1, 5), (-2, 0), (5, 0)]);
        assert_eq!(
            FeedForwardNetwork::try_compile(&ok, &cfg).unwrap(),
            FeedForwardNetwork::compile(&ok, &cfg)
        );
        // A second output the genome has no node gene for.
        assert!(reason(&ok, &super::tests::cfg(2, 2)).contains("output 1"));
        // Inputs past the observation vector, up to the id space's edge.
        for input in [-3, i64::MIN] {
            let g = hand_built(&[(input, 0)]);
            assert!(reason(&g, &cfg).contains("reads input"), "{input}");
        }
        // A 2-cycle the output depends on, and a self-loop.
        assert!(reason(&hand_built(&[(5, 0), (0, 5)]), &cfg).contains("cycle"));
        assert!(reason(&hand_built(&[(0, 0)]), &cfg).contains("cycle"));
        // A cycle no output depends on is pruned with its nodes, and
        // connections to node genes that do not exist are skipped.
        let unused = hand_built(&[(-1, 0), (5, 5), (7, 0), (-1, 7)]);
        let net = FeedForwardNetwork::try_compile(&unused, &cfg).unwrap();
        assert_eq!(net.genes_per_activation(), 2);
    }

    #[test]
    #[should_panic(expected = "genome invariant broken")]
    fn compile_panics_on_a_genome_no_operator_could_have_built() {
        FeedForwardNetwork::compile(&hand_built(&[(5, 0), (0, 5)]), &cfg(2, 1));
    }

    #[test]
    fn compile_is_deterministic() {
        let cfg = cfg(3, 2);
        let g = genome(&cfg, 9);
        let a = FeedForwardNetwork::compile(&g, &cfg);
        let b = FeedForwardNetwork::compile(&g, &cfg);
        assert_eq!(a, b);
        assert_eq!(outputs(&a, &[0.1, 0.2, 0.3]), outputs(&b, &[0.1, 0.2, 0.3]));
    }

    #[test]
    fn argmax_ties_keep_last_max() {
        // Two unconnected outputs with identical biases produce exactly
        // tied outputs; the last maximal index wins — a pinned choice,
        // every recorded trajectory depends on it.
        let json = r#"{
            "version": 1,
            "genome": {
                "id": 0,
                "nodes": [
                    [0, {"bias": 0.25, "response": 1.0,
                         "activation": "Sigmoid", "aggregation": "Sum"}],
                    [1, {"bias": 0.25, "response": 1.0,
                         "activation": "Sigmoid", "aggregation": "Sum"}],
                    [2, {"bias": 0.75, "response": 1.0,
                         "activation": "Sigmoid", "aggregation": "Sum"}]
                ],
                "conns": [],
                "fitness": null
            }
        }"#;
        let g = crate::checkpoint::genome_from_json(json).unwrap();
        let three_out = cfg(1, 3);
        let net = FeedForwardNetwork::compile(&g, &three_out);
        let out = outputs(&net, &[0.0]);
        assert_eq!(out[0], out[1], "outputs 0 and 1 must tie exactly");
        assert!(out[2] > out[0]);
        // Unique max still wins...
        assert_eq!(argmax(&net, &[0.0]), 2);
        // ...and among exact ties the last index wins.
        let tied = r#"{
            "version": 1,
            "genome": {
                "id": 0,
                "nodes": [
                    [0, {"bias": 0.5, "response": 1.0,
                         "activation": "Sigmoid", "aggregation": "Sum"}],
                    [1, {"bias": 0.5, "response": 1.0,
                         "activation": "Sigmoid", "aggregation": "Sum"}]
                ],
                "conns": [],
                "fitness": null
            }
        }"#;
        let g = crate::checkpoint::genome_from_json(tied).unwrap();
        let two_out = cfg(1, 2);
        let net = FeedForwardNetwork::compile(&g, &two_out);
        assert_eq!(argmax(&net, &[0.0]), 1);
    }

    #[test]
    fn nan_outputs_never_win_the_argmax() {
        use crate::gene::{ConnGene, ConnKey, NodeGene};
        // `inf - inf` behind `Identity`: compilable, and NaN on the wire.
        let nan_outputs = |outputs: &[i64]| {
            let identity = NodeGene {
                activation: Activation::Identity,
                ..NodeGene::default()
            };
            let conns = outputs.iter().flat_map(|&o| {
                [(-1, f64::INFINITY), (-2, f64::NEG_INFINITY)].map(|(i, weight)| {
                    let gene = ConnGene {
                        weight,
                        enabled: true,
                    };
                    (ConnKey::new(NodeId(i), NodeId(o)), gene)
                })
            });
            Genome::from_parts(
                GenomeId(1),
                (0..3).map(|o| (NodeId(o), identity)).collect(),
                conns.collect(),
            )
        };
        let cfg = cfg(2, 3);
        let pick = |nan: &[i64]| {
            let net = FeedForwardNetwork::try_compile(&nan_outputs(nan), &cfg).unwrap();
            let out = outputs(&net, &[1.0, 1.0]);
            assert!(nan.iter().all(|&o| out[o as usize].is_nan()), "{out:?}");
            argmax(&net, &[1.0, 1.0])
        };
        // The numbers tie at 0.0, so the last of *them* wins, wherever
        // the NaN sits.
        assert_eq!(pick(&[0]), 2);
        assert_eq!(pick(&[1]), 2);
        assert_eq!(pick(&[2]), 1);
        assert_eq!(pick(&[0, 2]), 1);
        assert_eq!(pick(&[0, 1, 2]), 2, "all NaN: the last index");
    }

    #[test]
    fn sum_runs_left_to_right_over_the_edges() {
        use crate::gene::{ConnGene, ConnKey, NodeGene};
        // Terms that cancel catastrophically: each choice of which two
        // meet first rounds differently (to 6, 5 or 4), so only the
        // documented order — edges by source id, input 2 (id -3) first,
        // folded left to right — gives 6.
        let identity = NodeGene {
            activation: Activation::Identity,
            ..NodeGene::default()
        };
        let conns = [(-3, 1e16), (-2, 3.0), (-1, -1e16 + 2.0)].map(|(i, weight)| {
            let gene = ConnGene {
                weight,
                enabled: true,
            };
            (ConnKey::new(NodeId(i), NodeId(0)), gene)
        });
        let g = Genome::from_parts(
            GenomeId(1),
            [(NodeId(0), identity)].into_iter().collect(),
            conns.into_iter().collect(),
        );
        let net = FeedForwardNetwork::try_compile(&g, &cfg(3, 1)).unwrap();
        assert_eq!(outputs(&net, &[1.0; 3])[0].to_bits(), 6.0f64.to_bits());
    }

    #[test]
    fn scratch_is_reusable_across_networks_of_different_sizes() {
        let mut scratch = Scratch::new();
        let big_cfg = cfg(64, 8);
        let small_cfg = cfg(2, 1);
        let big = FeedForwardNetwork::compile(&genome(&big_cfg, 1), &big_cfg);
        let small = FeedForwardNetwork::compile(&genome(&small_cfg, 2), &small_cfg);
        let big_in = vec![0.25; 64];
        let a = big.activate_into(&big_in, &mut scratch).to_vec();
        let b = small.activate_into(&[0.1, 0.9], &mut scratch).to_vec();
        // Shrinking back to the big network must reproduce its output.
        let a2 = big.activate_into(&big_in, &mut scratch).to_vec();
        assert_eq!(a, a2);
        assert_eq!(b.len(), 1);
        assert_eq!(scratch.outputs().len(), 8);
    }

    #[test]
    fn scratch_buffers_do_not_grow_after_first_use() {
        let cfg = cfg(8, 4);
        let mut g = genome(&cfg, 3);
        let mut r = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            g.mutate(&cfg, &mut r);
        }
        let net = FeedForwardNetwork::compile(&g, &cfg);
        let mut scratch = Scratch::new();
        let inputs = [0.5; 8];
        net.activate_into(&inputs, &mut scratch);
        let caps = (
            scratch.values.capacity(),
            scratch.weighted.capacity(),
            scratch.outputs.capacity(),
        );
        for _ in 0..100 {
            net.activate_into(&inputs, &mut scratch);
        }
        assert_eq!(
            caps,
            (
                scratch.values.capacity(),
                scratch.weighted.capacity(),
                scratch.outputs.capacity(),
            ),
            "steady-state activation must not reallocate"
        );
    }
}
