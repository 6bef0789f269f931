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
//! Every node is `sigmoid(bias + response × sum)`, and its sum is one
//! dependent chain of adds, so a lone node waits on the add latency once
//! per edge. Compilation therefore cuts the plan into runs of up to four
//! consecutive nodes that read no slot the run writes, and activation
//! folds a run's nodes together, four chains in flight. Each node still
//! folds its own edges in its own order from its own start, so every
//! output is bit-identical to evaluating one node at a time.
//!
//! With at least `DENSE_INPUTS` inputs (Atari RAM, not the classic
//! control tasks) a run may hold eight nodes, and one whose input edges
//! fill at least half of its block reads them from it: a padded weight
//! block with one row per observation, in connection-key order (the last
//! observation first), one lane per node and `0.0` for a missing edge.
//! Activation loads each observation once and folds it into every lane,
//! eight chains and no slot lookups, then each node adds its sparse tail
//! of hidden-node sources in key order. A padded lane adds `v × 0.0`: for
//! a finite `v` that is `±0.0`, which leaves any sum but a zero as it is,
//! so a lane equals its node's own fold over its input edges unless both
//! are zeros (maybe of different signs); an infinite or NaN `v` can only
//! make the lane NaN. A lane that comes out `±0.0` or NaN is therefore
//! folded again from the node's own edges. That keeps every bit for a
//! node with no input edge, terms that cancel and non-finite inputs or
//! weights alike.
//!
//! Compilation is on the per-generation hot path too (every genome
//! recompiles every generation): it runs on indexed `Vec` passes over the
//! genome's key-ordered gene runs, and fills each block in the pass that
//! cuts the runs.

use crate::activation::sigmoid;
use crate::config::NeatConfig;
use crate::error::NeatError;
use crate::gene::{GenomeId, NodeId};
use crate::genome::Genome;

/// Most nodes [`activate_into`](FeedForwardNetwork::activate_into)
/// folds together: four add chains in flight hide the add latency, and
/// eight measured no better.
const RUN: usize = 4;

/// Fewest network inputs at which a group of nodes may read them
/// from a [`Block`]: below this the sparse runs measured as fast.
const DENSE_INPUTS: usize = 16;

/// Nodes per [`Block`], each one lane of every row.
const LANES: usize = 8;

/// One node's compiled evaluation plan.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EvalNode {
    pub(crate) bias: f64,
    pub(crate) response: f64,
    /// Nodes from this one on that activation evaluates together, decided
    /// at compile time: 1..=[`RUN`] on the first node of a run (up to
    /// [`LANES`] if it carries a `block`), 0 inside one. A run longer
    /// than 1 is nodes that read no slot the run writes.
    pub(crate) run: u8,
    /// `(value_slot, weight)` pairs for incoming enabled connections.
    pub(crate) incoming: Vec<(usize, f64)>,
    /// The run's input edges as one dense block, on its first node.
    pub(crate) block: Option<Box<Block>>,
}

/// A run's input edges as a padded weight block (module docs).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Block {
    rows: Vec<[f64; LANES]>,
    /// Each lane's input-edge count, where its node's sparse tail of
    /// hidden-node sources starts in `incoming`.
    heads: [usize; LANES],
}

/// Caller-owned, reusable buffers for allocation-free activation.
///
/// A `Scratch` grows to the largest network it has served and then stays
/// at that size, so a per-worker (or per-episode-loop) instance makes
/// every subsequent [`FeedForwardNetwork::activate_into`] call free of
/// heap allocation. Each call writes every value slot before it reads
/// one, so no state leaks between activations and one `Scratch` may
/// serve many different networks.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Value slots: inputs first, then nodes in topological order.
    values: Vec<f64>,
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
#[derive(Debug, Clone, PartialEq)]
pub struct FeedForwardNetwork {
    genome_id: GenomeId,
    num_inputs: usize,
    num_outputs: usize,
    /// Evaluation plan in topological order; slot `num_inputs + i` holds
    /// the value of `nodes[i]`. Read by the batched SoA tier too.
    pub(crate) nodes: Vec<EvalNode>,
    /// Value slot of each network output.
    pub(crate) output_slots: Vec<usize>,
    /// Genes touched per activation (enabled connections + evaluated
    /// nodes) — the paper's inference cost unit.
    genes_per_activation: u64,
}

impl FeedForwardNetwork {
    /// Compiles `genome` into an evaluation plan.
    ///
    /// Nodes not on any path to an output are pruned; an output with no
    /// incoming connections still produces `sigmoid(bias)`.
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
        let genes = genome.nodes().as_slice();
        let n_nodes = genes.len();
        // Output `o` sits at index `o` of a genome with every output.
        let idx_of = |id: NodeId| match genes.get(id.0 as usize) {
            Some(&(at, _)) if at == id => Some(id.0 as usize),
            _ => genome.nodes().search(&id).ok(),
        };

        // The enabled connections with resolved endpoints, in key order:
        // by source, network inputs first. `src` counts observations, then
        // nodes: `obs`, or `num_inputs` plus the node's index. Dangling
        // endpoints (possible only for genomes bypassing the invariant
        // checks) are skipped.
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
                obs as usize
            } else {
                match idx_of(key.input) {
                    Some(i) => num_inputs + i,
                    None => continue,
                }
            };
            edges.push(Edge {
                src,
                dst,
                weight: gene.weight,
            });
        }

        // Each node's in-edges, in key order, as indices into `edges`
        // (CSR: counts, offsets, fill).
        let mut in_off = vec![0usize; n_nodes + 1];
        for e in &edges {
            in_off[e.dst + 1] += 1;
        }
        for i in 0..n_nodes {
            in_off[i + 1] += in_off[i];
        }
        let mut in_adj = vec![0u32; edges.len()];
        let mut fill = in_off.clone();
        for (k, e) in edges.iter().enumerate() {
            in_adj[fill[e.dst]] = k as u32;
            fill[e.dst] += 1;
        }
        let in_edges = |n: usize| {
            in_adj[in_off[n]..in_off[n + 1]]
                .iter()
                .map(|&k| &edges[k as usize])
        };

        // Required nodes: the outputs and every node they read. The queue
        // opens with the outputs, in output order, and only ever grows:
        // its head doubles as the output index list below.
        let mut required = vec![false; n_nodes];
        let mut queue: Vec<usize> = (0..cfg.num_outputs)
            .map(|o| {
                idx_of(NodeId::output(o))
                    .ok_or_else(|| invalid(format!("output {o} has no node gene")))
            })
            .collect::<Result<_, _>>()?;
        let mut head = 0;
        while let Some(&n) = queue.get(head) {
            head += 1;
            if !std::mem::replace(&mut required[n], true) {
                queue.extend(in_edges(n).filter_map(|e| e.src.checked_sub(num_inputs)));
            }
        }

        // Topological order of the required nodes (Kahn): indegree-zero
        // nodes in id order, then FIFO. A required node reads only
        // required nodes, and the node-to-node edges come last in `edges`
        // in source order, so each node's out-edges are one run of them.
        let from = |n: usize| edges.partition_point(|e| e.src < num_inputs + n);
        let mut indeg = vec![0u32; n_nodes];
        for e in &edges[from(0)..] {
            indeg[e.dst] += u32::from(required[e.dst]);
        }
        let mut order: Vec<usize> = (0..n_nodes)
            .filter(|&i| required[i] && indeg[i] == 0)
            .collect();
        let mut head = 0;
        while let Some(&n) = order.get(head) {
            head += 1;
            for e in &edges[from(n)..from(n + 1)] {
                if required[e.dst] {
                    indeg[e.dst] -= 1;
                    if indeg[e.dst] == 0 {
                        order.push(e.dst);
                    }
                }
            }
        }
        if order.len() != required.iter().filter(|&&r| r).count() {
            return Err(invalid("enabled connections form a cycle".into()));
        }

        // Slot assignment, by `src`: inputs first, then nodes in
        // topological order.
        let mut slot_of: Vec<usize> = (0..num_inputs + n_nodes).collect();
        for (i, &n) in order.iter().enumerate() {
            slot_of[num_inputs + n] = num_inputs + i;
        }
        let mut nodes: Vec<EvalNode> = Vec::with_capacity(order.len());
        let mut conn_count = 0;
        // Runs for the grouped kernel: a node joins the open run
        // while it has room and reads only slots written before the run.
        // With enough inputs a run holds up to `LANES` nodes, and one
        // that closes without a block is cut back into runs of `RUN`.
        let most = if num_inputs < DENSE_INPUTS {
            RUN
        } else {
            LANES
        };
        let mut start = 0;
        for (i, &n) in order.iter().enumerate() {
            let gene = genes[n].1;
            let incoming: Vec<(usize, f64)> =
                in_edges(n).map(|e| (slot_of[e.src], e.weight)).collect();
            conn_count += incoming.len() as u64;
            let joins = i > start
                && i - start < most
                && incoming.iter().all(|&(slot, _)| slot < num_inputs + start);
            if !joins {
                close_run(&mut nodes[start..], num_inputs);
                start = i;
            }
            nodes.push(EvalNode {
                bias: gene.bias,
                response: gene.response,
                run: 0,
                incoming,
                block: None,
            });
            nodes[start].run += 1;
        }
        close_run(&mut nodes[start..], num_inputs);
        let output_slots = queue[..cfg.num_outputs]
            .iter()
            .map(|&i| slot_of[num_inputs + i])
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
        self.activate_with(inputs, scratch, sigmoid)
    }

    /// [`activate_into`](Self::activate_into) with `transfer` applied to
    /// each node's `bias + response × sum`. Production instantiates only
    /// [`sigmoid`]; the tests read exact sums through the identity.
    fn activate_with<'s>(
        &self,
        inputs: &[f64],
        scratch: &'s mut Scratch,
        transfer: impl Fn(f64) -> f64 + Copy,
    ) -> &'s [f64] {
        assert_eq!(
            inputs.len(),
            self.num_inputs,
            "expected {} inputs, got {}",
            self.num_inputs,
            inputs.len()
        );
        let Scratch { values, outputs } = scratch;
        // No fill: every node slot is written before any node reads it.
        values.resize(self.num_inputs + self.nodes.len(), 0.0);
        values[..self.num_inputs].copy_from_slice(inputs);
        let mut i = 0;
        while i < self.nodes.len() {
            let node = &self.nodes[i];
            match (&node.block, node.run) {
                (Some(block), _) => self.dense_run(i, block, values, transfer),
                (_, 4) => self.sum_run::<4>(i, values, transfer),
                (_, 3) => self.sum_run::<3>(i, values, transfer),
                (_, 2) => self.sum_run::<2>(i, values, transfer),
                _ => self.sum_run::<1>(i, values, transfer),
            }
            i += usize::from(node.run);
        }
        outputs.clear();
        outputs.extend(self.output_slots.iter().map(|&s| values[s]));
        outputs
    }

    /// Evaluates the run of `W` nodes starting at plan index `at`, their
    /// add chains interleaved over the edges they all have. THE canonical
    /// per-edge order: each node still folds its own edges left to right
    /// from −0.0, where `Iterator::<f64>::sum` starts (so a node with no
    /// edge keeps the sign of its bias) — the SoA kernel keeps this edge
    /// order (from +0.0, see [`crate::batch`]), `sum_runs_left_to_right_…`
    /// pins it.
    #[inline(always)]
    fn sum_run<const W: usize>(
        &self,
        at: usize,
        values: &mut [f64],
        transfer: impl Fn(f64) -> f64,
    ) {
        let nodes = &self.nodes[at..at + W];
        let common = nodes.iter().map(|n| n.incoming.len()).min().unwrap_or(0);
        let heads: [&[(usize, f64)]; W] = std::array::from_fn(|j| &nodes[j].incoming[..common]);
        let mut acc = [-0.0f64; W];
        for k in 0..common {
            for (a, head) in acc.iter_mut().zip(&heads) {
                let (slot, w) = head[k];
                *a += values[slot] * w;
            }
        }
        for (j, node) in nodes.iter().enumerate() {
            for &(slot, w) in &node.incoming[common..] {
                acc[j] += values[slot] * w;
            }
            values[self.num_inputs + at + j] = transfer(node.bias + node.response * acc[j]);
        }
    }

    /// Evaluates the run starting at plan index `at` from its [`Block`],
    /// folding a lane that is `±0.0` or NaN again (module docs).
    fn dense_run(
        &self,
        at: usize,
        block: &Block,
        values: &mut [f64],
        transfer: impl Fn(f64) -> f64,
    ) {
        let n = self.num_inputs;
        let nodes = &self.nodes[at..at + usize::from(self.nodes[at].run)];
        let mut acc = [-0.0f64; LANES];
        for (row, &v) in block.rows.iter().zip(values[..n].iter().rev()) {
            for (a, &w) in acc.iter_mut().zip(row) {
                *a += v * w;
            }
        }
        for (j, node) in nodes.iter().enumerate() {
            let (head, tail) = node.incoming.split_at(block.heads[j]);
            let mut sum = acc[j];
            if sum == 0.0 || sum.is_nan() {
                sum = head.iter().fold(-0.0, |a, &(slot, w)| a + values[slot] * w);
            }
            let sum = tail.iter().fold(sum, |a, &(slot, w)| a + values[slot] * w);
            values[n + at + j] = transfer(node.bias + node.response * sum);
        }
    }

    /// Index of the maximum output — the usual discrete-action policy —
    /// over caller-owned buffers.
    ///
    /// Among exact ties the *last* maximal output wins (exact ties are
    /// realistic — the sigmoid saturates to exactly `1.0` from a sum of
    /// about 7.5 up, and to the same tiny value at its clamp below). A NaN
    /// output (an `inf - inf` sum) never wins against a number; only if
    /// every output is NaN does the last index come back.
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

/// Closes the run `nodes` (its first node holds its length): one whose
/// input edges fill half a [`Block`] or more gets one, any other is cut
/// into runs of at most [`RUN`].
fn close_run(nodes: &mut [EvalNode], num_inputs: usize) {
    let mut heads = [0; LANES];
    for (head, node) in heads.iter_mut().zip(&*nodes) {
        *head = node
            .incoming
            .partition_point(|&(slot, _)| slot < num_inputs);
    }
    if num_inputs >= DENSE_INPUTS && 2 * heads.iter().sum::<usize>() >= LANES * num_inputs {
        let mut rows = vec![[0.0; LANES]; num_inputs];
        for (j, (node, &head)) in nodes.iter().zip(&heads).enumerate() {
            for &(slot, w) in &node.incoming[..head] {
                rows[num_inputs - 1 - slot][j] = w;
            }
        }
        nodes[0].block = Some(Box::new(Block { rows, heads }));
    } else {
        for run in nodes.chunks_mut(RUN) {
            run[0].run = run.len() as u8;
        }
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

    /// The transfer the kernel tests instantiate: each output is its
    /// node's exact `bias + response × sum`.
    fn identity(x: f64) -> f64 {
        x
    }

    /// [`outputs`] through the identity transfer.
    fn sums(net: &FeedForwardNetwork, inputs: &[f64]) -> Vec<f64> {
        net.activate_with(inputs, &mut Scratch::new(), identity)
            .to_vec()
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
        use crate::gene::NodeGene;
        let bias = -0.75;
        let g = Genome::from_parts(
            GenomeId(0),
            [(
                NodeId::output(0),
                NodeGene {
                    bias,
                    response: 1.0,
                },
            )]
            .into(),
            Default::default(),
        );
        let net = FeedForwardNetwork::compile(&g, &cfg(1, 1));
        let out = outputs(&net, &[123.0]);
        assert!((out[0] - sigmoid(bias)).abs() < 1e-12);
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
                    [0, {"bias": 0.25, "response": 1.0}],
                    [1, {"bias": 0.25, "response": 1.0}],
                    [2, {"bias": 0.75, "response": 1.0}]
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
                    [0, {"bias": 0.5, "response": 1.0}],
                    [1, {"bias": 0.5, "response": 1.0}]
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
        // An `inf - inf` sum: compilable, NaN through the sigmoid, and NaN
        // on the wire.
        let nan_outputs = |outputs: &[i64]| {
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
                (0..3).map(|o| (NodeId(o), NodeGene::default())).collect(),
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
        // The numbers tie at sigmoid(0.0), so the last of *them* wins,
        // wherever the NaN sits.
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
        let conns = [(-3, 1e16), (-2, 3.0), (-1, -1e16 + 2.0)].map(|(i, weight)| {
            let gene = ConnGene {
                weight,
                enabled: true,
            };
            (ConnKey::new(NodeId(i), NodeId(0)), gene)
        });
        let g = Genome::from_parts(
            GenomeId(1),
            [(NodeId(0), NodeGene::default())].into_iter().collect(),
            conns.into_iter().collect(),
        );
        let net = FeedForwardNetwork::try_compile(&g, &cfg(3, 1)).unwrap();
        assert_eq!(sums(&net, &[1.0; 3])[0].to_bits(), 6.0f64.to_bits());
    }

    /// The fold the grouped kernel must match bit for bit, through the
    /// identity transfer: one node at a time, each sum the plain left fold
    /// of `Iterator::<f64>::sum`.
    fn reference(net: &FeedForwardNetwork, inputs: &[f64]) -> Vec<f64> {
        let mut values = inputs.to_vec();
        for node in &net.nodes {
            let sum: f64 = node
                .incoming
                .iter()
                .map(|&(slot, w)| values[slot] * w)
                .sum();
            values.push(node.bias + node.response * sum);
        }
        net.output_slots.iter().map(|&s| values[s]).collect()
    }

    /// A network of nodes `(id, bias)` and enabled connections `(input,
    /// output, weight)`, compiled for `outputs`.
    fn identity_net(
        inputs: usize,
        outputs: usize,
        nodes: &[(i64, f64)],
        conns: &[(i64, i64, f64)],
    ) -> FeedForwardNetwork {
        use crate::gene::{ConnGene, ConnKey, NodeGene};
        let nodes = nodes.iter().map(|&(id, bias)| {
            let gene = NodeGene {
                bias,
                ..NodeGene::default()
            };
            (NodeId(id), gene)
        });
        let conns = conns.iter().map(|&(i, o, weight)| {
            let gene = ConnGene {
                weight,
                enabled: true,
            };
            (ConnKey::new(NodeId(i), NodeId(o)), gene)
        });
        let g = Genome::from_parts(GenomeId(1), nodes.collect(), conns.collect());
        FeedForwardNetwork::try_compile(&g, &cfg(inputs, outputs)).unwrap()
    }

    /// Runs `net` on each input row through one reused scratch and the
    /// identity transfer, and asserts the reference's exact bits every
    /// time.
    fn assert_reference_bits(net: &FeedForwardNetwork, rows: &[&[f64]]) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut scratch = Scratch::new();
        for (r, inputs) in rows.iter().enumerate() {
            let want = bits(&reference(net, inputs));
            assert_eq!(
                bits(net.activate_with(inputs, &mut scratch, identity)),
                want,
                "row {r}"
            );
        }
    }

    fn runs(net: &FeedForwardNetwork) -> Vec<u8> {
        net.nodes.iter().map(|n| n.run).collect()
    }

    #[test]
    fn grouped_sums_keep_each_nodes_own_fold() {
        // Six independent outputs, rows of 1..=5 edges whose terms cancel
        // catastrophically (see `sum_runs_left_to_right_over_the_edges`),
        // so a term that lands in the wrong accumulator or a tail folded
        // out of order changes the bits.
        let terms = [1e16, 3.0, -1e16 + 2.0, 0.5, -7.25];
        let nodes: Vec<_> = (0..6).map(|o| (o, 0.125 * o as f64)).collect();
        let conns: Vec<_> = (0..6i64)
            .flat_map(|o| {
                let len = 1 + (o as usize * 3) % 5;
                (0..len).map(move |k| (-(k as i64) - 1, o, terms[(k + o as usize) % 5]))
            })
            .collect();
        let net = identity_net(5, 6, &nodes, &conns);
        assert_eq!(runs(&net), [4, 0, 0, 0, 2, 0]);
        assert_reference_bits(
            &net,
            &[
                &[1.0; 5],
                &[1.0, 1.0, 1.0, 0.3, -1.1],
                &[-2.0, 0.5, 1e-3, 7.0, 1.0],
            ],
        );
    }

    #[test]
    fn a_node_reading_its_predecessor_starts_a_new_run() {
        // Plan order 0, 5, 1: output 1 reads hidden node 5 over the edges
        // all three share, so inside one run it would read 5's slot before
        // 5 is written.
        let net = identity_net(
            2,
            2,
            &[(0, 0.1), (1, 0.2), (5, -0.3)],
            &[
                (-1, 0, 1.5),
                (-2, 0, -0.5),
                (-1, 5, 2.0),
                (-2, 5, 0.25),
                (-1, 1, -1.0),
                (5, 1, 3.0),
            ],
        );
        assert_eq!(runs(&net), [2, 0, 1]);
        assert_reference_bits(&net, &[&[0.5, -0.25], &[2.0, 1.0], &[-1.0, 4.0]]);
    }

    #[test]
    fn a_node_with_no_edge_keeps_the_sign_of_a_negative_zero_bias() {
        // −0.0 + 1.0 × (the empty fold) is −0.0 only if the fold starts at
        // −0.0; from 0.0 it would be +0.0. Alone and inside a run.
        let alone = identity_net(1, 1, &[(0, -0.0)], &[]);
        let grouped = identity_net(
            1,
            3,
            &[(0, 1.0), (1, -0.0), (2, 0.0)],
            &[(-1, 0, 2.0), (-1, 2, -1.0)],
        );
        assert_eq!(runs(&grouped), [3, 0, 0]);
        for (net, output) in [(&alone, 0), (&grouped, 1)] {
            let out = sums(net, &[1.0]);
            assert_eq!(out[output].to_bits(), (-0.0f64).to_bits(), "{out:?}");
            assert_reference_bits(net, &[&[1.0], &[-3.0]]);
        }
    }

    /// Inputs of the block tests: just enough for a dense block.
    const N: usize = DENSE_INPUTS;

    /// Weights whose sums cancel catastrophically, so a term folded out of
    /// order or into another lane changes the bits.
    const TERMS: [f64; 7] = [1e16, 3.0, -1e16 + 2.0, 0.5, -7.25, 1e-3, -2.5e8];

    /// Outputs `0..width` over `N` inputs: output `j` reads input `k` with
    /// weight `TERMS[(j + k) % 7]` unless `lacks(j, k)`, and has bias −0.0
    /// if `j % 3 == 0`. `hidden` adds nodes, `conns` any other edge.
    fn block_net(
        width: usize,
        lacks: impl Fn(usize, usize) -> bool,
        hidden: &[i64],
        conns: &[(i64, i64, f64)],
    ) -> FeedForwardNetwork {
        let bias = |j: usize| {
            if j.is_multiple_of(3) {
                -0.0
            } else {
                0.125 * j as f64
            }
        };
        let nodes: Vec<_> = (0..width)
            .map(|j| (j as i64, bias(j)))
            .chain(hidden.iter().map(|&h| (h, -0.5)))
            .collect();
        let lacks = &lacks;
        let edges: Vec<_> = (0..width)
            .flat_map(|j| {
                (0..N)
                    .filter(move |&k| !lacks(j, k))
                    .map(move |k| (-(k as i64) - 1, j as i64, TERMS[(j + k) % 7]))
            })
            .chain(conns.iter().copied())
            .collect();
        identity_net(N, width, &nodes, &edges)
    }

    /// Observation rows for the block tests: plain, mixed-sign and all
    /// −0.0 rows, then `extra`.
    fn assert_block_bits(net: &FeedForwardNetwork, extra: &[Vec<f64>]) {
        let mut rows = vec![
            vec![1.0; N],
            (0..N).map(|k| k as f64 - 7.5).collect(),
            (0..N)
                .map(|k| if k % 3 == 0 { -1.0 } else { 0.0 })
                .collect(),
            vec![-0.0; N],
        ];
        rows.extend_from_slice(extra);
        let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        assert_reference_bits(net, &rows);
    }

    #[test]
    fn blocks_of_every_width_keep_each_nodes_own_fold() {
        // Hidden nodes 100 and 101 read inputs only, so they come first
        // in the plan and every output, which reads one or both of them
        // after about four inputs in five, is one run behind them. A
        // block must be half full, so widths below five stay sparse runs.
        for width in 2..=LANES {
            let mut conns = vec![(-1, 100, 2.0), (-2, 100, -0.75), (-3, 101, 1e16)];
            for j in 0..width as i64 {
                conns.push((100, j, TERMS[j as usize % 7]));
                if j % 2 == 1 {
                    conns.push((101, j, -1e16));
                }
            }
            let net = block_net(width, |j, k| (j + k) % 5 == 0, &[100, 101], &conns);
            assert_eq!(usize::from(net.nodes[2].run), width, "width {width}");
            assert_eq!(net.nodes[2].block.is_some(), width >= 5, "width {width}");
            assert_block_bits(&net, &[(0..N).map(|k| 1e300 / (k as f64 - 4.0)).collect()]);
        }
    }

    #[test]
    fn a_block_lane_with_no_input_edge_keeps_a_negative_zero_bias() {
        // Over a positive observation the padding alone folds +0.0 into
        // output 3's lane; its own (empty) fold is −0.0.
        let net = block_net(6, |j, _| j == 3, &[], &[]);
        assert!(net.nodes[0].block.is_some());
        assert_eq!(sums(&net, &[1.0; N])[3].to_bits(), (-0.0f64).to_bits());
        assert_block_bits(&net, &[]);
    }

    #[test]
    fn input_terms_that_cancel_to_zero_keep_their_sign() {
        // Output 3 (bias −0.0) reads 1e16 − 1e16 = +0.0 from inputs 0 and
        // 1 only: its sum is +0.0 whatever the padding folded in.
        let net = block_net(5, |j, _| j == 3, &[], &[(-1, 3, 1e16), (-2, 3, -1e16)]);
        assert!(net.nodes[0].block.is_some());
        let ones = sums(&net, &[1.0; N]);
        assert_eq!(ones[3].to_bits(), 0.0f64.to_bits());
        let mut row = vec![-3.0; N];
        row[5] = 0.0;
        assert_block_bits(&net, &[row]);
    }

    #[test]
    fn non_finite_observations_a_lane_lacks_leave_it_finite() {
        // Output `j` lacks input `j`; +inf, −inf and NaN arrive on inputs
        // 0, 1 and 2, which padding turns into NaN in those lanes only.
        let net = block_net(6, |j, k| j == k, &[], &[]);
        assert!(net.nodes[0].block.is_some());
        let mut row = vec![0.5; N];
        row[..3].copy_from_slice(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        let out = sums(&net, &row);
        assert!(
            out[0].is_nan() && out[1].is_nan() && out[3].is_nan(),
            "{out:?}"
        );
        let lone = |k: usize, v: f64| (0..N).map(|i| if i == k { v } else { 1.0 }).collect();
        assert_block_bits(
            &net,
            &[
                row,
                lone(0, f64::INFINITY),
                lone(2, f64::NAN),
                lone(5, -f64::INFINITY),
            ],
        );
        assert!(sums(&net, &lone(0, f64::INFINITY))[0].is_finite());
    }

    #[test]
    fn zero_weight_edges_beside_padding_keep_their_sign() {
        // Output 0 (bias −0.0) reads inputs 0..8 through −0.0 weights, so
        // over positive observations its own fold stays −0.0 while the
        // padding of inputs 8.. folds +0.0 first; output 3 reads them
        // through +0.0 weights.
        let zeros: Vec<_> = (0..8)
            .flat_map(|k| [(-k - 1, 0, -0.0), (-k - 1, 3, 0.0)])
            .collect();
        let net = block_net(5, |j, _| j == 0 || j == 3, &[], &zeros);
        assert!(net.nodes[0].block.is_some());
        assert_eq!(sums(&net, &[1.0; N])[0].to_bits(), (-0.0f64).to_bits());
        assert_block_bits(&net, &[vec![-2.0; N]]);
    }

    #[test]
    fn hostile_nan_and_infinite_weights_fold_as_the_reference_does() {
        let hostile = [
            (-5, 1, f64::NAN),
            (-8, 2, f64::INFINITY),
            (-1, 4, f64::NEG_INFINITY),
        ];
        // Each replaces a generated edge; output 2 also lacks input 6.
        let holes = [(1, 4), (2, 7), (4, 0), (2, 6)];
        let net = block_net(5, |j, k| holes.contains(&(j, k)), &[], &hostile);
        assert!(net.nodes[0].block.is_some());
        let mut zero_at_7 = vec![1.0; N];
        zero_at_7[7] = 0.0;
        assert_block_bits(&net, &[zero_at_7]);
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
        let caps = (scratch.values.capacity(), scratch.outputs.capacity());
        for _ in 0..100 {
            net.activate_into(&inputs, &mut scratch);
        }
        assert_eq!(
            caps,
            (scratch.values.capacity(), scratch.outputs.capacity()),
            "steady-state activation must not reallocate"
        );
    }

    /// What `activate_with(identity)` must return, bit for bit, computed
    /// from the genome alone: each node evaluated once, on demand, over
    /// its enabled in-edges in connection-key order, its sum the plain left
    /// fold of `Iterator::<f64>::sum`.
    fn genome_reference(g: &Genome, cfg: &NeatConfig, inputs: &[f64]) -> Vec<f64> {
        use std::collections::BTreeMap;
        fn value(g: &Genome, id: NodeId, inputs: &[f64], memo: &mut BTreeMap<NodeId, f64>) -> f64 {
            if id.is_input() {
                return inputs[(-id.0 - 1) as usize];
            }
            if let Some(&v) = memo.get(&id) {
                return v;
            }
            let node = g.nodes()[&id];
            let sum: f64 = g
                .conns()
                .iter()
                .filter(|(k, c)| k.output == id && c.enabled)
                .map(|(k, c)| value(g, k.input, inputs, memo) * c.weight)
                .sum();
            let v = node.bias + node.response * sum;
            memo.insert(id, v);
            v
        }
        let mut memo = BTreeMap::new();
        (0..cfg.num_outputs)
            .map(|o| value(g, NodeId::output(o), inputs, &mut memo))
            .collect()
    }

    /// A genome whose plan puts one to three *dependent* outputs right
    /// after the hidden node they read, each with fewer in-edges than any
    /// node before it: every other output and the hidden node read 3..
    /// inputs, a dependent reads the hidden node plus at most one input.
    /// Only the dependency may cut the would-be run, and a dependent folded
    /// inside it would read the hidden node's slot before it is written.
    fn dependent_tail_genome(cfg: &NeatConfig, rng: &mut StdRng) -> Genome {
        use crate::gene::{ConnGene, ConnKey, NodeGene};
        use rand::Rng;
        let (inputs, outputs) = (cfg.num_inputs as i64, cfg.num_outputs as i64);
        let hidden = outputs;
        let first_dependent = outputs - rng.gen_range(1..outputs.min(3) + 1);
        let mut nodes = Vec::new();
        let mut conns = Vec::new();
        for id in 0..=hidden {
            let gene = NodeGene {
                bias: rng.gen_range(-1.0..1.0),
                ..NodeGene::default()
            };
            nodes.push((NodeId(id), gene));
            let sources: Vec<i64> = if (first_dependent..outputs).contains(&id) {
                let mut s: Vec<i64> = (0..rng.gen_range(0..2)).map(|i| -1 - i).collect();
                s.push(hidden);
                s
            } else {
                (0..rng.gen_range(3..inputs + 1)).map(|i| -1 - i).collect()
            };
            for src in sources {
                let gene = ConnGene {
                    weight: rng.gen_range(-2.0..2.0),
                    enabled: true,
                };
                conns.push((ConnKey::new(NodeId(src), NodeId(id)), gene));
            }
        }
        Genome::from_parts(
            GenomeId(0),
            nodes.into_iter().collect(),
            conns.into_iter().collect(),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// The grouped, dense-block kernel against the genome alone.
        fn grouped_activation_matches_the_one_node_at_a_time_fold(
            atari in proptest::any::<bool>(),
            dependent_tail in proptest::any::<bool>(),
            near_full in proptest::any::<bool>(),
            extreme in proptest::any::<bool>(),
            seed in proptest::any::<u64>(),
            mutations in 0usize..80,
        ) {
            use rand::Rng;
            let (inputs, outputs) = if atari { (128, 18) } else { (8, 4) };
            // Raised rates: hidden nodes and deleted edges inside would-be
            // runs.
            let cfg = NeatConfig::builder(inputs, outputs)
                .node_add_prob(0.5)
                .conn_delete_prob(0.5)
                .build()
                .expect("valid config");
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA5);
            // Near full: a fresh genome, every input wired to every output,
            // after a few mutations (the shape the Atari workloads run, and
            // the one that reads its inputs from dense blocks).
            let mutations = if near_full { mutations % 6 } else { mutations };
            let g = if dependent_tail {
                dependent_tail_genome(&cfg, &mut rng)
            } else {
                let mut g = Genome::new_initial(&cfg, GenomeId(0), &mut StdRng::seed_from_u64(seed));
                for _ in 0..mutations {
                    g.mutate(&cfg, &mut rng);
                }
                g
            };
            let net = FeedForwardNetwork::compile(&g, &cfg);
            let mut scratch = Scratch::new();
            // Extreme rows mix in signed zeros, tiny, huge and infinite
            // magnitudes: products that vanish or overflow, sums that reach
            // ±inf or NaN.
            const EXTREMES: [f64; 9] = [
                0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, f64::MAX, f64::INFINITY, f64::NEG_INFINITY,
            ];
            for _ in 0..3 {
                let x: Vec<f64> = (0..inputs)
                    .map(|_| match rng.gen_range(0..EXTREMES.len() + 3) {
                        i if extreme && i < EXTREMES.len() => EXTREMES[i],
                        _ => rng.gen_range(-2.0..2.0),
                    })
                    .collect();
                let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let got = bits(net.activate_with(&x, &mut scratch, identity));
                proptest::prop_assert_eq!(got, bits(&genome_reference(&g, &cfg, &x)));
            }
        }
    }
}
