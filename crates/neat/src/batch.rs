//! Batched structure-of-arrays activation: evaluate same-shape networks
//! in lockstep.
//!
//! Same-shape networks — equal compiled plans that differ only in
//! weights, biases and responses — share a [`ShapeKey`] and can be
//! packed into a [`BatchedNetwork`], which stores each per-genome
//! parameter lane-contiguously (`[edge][lane]`, `[node][lane]`) and
//! evaluates all lanes per node in one pass.
//!
//! No evaluation path runs this tier: it loses per lane to
//! [`FeedForwardNetwork::activate_into`] on every benchmark shape, so the
//! engine runs every genome through that kernel. It stays as the subject
//! of the benchmark's `batch.activate_ns_per_lane` probe and the
//! `batched_inference` criterion bench.
//!
//! # Lanes against the scalar kernel
//!
//! Each lane repeats [`FeedForwardNetwork::activate_into`]'s arithmetic
//! on the same genome:
//!
//! - `Sum` aggregation accumulates weighted inputs in compiled edge order,
//!   but from `0.0` where the scalar kernel starts from `−0.0`
//!   (`Iterator::<f64>::sum`). So the two differ on a `Sum` node with no
//!   enabled in-edge and a bias of `−0.0`: the lane yields `+0.0`, the
//!   scalar kernel `−0.0`. An argmax treats the two as equal.
//! - Non-`Sum` aggregations stage the weighted inputs per lane in edge
//!   order and call the same [`Aggregation::apply`].
//!
//! Shapes are grouped by exact structural equality (no hashing
//! shortcut), so a lane can never be loaded into a mismatched plan.

use crate::activation::Aggregation;
use crate::network::FeedForwardNetwork;

/// Exact structural signature of a compiled network.
///
/// Two networks with equal keys have identical evaluation plans — same
/// input/output arity, same node order, same activation/aggregation per
/// node, and same incoming value-slot sequence per node — and therefore
/// differ only in weights, biases, and responses. Equality is exact
/// (token-sequence comparison), never a hash, so grouping by `ShapeKey`
/// can never alias two distinct topologies.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShapeKey(Vec<u64>);

impl ShapeKey {
    /// Computes the signature of a compiled network.
    pub fn of(net: &FeedForwardNetwork) -> ShapeKey {
        let nodes = &net.nodes;
        let mut tokens = Vec::with_capacity(
            4 + nodes.iter().map(|n| 3 + n.incoming.len()).sum::<usize>() + net.output_slots.len(),
        );
        tokens.push(net.num_inputs() as u64);
        tokens.push(net.num_outputs() as u64);
        tokens.push(nodes.len() as u64);
        for node in nodes {
            tokens.push(node.activation as u64);
            tokens.push(node.aggregation as u64);
            tokens.push(node.incoming.len() as u64);
            tokens.extend(node.incoming.iter().map(|&(slot, _)| slot as u64));
        }
        tokens.extend(net.output_slots.iter().map(|&s| s as u64));
        ShapeKey(tokens)
    }
}

/// Per-node metadata shared by every lane of a [`BatchedNetwork`].
#[derive(Debug, Clone)]
struct BatchNode {
    activation: crate::activation::Activation,
    aggregation: Aggregation,
}

/// A bank of same-shape networks evaluated in lockstep.
///
/// Built from a template network's compiled plan with a fixed number of
/// `lanes`; individual genomes' parameters are loaded per lane with
/// [`load_lane`](Self::load_lane) and all lanes advance together on each
/// [`activate`](Self::activate). All buffers are lane-contiguous
/// (`values[slot * lanes + lane]`) and allocated once at construction —
/// the activation loop itself is allocation-free.
#[derive(Debug, Clone)]
pub struct BatchedNetwork {
    shape: ShapeKey,
    num_inputs: usize,
    lanes: usize,
    nodes: Vec<BatchNode>,
    /// CSR slot indices of incoming edges, concatenated over nodes.
    slots: Vec<usize>,
    /// CSR offsets into `slots`/`weights` rows: `edge_off[i]..edge_off[i+1]`.
    edge_off: Vec<usize>,
    /// Edge weights, `[edge][lane]`.
    weights: Vec<f64>,
    /// Node biases, `[node][lane]`.
    bias: Vec<f64>,
    /// Node responses, `[node][lane]`.
    response: Vec<f64>,
    output_slots: Vec<usize>,
    /// Value slots, `[slot][lane]`: inputs first, then nodes in
    /// topological order. Input rows are written by
    /// [`set_input`](Self::set_input) and persist across activations.
    values: Vec<f64>,
    /// Per-lane staging for non-`Sum` aggregations.
    staged: Vec<f64>,
    /// Per-lane accumulator row for `Sum` nodes (edge-outer kernel).
    acc: Vec<f64>,
    /// Last activation's outputs, `[output][lane]`.
    outputs: Vec<f64>,
}

impl BatchedNetwork {
    /// Builds an empty bank shaped like `template` with `lanes` lanes.
    ///
    /// Lane parameters are zero until loaded; callers must
    /// [`load_lane`](Self::load_lane) before reading a lane's outputs.
    pub fn from_template(template: &FeedForwardNetwork, lanes: usize) -> BatchedNetwork {
        let lanes = lanes.max(1);
        let tnodes = &template.nodes;
        let mut nodes = Vec::with_capacity(tnodes.len());
        let mut slots = Vec::new();
        let mut edge_off = Vec::with_capacity(tnodes.len() + 1);
        edge_off.push(0);
        let mut max_deg = 0;
        for node in tnodes {
            nodes.push(BatchNode {
                activation: node.activation,
                aggregation: node.aggregation,
            });
            slots.extend(node.incoming.iter().map(|&(slot, _)| slot));
            edge_off.push(slots.len());
            max_deg = max_deg.max(node.incoming.len());
        }
        let num_slots = template.num_inputs() + tnodes.len();
        BatchedNetwork {
            shape: ShapeKey::of(template),
            num_inputs: template.num_inputs(),
            lanes,
            nodes,
            weights: vec![0.0; slots.len() * lanes],
            slots,
            edge_off,
            bias: vec![0.0; tnodes.len() * lanes],
            response: vec![0.0; tnodes.len() * lanes],
            output_slots: template.output_slots.to_vec(),
            values: vec![0.0; num_slots * lanes],
            staged: Vec::with_capacity(max_deg),
            acc: vec![0.0; lanes],
            outputs: vec![0.0; template.num_outputs() * lanes],
        }
    }

    /// Loads `net`'s parameters (weights, biases, responses) into `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `net`'s shape differs from the
    /// bank's template shape.
    pub fn load_lane(&mut self, lane: usize, net: &FeedForwardNetwork) {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        assert_eq!(
            ShapeKey::of(net),
            self.shape,
            "network shape does not match the batch template"
        );
        let lanes = self.lanes;
        for (i, node) in net.nodes.iter().enumerate() {
            self.bias[i * lanes + lane] = node.bias;
            self.response[i * lanes + lane] = node.response;
            let e0 = self.edge_off[i];
            for (e, &(_, w)) in node.incoming.iter().enumerate() {
                self.weights[(e0 + e) * lanes + lane] = w;
            }
        }
    }

    /// Writes one lane's observation into the input slots.
    ///
    /// Input rows persist across [`activate`](Self::activate) calls, so
    /// lanes whose episodes have finished simply keep computing on their
    /// last observation until reloaded.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `obs.len()` differs from the
    /// template's input count.
    pub fn set_input(&mut self, lane: usize, obs: &[f64]) {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        assert_eq!(
            obs.len(),
            self.num_inputs,
            "expected {} inputs, got {}",
            self.num_inputs,
            obs.len()
        );
        for (slot, &x) in obs.iter().enumerate() {
            self.values[slot * self.lanes + lane] = x;
        }
    }

    /// Runs one forward pass for every lane.
    ///
    /// Each lane's arithmetic matches
    /// [`FeedForwardNetwork::activate_into`] bit for bit but for the sign
    /// of an empty sum (module docs): `Sum` nodes accumulate weighted
    /// inputs in edge order from `0.0` (the edge-outer/lane-inner kernel
    /// touches contiguous lane rows per edge but keeps each lane's
    /// addition sequence identical); other aggregations stage per-lane
    /// weighted inputs in edge order and apply the shared [`Aggregation`].
    pub fn activate(&mut self) {
        let BatchedNetwork {
            num_inputs,
            lanes,
            nodes,
            slots,
            edge_off,
            weights,
            bias,
            response,
            output_slots,
            values,
            staged,
            acc,
            outputs,
            ..
        } = self;
        let (ni, lanes) = (*num_inputs, *lanes);
        for (i, node) in nodes.iter().enumerate() {
            let (e0, e1) = (edge_off[i], edge_off[i + 1]);
            let out_base = (ni + i) * lanes;
            match node.aggregation {
                Aggregation::Sum => {
                    acc.fill(0.0);
                    for e in e0..e1 {
                        // Slice rows so the lane loop is bounds-check
                        // free and vectorizes.
                        let vrow = &values[slots[e] * lanes..][..lanes];
                        let wrow = &weights[e * lanes..][..lanes];
                        for ((a, v), w) in acc.iter_mut().zip(vrow).zip(wrow) {
                            *a += v * w;
                        }
                    }
                    let brow = &bias[i * lanes..][..lanes];
                    let rrow = &response[i * lanes..][..lanes];
                    let orow = &mut values[out_base..][..lanes];
                    for (((o, &a), &b), &r) in orow.iter_mut().zip(acc.iter()).zip(brow).zip(rrow) {
                        *o = node.activation.apply(b + r * a);
                    }
                }
                agg => {
                    for l in 0..lanes {
                        staged.clear();
                        staged.extend(
                            (e0..e1).map(|e| values[slots[e] * lanes + l] * weights[e * lanes + l]),
                        );
                        let a = agg.apply(staged);
                        values[out_base + l] = node
                            .activation
                            .apply(bias[i * lanes + l] + response[i * lanes + l] * a);
                    }
                }
            }
        }
        for (j, &slot) in output_slots.iter().enumerate() {
            let src = slot * lanes;
            let dst = j * lanes;
            outputs[dst..dst + lanes].copy_from_slice(&values[src..src + lanes]);
        }
    }

    /// One output value of the last [`activate`](Self::activate) call.
    pub fn output(&self, lane: usize, output: usize) -> f64 {
        self.outputs[output * self.lanes + lane]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NeatConfig;
    use crate::gene::GenomeId;
    use crate::genome::Genome;
    use crate::network::Scratch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(i: usize, o: usize) -> NeatConfig {
        NeatConfig::builder(i, o).build().unwrap()
    }

    fn lane_outputs(bank: &BatchedNetwork, lane: usize, n: usize) -> Vec<f64> {
        (0..n).map(|j| bank.output(lane, j)).collect()
    }

    #[test]
    fn shape_key_groups_initial_genomes_and_splits_mutants() {
        let cfg = cfg(3, 2);
        let nets: Vec<_> = (0..4)
            .map(|s| {
                let g = Genome::new_initial(&cfg, GenomeId(s), &mut StdRng::seed_from_u64(s));
                FeedForwardNetwork::compile(&g, &cfg)
            })
            .collect();
        let key = ShapeKey::of(&nets[0]);
        for net in &nets[1..] {
            assert_eq!(ShapeKey::of(net), key, "full-init genomes share a shape");
        }
        let mut mutant = Genome::new_initial(&cfg, GenomeId(9), &mut StdRng::seed_from_u64(9));
        mutant.mutate_add_node(&cfg, &mut StdRng::seed_from_u64(10));
        let mutant_net = FeedForwardNetwork::compile(&mutant, &cfg);
        assert_ne!(ShapeKey::of(&mutant_net), key, "add-node changes the shape");
    }

    #[test]
    fn batched_lanes_match_scalar_bit_for_bit() {
        // Same-shape genomes with different weights, across many steps:
        // every lane must agree exactly with the scalar scratch tier,
        // including the argmax tie-break.
        let cfg = cfg(5, 3);
        let genomes: Vec<_> = (0..8)
            .map(|s| Genome::new_initial(&cfg, GenomeId(s), &mut StdRng::seed_from_u64(40 + s)))
            .collect();
        let nets: Vec<_> = genomes
            .iter()
            .map(|g| FeedForwardNetwork::compile(g, &cfg))
            .collect();
        let mut bank = BatchedNetwork::from_template(&nets[0], nets.len());
        for (lane, net) in nets.iter().enumerate() {
            bank.load_lane(lane, net);
        }
        let mut scratch = Scratch::new();
        for step in 0..25 {
            let x = step as f64 / 9.0;
            let inputs = [x, -x, 0.5 * x, 1.0 - x, x * x - 2.0];
            for lane in 0..nets.len() {
                bank.set_input(lane, &inputs);
            }
            bank.activate();
            for (lane, net) in nets.iter().enumerate() {
                let scalar = net.activate_into(&inputs, &mut scratch);
                assert_eq!(
                    scalar,
                    lane_outputs(&bank, lane, 3),
                    "lane {lane} step {step}"
                );
            }
        }
    }

    #[test]
    fn heavily_mutated_topologies_batch_correctly() {
        // Load the same mutated genome (which exercises hidden nodes and,
        // with raised mutate rates, non-Sum aggregations and varied
        // activations) into several lanes alongside differently-weighted
        // clones; all lanes must match their scalar network exactly.
        let cfg = NeatConfig::builder(4, 2)
            .activation_mutate_rate(0.4)
            .aggregation_mutate_rate(0.4)
            .build()
            .unwrap();
        for seed in 0..6 {
            let mut g = Genome::new_initial(&cfg, GenomeId(0), &mut StdRng::seed_from_u64(seed));
            let mut r = StdRng::seed_from_u64(100 + seed);
            for _ in 0..50 {
                g.mutate(&cfg, &mut r);
            }
            // A weight-perturbed clone keeps the shape but not the values.
            let mut clone = g.clone();
            clone.mutate_attributes(&cfg, &mut StdRng::seed_from_u64(7));
            let nets = [
                FeedForwardNetwork::compile(&g, &cfg),
                FeedForwardNetwork::compile(&clone, &cfg),
            ];
            if ShapeKey::of(&nets[0]) != ShapeKey::of(&nets[1]) {
                continue; // weight mutation may toggle nothing structural, but skip if it did
            }
            let mut bank = BatchedNetwork::from_template(&nets[0], 2);
            bank.load_lane(0, &nets[0]);
            bank.load_lane(1, &nets[1]);
            let mut scratch = Scratch::new();
            for step in 0..15 {
                let x = step as f64 / 4.0 - 1.5;
                let inputs = [x, -x, x * 0.25, 1.0];
                bank.set_input(0, &inputs);
                bank.set_input(1, &inputs);
                bank.activate();
                for (lane, net) in nets.iter().enumerate() {
                    let scalar = net.activate_into(&inputs, &mut scratch);
                    assert_eq!(
                        scalar,
                        lane_outputs(&bank, lane, 2),
                        "seed {seed} lane {lane} step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn stale_lanes_do_not_disturb_live_lanes() {
        // Lane-streaming leaves finished lanes computing on stale inputs;
        // the live lane's results must be unaffected by what the other
        // lanes hold.
        let cfg = cfg(2, 2);
        let a = Genome::new_initial(&cfg, GenomeId(0), &mut StdRng::seed_from_u64(1));
        let b = Genome::new_initial(&cfg, GenomeId(1), &mut StdRng::seed_from_u64(2));
        let net_a = FeedForwardNetwork::compile(&a, &cfg);
        let net_b = FeedForwardNetwork::compile(&b, &cfg);
        let mut bank = BatchedNetwork::from_template(&net_a, 2);
        bank.load_lane(0, &net_a);
        bank.load_lane(1, &net_b);
        bank.set_input(0, &[0.3, -0.7]);
        bank.set_input(1, &[9.0, 9.0]);
        bank.activate();
        let mut scratch = Scratch::new();
        let live = net_a.activate_into(&[0.3, -0.7], &mut scratch).to_vec();
        assert_eq!(live, lane_outputs(&bank, 0, 2));
        // Advance only lane 1's input; lane 0 stays on its stale obs and
        // keeps producing the identical value.
        bank.set_input(1, &[-1.0, 2.0]);
        bank.activate();
        assert_eq!(live, lane_outputs(&bank, 0, 2));
    }

    #[test]
    fn reloading_a_lane_replaces_its_parameters() {
        let cfg = cfg(3, 1);
        let a = Genome::new_initial(&cfg, GenomeId(0), &mut StdRng::seed_from_u64(5));
        let b = Genome::new_initial(&cfg, GenomeId(1), &mut StdRng::seed_from_u64(6));
        let net_a = FeedForwardNetwork::compile(&a, &cfg);
        let net_b = FeedForwardNetwork::compile(&b, &cfg);
        let mut bank = BatchedNetwork::from_template(&net_a, 1);
        let mut scratch = Scratch::new();
        let inputs = [0.2, 0.4, -0.6];
        bank.load_lane(0, &net_a);
        bank.set_input(0, &inputs);
        bank.activate();
        assert_eq!(
            bank.output(0, 0),
            net_a.activate_into(&inputs, &mut scratch)[0]
        );
        bank.load_lane(0, &net_b);
        bank.activate();
        assert_eq!(
            bank.output(0, 0),
            net_b.activate_into(&inputs, &mut scratch)[0]
        );
    }

    #[test]
    #[should_panic(expected = "does not match the batch template")]
    fn shape_mismatch_panics_on_load() {
        let cfg = cfg(2, 1);
        let g = Genome::new_initial(&cfg, GenomeId(0), &mut StdRng::seed_from_u64(1));
        let mut m = g.clone();
        m.mutate_add_node(&cfg, &mut StdRng::seed_from_u64(2));
        let net = FeedForwardNetwork::compile(&g, &cfg);
        let mutant = FeedForwardNetwork::compile(&m, &cfg);
        let mut bank = BatchedNetwork::from_template(&net, 2);
        bank.load_lane(0, &mutant);
    }
}
