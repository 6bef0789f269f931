//! Binary frame codec for the CLAN cluster protocol.
//!
//! One frame is one protocol message:
//!
//! ```text
//! "CLAN"  u8 version  u8 tag  payload...
//! ```
//!
//! All integers are little-endian; floats are IEEE-754 `f64` bits. The
//! codec is transport-agnostic: a frame is a `Vec<u8>` that a
//! [`Transport`](crate::transport::Transport) moves verbatim, and
//! decoding a frame produced by [`encode`] on any platform yields a
//! bit-identical message — the wire never perturbs the deterministic
//! RNG discipline.
//!
//! Genomes travel as their full gene tables (ids, `f64` attributes,
//! transfer-function indices). The paper's analytic model charges 4
//! bytes per gene (one 32-bit datum, Table II); this real format costs
//! more per gene, and the gap — measured by
//! [`CommLedger::framing_overhead`](clan_netsim::CommLedger::framing_overhead) —
//! is exactly what `clan-netsim`'s modeled traffic understates.
//!
//! Every decode failure is a typed [`FrameError`]; malformed input must
//! never panic the runtime (pinned by proptests in `tests/net_frames.rs`).

use crate::error::FrameError;
use crate::evaluator::{EngineOptions, InferenceMode};
use clan_envs::Workload;
use clan_neat::population::Evaluation;
use clan_neat::reproduction::{ChildKind, ChildSpec};
use clan_neat::{
    Activation, Aggregation, ConnGene, ConnKey, Genome, GenomeId, NeatConfig, NodeGene, NodeId,
    SpeciesId,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Frame magic: every CLAN frame starts with these bytes.
pub const MAGIC: [u8; 4] = *b"CLAN";
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Hard ceiling on one frame's size. A length prefix above this is
/// rejected before any allocation happens, so a hostile or corrupt peer
/// cannot OOM the process.
pub const MAX_FRAME_BYTES: u64 = 64 * 1024 * 1024;
/// Bytes of length prefix the stream transports add around each frame.
pub const LENGTH_PREFIX_BYTES: u64 = 4;

/// Message tags (byte 5 of a frame).
mod tag {
    pub const CONFIGURE: u8 = 1;
    pub const EVALUATE: u8 = 2;
    pub const FITNESS: u8 = 3;
    pub const BUILD_CHILDREN: u8 = 4;
    pub const CHILDREN: u8 = 5;
    pub const SHUTDOWN: u8 = 6;
}

/// The session parameters a coordinator pushes to an agent before any
/// work: everything an agent needs to evaluate and reproduce genomes
/// exactly as the center would.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Workload every agent evaluates on.
    pub workload: Workload,
    /// Multi-step or single-step inference.
    pub mode: InferenceMode,
    /// Episodes averaged per genome evaluation.
    pub episodes: u32,
    /// Full NEAT configuration (genome compilation + reproduction).
    pub cfg: NeatConfig,
    /// Maximum batched-SoA lanes in each agent's evaluation engine
    /// (`<= 1` = scalar tier only). Defaulted for wire compatibility
    /// with peers that predate the field.
    #[serde(default = "default_batch_lanes")]
    pub batch_lanes: usize,
    /// Whether the coordinator memoizes evaluations by genome content
    /// (hits are served center-side and never reach the agents).
    #[serde(default = "default_cache")]
    pub cache: bool,
}

fn default_batch_lanes() -> usize {
    EngineOptions::default().batch_lanes
}

fn default_cache() -> bool {
    EngineOptions::default().cache
}

impl ClusterSpec {
    /// Spec with the default single episode per evaluation and default
    /// engine options (batching + caching on).
    pub fn new(workload: Workload, mode: InferenceMode, cfg: NeatConfig) -> ClusterSpec {
        ClusterSpec {
            workload,
            mode,
            episodes: 1,
            cfg,
            batch_lanes: default_batch_lanes(),
            cache: default_cache(),
        }
    }

    /// Sets the episodes averaged per evaluation.
    pub fn with_episodes(mut self, episodes: u32) -> ClusterSpec {
        self.episodes = episodes;
        self
    }

    /// Sets the evaluation-engine options (batch lanes + fitness cache).
    pub fn with_engine(mut self, options: EngineOptions) -> ClusterSpec {
        self.batch_lanes = options.batch_lanes;
        self.cache = options.cache;
        self
    }

    /// The engine options an *agent* session runs with: the spec's
    /// batching tier, caching off — the coordinator's cache filters hits
    /// before anything crosses the wire, so agents only ever see misses.
    pub fn agent_engine_options(&self) -> EngineOptions {
        EngineOptions {
            batch_lanes: self.batch_lanes,
            cache: false,
        }
    }
}

/// One genome evaluation as reported over the wire: the genome, its
/// outcome, and the compiled network's per-activation gene cost (needed
/// for the paper's Figure-3 inference accounting at the center).
pub type WireEvaluation = (GenomeId, Evaluation, u64);

/// A protocol message — the CLAN cluster's entire vocabulary.
///
/// Request/response pairing: the coordinator sends `Configure` once,
/// then any number of `Evaluate` (answered by `Fitness`) and
/// `BuildChildren` (answered by `Children`), then `Shutdown`.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Coordinator → agent, once per session: workload + NEAT config.
    /// Boxed: the config dwarfs every other variant's fixed part.
    Configure(Box<ClusterSpec>),
    /// Coordinator → agent: evaluate these genomes.
    Evaluate {
        /// Generation the genomes belong to (seeds episode RNG).
        generation: u64,
        /// The run's master seed (seeds episode RNG).
        master_seed: u64,
        /// The genomes to evaluate.
        genomes: Vec<Genome>,
    },
    /// Agent → coordinator: evaluation results, in the order received.
    Fitness(Vec<WireEvaluation>),
    /// Coordinator → agent: build these children from these parents.
    BuildChildren {
        /// Generation being reproduced (seeds reproduction RNG).
        generation: u64,
        /// The run's master seed (seeds reproduction RNG).
        master_seed: u64,
        /// Recipes for the children this agent builds.
        specs: Vec<ChildSpec>,
        /// Parent genomes the specs reference.
        parents: Vec<Genome>,
    },
    /// Agent → coordinator: the children, in spec order.
    Children(Vec<Genome>),
    /// Coordinator → agent: end the session.
    Shutdown,
}

impl WireMessage {
    /// The payload size in the analytic model's unit — 32-bit
    /// floats/genes — using the same framing constants the simulated
    /// orchestrators charge ([`crate::orchestra`]). Comparing this
    /// against the encoded frame's byte length measures real framing
    /// overhead.
    pub fn modeled_floats(&self) -> u64 {
        use crate::orchestra::{
            FITNESS_ENTRY_FLOATS, GENOME_HEADER_FLOATS, PARENT_LIST_ENTRY_FLOATS,
        };
        let genome_floats = |gs: &[Genome]| -> u64 {
            gs.iter()
                .map(|g| g.num_genes() + GENOME_HEADER_FLOATS)
                .sum()
        };
        match self {
            WireMessage::Configure(_) | WireMessage::Shutdown => 0,
            WireMessage::Evaluate { genomes, .. } => genome_floats(genomes),
            WireMessage::Fitness(results) => results.len() as u64 * FITNESS_ENTRY_FLOATS,
            WireMessage::BuildChildren { specs, parents, .. } => {
                specs.len() as u64 * PARENT_LIST_ENTRY_FLOATS + genome_floats(parents)
            }
            WireMessage::Children(children) => genome_floats(children),
        }
    }
}

// ----------------------------------------------------------------------
// Encoding
// ----------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_genome(out: &mut Vec<u8>, g: &Genome) {
    put_u64(out, g.id().0);
    match g.fitness() {
        Some(f) => {
            out.push(1);
            put_f64(out, f);
        }
        None => {
            out.push(0);
            put_f64(out, 0.0);
        }
    }
    put_u32(out, g.nodes().len() as u32);
    for (id, node) in g.nodes() {
        put_i64(out, id.0);
        put_f64(out, node.bias);
        put_f64(out, node.response);
        out.push(activation_index(node.activation));
        out.push(aggregation_index(node.aggregation));
    }
    put_u32(out, g.conns().len() as u32);
    for (key, conn) in g.conns() {
        put_i64(out, key.input.0);
        put_i64(out, key.output.0);
        put_f64(out, conn.weight);
        out.push(u8::from(conn.enabled));
    }
}

fn put_spec(out: &mut Vec<u8>, spec: &ChildSpec) {
    put_u64(out, spec.child_id.0);
    put_u32(out, spec.species.0);
    match spec.kind {
        ChildKind::Elite { source } => {
            out.push(0);
            put_u64(out, source.0);
            put_u64(out, source.0);
        }
        ChildKind::Crossover { parent1, parent2 } => {
            out.push(1);
            put_u64(out, parent1.0);
            put_u64(out, parent2.0);
        }
    }
}

fn activation_index(a: Activation) -> u8 {
    Activation::ALL
        .iter()
        .position(|&x| x == a)
        // clan-lint: allow(L1, reason="encode side: the enum value is host-built, ALL is exhaustive by its own test; not wire-derived")
        .expect("activation is in ALL") as u8
}

fn aggregation_index(a: Aggregation) -> u8 {
    Aggregation::ALL
        .iter()
        .position(|&x| x == a)
        // clan-lint: allow(L1, reason="encode side: the enum value is host-built, ALL is exhaustive by its own test; not wire-derived")
        .expect("aggregation is in ALL") as u8
}

/// Encodes one message into a frame (magic + version + tag + payload).
pub fn encode(msg: &WireMessage) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    match msg {
        WireMessage::Configure(spec) => {
            out.push(tag::CONFIGURE);
            let json =
                // clan-lint: allow(L1, reason="encode side: serializing a host-built spec struct cannot fail; not wire-derived")
                serde_json::to_string(spec.as_ref()).expect("spec serialization cannot fail");
            put_u32(&mut out, json.len() as u32);
            out.extend_from_slice(json.as_bytes());
        }
        WireMessage::Evaluate {
            generation,
            master_seed,
            genomes,
        } => {
            out.push(tag::EVALUATE);
            put_u64(&mut out, *generation);
            put_u64(&mut out, *master_seed);
            put_u32(&mut out, genomes.len() as u32);
            for g in genomes {
                put_genome(&mut out, g);
            }
        }
        WireMessage::Fitness(results) => {
            out.push(tag::FITNESS);
            put_u32(&mut out, results.len() as u32);
            for (id, eval, genes_per_activation) in results {
                put_u64(&mut out, id.0);
                put_f64(&mut out, eval.fitness);
                put_u64(&mut out, eval.activations);
                put_u64(&mut out, *genes_per_activation);
            }
        }
        WireMessage::BuildChildren {
            generation,
            master_seed,
            specs,
            parents,
        } => {
            out.push(tag::BUILD_CHILDREN);
            put_u64(&mut out, *generation);
            put_u64(&mut out, *master_seed);
            put_u32(&mut out, specs.len() as u32);
            for spec in specs {
                put_spec(&mut out, spec);
            }
            put_u32(&mut out, parents.len() as u32);
            for g in parents {
                put_genome(&mut out, g);
            }
        }
        WireMessage::Children(children) => {
            out.push(tag::CHILDREN);
            put_u32(&mut out, children.len() as u32);
            for g in children {
                put_genome(&mut out, g);
            }
        }
        WireMessage::Shutdown => out.push(tag::SHUTDOWN),
    }
    out
}

// ----------------------------------------------------------------------
// Decoding
// ----------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        // clan-lint: allow(L1, reason="bounds checked immediately above; every other reader routes through here")
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes exactly `N` bytes as an array — the panic-free spine of
    /// every fixed-width reader below.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn i64(&mut self) -> Result<i64, FrameError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Bounds a declared element count by what the remaining bytes could
    /// possibly hold, so a corrupt count fails fast instead of reserving
    /// gigabytes.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, FrameError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(FrameError::Truncated {
                needed: n.saturating_mul(min_elem_bytes),
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }
}

fn get_genome(r: &mut Reader<'_>) -> Result<Genome, FrameError> {
    let id = GenomeId(r.u64()?);
    let has_fitness = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(FrameError::BadValue("fitness flag")),
    };
    let fitness = r.f64()?;
    let n_nodes = r.count(26)?;
    let mut nodes = BTreeMap::new();
    for _ in 0..n_nodes {
        let nid = NodeId(r.i64()?);
        let bias = r.f64()?;
        let response = r.f64()?;
        let act = r.u8()? as usize;
        let agg = r.u8()? as usize;
        let gene = NodeGene {
            bias,
            response,
            activation: *Activation::ALL
                .get(act)
                .ok_or(FrameError::BadValue("activation index"))?,
            aggregation: *Aggregation::ALL
                .get(agg)
                .ok_or(FrameError::BadValue("aggregation index"))?,
        };
        nodes.insert(nid, gene);
    }
    let n_conns = r.count(25)?;
    let mut conns = BTreeMap::new();
    for _ in 0..n_conns {
        let input = NodeId(r.i64()?);
        let output = NodeId(r.i64()?);
        let weight = r.f64()?;
        let enabled = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(FrameError::BadValue("enabled flag")),
        };
        conns.insert(ConnKey::new(input, output), ConnGene { weight, enabled });
    }
    let mut g = Genome::from_parts(id, nodes, conns);
    if has_fitness {
        g.set_fitness(fitness);
    }
    Ok(g)
}

fn get_spec(r: &mut Reader<'_>) -> Result<ChildSpec, FrameError> {
    let child_id = GenomeId(r.u64()?);
    let species = SpeciesId(r.u32()?);
    let kind_tag = r.u8()?;
    let a = GenomeId(r.u64()?);
    let b = GenomeId(r.u64()?);
    let kind = match kind_tag {
        0 => ChildKind::Elite { source: a },
        1 => ChildKind::Crossover {
            parent1: a,
            parent2: b,
        },
        _ => return Err(FrameError::BadValue("child kind")),
    };
    Ok(ChildSpec {
        child_id,
        species,
        kind,
    })
}

/// Decodes one frame into a message.
///
/// # Errors
///
/// A typed [`FrameError`] on any malformation: wrong magic, unknown
/// version or tag, truncated structures, out-of-domain fields, or
/// trailing bytes.
pub fn decode(frame: &[u8]) -> Result<WireMessage, FrameError> {
    let mut r = Reader::new(frame);
    if r.take(4)? != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let tag = r.u8()?;
    let msg = match tag {
        tag::CONFIGURE => {
            let len = r.count(1)?;
            let bytes = r.take(len)?;
            let json =
                std::str::from_utf8(bytes).map_err(|_| FrameError::BadValue("spec utf-8"))?;
            let spec: ClusterSpec =
                serde_json::from_str(json).map_err(|_| FrameError::BadValue("spec json"))?;
            WireMessage::Configure(Box::new(spec))
        }
        tag::EVALUATE => {
            let generation = r.u64()?;
            let master_seed = r.u64()?;
            let n = r.count(17)?;
            let genomes = (0..n)
                .map(|_| get_genome(&mut r))
                .collect::<Result<Vec<_>, _>>()?;
            WireMessage::Evaluate {
                generation,
                master_seed,
                genomes,
            }
        }
        tag::FITNESS => {
            let n = r.count(32)?;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                let id = GenomeId(r.u64()?);
                let fitness = r.f64()?;
                let activations = r.u64()?;
                let genes_per_activation = r.u64()?;
                results.push((
                    id,
                    Evaluation {
                        fitness,
                        activations,
                    },
                    genes_per_activation,
                ));
            }
            WireMessage::Fitness(results)
        }
        tag::BUILD_CHILDREN => {
            let generation = r.u64()?;
            let master_seed = r.u64()?;
            let n_specs = r.count(29)?;
            let specs = (0..n_specs)
                .map(|_| get_spec(&mut r))
                .collect::<Result<Vec<_>, _>>()?;
            let n_parents = r.count(17)?;
            let parents = (0..n_parents)
                .map(|_| get_genome(&mut r))
                .collect::<Result<Vec<_>, _>>()?;
            WireMessage::BuildChildren {
                generation,
                master_seed,
                specs,
                parents,
            }
        }
        tag::CHILDREN => {
            let n = r.count(17)?;
            let children = (0..n)
                .map(|_| get_genome(&mut r))
                .collect::<Result<Vec<_>, _>>()?;
            WireMessage::Children(children)
        }
        tag::SHUTDOWN => WireMessage::Shutdown,
        other => return Err(FrameError::BadTag(other)),
    };
    if r.remaining() != 0 {
        return Err(FrameError::TrailingBytes(r.remaining()));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spec_from_a_peer_predating_the_engine_fields_gets_the_engine_defaults() {
        use serde::{Deserialize, Serialize, Value};
        let cfg = NeatConfig::builder(4, 2).build().unwrap();
        let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, cfg).with_engine(
            EngineOptions {
                batch_lanes: 7,
                cache: false,
            },
        );
        let Value::Map(mut entries) = spec.to_value() else {
            panic!("named structs serialize as maps");
        };
        entries.retain(|(key, _)| key != "batch_lanes" && key != "cache");
        let decoded = ClusterSpec::from_value(&Value::Map(entries)).unwrap();
        // `#[serde(default = "path")]`, not `Default::default()`: an old
        // peer's spec means "engine defaults", never 0 lanes / no cache.
        assert_eq!(decoded.batch_lanes, EngineOptions::default().batch_lanes);
        assert_eq!(decoded.cache, EngineOptions::default().cache);
        assert_eq!((decoded.batch_lanes, decoded.cache), (32, true));
    }

    fn sample_genomes(n: usize) -> (NeatConfig, Vec<Genome>) {
        let cfg = NeatConfig::builder(4, 2)
            .population_size(8)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let genomes = (0..n)
            .map(|i| {
                let mut g = Genome::new_initial(&cfg, GenomeId(i as u64), &mut rng);
                for _ in 0..i {
                    g.mutate(&cfg, &mut rng);
                }
                if i % 2 == 0 {
                    g.set_fitness(i as f64 * 1.5 - 3.0);
                }
                g
            })
            .collect();
        (cfg, genomes)
    }

    #[test]
    fn genome_messages_round_trip_bit_identically() {
        let (_, genomes) = sample_genomes(5);
        let msg = WireMessage::Evaluate {
            generation: 7,
            master_seed: 0xDEADBEEF,
            genomes,
        };
        let back = decode(&encode(&msg)).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn all_message_kinds_round_trip() {
        let (cfg, genomes) = sample_genomes(3);
        let spec =
            ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, cfg).with_episodes(3);
        let msgs = vec![
            WireMessage::Configure(Box::new(spec)),
            WireMessage::Fitness(vec![
                (
                    GenomeId(1),
                    Evaluation {
                        fitness: 1.25,
                        activations: 200,
                    },
                    11,
                ),
                (
                    GenomeId(9),
                    Evaluation {
                        fitness: -0.5,
                        activations: 1,
                    },
                    3,
                ),
            ]),
            WireMessage::BuildChildren {
                generation: 3,
                master_seed: 99,
                specs: vec![
                    ChildSpec {
                        child_id: GenomeId(50),
                        species: SpeciesId(2),
                        kind: ChildKind::Elite {
                            source: GenomeId(1),
                        },
                    },
                    ChildSpec {
                        child_id: GenomeId(51),
                        species: SpeciesId(2),
                        kind: ChildKind::Crossover {
                            parent1: GenomeId(1),
                            parent2: GenomeId(2),
                        },
                    },
                ],
                parents: genomes.clone(),
            },
            WireMessage::Children(genomes),
            WireMessage::Shutdown,
        ];
        for msg in msgs {
            assert_eq!(decode(&encode(&msg)).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn bad_magic_version_and_tag_are_typed_errors() {
        let mut frame = encode(&WireMessage::Shutdown);
        frame[0] = b'X';
        assert_eq!(decode(&frame), Err(FrameError::BadMagic));

        let mut frame = encode(&WireMessage::Shutdown);
        frame[4] = 200;
        assert_eq!(decode(&frame), Err(FrameError::BadVersion(200)));

        let mut frame = encode(&WireMessage::Shutdown);
        frame[5] = 99;
        assert_eq!(decode(&frame), Err(FrameError::BadTag(99)));
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error_not_a_panic() {
        let (_, genomes) = sample_genomes(4);
        let frame = encode(&WireMessage::Evaluate {
            generation: 1,
            master_seed: 2,
            genomes,
        });
        for cut in 0..frame.len() {
            let r = decode(&frame[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
        }
        assert!(decode(&frame).is_ok());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = encode(&WireMessage::Shutdown);
        frame.push(0);
        assert_eq!(decode(&frame), Err(FrameError::TrailingBytes(1)));
    }

    #[test]
    fn hostile_count_fails_fast_without_allocation() {
        // A Fitness frame announcing u32::MAX entries but carrying none.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.push(3); // FITNESS
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&frame), Err(FrameError::Truncated { .. })));
    }

    #[test]
    fn modeled_floats_match_orchestra_constants() {
        let (_, genomes) = sample_genomes(2);
        let genes: u64 = genomes.iter().map(Genome::num_genes).sum();
        let msg = WireMessage::Evaluate {
            generation: 0,
            master_seed: 0,
            genomes,
        };
        assert_eq!(msg.modeled_floats(), genes + 2 * 2);
        assert_eq!(WireMessage::Shutdown.modeled_floats(), 0);
    }
}
