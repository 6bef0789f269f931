//! Binary frame codec for the CLAN cluster protocol (wire version 3).
//!
//! One frame is one protocol message:
//!
//! ```text
//! "CLAN"  u8 version  u8 tag  payload...
//! ```
//!
//! Fixed-width integers are little-endian; floats are IEEE-754 `f64`
//! bits. The codec is transport-agnostic: a frame is a `Vec<u8>` that a
//! [`Transport`](crate::transport::Transport) moves verbatim, and
//! decoding a frame produced by [`encode`] on any platform yields a
//! bit-identical message — the wire never perturbs the deterministic
//! RNG discipline.
//!
//! # Genomes are sorted runs
//!
//! A genome's node and connection tables ([`clan_neat::GeneTable`]) are
//! key-ascending runs when they reach the encoder. The format spends that
//! order instead of repeating it: keys travel as the *difference* to
//! the previous key in a LEB128 varint (7 bits per byte, low group
//! first, at most 10 bytes), which for the dense ids of a NEAT genome
//! is one byte where version 1 wrote an absolute `i64` (two per
//! connection). `zz` below is a zig-zag varint (`(v << 1) ^ (v >> 63)`)
//! for the values that can be negative.
//!
//! | field | encoding | notes |
//! |---|---|---|
//! | genome id | varint | |
//! | flags | `u8` | bit 0: a fitness follows; other bits must be 0 |
//! | fitness | `f64` | only when flagged |
//! | node count | varint | |
//! | node id | first: `zz` absolute; then: varint `id − prev`, ≥ 1 | per node |
//! | bias, response | `f64`, `f64` | |
//! | connection count | varint | |
//! | input | first: `zz` absolute; then: varint `input − prev`, ≥ 0 | per connection |
//! | output | first of an input's run: `zz` absolute; within the run: varint `output − prev`, ≥ 1 | a run is the connections sharing one input (`input − prev = 0`) |
//! | weight | `f64` | |
//! | enabled | `⌈count / 8⌉` bytes after the last connection | bit `i % 8` of byte `i / 8`, padding bits 0 |
//!
//! **Ordering invariant.** The decoder accepts only strictly ascending
//! keys — nodes by id, connections by `(input, output)`. A zero delta
//! where a key must advance (a duplicate, which version 1 silently
//! collapsed into one gene), a delta that carries past `i64::MAX`, a
//! varint longer than 10 bytes or overflowing `u64`, and set padding
//! bits are each a [`FrameError::BadValue`]; out-of-order keys are
//! unrepresentable. Because the keys are proven sorted, each decoded
//! `Vec` becomes its gene table as it stands; nothing is rebuilt.
//! Every declared count is bounded by the bytes that remain (at the
//! per-element minimum: 17 per node, 10 per connection, 4 per genome)
//! before anything is reserved for it.
//!
//! **Floats stay verbatim.** Bit-identity across the wire is what the
//! equivalence suites rest on (a child rebuilt on an agent must hash
//! like the one built centrally), and about 90 % of a child's weights
//! differ from both parents (`weight.mutate_rate` 0.8 + `replace_rate`
//! 0.1), so there is nothing lossless left to take from them: no
//! quantisation, no parent deltas.
//!
//! **What it costs.** The paper's analytic model charges 4 bytes per
//! gene (one 32-bit datum, Table II). Version 1 cost 25 bytes per
//! connection, 6.2× the model; this format costs 10⅛ for an
//! input-to-output connection and 17 for a node (version 2 wrote two
//! more bytes of transfer-function tags), 2.5× the model on the
//! benchmark's Alien-ram genomes (23.6 kB instead of 58.1 kB) — of
//! which 2.0× is the `f64` the model counts as 4 bytes. The gap is
//! measured by
//! [`CommLedger::framing_overhead`](clan_netsim::CommLedger::framing_overhead)
//! and is exactly what `clan-netsim`'s modeled traffic understates.
//!
//! `Configure`, `Fitness` and the child specs of `BuildChildren` are
//! fixed-width and unchanged from version 1. Every decode failure is a
//! typed [`FrameError`]; malformed input must never panic the runtime
//! (pinned by the tests below and the proptests in
//! `tests/net_frames.rs`).

use crate::error::FrameError;
use crate::evaluator::{EngineOptions, InferenceMode};
use clan_envs::Workload;
use clan_neat::population::Evaluation;
use clan_neat::reproduction::{ChildKind, ChildSpec};
use clan_neat::{ConnGene, ConnKey, Genome, GenomeId, NeatConfig, NodeGene, NodeId, SpeciesId};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Frame magic: every CLAN frame starts with these bytes.
pub const MAGIC: [u8; 4] = *b"CLAN";
/// Protocol version this build speaks: 3 since node genes stopped
/// carrying transfer functions (version 2 wrote two bytes for them).
pub const VERSION: u8 = 3;
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
    /// Whether the coordinator memoizes evaluations by genome content
    /// (hits are served center-side and never reach the agents).
    #[serde(default = "default_cache")]
    pub cache: bool,
}

fn default_cache() -> bool {
    EngineOptions::default().cache
}

impl ClusterSpec {
    /// Spec with the default single episode per evaluation and default
    /// engine options (caching on).
    pub fn new(workload: Workload, mode: InferenceMode, cfg: NeatConfig) -> ClusterSpec {
        ClusterSpec {
            workload,
            mode,
            episodes: 1,
            cfg,
            cache: default_cache(),
        }
    }

    /// Sets the episodes averaged per evaluation.
    pub fn with_episodes(mut self, episodes: u32) -> ClusterSpec {
        self.episodes = episodes;
        self
    }

    /// Sets the evaluation-engine options (the fitness cache).
    pub fn with_engine(mut self, options: EngineOptions) -> ClusterSpec {
        self.cache = options.cache;
        self
    }

    /// The engine options an *agent* session runs with: caching off —
    /// the coordinator's cache filters hits before anything crosses the
    /// wire, so agents only ever see misses.
    pub fn agent_engine_options(&self) -> EngineOptions {
        EngineOptions {
            cache: false,
            ..EngineOptions::default()
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
        match self {
            WireMessage::Configure(_) | WireMessage::Shutdown => 0,
            WireMessage::Evaluate { genomes, .. } => request_floats(&[], genomes),
            WireMessage::Fitness(results) => {
                results.len() as u64 * crate::orchestra::FITNESS_ENTRY_FLOATS
            }
            WireMessage::BuildChildren { specs, parents, .. } => request_floats(specs, parents),
            WireMessage::Children(children) => request_floats(&[], children),
        }
    }
}

/// A request's size in the analytic model's floats: a parent-list entry
/// per spec, and genes plus a header per genome.
pub(crate) fn request_floats<G: Borrow<Genome>>(specs: &[ChildSpec], genomes: &[G]) -> u64 {
    use crate::orchestra::{GENOME_HEADER_FLOATS, PARENT_LIST_ENTRY_FLOATS};
    let floats = |g: &G| g.borrow().num_genes() + GENOME_HEADER_FLOATS;
    specs.len() as u64 * PARENT_LIST_ENTRY_FLOATS + genomes.iter().map(floats).sum::<u64>()
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

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// LEB128: 7 bits per byte, low group first, high bit = "more follow".
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Zig-zag varint: small magnitudes of either sign stay short.
fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// The distance from `prev` up to `next`; exact over the whole `i64`
/// range because the tables are ascending (`next >= prev`).
fn key_delta(prev: i64, next: i64) -> u64 {
    next.wrapping_sub(prev) as u64
}

/// Minimum encoded size of one genome, node and connection — what a
/// declared count is checked against before anything is reserved.
const MIN_GENOME_BYTES: usize = 4;
const MIN_NODE_BYTES: usize = 17;
const MIN_CONN_BYTES: usize = 10;

/// A close guess at `put_genome`'s output for `g` (an upper bound while
/// every key delta fits one byte), so `encode` allocates once.
fn genome_size_hint(g: &Genome) -> usize {
    32 + g.nodes().len() * MIN_NODE_BYTES + g.conns().len() * (MIN_CONN_BYTES + 1)
}

fn put_genome(out: &mut Vec<u8>, g: &Genome) {
    put_varint(out, g.id().0);
    match g.fitness() {
        Some(f) => {
            out.push(1);
            put_f64(out, f);
        }
        None => out.push(0),
    }
    put_varint(out, g.nodes().len() as u64);
    let mut prev = None;
    for (id, node) in g.nodes().as_slice() {
        match prev {
            None => put_zigzag(out, id.0),
            Some(p) => put_varint(out, key_delta(p, id.0)),
        }
        prev = Some(id.0);
        put_f64(out, node.bias);
        put_f64(out, node.response);
    }
    put_varint(out, g.conns().len() as u64);
    // Gathered in the same walk, written after it.
    let mut enabled = vec![0u8; g.conns().len().div_ceil(8)];
    let mut prev = None;
    for (i, (key, conn)) in g.conns().as_slice().iter().enumerate() {
        let (input, output) = (key.input.0, key.output.0);
        match prev {
            None => {
                put_zigzag(out, input);
                put_zigzag(out, output);
            }
            Some((p_in, p_out)) => {
                put_varint(out, key_delta(p_in, input));
                if p_in == input {
                    put_varint(out, key_delta(p_out, output));
                } else {
                    put_zigzag(out, output);
                }
            }
        }
        prev = Some((input, output));
        put_f64(out, conn.weight);
        if let Some(byte) = enabled.get_mut(i / 8) {
            *byte |= u8::from(conn.enabled) << (i % 8);
        }
    }
    out.extend_from_slice(&enabled);
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

/// Opens a frame (magic + version + tag) with room for `genomes`.
fn frame<G: Borrow<Genome>>(tag: u8, genomes: &[G]) -> Vec<u8> {
    let hint: usize = genomes.iter().map(|g| genome_size_hint(g.borrow())).sum();
    let mut out = Vec::with_capacity(64 + hint);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&[VERSION, tag]);
    out
}

fn put_genomes<G: Borrow<Genome>>(out: &mut Vec<u8>, genomes: &[G]) {
    put_u32(out, genomes.len() as u32);
    for g in genomes {
        put_genome(out, g.borrow());
    }
}

/// Encodes an [`Evaluate`](WireMessage::Evaluate) frame from genomes the
/// caller only borrows (`&[Genome]` or `&[&Genome]`): [`encode`]'s bytes
/// without the owned message, so a scatter never clones a genome to send.
pub fn encode_evaluate<G: Borrow<Genome>>(
    generation: u64,
    master_seed: u64,
    genomes: &[G],
) -> Vec<u8> {
    let mut out = frame(tag::EVALUATE, genomes);
    put_u64(&mut out, generation);
    put_u64(&mut out, master_seed);
    put_genomes(&mut out, genomes);
    out
}

/// [`encode_evaluate`]'s counterpart for
/// [`BuildChildren`](WireMessage::BuildChildren).
pub fn encode_build_children<G: Borrow<Genome>>(
    generation: u64,
    master_seed: u64,
    specs: &[ChildSpec],
    parents: &[G],
) -> Vec<u8> {
    let mut out = frame(tag::BUILD_CHILDREN, parents);
    put_u64(&mut out, generation);
    put_u64(&mut out, master_seed);
    put_u32(&mut out, specs.len() as u32);
    for spec in specs {
        put_spec(&mut out, spec);
    }
    put_genomes(&mut out, parents);
    out
}

/// Encodes one message into a frame (magic + version + tag + payload).
pub fn encode(msg: &WireMessage) -> Vec<u8> {
    match msg {
        WireMessage::Configure(spec) => {
            let mut out = frame::<Genome>(tag::CONFIGURE, &[]);
            #[expect(
                clippy::expect_used,
                reason = "encode side: serializing a host-built spec struct cannot fail; not wire-derived"
            )]
            let json =
                serde_json::to_string(spec.as_ref()).expect("spec serialization cannot fail");
            put_u32(&mut out, json.len() as u32);
            out.extend_from_slice(json.as_bytes());
            out
        }
        WireMessage::Evaluate {
            generation,
            master_seed,
            genomes,
        } => encode_evaluate(*generation, *master_seed, genomes),
        WireMessage::Fitness(results) => {
            let mut out = frame::<Genome>(tag::FITNESS, &[]);
            put_u32(&mut out, results.len() as u32);
            for (id, eval, genes_per_activation) in results {
                put_u64(&mut out, id.0);
                put_f64(&mut out, eval.fitness);
                put_u64(&mut out, eval.activations);
                put_u64(&mut out, *genes_per_activation);
            }
            out
        }
        WireMessage::BuildChildren {
            generation,
            master_seed,
            specs,
            parents,
        } => encode_build_children(*generation, *master_seed, specs, parents),
        WireMessage::Children(children) => {
            let mut out = frame(tag::CHILDREN, children);
            put_genomes(&mut out, children);
            out
        }
        WireMessage::Shutdown => frame::<Genome>(tag::SHUTDOWN, &[]),
    }
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
        #[expect(
            clippy::indexing_slicing,
            reason = "bounds checked immediately above; every other reader routes through here"
        )]
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

    /// LEB128 varint: at most 10 bytes, the tenth carrying only bit 63.
    fn varint(&mut self) -> Result<u64, FrameError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let group = u64::from(byte & 0x7F);
            if shift == 63 && group > 1 {
                return Err(FrameError::BadValue("varint overflows u64"));
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(FrameError::BadValue("varint longer than 10 bytes"))
    }

    fn zigzag(&mut self) -> Result<i64, FrameError> {
        let v = self.varint()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Bounds a declared element count by what the remaining bytes could
    /// possibly hold, so a corrupt count fails fast instead of reserving
    /// gigabytes.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, FrameError> {
        let n = self.u32()? as usize;
        self.fits(n, min_elem_bytes)
    }

    /// [`count`](Self::count) for a count that travels as a varint.
    fn varint_count(&mut self, min_elem_bytes: usize) -> Result<usize, FrameError> {
        let n = usize::try_from(self.varint()?).unwrap_or(usize::MAX);
        self.fits(n, min_elem_bytes)
    }

    fn fits(&self, n: usize, min_elem_bytes: usize) -> Result<usize, FrameError> {
        let needed = n.saturating_mul(min_elem_bytes);
        if needed > self.remaining() {
            return Err(FrameError::Truncated {
                needed,
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }
}

/// The key `delta` above `prev` — `what` names the key in the error when
/// it would not fit an `i64`.
fn key_after(prev: i64, delta: u64, what: &'static str) -> Result<i64, FrameError> {
    prev.checked_add_unsigned(delta)
        .ok_or(FrameError::BadValue(what))
}

fn get_genome(r: &mut Reader<'_>) -> Result<Genome, FrameError> {
    let id = GenomeId(r.varint()?);
    let fitness = match r.u8()? {
        0 => None,
        1 => Some(r.f64()?),
        _ => return Err(FrameError::BadValue("genome flags")),
    };
    let n_nodes = r.varint_count(MIN_NODE_BYTES)?;
    let mut nodes = Vec::with_capacity(n_nodes);
    let mut prev = None;
    for _ in 0..n_nodes {
        let nid = match prev {
            None => r.zigzag()?,
            Some(p) => match r.varint()? {
                0 => return Err(FrameError::BadValue("duplicate node id")),
                delta => key_after(p, delta, "node id overflows i64")?,
            },
        };
        prev = Some(nid);
        let gene = NodeGene {
            bias: r.f64()?,
            response: r.f64()?,
        };
        nodes.push((NodeId(nid), gene));
    }
    let n_conns = r.varint_count(MIN_CONN_BYTES)?;
    let mut conns = Vec::with_capacity(n_conns);
    let mut prev = None;
    for _ in 0..n_conns {
        let key = match prev {
            None => (r.zigzag()?, r.zigzag()?),
            Some((input, output)) => match r.varint()? {
                // Same input: the run goes on, the output must advance.
                0 => match r.varint()? {
                    0 => return Err(FrameError::BadValue("duplicate connection key")),
                    delta => (
                        input,
                        key_after(output, delta, "connection output overflows i64")?,
                    ),
                },
                delta => (
                    key_after(input, delta, "connection input overflows i64")?,
                    r.zigzag()?,
                ),
            },
        };
        prev = Some(key);
        let gene = ConnGene {
            weight: r.f64()?,
            enabled: false,
        };
        conns.push((ConnKey::new(NodeId(key.0), NodeId(key.1)), gene));
    }
    let enabled = r.take(n_conns.div_ceil(8))?;
    for (run, &byte) in conns.chunks_mut(8).zip(enabled) {
        if run.len() < 8 && byte >> run.len() != 0 {
            return Err(FrameError::BadValue("enabled padding bits"));
        }
        for (bit, (_, gene)) in run.iter_mut().enumerate() {
            gene.enabled = byte >> bit & 1 == 1;
        }
    }
    // Strictly ascending by construction: each run becomes its table as it stands.
    let mut g = Genome::from_sorted_runs(id, nodes, conns)
        .map_err(|_| FrameError::BadValue("gene keys not ascending"))?;
    if let Some(fitness) = fitness {
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
            let n = r.count(MIN_GENOME_BYTES)?;
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
            let n_parents = r.count(MIN_GENOME_BYTES)?;
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
            let n = r.count(MIN_GENOME_BYTES)?;
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
    fn spec_from_a_peer_predating_the_cache_field_gets_the_engine_default() {
        use serde::{Deserialize, Serialize, Value};
        let cfg = NeatConfig::builder(4, 2).build().unwrap();
        let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, cfg).with_engine(
            EngineOptions {
                cache: false,
                ..EngineOptions::default()
            },
        );
        let Value::Map(mut entries) = spec.to_value() else {
            panic!("named structs serialize as maps");
        };
        entries.retain(|(key, _)| key != "cache");
        let decoded = ClusterSpec::from_value(&Value::Map(entries)).unwrap();
        // `#[serde(default = "path")]`, not `Default::default()`: an old
        // peer's spec means "engine defaults", never "no cache".
        assert_eq!(decoded.cache, EngineOptions::default().cache);
        assert!(decoded.cache);
    }

    #[test]
    fn configure_from_a_peer_still_sending_batch_lanes_decodes() {
        // Older coordinators sent the SoA lane count in the spec; the key
        // is ignored now, and the rest of the spec still arrives intact.
        let cfg = NeatConfig::builder(4, 2).build().unwrap();
        let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, cfg)
            .with_episodes(3)
            .with_engine(EngineOptions {
                cache: false,
                ..EngineOptions::default()
            });
        let json = serde_json::to_string(&spec).unwrap();
        let old = json.replacen('{', "{\"batch_lanes\":7,", 1);
        assert!(old.contains("\"batch_lanes\":7"), "{old}");
        let mut frame = encode(&WireMessage::Configure(Box::new(spec.clone())));
        let header = frame.len() - 4 - json.len();
        frame.truncate(header);
        frame.extend_from_slice(&(old.len() as u32).to_le_bytes());
        frame.extend_from_slice(old.as_bytes());
        assert_eq!(
            decode(&frame).unwrap(),
            WireMessage::Configure(Box::new(spec))
        );
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

        // Version 2 frames carried two transfer-function bytes per node.
        for version in [2, 200] {
            let mut frame = encode(&WireMessage::Shutdown);
            frame[4] = version;
            assert_eq!(decode(&frame), Err(FrameError::BadVersion(version)));
        }

        let mut frame = encode(&WireMessage::Shutdown);
        frame[5] = 99;
        assert_eq!(decode(&frame), Err(FrameError::BadTag(99)));
    }

    /// The genome the golden frame pins: two inputs, output 0 and one
    /// hash-range hidden node, an input run of two, a disabled gene.
    fn golden_genome() -> Genome {
        let hidden = NodeId(NodeId::DERIVED_FLOOR + 5);
        let node = |bias| NodeGene {
            bias,
            response: 1.0,
        };
        let conn = |i, o, weight, enabled| (ConnKey::new(i, o), ConnGene { weight, enabled });
        let mut g = Genome::from_parts(
            GenomeId(300),
            [(NodeId(0), node(0.5)), (hidden, node(-2.0))]
                .into_iter()
                .collect(),
            [
                conn(NodeId(-2), NodeId(0), -1.0, true),
                conn(NodeId(-1), NodeId(0), 0.25, false),
                conn(NodeId(-1), hidden, 1.0, true),
                conn(hidden, NodeId(0), 2.0, true),
            ]
            .into_iter()
            .collect(),
        );
        g.set_fitness(1.5);
        g
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn golden_frame_pins_the_v3_layout() {
        let frame = encode(&WireMessage::Children(vec![golden_genome()]));
        let expected = concat!(
            "434c414e0305",                               // "CLAN", version 3, CHILDREN
            "01000000",                                   // one genome
            "ac0201000000000000f83f",                     // id 300; flags: fitness; 1.5
            "02",                                         // two nodes
            "00000000000000e03f000000000000f03f",         // n0: 0.5, 1.0
            "858080801000000000000000c0000000000000f03f", // +(2^32 + 5): -2.0, 1.0
            "04",                                         // four connections
            "0300000000000000f0bf",                       // zz(-2), zz(0): -1.0
            "0100000000000000d03f",                       // input +1, new run, zz(0): 0.25
            "008580808010000000000000f03f",               // same input, output +(2^32 + 5): 1.0
            "8680808010000000000000000040",               // input +(2^32 + 6), zz(0): 2.0
            "0d"                                          // enabled 0b1101, padding clear
        );
        assert_eq!(hex(&frame), expected);
        assert_eq!(
            decode(&frame).unwrap(),
            WireMessage::Children(vec![golden_genome()])
        );
    }

    /// An `Evaluate` frame around one hand-assembled genome body.
    fn evaluate_frame(genome_body: &[u8]) -> Vec<u8> {
        let mut frame = MAGIC.to_vec();
        frame.extend_from_slice(&[VERSION, tag::EVALUATE]);
        frame.extend_from_slice(&[0; 16]); // generation, master seed
        put_u32(&mut frame, 1);
        frame.extend_from_slice(genome_body);
        frame
    }

    /// A genome body: id 1, no fitness, then the two tables as given.
    /// `nodes` and `conns` are `(declared count, bytes)`.
    fn genome_body(nodes: (u64, &[u8]), conns: (u64, &[u8]), enabled: &[u8]) -> Vec<u8> {
        let mut body = vec![1, 0];
        for (count, bytes) in [nodes, conns] {
            put_varint(&mut body, count);
            body.extend_from_slice(bytes);
        }
        body.extend_from_slice(enabled);
        body
    }

    /// `key` followed by zeroed attributes: a node (bias, response,
    /// Sigmoid, Sum) or a connection (weight).
    fn gene(key: &[u8], attr_bytes: usize) -> Vec<u8> {
        let mut bytes = key.to_vec();
        bytes.resize(key.len() + attr_bytes, 0);
        bytes
    }

    fn zz(v: i64) -> Vec<u8> {
        let mut out = Vec::new();
        put_zigzag(&mut out, v);
        out
    }

    /// Decodes a frame whose genome has the given node keys (first one
    /// zig-zag, then deltas) and no connections.
    fn decode_nodes(keys: &[&[u8]]) -> Result<WireMessage, FrameError> {
        let nodes: Vec<u8> = keys.iter().flat_map(|k| gene(k, 16)).collect();
        decode(&evaluate_frame(&genome_body(
            (keys.len() as u64, &nodes),
            (0, &[]),
            &[],
        )))
    }

    /// The same for connection keys, all genes enabled.
    fn decode_conns(keys: &[&[u8]], enabled: &[u8]) -> Result<WireMessage, FrameError> {
        let conns: Vec<u8> = keys.iter().flat_map(|k| gene(k, 8)).collect();
        decode(&evaluate_frame(&genome_body(
            (0, &[]),
            (keys.len() as u64, &conns),
            enabled,
        )))
    }

    #[test]
    fn hand_assembled_genomes_decode() {
        // The helpers build what the encoder would: the hostile cases
        // below differ from these by exactly the fault they name.
        let nodes = decode_nodes(&[&zz(-3), &[3], &[1]]).unwrap();
        let conns = decode_conns(&[&[zz(-2), zz(7)].concat(), &[0, 1], &[1, 0]], &[0b101]).unwrap();
        let genome = |msg: WireMessage| match msg {
            WireMessage::Evaluate { mut genomes, .. } => genomes.remove(0),
            other => panic!("{other:?}"),
        };
        let ids: Vec<i64> = genome(nodes).nodes().keys().map(|n| n.0).collect();
        assert_eq!(ids, [-3, 0, 1]);
        let conns: Vec<(i64, i64, bool)> = genome(conns)
            .conns()
            .iter()
            .map(|(k, c)| (k.input.0, k.output.0, c.enabled))
            .collect();
        assert_eq!(conns, [(-2, 7, true), (-2, 8, false), (-1, 0, true)]);
    }

    #[test]
    fn duplicate_keys_are_rejected_not_collapsed() {
        // Version 1 decoded a repeated key by overwriting the gene, so
        // the genome came out shorter than its declared count. Here a
        // repeat can only be spelled as a zero delta.
        assert_eq!(
            decode_nodes(&[&zz(0), &[0]]),
            Err(FrameError::BadValue("duplicate node id"))
        );
        assert_eq!(
            decode_conns(&[&[zz(-1), zz(0)].concat(), &[0, 0]], &[0b11]),
            Err(FrameError::BadValue("duplicate connection key"))
        );
    }

    #[test]
    fn key_deltas_past_the_id_space_are_rejected() {
        let max = zz(i64::MAX);
        assert_eq!(
            decode_nodes(&[&max, &[1]]),
            Err(FrameError::BadValue("node id overflows i64"))
        );
        assert_eq!(
            decode_conns(&[&[max.clone(), zz(0)].concat(), &[1, 0]], &[0b11]),
            Err(FrameError::BadValue("connection input overflows i64"))
        );
        assert_eq!(
            decode_conns(&[&[zz(0), max].concat(), &[0, 1]], &[0b11]),
            Err(FrameError::BadValue("connection output overflows i64"))
        );
        // The widest legal step spans the whole id space.
        let mut full_span = Vec::new();
        put_varint(&mut full_span, u64::MAX);
        assert!(decode_nodes(&[&zz(i64::MIN), &full_span]).is_ok());
    }

    #[test]
    fn malformed_varints_are_rejected() {
        // Ten continuation bytes promise an eleventh.
        let mut eleven = vec![0x80; 10];
        eleven.push(0);
        assert_eq!(
            decode_nodes(&[&eleven]),
            Err(FrameError::BadValue("varint longer than 10 bytes"))
        );
        // Ten bytes whose last carries more than bit 63.
        let mut wide = vec![0xFF; 9];
        wide.push(0x02);
        assert_eq!(
            decode_nodes(&[&wide]),
            Err(FrameError::BadValue("varint overflows u64"))
        );
        // u64::MAX itself is fine: zig-zag of i64::MIN.
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        assert_eq!(max, zz(i64::MIN));
        assert!(decode_nodes(&[&max]).is_ok());
    }

    #[test]
    fn set_padding_bits_and_unknown_flags_are_rejected() {
        let key = [zz(-1), zz(0)].concat();
        assert!(decode_conns(&[&key], &[0b1]).is_ok());
        assert_eq!(
            decode_conns(&[&key], &[0b11]),
            Err(FrameError::BadValue("enabled padding bits"))
        );
        assert_eq!(
            decode_conns(&[&key], &[0x80]),
            Err(FrameError::BadValue("enabled padding bits"))
        );
        let mut body = genome_body((0, &[]), (0, &[]), &[]);
        body[1] = 2;
        assert_eq!(
            decode(&evaluate_frame(&body)),
            Err(FrameError::BadValue("genome flags"))
        );
    }

    fn mutated_genomes() -> Vec<Genome> {
        let (cfg, mut genomes) = sample_genomes(4);
        let mut rng = StdRng::seed_from_u64(9);
        for g in &mut genomes {
            g.mutate_add_node(&cfg, &mut rng); // hash-range ids: 9-byte deltas
        }
        genomes.push(golden_genome());
        genomes
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error_not_a_panic() {
        let frame = encode(&WireMessage::Evaluate {
            generation: 1,
            master_seed: 2,
            genomes: mutated_genomes(),
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
    fn hostile_counts_fail_fast_without_allocation() {
        // A Fitness frame announcing u32::MAX entries but carrying none.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.push(tag::FITNESS);
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&frame), Err(FrameError::Truncated { .. })));

        // Gene tables: a count is refused unless count x the smallest
        // possible element fits in what is left of the frame — checked
        // one element over and at the varint's ceiling.
        let node = gene(&[0], 16);
        assert_eq!(node.len(), MIN_NODE_BYTES);
        let conn = gene(&[0, 0], 8);
        assert_eq!(conn.len(), MIN_CONN_BYTES);
        let truncated =
            |r| matches!(r, Err(FrameError::Truncated { needed, remaining }) if needed > remaining);
        for declared in [2, u64::MAX] {
            let body = genome_body((declared, &node), (0, &[]), &[]);
            assert!(
                truncated(decode(&evaluate_frame(&body))),
                "{declared} nodes"
            );
            let body = genome_body((0, &[]), (declared, &conn), &[]);
            assert!(
                truncated(decode(&evaluate_frame(&body))),
                "{declared} conns"
            );
        }
        assert_eq!(
            decode(&evaluate_frame(&genome_body((3, &node), (0, &[]), &[]))),
            Err(FrameError::Truncated {
                needed: 3 * MIN_NODE_BYTES,
                remaining: MIN_NODE_BYTES + 1,
            })
        );
        assert_eq!(
            decode(&evaluate_frame(&genome_body((0, &[]), (2, &conn), &[]))),
            Err(FrameError::Truncated {
                needed: 2 * MIN_CONN_BYTES,
                remaining: MIN_CONN_BYTES,
            })
        );
        // Genomes per frame: the smallest genome is an id, flags and two
        // empty tables.
        let empty = genome_body((0, &[]), (0, &[]), &[]);
        assert_eq!(empty.len(), MIN_GENOME_BYTES);
        let mut frame = evaluate_frame(&empty);
        assert!(decode(&frame).is_ok());
        frame[22..26].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            decode(&frame),
            Err(FrameError::Truncated {
                needed: 2 * MIN_GENOME_BYTES,
                remaining: MIN_GENOME_BYTES,
            })
        );
    }

    #[test]
    fn encode_sizes_its_buffer_once() {
        // The size hint is an upper bound for dense ids (one-byte
        // deltas), so a generation-sized frame is written without the
        // buffer ever doubling.
        let cfg = NeatConfig::builder(128, 18).build().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let genomes: Vec<Genome> = (0..20)
            .map(|i| Genome::new_initial(&cfg, GenomeId(i), &mut rng))
            .collect();
        let hint: usize = genomes.iter().map(genome_size_hint).sum();
        let frame = encode(&WireMessage::Children(genomes));
        assert!(frame.len() <= hint + 64 && frame.len() > hint * 9 / 10);
        assert!(frame.capacity() <= hint + 64, "buffer grew past its hint");
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
