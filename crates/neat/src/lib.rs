//! # clan-neat — NeuroEvolution of Augmenting Topologies, from scratch
//!
//! A complete, deterministic implementation of the NEAT algorithm
//! (Stanley & Miikkulainen, 2002) as used by the CLAN paper
//! (Mannan et al., ISPASS 2020). The semantics mirror the `neat-python`
//! library the paper built on: genomes hold node genes and connection
//! genes, populations are partitioned into species by a compatibility
//! distance, fitness is shared within species, and new generations are
//! produced by crossover plus five kinds of structural/weight mutation.
//!
//! Two properties distinguish this implementation from a textbook NEAT:
//!
//! 1. **Order-independent determinism.** Every stochastic decision derives
//!    its RNG stream from `(master_seed, generation, entity_id, op)` via a
//!    splitmix64 mixer ([`rng`]). Reproducing child #37 on agent A yields
//!    bit-identical results to reproducing it on agent B, which is what
//!    makes the distributed CLAN configurations (`DCS`/`DDS`) provably
//!    equivalent to a serial run.
//! 2. **Gene-level cost accounting.** The CLAN paper measures compute and
//!    communication in *genes processed* (a gene is a 32-bit datum). The
//!    [`counters::CostCounters`] type records exactly how many genes each
//!    compute block (Inference, Speciation, Reproduction) touches.
//!
//! ## The inference hot path
//!
//! Inference dominates a generation's compute (paper Fig. 3). The
//! [`network`] module owns it: one allocation-free entry point,
//! [`FeedForwardNetwork::activate_into`], over a caller-owned
//! [`Scratch`], bit-identical to folding one node at a time.
//!
//! ## Evaluation: one state transition, any engine
//!
//! Because every episode seed derives from
//! `(master_seed, genome content hash)` — never from execution order or
//! the genome's transient id — *where* a genome is evaluated cannot
//! change a single bit of its result. What the population does with a
//! result is therefore one method,
//! [`Population::record_evaluation`]: charge the inference genes and the
//! episode, write the fitness, keep `best_ever`. The closure driver
//! [`Population::evaluate`] calls it per genome in id order; the
//! `clan-core` orchestrators compute evaluations on host threads or a
//! remote agent cluster and replay them through it in the same order;
//! the async steady-state loop calls it per arrival. Fitness,
//! [`CostCounters`], and `best_ever` are identical for any engine that
//! records in the same order — the property the CLAN configurations rely
//! on, asserted end-to-end by the determinism matrix. After evaluation,
//! [`Population::try_advance_generation`] is the one `S → GP → R` step
//! (extinction is a typed error or a re-seed, per the config), phase `R`
//! passed in; the phase primitives stay public so a deployment can run
//! each block somewhere else.
//!
//! ## Fitness cache, and the SoA probe
//!
//! - **Content-addressed caching** ([`cache`]), bit-identical to a fresh
//!   evaluation (pinned by `tests/cache_equivalence.rs`) and driven by
//!   the `clan-core` evaluators. Elites and unmutated
//!   crossover survivors re-enter evaluation every generation under
//!   fresh ids. [`Genome::content_hash`] gives them a canonical name —
//!   stable under gene reordering, blind to id/fitness, sensitive to
//!   every attribute down to the last ulp — and [`FitnessCache`]
//!   memoizes evaluations by `(master_seed, content_hash)`. Because
//!   episode seeds also derive from the content hash, a hit replays
//!   *exactly* the episodes a fresh run would, so serving it from the
//!   cache is bit-identical and skips both compilation and every
//!   environment step.
//! - **Structure-of-arrays batching** ([`batch`]): [`BatchedNetwork`]
//!   activates same-shape networks ([`ShapeKey`]) in lockstep lanes. It
//!   loses per lane to [`FeedForwardNetwork::activate_into`] on every
//!   benchmark shape, so no evaluation path runs it; it is only the
//!   subject of the benchmark's SoA probe.
//!
//! ## Quickstart
//!
//! ```
//! use clan_neat::{NeatConfig, Population, Scratch};
//!
//! // Evolve a genome that outputs a constant 0.5 from one input.
//! let cfg = NeatConfig::builder(1, 1).population_size(40).build().unwrap();
//! let mut pop = Population::new(cfg, 42);
//! let mut scratch = Scratch::new();
//! for _ in 0..5 {
//!     pop.evaluate(|net, _genome| {
//!         let out = net.activate_into(&[1.0], &mut scratch)[0];
//!         1.0 - (out - 0.5).abs()
//!     });
//!     pop.advance_generation();
//! }
//! assert!(pop.best_ever().unwrap().fitness().unwrap() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::allow_attributes_without_reason)]

mod activation;
pub mod batch;
pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod counters;
pub mod error;
pub mod fanout;
pub mod gene;
pub mod genome;
pub mod network;
pub mod population;
pub mod reproduction;
pub mod rng;
pub mod species;
pub mod stagnation;
pub mod steady_state;
pub mod table;
pub mod visualize;

pub use batch::{BatchedNetwork, ShapeKey};
pub use cache::{CachedEvaluation, FitnessCache};
pub use config::{NeatConfig, NeatConfigBuilder};
pub use counters::{CostCounters, GenerationCosts};
pub use error::NeatError;
pub use gene::{ConnGene, ConnKey, GenomeId, NodeGene, NodeId, SpeciesId};
pub use genome::Genome;
pub use network::{FeedForwardNetwork, Scratch};
pub use population::Population;
pub use reproduction::{ChildSpec, GenerationPlan};
pub use species::{Species, SpeciesSet};
pub use steady_state::{steady_state_insert, InsertReport};
pub use table::GeneTable;
pub use visualize::genome_to_dot;
