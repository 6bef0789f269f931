//! Checkpointing: persist and restore genomes and whole populations.
//!
//! The CLAN vision (paper Fig 1) starts with "a trained model/expert is
//! deployed onto the edge" — which requires experts to be serializable
//! artifacts. This module provides a stable JSON representation for
//! single genomes (deployable experts) and complete populations
//! (resumable learning state), with a format version for forward
//! compatibility.

use crate::error::NeatError;
use crate::genome::Genome;
use crate::population::Population;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// Format version embedded in every checkpoint.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Errors produced by checkpoint I/O.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(io::Error),
    /// Malformed or incompatible checkpoint data.
    Format(String),
    /// The checkpoint is valid but violates NEAT invariants.
    Neat(NeatError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Format(m) => write!(f, "checkpoint format error: {m}"),
            CheckpointError::Neat(e) => write!(f, "checkpoint contains invalid state: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Neat(e) => Some(e),
            CheckpointError::Format(_) => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

#[derive(Serialize, Deserialize)]
struct GenomeCheckpoint {
    version: u32,
    genome: Genome,
}

#[derive(Serialize, Deserialize)]
struct PopulationCheckpoint {
    version: u32,
    population: Population,
}

/// Serializes a genome (a deployable expert) to JSON.
///
/// # Errors
///
/// Returns [`CheckpointError::Format`] if serialization fails (it cannot
/// for well-formed genomes).
pub fn genome_to_json(genome: &Genome) -> Result<String, CheckpointError> {
    serde_json::to_string_pretty(&GenomeCheckpoint {
        version: CHECKPOINT_VERSION,
        genome: genome.clone(),
    })
    .map_err(|e| CheckpointError::Format(e.to_string()))
}

/// Restores a genome from JSON produced by [`genome_to_json`].
///
/// # Errors
///
/// Returns [`CheckpointError::Format`] on malformed input or a version
/// mismatch.
pub fn genome_from_json(json: &str) -> Result<Genome, CheckpointError> {
    let cp: GenomeCheckpoint =
        serde_json::from_str(json).map_err(|e| CheckpointError::Format(e.to_string()))?;
    if cp.version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported checkpoint version {} (expected {CHECKPOINT_VERSION})",
            cp.version
        )));
    }
    Ok(cp.genome)
}

/// Writes a genome checkpoint to `path`.
///
/// # Errors
///
/// Propagates filesystem and serialization failures.
pub fn save_genome<P: AsRef<Path>>(genome: &Genome, path: P) -> Result<(), CheckpointError> {
    fs::write(path, genome_to_json(genome)?)?;
    Ok(())
}

/// Reads a genome checkpoint from `path`.
///
/// # Errors
///
/// Propagates filesystem and format failures.
pub fn load_genome<P: AsRef<Path>>(path: P) -> Result<Genome, CheckpointError> {
    genome_from_json(&fs::read_to_string(path)?)
}

/// Serializes a full population (resumable learning state) to JSON.
///
/// # Errors
///
/// Returns [`CheckpointError::Format`] if serialization fails.
pub fn population_to_json(pop: &Population) -> Result<String, CheckpointError> {
    serde_json::to_string(&PopulationCheckpoint {
        version: CHECKPOINT_VERSION,
        population: pop.clone(),
    })
    .map_err(|e| CheckpointError::Format(e.to_string()))
}

/// Restores a population from JSON produced by [`population_to_json`].
///
/// # Errors
///
/// Returns [`CheckpointError::Format`] on malformed input or version
/// mismatch, and [`CheckpointError::Neat`] if the restored configuration
/// fails validation.
pub fn population_from_json(json: &str) -> Result<Population, CheckpointError> {
    let cp: PopulationCheckpoint =
        serde_json::from_str(json).map_err(|e| CheckpointError::Format(e.to_string()))?;
    if cp.version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported checkpoint version {} (expected {CHECKPOINT_VERSION})",
            cp.version
        )));
    }
    cp.population
        .config()
        .validate()
        .map_err(CheckpointError::Neat)?;
    Ok(cp.population)
}

/// Writes a population checkpoint to `path`.
///
/// # Errors
///
/// Propagates filesystem and serialization failures.
pub fn save_population<P: AsRef<Path>>(pop: &Population, path: P) -> Result<(), CheckpointError> {
    fs::write(path, population_to_json(pop)?)?;
    Ok(())
}

/// Reads a population checkpoint from `path`.
///
/// # Errors
///
/// Propagates filesystem and format failures.
pub fn load_population<P: AsRef<Path>>(path: P) -> Result<Population, CheckpointError> {
    population_from_json(&fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NeatConfig;
    use crate::gene::GenomeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_genome() -> (NeatConfig, Genome) {
        let cfg = NeatConfig::builder(3, 2).build().unwrap();
        let mut g = Genome::new_initial(&cfg, GenomeId(7), &mut StdRng::seed_from_u64(1));
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            g.mutate(&cfg, &mut rng);
        }
        g.set_fitness(123.5);
        (cfg, g)
    }

    #[test]
    fn genome_round_trip_is_lossless() {
        let (_, g) = sample_genome();
        let json = genome_to_json(&g).unwrap();
        let restored = genome_from_json(&json).unwrap();
        assert_eq!(g, restored);
    }

    #[test]
    fn population_round_trip_continues_identically() {
        let cfg = NeatConfig::builder(2, 1)
            .population_size(12)
            .build()
            .unwrap();
        let mut pop = Population::new(cfg, 5);
        let mut scratch = crate::network::Scratch::new();
        let mut advance = |p: &mut Population| {
            p.evaluate(|net, _| net.activate_into(&[0.5, -0.5], &mut scratch)[0]);
            p.advance_generation();
            p.genomes().clone()
        };
        advance(&mut pop);

        let json = population_to_json(&pop).unwrap();
        let mut restored = population_from_json(&json).unwrap();

        // Both copies must evolve identically from here.
        assert_eq!(advance(&mut pop), advance(&mut restored));
    }

    #[test]
    fn version_mismatch_rejected() {
        let (_, g) = sample_genome();
        let json = genome_to_json(&g)
            .unwrap()
            .replace("\"version\": 1", "\"version\": 99");
        let err = genome_from_json(&json);
        assert!(matches!(err, Err(CheckpointError::Format(_))), "{err:?}");
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(
            genome_from_json("{not json"),
            Err(CheckpointError::Format(_))
        ));
        assert!(matches!(
            population_from_json("[]"),
            Err(CheckpointError::Format(_))
        ));
    }

    /// `genome_to_json` of `Genome::new_initial(cfg(2, 1), GenomeId(7),
    /// seed 3)` with fitness 1.5, as written by the last build whose gene
    /// tables were `BTreeMap`s (commit a4134e5), less the node genes'
    /// retired `"activation": "Sigmoid"` and `"aggregation": "Sum"` keys.
    const GOLDEN_GENOME: &str = r#"{
  "version": 1,
  "genome": {
    "id": 7,
    "nodes": [
      [
        0,
        {
          "bias": -0.6441364961562857,
          "response": 1.0
        }
      ]
    ],
    "conns": [
      [
        {
          "input": -2,
          "output": 0
        },
        {
          "weight": -1.0357985036179391,
          "enabled": true
        }
      ],
      [
        {
          "input": -1,
          "output": 0
        },
        {
          "weight": -0.11267609550448998,
          "enabled": true
        }
      ]
    ],
    "fitness": 1.5
  }
}"#;

    #[test]
    fn checkpoint_written_before_the_table_swap_loads_and_rewrites_byte_for_byte() {
        let cfg = NeatConfig::builder(2, 1).build().unwrap();
        let mut expected = Genome::new_initial(&cfg, GenomeId(7), &mut StdRng::seed_from_u64(3));
        expected.set_fitness(1.5);
        let loaded = genome_from_json(GOLDEN_GENOME).unwrap();
        assert_eq!(loaded, expected);
        assert_eq!(genome_to_json(&loaded).unwrap(), GOLDEN_GENOME);
        // A checkpoint written with the transfer-function keys still loads:
        // unknown keys are skipped.
        let with_functions = GOLDEN_GENOME.replace(
            "\"response\": 1.0",
            "\"response\": 1.0, \"activation\": \"Sigmoid\", \"aggregation\": \"Sum\"",
        );
        assert_eq!(genome_from_json(&with_functions).unwrap(), expected);
    }

    #[test]
    fn shuffled_or_duplicated_gene_pairs_are_a_format_error() {
        // The two connection pairs of the golden genome, as they stand in
        // its JSON (six spaces of indent, no trailing comma on the last).
        let pair = |input: i64| {
            let from = GOLDEN_GENOME
                .find(&format!(
                    "      [\n        {{\n          \"input\": {input},"
                ))
                .unwrap();
            let len = GOLDEN_GENOME[from..].find("\n      ]").unwrap() + "\n      ]".len();
            &GOLDEN_GENOME[from..from + len]
        };
        let (first, second) = (pair(-2), pair(-1));
        let in_order = format!("{first},\n{second}");
        assert!(GOLDEN_GENOME.contains(&in_order));
        for hostile in [
            format!("{second},\n{first}"),
            format!("{first},\n{first},\n{second}"),
            format!("{first},\n{second},\n{second}"),
        ] {
            let json = GOLDEN_GENOME.replace(&in_order, &hostile);
            match genome_from_json(&json) {
                Err(CheckpointError::Format(why)) => {
                    assert!(why.contains("does not ascend"), "{why}")
                }
                other => panic!("expected a format error, got {other:?}"),
            }
        }
        // The same holds for a genome inside a population checkpoint.
        let cfg = NeatConfig::builder(2, 1)
            .population_size(4)
            .build()
            .unwrap();
        let json = population_to_json(&Population::new(cfg, 5)).unwrap();
        assert!(population_from_json(&json).is_ok());
        let (a, b) = (
            "[{\"input\":-2,\"output\":0},",
            "[{\"input\":-1,\"output\":0},",
        );
        assert!(json.contains(a) && json.contains(b));
        let swapped = json.replace(a, "\u{0}").replace(b, a).replace('\u{0}', b);
        assert!(matches!(
            population_from_json(&swapped),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn file_round_trip() {
        let (_, g) = sample_genome();
        let path = std::env::temp_dir().join("clan-neat-checkpoint-test.json");
        save_genome(&g, &path).unwrap();
        let restored = load_genome(&path).unwrap();
        assert_eq!(g, restored);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_genome("/nonexistent/dir/genome.json");
        assert!(matches!(err, Err(CheckpointError::Io(_))));
    }
}
