//! Error types for the NEAT crate.

use std::error::Error;
use std::fmt;

/// Errors produced while configuring or running NEAT.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NeatError {
    /// A configuration field has an invalid value.
    InvalidConfig {
        /// Name of the offending field.
        field: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
    /// A fitness value was required but has not been assigned.
    MissingFitness {
        /// The genome whose fitness is missing.
        genome: u64,
    },
    /// A genome id was looked up but does not exist in the population.
    UnknownGenome {
        /// The id that failed to resolve.
        genome: u64,
    },
    /// The population went extinct (all species stagnated) and
    /// `reset_on_extinction` was disabled.
    Extinction,
    /// A genome from outside this process (wire frame, file) is
    /// structurally unusable: it cannot be compiled into a network.
    InvalidGenome {
        /// The offending genome.
        genome: u64,
        /// The invariant it breaks.
        reason: String,
    },
}

impl fmt::Display for NeatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeatError::InvalidConfig { field, reason } => {
                write!(f, "invalid config field `{field}`: {reason}")
            }
            NeatError::MissingFitness { genome } => {
                write!(f, "genome {genome} has no fitness assigned")
            }
            NeatError::UnknownGenome { genome } => {
                write!(f, "genome {genome} not found in population")
            }
            NeatError::Extinction => write!(f, "population went extinct"),
            NeatError::InvalidGenome { genome, reason } => {
                write!(f, "genome {genome} is invalid: {reason}")
            }
        }
    }
}

impl Error for NeatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_trailing_punctuation() {
        let e = NeatError::InvalidConfig {
            field: "population_size",
            reason: "must be at least 2".into(),
        };
        let s = e.to_string();
        assert!(s.starts_with("invalid config"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NeatError>();
    }
}
