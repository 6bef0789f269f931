//! NEAT hyperparameter configuration.
//!
//! Field names and defaults track `neat-python`'s example configurations,
//! which is what the CLAN paper ran on its Raspberry Pis. As the paper
//! notes (§II-D), a single NEAT hyperparameter set works across tasks, so
//! the per-workload presets in `clan-envs` only change the input/output
//! counts and population size.

use crate::error::NeatError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Distribution and mutation parameters for one float attribute
/// (weight, bias, or response).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttrSpec {
    /// Mean of the normal distribution used at initialization.
    pub init_mean: f64,
    /// Standard deviation used at initialization.
    pub init_stdev: f64,
    /// Lower clamp applied after every mutation.
    pub min_value: f64,
    /// Upper clamp applied after every mutation.
    pub max_value: f64,
    /// Standard deviation of the perturbation applied on mutation.
    pub mutate_power: f64,
    /// Probability that the attribute is perturbed during a mutation pass.
    pub mutate_rate: f64,
    /// Probability that the attribute is re-drawn from the init
    /// distribution instead of perturbed.
    pub replace_rate: f64,
}

impl AttrSpec {
    /// Draws an initial value.
    pub fn init<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let v = self.init_mean + gaussian(rng) * self.init_stdev;
        v.clamp(self.min_value, self.max_value)
    }

    /// Applies one mutation pass to `value`: replace with probability
    /// `replace_rate`, otherwise perturb with probability `mutate_rate`.
    pub fn mutate<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> f64 {
        let r: f64 = rng.gen();
        if r < self.replace_rate {
            self.init(rng)
        } else if r < self.replace_rate + self.mutate_rate {
            (value + gaussian(rng) * self.mutate_power).clamp(self.min_value, self.max_value)
        } else {
            value
        }
    }

    fn validate(&self, field: &'static str) -> Result<(), NeatError> {
        if self.min_value > self.max_value {
            return Err(NeatError::InvalidConfig {
                field,
                reason: format!("min {} exceeds max {}", self.min_value, self.max_value),
            });
        }
        for (name, p) in [
            ("mutate_rate", self.mutate_rate),
            ("replace_rate", self.replace_rate),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(NeatError::InvalidConfig {
                    field,
                    reason: format!("{name} {p} outside [0, 1]"),
                });
            }
        }
        Ok(())
    }
}

/// Standard normal sample via Box–Muller (avoids a rand_distr dependency).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// How the initial population's genomes are wired.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum InitialConnection {
    /// Every input connected to every output (`neat-python` `full_direct`).
    #[default]
    Full,
    /// No connections; structure must be discovered by mutation.
    Unconnected,
    /// Each potential input→output connection included with this probability.
    Partial(f64),
}

/// Complete NEAT hyperparameter set.
///
/// Construct via [`NeatConfig::builder`]; the builder validates ranges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeatConfig {
    /// Number of network inputs (observation dimension).
    pub num_inputs: usize,
    /// Number of network outputs (action dimension).
    pub num_outputs: usize,
    /// Number of genomes per generation.
    pub population_size: usize,
    /// Initial wiring of genomes.
    pub initial_connection: InitialConnection,

    /// Speciation threshold: a genome joins a species only if its
    /// compatibility distance to the species' representative is below it.
    pub compatibility_threshold: f64,
    /// Coefficient on the disjoint-gene fraction of the distance.
    pub compatibility_disjoint_coefficient: f64,
    /// Coefficient on the matching-gene attribute distance.
    pub compatibility_weight_coefficient: f64,

    /// Probability of adding a connection per mutation pass.
    pub conn_add_prob: f64,
    /// Probability of deleting a connection per mutation pass.
    pub conn_delete_prob: f64,
    /// Probability of adding a node (splitting a connection).
    pub node_add_prob: f64,
    /// Probability of deleting a hidden node.
    pub node_delete_prob: f64,
    /// Probability of flipping a connection's enabled flag.
    pub enabled_mutate_rate: f64,
    /// Probability of re-drawing a node's activation function.
    pub activation_mutate_rate: f64,
    /// Probability of re-drawing a node's aggregation function.
    pub aggregation_mutate_rate: f64,
    /// Connection weight attribute parameters.
    pub weight: AttrSpec,
    /// Node bias attribute parameters.
    pub bias: AttrSpec,
    /// Node response attribute parameters.
    pub response: AttrSpec,

    /// Number of top genomes per species copied unchanged.
    pub elitism: usize,
    /// Fraction of each species (by fitness rank) eligible as parents.
    pub survival_threshold: f64,
    /// Minimum spawn count allotted to a surviving species.
    pub min_species_size: usize,

    /// Generations without fitness improvement before a species is culled.
    pub max_stagnation: u32,
    /// Number of best species protected from stagnation culling.
    pub species_elitism: usize,
    /// Re-seed a fresh random population if every species stagnates.
    pub reset_on_extinction: bool,
}

impl NeatConfig {
    /// Starts a builder for a network with the given I/O dimensions.
    ///
    /// ```
    /// use clan_neat::NeatConfig;
    /// let cfg = NeatConfig::builder(4, 2).population_size(150).build()?;
    /// assert_eq!(cfg.num_inputs, 4);
    /// # Ok::<(), clan_neat::NeatError>(())
    /// ```
    pub fn builder(num_inputs: usize, num_outputs: usize) -> NeatConfigBuilder {
        NeatConfigBuilder::new(num_inputs, num_outputs)
    }

    /// Validates every field, returning the first violation found.
    ///
    /// # Errors
    ///
    /// Returns [`NeatError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), NeatError> {
        if self.num_inputs == 0 {
            return Err(NeatError::InvalidConfig {
                field: "num_inputs",
                reason: "must be at least 1".into(),
            });
        }
        if self.num_outputs == 0 {
            return Err(NeatError::InvalidConfig {
                field: "num_outputs",
                reason: "must be at least 1".into(),
            });
        }
        if self.population_size < 2 {
            return Err(NeatError::InvalidConfig {
                field: "population_size",
                reason: "must be at least 2".into(),
            });
        }
        if self.compatibility_threshold <= 0.0 {
            return Err(NeatError::InvalidConfig {
                field: "compatibility_threshold",
                reason: "must be positive".into(),
            });
        }
        if let InitialConnection::Partial(p) = self.initial_connection {
            if !(0.0..=1.0).contains(&p) {
                return Err(NeatError::InvalidConfig {
                    field: "initial_connection",
                    reason: format!("partial probability {p} outside [0, 1]"),
                });
            }
        }
        for (field, p) in [
            ("conn_add_prob", self.conn_add_prob),
            ("conn_delete_prob", self.conn_delete_prob),
            ("node_add_prob", self.node_add_prob),
            ("node_delete_prob", self.node_delete_prob),
            ("enabled_mutate_rate", self.enabled_mutate_rate),
            ("activation_mutate_rate", self.activation_mutate_rate),
            ("aggregation_mutate_rate", self.aggregation_mutate_rate),
            ("survival_threshold", self.survival_threshold),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(NeatError::InvalidConfig {
                    field,
                    reason: format!("probability {p} outside [0, 1]"),
                });
            }
        }
        if self.survival_threshold == 0.0 {
            return Err(NeatError::InvalidConfig {
                field: "survival_threshold",
                reason: "must be positive so every species keeps at least one parent".into(),
            });
        }
        self.weight.validate("weight")?;
        self.bias.validate("bias")?;
        self.response.validate("response")?;
        Ok(())
    }
}

impl Default for NeatConfig {
    /// The `neat-python`-flavored defaults used throughout the CLAN
    /// reproduction, for a 1-input / 1-output network.
    fn default() -> Self {
        NeatConfig {
            num_inputs: 1,
            num_outputs: 1,
            population_size: 150,
            initial_connection: InitialConnection::Full,
            compatibility_threshold: 3.0,
            compatibility_disjoint_coefficient: 1.0,
            compatibility_weight_coefficient: 0.5,
            conn_add_prob: 0.5,
            conn_delete_prob: 0.5,
            node_add_prob: 0.2,
            node_delete_prob: 0.2,
            enabled_mutate_rate: 0.01,
            activation_mutate_rate: 0.0,
            aggregation_mutate_rate: 0.0,
            weight: AttrSpec {
                init_mean: 0.0,
                init_stdev: 1.0,
                min_value: -30.0,
                max_value: 30.0,
                mutate_power: 0.5,
                mutate_rate: 0.8,
                replace_rate: 0.1,
            },
            bias: AttrSpec {
                init_mean: 0.0,
                init_stdev: 1.0,
                min_value: -30.0,
                max_value: 30.0,
                mutate_power: 0.5,
                mutate_rate: 0.7,
                replace_rate: 0.1,
            },
            response: AttrSpec {
                init_mean: 1.0,
                init_stdev: 0.0,
                min_value: -30.0,
                max_value: 30.0,
                mutate_power: 0.0,
                mutate_rate: 0.0,
                replace_rate: 0.0,
            },
            elitism: 2,
            survival_threshold: 0.2,
            min_species_size: 2,
            max_stagnation: 15,
            species_elitism: 2,
            reset_on_extinction: true,
        }
    }
}

/// Builder for [`NeatConfig`]; see [`NeatConfig::builder`].
#[derive(Debug, Clone)]
pub struct NeatConfigBuilder {
    cfg: NeatConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(mut self, value: $ty) -> Self {
                self.cfg.$name = value;
                self
            }
        )+
    };
}

impl NeatConfigBuilder {
    /// Starts from defaults with the given I/O dimensions.
    pub fn new(num_inputs: usize, num_outputs: usize) -> Self {
        NeatConfigBuilder {
            cfg: NeatConfig {
                num_inputs,
                num_outputs,
                ..NeatConfig::default()
            },
        }
    }

    builder_setters! {
        /// Sets the number of genomes per generation.
        population_size: usize,
        /// Sets the initial wiring scheme.
        initial_connection: InitialConnection,
        /// Sets the speciation distance threshold.
        compatibility_threshold: f64,
        /// Sets the disjoint-gene coefficient of the distance metric.
        compatibility_disjoint_coefficient: f64,
        /// Sets the matching-attribute coefficient of the distance metric.
        compatibility_weight_coefficient: f64,
        /// Sets the add-connection mutation probability.
        conn_add_prob: f64,
        /// Sets the delete-connection mutation probability.
        conn_delete_prob: f64,
        /// Sets the add-node mutation probability.
        node_add_prob: f64,
        /// Sets the delete-node mutation probability.
        node_delete_prob: f64,
        /// Sets the enabled-flag flip probability.
        enabled_mutate_rate: f64,
        /// Sets the activation-function mutation probability.
        activation_mutate_rate: f64,
        /// Sets the aggregation-function mutation probability.
        aggregation_mutate_rate: f64,
        /// Sets weight attribute parameters.
        weight: AttrSpec,
        /// Sets bias attribute parameters.
        bias: AttrSpec,
        /// Sets response attribute parameters.
        response: AttrSpec,
        /// Sets per-species elitism.
        elitism: usize,
        /// Sets the surviving parent fraction.
        survival_threshold: f64,
        /// Sets the minimum spawn count per species.
        min_species_size: usize,
        /// Sets the stagnation limit in generations.
        max_stagnation: u32,
        /// Sets how many top species are immune to stagnation.
        species_elitism: usize,
        /// Sets whether extinction re-seeds a fresh population.
        reset_on_extinction: bool,
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NeatError::InvalidConfig`] if any field is out of range.
    pub fn build(self) -> Result<NeatConfig, NeatError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_config_is_valid() {
        NeatConfig::default().validate().unwrap();
    }

    #[test]
    fn builder_sets_dimensions() {
        let cfg = NeatConfig::builder(4, 2).build().unwrap();
        assert_eq!((cfg.num_inputs, cfg.num_outputs), (4, 2));
    }

    #[test]
    fn builder_rejects_zero_population() {
        let err = NeatConfig::builder(1, 1).population_size(0).build();
        assert!(matches!(
            err,
            Err(NeatError::InvalidConfig {
                field: "population_size",
                ..
            })
        ));
    }

    #[test]
    fn builder_rejects_bad_probability() {
        let err = NeatConfig::builder(1, 1).conn_add_prob(1.5).build();
        assert!(matches!(err, Err(NeatError::InvalidConfig { .. })));
    }

    #[test]
    fn builder_rejects_zero_inputs() {
        assert!(NeatConfig::builder(0, 1).build().is_err());
        assert!(NeatConfig::builder(1, 0).build().is_err());
    }

    #[test]
    fn builder_rejects_partial_out_of_range() {
        let err = NeatConfig::builder(1, 1)
            .initial_connection(InitialConnection::Partial(1.2))
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn attr_init_respects_clamp() {
        let spec = AttrSpec {
            init_mean: 100.0,
            init_stdev: 1.0,
            min_value: -1.0,
            max_value: 1.0,
            mutate_power: 0.5,
            mutate_rate: 0.5,
            replace_rate: 0.1,
        };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let v = spec.init(&mut rng);
            assert!((-1.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn attr_mutate_stays_in_bounds() {
        let spec = NeatConfig::default().weight;
        let mut rng = StdRng::seed_from_u64(2);
        let mut v = 0.0;
        for _ in 0..1000 {
            v = spec.mutate(v, &mut rng);
            assert!((spec.min_value..=spec.max_value).contains(&v));
        }
    }

    #[test]
    fn attr_mutate_zero_rates_is_identity() {
        let spec = AttrSpec {
            mutate_rate: 0.0,
            replace_rate: 0.0,
            ..NeatConfig::default().weight
        };
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..50 {
            let v = i as f64 / 10.0;
            assert_eq!(spec.mutate(v, &mut rng), v);
        }
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
