//! Every node's transfer function.
//!
//! A node's value is `sigmoid(bias + response × Σ weighted inputs)`: the
//! steepened logistic sigmoid of a sum, the one node type every CLAN run
//! evolves (neat-python's defaults, with its function mutations off, as
//! the paper ran them).

/// Steepened logistic sigmoid, `1 / (1 + e^(-4.9 x))`, its argument
/// clamped so the exponential never overflows.
#[inline]
pub(crate) fn sigmoid(x: f64) -> f64 {
    let z = (4.9 * x).clamp(-60.0, 60.0);
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_range_and_midpoint() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(2.0) > 0.99);
    }

    #[test]
    fn sigmoid_is_finite_over_a_wide_domain() {
        for i in -100..=100 {
            let x = i as f64 * 10.0;
            assert!(sigmoid(x).is_finite(), "not finite at {x}");
        }
    }
}
