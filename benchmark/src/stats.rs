//! Order statistics for repeated measurements.

/// Reported value, extremes and count of one metric's repeated
/// measurements — what `results.json` stores so `compare` can tell a
/// regression from run-to-run spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// What the metric reads: the median of the samples, or for an
    /// end-to-end timing its [`quiet_sum`] reading.
    pub value: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// What a metric with no samples reads: a layer off the workload's
    /// path, or a pass that failed before measuring.
    pub const ZERO: Summary = Summary {
        value: 0.0,
        min: 0.0,
        max: 0.0,
        n: 0,
    };

    /// Summarises `samples` by their median; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        Summary::around(median(samples), samples)
    }

    /// `value` with the extremes and count of `samples` beside it;
    /// `None` when there are none.
    pub fn around(value: f64, samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        Some(Summary {
            value,
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: samples.len(),
        })
    }

    /// `(max - min) / |value|`: the stored spread `compare` holds
    /// against a metric's bound. Zero when the value is zero.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.value.abs()
        }
    }
}

/// The sum over segments of each segment's smallest reading across the
/// repetitions: `repetitions[r][i]` is what segment `i` (the same work in
/// every repetition) took in repetition `r`. What a shared host adds to
/// a timing - a neighbour on the memory system, a vCPU woken late - is
/// never negative and comes in bursts of seconds, so a segment's minimum
/// is its reading with the host out of the way, and a burst has to cover
/// the same segment in every repetition to move the sum. `None` without
/// repetitions or when they disagree on the number of segments.
pub fn quiet_sum(repetitions: &[Vec<f64>]) -> Option<f64> {
    let first = repetitions.first()?;
    if repetitions.iter().any(|r| r.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|i| {
                repetitions
                    .iter()
                    .map(|r| r[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum(),
    )
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); 0.0 for
/// an empty slice, so a layer that never ran reads as zero.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The `p`-th percentile (0–100) by linear interpolation between the
/// closest ranks; 0.0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let rank = (p.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
        }
    }
}

/// Whether at least ten of `n` samples lie beyond the `p`-th percentile
/// (p90 needs 100 samples, p99 needs 1000); below that a tail percentile
/// is an anecdote, not a statistic, and is flagged as such.
pub fn has_tail(n: usize, p: f64) -> bool {
    // The epsilon absorbs binary rounding of percentiles like 99.9.
    n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 90.0), 91.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert_eq!(percentile(&[10.0, 20.0], 25.0), 12.5);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond() {
        assert!(!has_tail(99, 90.0), "9.9 samples beyond p90");
        assert!(has_tail(100, 90.0));
        assert!(!has_tail(100, 99.0));
        assert!(has_tail(1000, 99.0));
        assert!(
            has_tail(10_000, 99.9),
            "binary rounding of 99.9 is absorbed"
        );
        assert!(has_tail(20, 50.0));
        assert!(!has_tail(19, 50.0));
    }

    #[test]
    fn quiet_sum_takes_each_segment_from_its_quietest_repetition() {
        // A burst on segment 0 of one repetition and on segment 1 of the
        // other: no whole repetition is clean, the sum is.
        let reps = [vec![1.0, 9.0, 3.0], vec![7.0, 2.0, 3.5]];
        assert_eq!(quiet_sum(&reps), Some(6.0));
        assert_eq!(quiet_sum(&reps[..1]), Some(13.0));
        assert_eq!(quiet_sum(&[]), None);
        assert_eq!(quiet_sum(&[vec![1.0], vec![1.0, 2.0]]), None);
        assert_eq!(quiet_sum(&[vec![], vec![]]), Some(0.0));
    }

    #[test]
    fn summary_spread_is_range_over_value() {
        let s = Summary::of(&[9.0, 10.0, 12.0]).unwrap();
        assert_eq!((s.value, s.min, s.max, s.n), (10.0, 9.0, 12.0, 3));
        assert!((s.spread() - 0.3).abs() < 1e-12);
        assert_eq!(Summary::of(&[]), None);
    }
}
