//! Per-generation execution timelines and compute-share breakdowns.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// Simulated wall-clock time of one generation, split the way the paper
/// plots it: inference compute, evolution compute (speciation +
/// generation planning + reproduction), and communication.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GenerationTimeline {
    /// Seconds spent in the inference block.
    pub inference_s: f64,
    /// Seconds spent in evolution blocks.
    pub evolution_s: f64,
    /// Seconds the shared medium was busy with messages.
    pub communication_s: f64,
}

impl GenerationTimeline {
    /// Total generation time.
    pub fn total_s(&self) -> f64 {
        self.inference_s + self.evolution_s + self.communication_s
    }

    /// Fractional share of each component (sums to 1 unless empty).
    pub fn shares(&self) -> ShareBreakdown {
        let total = self.total_s();
        if total <= 0.0 {
            return ShareBreakdown::default();
        }
        ShareBreakdown {
            inference: self.inference_s / total,
            evolution: self.evolution_s / total,
            communication: self.communication_s / total,
        }
    }
}

impl Add for GenerationTimeline {
    type Output = GenerationTimeline;

    fn add(self, rhs: GenerationTimeline) -> GenerationTimeline {
        GenerationTimeline {
            inference_s: self.inference_s + rhs.inference_s,
            evolution_s: self.evolution_s + rhs.evolution_s,
            communication_s: self.communication_s + rhs.communication_s,
        }
    }
}

impl AddAssign for GenerationTimeline {
    fn add_assign(&mut self, rhs: GenerationTimeline) {
        *self = *self + rhs;
    }
}

/// Fractions of total time per component (the paper's Figure 8 pies).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ShareBreakdown {
    /// Inference share in `[0, 1]`.
    pub inference: f64,
    /// Evolution share in `[0, 1]`.
    pub evolution: f64,
    /// Communication share in `[0, 1]`.
    pub communication: f64,
}

/// Accumulates the in-progress generation's timeline; the run report
/// keeps the closed ones, so a long run holds one timeline here, not
/// one per generation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimelineRecorder {
    current: GenerationTimeline,
}

impl TimelineRecorder {
    /// Creates an empty recorder.
    pub fn new() -> TimelineRecorder {
        TimelineRecorder::default()
    }

    /// Adds inference compute time to the in-progress generation.
    pub fn add_inference(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.current.inference_s += seconds;
    }

    /// Adds evolution compute time.
    pub fn add_evolution(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.current.evolution_s += seconds;
    }

    /// Adds communication time.
    pub fn add_communication(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.current.communication_s += seconds;
    }

    /// The in-progress generation's timeline.
    pub fn current(&self) -> GenerationTimeline {
        self.current
    }

    /// Closes the current generation and returns its timeline.
    pub fn finish_generation(&mut self) -> GenerationTimeline {
        std::mem::take(&mut self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_shares() {
        let t = GenerationTimeline {
            inference_s: 2.0,
            evolution_s: 1.0,
            communication_s: 1.0,
        };
        assert_eq!(t.total_s(), 4.0);
        let s = t.shares();
        assert!((s.inference - 0.5).abs() < 1e-12);
        assert!((s.evolution - 0.25).abs() < 1e-12);
        assert!((s.communication - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_shares_zero() {
        let s = GenerationTimeline::default().shares();
        assert_eq!(s.inference, 0.0);
        assert_eq!(s.communication, 0.0);
    }

    #[test]
    fn recorder_lifecycle() {
        let mut r = TimelineRecorder::new();
        r.add_inference(1.0);
        r.add_evolution(0.5);
        r.add_communication(0.25);
        let g = r.finish_generation();
        assert_eq!(g.total_s(), 1.75);
        assert_eq!(r.current(), GenerationTimeline::default());
        r.add_inference(3.0);
        assert_eq!(r.finish_generation().inference_s, 3.0);
    }

    #[test]
    fn add_is_fieldwise() {
        let a = GenerationTimeline {
            inference_s: 1.0,
            evolution_s: 2.0,
            communication_s: 3.0,
        };
        let b = a + a;
        assert_eq!(b.evolution_s, 4.0);
        assert_eq!(b.total_s(), 12.0);
    }
}
