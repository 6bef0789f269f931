//! The sole wall-clock capture point of the telemetry layer.
//!
//! Every wall-clock timestamp that ends up in a trace is taken here and
//! nowhere else, so this crate's `clippy.toml` can pin "ambient time" to
//! exactly one audited file: timing annotations flow *out* of this
//! module into the [`Timing`](super::Determinism::Timing) channel, and
//! nothing read here may feed back into evolution, partitioning, or any
//! other determinism-bearing decision.

#![allow(clippy::disallowed_methods, reason = "the wall-clock capture point")]

use std::time::Instant;

/// A monotonic epoch for one trace: all wall timestamps are microseconds
/// since the tracer was created, which keeps exported traces small,
/// diffable in magnitude, and free of absolute-time information.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Starts the clock; the moment of creation is timestamp zero.
    pub fn start() -> WallClock {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// Microseconds elapsed since the epoch.
    pub fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let c = WallClock::start();
        let a = c.elapsed_us();
        let b = c.elapsed_us();
        assert!(b >= a);
    }
}
