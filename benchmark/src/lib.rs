//! # clan-benchmark — the repo's layered live-cluster benchmark
//!
//! Four workloads over a live two-agent loopback cluster, six end-to-end
//! metrics measured with tracing off, and a per-layer budget from a
//! separate traced pass. Nothing here touches product code: every number
//! is taken from outside, by timing calls into the layers' public
//! functions. `README.md` has the tables, the interaction notes and how
//! to run and compare; `../BENCHMARK.json` is the machine-readable
//! contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod host;
pub mod json;
pub mod measure;
pub mod probes;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod traced;
pub mod workloads;
