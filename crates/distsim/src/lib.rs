//! # clan-distsim — analytic cluster timeline simulation
//!
//! The paper's measurements decompose each generation into compute phases
//! (inference, evolution) and communication phases over the shared WiFi
//! medium. This crate provides the cluster description ([`Cluster`]) and
//! the per-generation timeline bookkeeping ([`GenerationTimeline`],
//! [`TimelineRecorder`]) that the CLAN orchestrators fill in. They
//! charge a generation by two rules:
//!
//! - parallel compute phases cost the *maximum* over agents (barrier
//!   synchronization, as in the paper's lockstep generations);
//! - messages serialize over the single wireless medium, so a phase's
//!   communication cost is the *sum* of its message times.
//!
//! Because the model is analytic, "extrapolation" beyond the paper's
//! 15-Pi testbed (Figure 9, up to 100 units) is simply running the same
//! model with more agents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod timeline;

pub use cluster::{partition_even, partition_weighted, Cluster};
pub use timeline::{GenerationTimeline, ShareBreakdown, TimelineRecorder};
