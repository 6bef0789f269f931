//! Cluster membership and recovery: who is alive, who is suspected,
//! who is dead — and what surviving a failure cost.
//!
//! CLAN's premise is commodity edge devices, and commodity devices
//! crash, brown out, and drop off the WiFi mid-run. The PR-4 transport
//! stack made a dying agent *observable* (a typed
//! [`ClanError::Timeout`] or
//! [`ClanError::Transport`] instead of a
//! hang); this module makes it *survivable*. The
//! [`EdgeCluster`](crate::runtime::EdgeCluster) keeps one [`AgentStats`]
//! row per agent link — its [`LinkHealth`], last error and failure count
//! beside the traffic, work and busy time it carried — and, when a
//! failed agent takes runs down with it, puts them back at the head of
//! the queue for the survivors (see the runtime docs). The floor lives
//! in [`RecoveryPolicy`]; what recovery cost the cluster as a whole is
//! measured in [`RecoveryStats`]. Both are surfaced on
//! [`RunReport`](crate::report::RunReport), the CLI's per-agent table
//! and the `/health` endpoint.
//!
//! # Health model
//!
//! ```text
//!          failure              failure
//! Alive ────────────▶ Suspected ────────────▶ Dead
//!   ▲                     │
//!   └─────────────────────┘
//!          success
//! ```
//!
//! A link fails when an exchange with it surfaces a churn-class error
//! (`Transport` or `Timeout` — the errors an unplugged device produces).
//! One failure makes the link **suspected**: its in-flight runs are
//! re-queued, it gets no more work *within that round*, and its session
//! is poisoned (a timed-out agent's late reply
//! must never answer the next round's request). On the next round the
//! link is probed again with real work **over a freshly established
//! session** — remote links reconnect to their original address, so
//! transient WiFi dropouts recover; links that cannot re-establish
//! (in-process agents whose thread died with the session, injected
//! kills) fail the probe instantly. A second consecutive failure makes
//! the link **dead**: it receives no further work until a replacement
//! agent is revived into its slot (see
//! [`ChurnSchedule`](crate::transport::ChurnSchedule)).
//! A success at any point restores **alive**.
//!
//! Protocol and frame errors are deliberately *not* churn-class: a peer
//! that answers with garbage is a bug to surface, not a device to route
//! around, so those end the round at once.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo)]

use crate::error::ClanError;
use serde::{Deserialize, Serialize};

/// Liveness of one agent link, as judged from its exchange outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkHealth {
    /// Responding normally; pulls work every round.
    #[default]
    Alive,
    /// Failed its last exchange; gets no more work this round but is
    /// probed with real work next round.
    Suspected,
    /// Failed while already suspected; receives no work until revived.
    Dead,
}

impl LinkHealth {
    /// The transition taken when an exchange with this link fails.
    pub fn on_failure(self) -> LinkHealth {
        match self {
            LinkHealth::Alive => LinkHealth::Suspected,
            LinkHealth::Suspected | LinkHealth::Dead => LinkHealth::Dead,
        }
    }

    /// The transition taken when an exchange with this link succeeds.
    pub fn on_success(self) -> LinkHealth {
        let _ = self;
        LinkHealth::Alive
    }

    /// Whether the link is eligible for work (not dead).
    pub fn is_live(self) -> bool {
        self != LinkHealth::Dead
    }

    /// Stable lowercase label used by the `/health` introspection
    /// endpoint and human-facing listings.
    pub fn label(self) -> &'static str {
        match self {
            LinkHealth::Alive => "alive",
            LinkHealth::Suspected => "suspected",
            LinkHealth::Dead => "dead",
        }
    }
}

/// One agent link slot's row: its health, and everything it did and
/// cost over the cluster's life. Each fact has one writer in the
/// runtime: an answered run books traffic, work and busy time; a settled
/// round books loss-recovery bytes; a churn-class failure books health,
/// error and count. A revival resets `health` and `last_error` and keeps
/// the counters. The default is a fresh, alive slot that has done
/// nothing yet.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AgentStats {
    /// Current liveness.
    pub health: LinkHealth,
    /// Human-readable description of the most recent failure, if any.
    pub last_error: Option<String>,
    /// Churn-class failures observed on this slot.
    pub failures: u64,
    /// Messages exchanged (requests and replies).
    pub messages: u64,
    /// Measured wire bytes to and from the agent.
    pub wire_bytes: u64,
    /// Loss-recovery bytes (retransmitted + duplicate datagrams).
    pub retrans_bytes: u64,
    /// Probes sent on an expired retransmission timer: stalls.
    pub timer_probes: u64,
    /// Work items (genomes evaluated, children built) answered.
    pub items: u64,
    /// Seconds the link had a run outstanding.
    pub busy_s: f64,
}

impl AgentStats {
    /// Books one answered run: its request and reply (`bytes` both
    /// ways), the `items` it carried and the `span_s` it kept the link
    /// busy.
    pub(crate) fn book_run(&mut self, bytes: u64, items: u64, span_s: f64) {
        self.messages += 2;
        self.wire_bytes += bytes;
        self.items += items;
        self.busy_s += span_s;
    }

    /// Books a churn-class failure `e`.
    pub(crate) fn note_failure(&mut self, e: &ClanError) {
        self.health = self.health.on_failure();
        self.last_error = Some(e.to_string());
        self.failures += 1;
    }

    /// The link is healthy again — it completed a round trip, or a
    /// replacement took its slot. The counters are kept.
    pub(crate) fn heal(&mut self) {
        self.health = self.health.on_success();
        self.last_error = None;
    }
}

/// Policy governing when a round stops fighting agent failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Minimum live agents a round needs; below this it fails with
    /// [`ClanError::Degraded`] (or the last link error, once none is
    /// left) instead of soldiering on. At least 1 regardless of the
    /// configured value.
    pub min_agents: usize,
}

impl Default for RecoveryPolicy {
    /// No floor beyond "someone is alive".
    fn default() -> RecoveryPolicy {
        RecoveryPolicy { min_agents: 1 }
    }
}

/// Everything surviving churn cost, accumulated over a cluster's life
/// and surfaced on [`RunReport`](crate::report::RunReport) and the CLI.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Rounds performed (evaluate, build-children and stream calls).
    pub rounds: u64,
    /// Churn-class link failures observed.
    pub failures: u64,
    /// Runs a failed agent held, re-queued for the survivors.
    pub reassigned_chunks: u64,
    /// Work items (genomes / child specs) inside those runs.
    pub reassigned_items: u64,
    /// Agent kills injected by a [`ChurnSchedule`](crate::transport::ChurnSchedule).
    pub kills: u64,
    /// Agents that joined mid-run (churn revivals plus explicit
    /// admissions).
    pub joins: u64,
}

impl RecoveryStats {
    /// Whether any recovery machinery actually engaged.
    pub fn any_recovery(&self) -> bool {
        self.failures > 0 || self.kills > 0 || self.joins > 0
    }
}

/// Whether an error is *churn-class*: the kind a crashed or unplugged
/// device produces, and therefore the kind membership tracking routes
/// around. Protocol, frame, and setup errors are bugs and propagate.
pub fn is_churn_error(e: &ClanError) -> bool {
    matches!(e, ClanError::Transport { .. } | ClanError::Timeout { .. })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_transitions_follow_the_two_strike_model() {
        let h = LinkHealth::Alive;
        let h = h.on_failure();
        assert_eq!(h, LinkHealth::Suspected);
        assert!(h.is_live());
        assert_eq!(h.on_success(), LinkHealth::Alive);
        let h = h.on_failure();
        assert_eq!(h, LinkHealth::Dead);
        assert!(!h.is_live());
        // Dead stays dead on further failures; success (a revived
        // replacement answering) restores life.
        assert_eq!(h.on_failure(), LinkHealth::Dead);
        assert_eq!(h.on_success(), LinkHealth::Alive);
    }

    #[test]
    fn churn_classification_matches_the_device_failure_modes() {
        assert!(is_churn_error(&ClanError::Transport {
            peer: "x".into(),
            reason: "gone".into(),
        }));
        assert!(is_churn_error(&ClanError::Timeout {
            peer: "x".into(),
            waited: std::time::Duration::from_secs(1),
        }));
        assert!(!is_churn_error(&ClanError::Protocol {
            peer: "x".into(),
            reason: "garbage".into(),
        }));
        assert!(!is_churn_error(&ClanError::Frame(
            crate::error::FrameError::BadMagic
        )));
        assert!(!is_churn_error(&ClanError::InvalidSetup {
            reason: "nope".into(),
        }));
    }

    #[test]
    fn rows_attribute_failures_and_traffic_per_agent() {
        let gone = ClanError::Transport {
            peer: "x".into(),
            reason: "gone".into(),
        };
        let mut rows = vec![AgentStats::default(); 3];
        rows[2].note_failure(&gone);
        rows[2].note_failure(&gone);
        rows[0].note_failure(&gone);
        let failures: Vec<u64> = rows.iter().map(|r| r.failures).collect();
        assert_eq!(failures, vec![1, 0, 2]);
        assert_eq!(rows[2].health, LinkHealth::Dead);
        assert_eq!(rows[0].health, LinkHealth::Suspected);
        assert!(rows[0]
            .last_error
            .as_deref()
            .is_some_and(|e| e.contains("gone")));
        // A round trip heals the link and keeps its history.
        rows[0].heal();
        assert_eq!(
            (rows[0].health, &rows[0].last_error),
            (LinkHealth::Alive, &None)
        );
        assert_eq!(rows[0].failures, 1);
        // Two runs on slot 0, none on slot 1: the idle agent is visible.
        rows[0].book_run(940, 3, 0.5);
        rows[0].book_run(60, 1, 0.25);
        assert_eq!((rows[0].messages, rows[0].wire_bytes), (4, 1000));
        assert_eq!((rows[0].items, rows[0].busy_s), (4, 0.75));
        assert_eq!((rows[1].messages, rows[1].items), (0, 0));
        assert!(!RecoveryStats::default().any_recovery());
    }

    #[test]
    fn policy_defaults_to_one_live_agent() {
        assert_eq!(RecoveryPolicy::default().min_agents, 1);
    }
}
