//! Deterministic agent-churn injection: kill an agent at round *r*,
//! revive it at round *r'*.
//!
//! [`super::faults`] perturbs *datagrams* below the ARQ layer — loss the
//! transport recovers by itself. This module injects the failures the
//! transport *cannot* recover: a whole agent crashing mid-run. A
//! [`ChurnSchedule`] names which link dies (and optionally revives)
//! before which scatter round; the
//! [`EdgeCluster`](crate::runtime::EdgeCluster) applies it by swapping
//! the victim's transport for a [`DeadTransport`] — every subsequent
//! frame errors exactly like an unplugged device — and, at the revive
//! round, by respawning a replacement agent into the same slot and
//! `Configure`-ing it with the current session.
//!
//! Crucially the kill is invisible to the membership layer until the
//! failure is *observed* through the normal error path: the recovery
//! machinery under test is the production machinery, only the device
//! crash is simulated. And because rounds are logical scatter indices
//! (not wall-clock), a churned run is exactly reproducible — which is
//! what lets `tests/churn_equivalence.rs` pin a kill/revive run
//! bit-identical to a serial one.

use crate::error::ClanError;
use crate::transport::{LinkStats, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What a churn event does to its agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnAction {
    /// The agent's link starts failing every operation (device crash).
    Kill,
    /// A replacement agent is spawned/connected into the slot and
    /// configured with the current session.
    Revive,
}

/// One scheduled membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Scatter round the event fires before (0-based; every
    /// `evaluate`/`build_children` call advances the round).
    pub round: u64,
    /// Link slot the event targets.
    pub agent: usize,
    /// Kill or revive.
    pub action: ChurnAction,
}

/// A deterministic plan of agent kills and revivals, applied by the
/// cluster at scatter-round boundaries.
///
/// Events at the same round apply in insertion order, so
/// `kill(0, 2).revive(0, 2)` models a crash-and-reboot that completes
/// between rounds 1 and 2.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// An empty schedule (no churn).
    pub fn new() -> ChurnSchedule {
        ChurnSchedule::default()
    }

    /// Adds a kill of `agent` before round `round`.
    pub fn kill(mut self, agent: usize, round: u64) -> ChurnSchedule {
        self.events.push(ChurnEvent {
            round,
            agent,
            action: ChurnAction::Kill,
        });
        self
    }

    /// Adds a revival of `agent` before round `round`.
    pub fn revive(mut self, agent: usize, round: u64) -> ChurnSchedule {
        self.events.push(ChurnEvent {
            round,
            agent,
            action: ChurnAction::Revive,
        });
        self
    }

    /// A seeded random plan: over `rounds` rounds on `n_agents` agents,
    /// each (round, agent) pair is killed with probability `kill_p` and
    /// revived two rounds later — a reproducible stand-in for "devices
    /// flake at random". The same seed always yields the same schedule.
    ///
    /// # Panics
    ///
    /// Panics if `kill_p` is not a probability in `[0, 1)`.
    pub fn seeded(seed: u64, n_agents: usize, rounds: u64, kill_p: f64) -> ChurnSchedule {
        assert!(
            kill_p.is_finite() && (0.0..1.0).contains(&kill_p),
            "kill_p must be a probability in [0, 1), got {kill_p}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = ChurnSchedule::new();
        let mut down_until = vec![0u64; n_agents];
        for round in 1..=rounds {
            for (agent, down) in down_until.iter_mut().enumerate() {
                if *down > round {
                    continue;
                }
                if kill_p > 0.0 && rng.gen_bool(kill_p) {
                    plan = plan.kill(agent, round).revive(agent, round + 2);
                    *down = round + 2;
                }
            }
        }
        plan
    }

    /// The scheduled events, in application order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The highest agent slot any event names, if any.
    pub fn max_agent(&self) -> Option<usize> {
        self.events.iter().map(|e| e.agent).max()
    }

    /// How many revivals are scheduled (each needs a replacement agent
    /// the cluster can mint).
    pub fn revivals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.action == ChurnAction::Revive)
            .count()
    }

    /// Events firing before round `round`, in insertion order.
    pub fn events_at(&self, round: u64) -> impl Iterator<Item = ChurnEvent> + '_ {
        self.events
            .iter()
            .copied()
            .filter(move |e| e.round == round)
    }
}

impl std::str::FromStr for ChurnSchedule {
    type Err = String;

    /// Parses the CLI grammar: a comma-separated list of
    /// `k<agent>@<round>` (kill) and `r<agent>@<round>` (revive), e.g.
    /// `k1@2,r1@4` — kill agent 1 before round 2, revive it before
    /// round 4.
    fn from_str(s: &str) -> Result<ChurnSchedule, String> {
        let mut plan = ChurnSchedule::new();
        for seg in s.split(',') {
            let seg = seg.trim();
            if seg.is_empty() {
                continue;
            }
            // Split on the first *character*, not byte: a multi-byte
            // typo (e.g. a Greek kappa) must be a parse error, not a
            // char-boundary panic.
            let mut chars = seg.chars();
            let action = match chars.next() {
                Some('k') => ChurnAction::Kill,
                Some('r') => ChurnAction::Revive,
                other => {
                    return Err(format!(
                        "churn event `{seg}` must start with k (kill) or r (revive), got `{}`",
                        other.map(String::from).unwrap_or_default()
                    ))
                }
            };
            let rest = chars.as_str();
            let (agent, round) = rest
                .split_once('@')
                .ok_or_else(|| format!("churn event `{seg}` must look like k<agent>@<round>"))?;
            let agent: usize = agent
                .parse()
                .map_err(|_| format!("invalid agent index in churn event `{seg}`"))?;
            let round: u64 = round
                .parse()
                .map_err(|_| format!("invalid round in churn event `{seg}`"))?;
            plan.events.push(ChurnEvent {
                round,
                agent,
                action,
            });
        }
        if plan.is_empty() {
            return Err("churn schedule needs at least one k<agent>@<round> event".into());
        }
        Ok(plan)
    }
}

/// A transport whose peer has crashed: every operation fails with a
/// typed [`ClanError::Transport`], immediately — the deterministic
/// stand-in for an unplugged device. The cluster swaps a killed link's
/// transport for this, so the failure is observed through the exact
/// production error path.
#[derive(Debug)]
pub struct DeadTransport {
    peer: String,
}

impl DeadTransport {
    /// A dead link that used to talk to `peer`.
    pub fn new(peer: String) -> DeadTransport {
        DeadTransport { peer }
    }

    fn err(&self) -> ClanError {
        ClanError::Transport {
            peer: self.peer.clone(),
            reason: "agent killed by churn injector".into(),
        }
    }
}

impl Transport for DeadTransport {
    fn send_frame(&mut self, _frame: &[u8]) -> Result<(), ClanError> {
        Err(self.err())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, ClanError> {
        Err(self.err())
    }

    fn peer(&self) -> String {
        format!("{} (dead)", self.peer)
    }

    fn take_link_stats(&mut self) -> LinkStats {
        LinkStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_builder_and_lookup() {
        let plan = ChurnSchedule::new().kill(1, 2).revive(1, 4).kill(0, 2);
        assert_eq!(plan.events().len(), 3);
        assert_eq!(plan.revivals(), 1);
        assert_eq!(plan.max_agent(), Some(1));
        let at2: Vec<ChurnEvent> = plan.events_at(2).collect();
        assert_eq!(at2.len(), 2);
        assert_eq!(at2[0].agent, 1, "insertion order preserved");
        assert_eq!(at2[0].action, ChurnAction::Kill);
        assert_eq!(plan.events_at(3).count(), 0);
        assert_eq!(plan.events_at(4).count(), 1);
    }

    #[test]
    fn parse_round_trips_the_cli_grammar() {
        let plan: ChurnSchedule = "k1@2,r1@4".parse().unwrap();
        assert_eq!(plan, ChurnSchedule::new().kill(1, 2).revive(1, 4));
        let padded: ChurnSchedule = " k0@1 , r0@3 ,".parse().unwrap();
        assert_eq!(padded, ChurnSchedule::new().kill(0, 1).revive(0, 3));
        assert!("".parse::<ChurnSchedule>().is_err());
        assert!("x1@2".parse::<ChurnSchedule>().is_err());
        // Multi-byte first character: typed error, not a slice panic.
        assert!("κ1@2".parse::<ChurnSchedule>().is_err());
        assert!("k1".parse::<ChurnSchedule>().is_err());
        assert!("k@2".parse::<ChurnSchedule>().is_err());
        assert!("k1@two".parse::<ChurnSchedule>().is_err());
    }

    #[test]
    fn seeded_schedules_replay_exactly_and_differ_by_seed() {
        let a = ChurnSchedule::seeded(7, 4, 10, 0.3);
        assert_eq!(a, ChurnSchedule::seeded(7, 4, 10, 0.3));
        assert_ne!(a, ChurnSchedule::seeded(8, 4, 10, 0.3));
        assert!(!a.is_empty(), "p=0.3 over 40 slots should kill something");
        // Every kill is paired with a revival two rounds later.
        let kills = a
            .events()
            .iter()
            .filter(|e| e.action == ChurnAction::Kill)
            .count();
        let revives = a
            .events()
            .iter()
            .filter(|e| e.action == ChurnAction::Revive)
            .count();
        assert_eq!(kills, revives);
        assert!(ChurnSchedule::seeded(7, 4, 10, 0.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "kill_p must be a probability")]
    fn seeded_rejects_bad_probability() {
        let _ = ChurnSchedule::seeded(0, 2, 2, 1.5);
    }

    #[test]
    fn dead_transport_fails_every_operation_typed() {
        let mut t = DeadTransport::new("channel:agent".into());
        assert!(matches!(
            t.send_frame(b"hello"),
            Err(ClanError::Transport { .. })
        ));
        assert!(matches!(t.recv_frame(), Err(ClanError::Transport { .. })));
        assert!(t.peer().contains("dead"));
        assert_eq!(t.take_link_stats(), LinkStats::default());
    }
}
