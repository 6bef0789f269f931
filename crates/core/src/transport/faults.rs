//! Deterministic fault injection for datagram links.
//!
//! Real shared-medium WiFi loses, duplicates, reorders, and delays
//! frames; reproducing that in a test or bench requires the faults to be
//! *seeded*, not left to the kernel's mood. [`FaultyTransport`] wraps
//! any inner [`DatagramLink`] — a real UDP socket, an in-process
//! channel — and perturbs the datagram stream with a per-link RNG:
//!
//! - **drop** — outbound and inbound datagrams vanish with probability
//!   `drop_p` (independent streams per direction, so one wrapper on the
//!   coordinator side makes the whole link bidirectionally lossy);
//! - **duplicate** — an outbound datagram is sent twice with
//!   probability `dup_p`;
//! - **reorder** — an outbound datagram is held back and transmitted
//!   after the next one with probability `reorder_p`.
//!
//! Faults cost no time: a slow link is a
//! [`DelayTransport`](super::DelayTransport) (`clan-cli agent
//! --delay-ms`), the one way to slow one.
//!
//! Faults sit *below* the ARQ layer
//! ([`UdpTransport`](super::UdpTransport)), which is what makes them
//! recoverable: the reliability protocol retransmits, deduplicates, and
//! reorders back, so a run under injected loss stays bit-identical to a
//! clean one — only timing and the retransmission overhead recorded in
//! [`LinkStats`](super::LinkStats) change. (Injecting loss *above* a
//! reliable transport would simply corrupt the session — that layering
//! is the point of this module.)

use super::udp::DatagramLink;
use crate::error::ClanError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Mixes a seed and a link index into an independent per-link seed
/// (splitmix64 finalizer — one shared seed must not give every link the
/// same loss pattern).
fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded fault plan for one link (probabilities per datagram).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability a datagram is dropped (applied independently to each
    /// direction).
    pub drop_p: f64,
    /// Probability an outbound datagram is sent twice.
    pub dup_p: f64,
    /// Probability an outbound datagram is held and sent after its
    /// successor.
    pub reorder_p: f64,
    /// RNG seed the fault decisions derive from.
    pub seed: u64,
}

impl Default for FaultConfig {
    /// No faults, seed 0.
    fn default() -> FaultConfig {
        FaultConfig {
            drop_p: 0.0,
            dup_p: 0.0,
            reorder_p: 0.0,
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// A pure-loss plan: drop each datagram with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability in `[0, 1)`.
    pub fn loss(p: f64) -> FaultConfig {
        FaultConfig::default().with_drop(p)
    }

    fn check_p(p: f64, what: &str) {
        assert!(
            p.is_finite() && (0.0..1.0).contains(&p),
            "{what} must be a probability in [0, 1), got {p}"
        );
    }

    /// Sets the drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn with_drop(mut self, p: f64) -> FaultConfig {
        Self::check_p(p, "drop_p");
        self.drop_p = p;
        self
    }

    /// Sets the duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn with_dup(mut self, p: f64) -> FaultConfig {
        Self::check_p(p, "dup_p");
        self.dup_p = p;
        self
    }

    /// Sets the reorder probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn with_reorder(mut self, p: f64) -> FaultConfig {
        Self::check_p(p, "reorder_p");
        self.reorder_p = p;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> FaultConfig {
        self.seed = seed;
        self
    }

    /// The same plan reseeded for link `index`, so every link of a
    /// cluster draws an independent, reproducible fault stream.
    pub fn for_link(&self, index: usize) -> FaultConfig {
        let mut cfg = self.clone();
        cfg.seed = mix_seed(self.seed, index as u64 + 1);
        cfg
    }
}

/// Counters of faults actually injected by one [`FaultyTransport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedFaults {
    /// Outbound datagrams silently discarded.
    pub dropped_tx: u64,
    /// Inbound datagrams silently discarded.
    pub dropped_rx: u64,
    /// Outbound datagrams transmitted twice.
    pub duplicated: u64,
    /// Outbound datagrams held back behind their successor.
    pub reordered: u64,
}

impl InjectedFaults {
    /// Total datagrams perturbed in any way.
    pub fn total(&self) -> u64 {
        self.dropped_tx + self.dropped_rx + self.duplicated + self.reordered
    }
}

/// A [`DatagramLink`] wrapper that perturbs the datagram stream with
/// seeded drop / duplicate / reorder faults (see the module
/// docs for the exact semantics and why this sits below the ARQ layer).
#[derive(Debug)]
pub struct FaultyTransport<L: DatagramLink> {
    inner: L,
    cfg: FaultConfig,
    tx_rng: StdRng,
    rx_rng: StdRng,
    /// The reorder slot: a held datagram goes out after the next send.
    held: Option<Vec<u8>>,
    injected: InjectedFaults,
}

impl<L: DatagramLink> FaultyTransport<L> {
    /// Wraps `inner` with the given fault plan. Send-side and
    /// receive-side decisions draw from independent streams derived from
    /// `cfg.seed`.
    pub fn new(inner: L, cfg: FaultConfig) -> FaultyTransport<L> {
        FaultyTransport {
            tx_rng: StdRng::seed_from_u64(mix_seed(cfg.seed, 0x7478)), // "tx"
            rx_rng: StdRng::seed_from_u64(mix_seed(cfg.seed, 0x7278)), // "rx"
            inner,
            cfg,
            held: None,
            injected: InjectedFaults::default(),
        }
    }

    /// The faults injected so far.
    pub fn injected(&self) -> InjectedFaults {
        self.injected
    }

    /// The wrapped link.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// One physical transmission attempt: drop / duplicate decisions.
    fn transmit(&mut self, datagram: &[u8]) -> Result<(), ClanError> {
        if self.cfg.drop_p > 0.0 && self.tx_rng.gen_bool(self.cfg.drop_p) {
            self.injected.dropped_tx += 1;
            return Ok(());
        }
        self.inner.send(datagram)?;
        if self.cfg.dup_p > 0.0 && self.tx_rng.gen_bool(self.cfg.dup_p) {
            self.injected.duplicated += 1;
            self.inner.send(datagram)?;
        }
        Ok(())
    }
}

impl<L: DatagramLink> DatagramLink for FaultyTransport<L> {
    fn send(&mut self, datagram: &[u8]) -> Result<(), ClanError> {
        if self.cfg.reorder_p > 0.0
            && self.held.is_none()
            && self.tx_rng.gen_bool(self.cfg.reorder_p)
        {
            // Hold this datagram; it leaves right after the next one.
            // (If no further send comes, the ARQ layer's retransmission
            // re-sends the data anyway — exactly like a long reorder.)
            self.injected.reordered += 1;
            self.held = Some(datagram.to_vec());
            return Ok(());
        }
        self.transmit(datagram)?;
        if let Some(held) = self.held.take() {
            self.transmit(&held)?;
        }
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, ClanError> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let Some(datagram) = self.inner.recv(remaining)? else {
                return Ok(None);
            };
            if self.cfg.drop_p > 0.0 && self.rx_rng.gen_bool(self.cfg.drop_p) {
                // Past the deadline the next receive is a poll, so
                // `None` still means what the ARQ layer takes it to
                // mean: the inner link's backlog is empty.
                self.injected.dropped_rx += 1;
                continue;
            }
            return Ok(Some(datagram));
        }
    }

    fn peer(&self) -> String {
        format!("{} (faulty)", self.inner.peer())
    }

    fn window(&self) -> usize {
        self.inner.window()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::udp::datagram_channel_pair;

    #[test]
    fn zero_fault_plan_is_transparent() {
        let (a, mut b) = datagram_channel_pair();
        let mut faulty = FaultyTransport::new(a, FaultConfig::default());
        faulty.send(b"hello").unwrap();
        assert_eq!(
            b.recv(Duration::from_millis(100)).unwrap().unwrap(),
            b"hello"
        );
        b.send(b"back").unwrap();
        assert_eq!(
            faulty.recv(Duration::from_millis(100)).unwrap().unwrap(),
            b"back"
        );
        assert_eq!(faulty.injected().total(), 0);
    }

    #[test]
    fn full_loss_drops_everything_deterministically() {
        let (a, mut b) = datagram_channel_pair();
        let mut faulty = FaultyTransport::new(a, FaultConfig::loss(0.999_999).with_seed(1));
        for _ in 0..20 {
            faulty.send(b"x").unwrap();
        }
        assert!(b.recv(Duration::from_millis(20)).unwrap().is_none());
        assert_eq!(faulty.injected().dropped_tx, 20);
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let survivors = |seed: u64| -> Vec<usize> {
            let (a, mut b) = datagram_channel_pair();
            let mut faulty = FaultyTransport::new(a, FaultConfig::loss(0.5).with_seed(seed));
            for i in 0..64u8 {
                faulty.send(&[i]).unwrap();
            }
            let mut got = Vec::new();
            while let Some(d) = b.recv(Duration::from_millis(5)).unwrap() {
                got.push(d[0] as usize);
            }
            got
        };
        let a = survivors(7);
        assert_eq!(a, survivors(7), "seeded faults must replay exactly");
        assert_ne!(a, survivors(8), "different seeds must differ");
        assert!(!a.is_empty() && a.len() < 64, "p=0.5 drops some, not all");
    }

    #[test]
    fn per_link_seeds_are_independent() {
        let base = FaultConfig::loss(0.3).with_seed(42);
        assert_ne!(base.for_link(0).seed, base.for_link(1).seed);
        assert_eq!(base.for_link(3).seed, base.for_link(3).seed);
        assert_ne!(base.for_link(0).seed, base.seed);
    }

    #[test]
    fn reorder_swaps_adjacent_datagrams() {
        let (a, mut b) = datagram_channel_pair();
        // reorder_p ~ 1: the first datagram is always held.
        let cfg = FaultConfig::default().with_reorder(0.999_999).with_seed(3);
        let mut faulty = FaultyTransport::new(a, cfg);
        faulty.send(b"1").unwrap();
        faulty.send(b"2").unwrap();
        let first = b.recv(Duration::from_millis(100)).unwrap().unwrap();
        let second = b.recv(Duration::from_millis(100)).unwrap().unwrap();
        assert_eq!(
            (first.as_slice(), second.as_slice()),
            (&b"2"[..], &b"1"[..])
        );
        assert!(faulty.injected().reordered >= 1);
    }

    #[test]
    fn duplication_sends_twice() {
        let (a, mut b) = datagram_channel_pair();
        let cfg = FaultConfig::default().with_dup(0.999_999).with_seed(4);
        let mut faulty = FaultyTransport::new(a, cfg);
        faulty.send(b"d").unwrap();
        assert!(b.recv(Duration::from_millis(100)).unwrap().is_some());
        assert!(b.recv(Duration::from_millis(100)).unwrap().is_some());
        assert_eq!(faulty.injected().duplicated, 1);
    }

    #[test]
    #[should_panic(expected = "drop_p must be a probability")]
    fn out_of_range_probability_rejected() {
        let _ = FaultConfig::loss(1.5);
    }
}
