//! Transfer-time model of the testbed's WiFi link.

use serde::{Deserialize, Serialize};

/// Bytes per gene: the paper defines a gene as a 32-bit datastructure.
pub const GENE_BYTES: u64 = 4;

/// Point-to-point WiFi link model.
///
/// Transfer time of an `n`-byte message is
/// `base_latency_s + n * 8 / bandwidth_bps`. The defaults are the paper's
/// measured constants; [`WifiModel::scaled`] derives the hypothetical
/// better-technology links of Figure 10(a, b).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WifiModel {
    /// Client-to-client bandwidth, bits per second.
    pub bandwidth_bps: f64,
    /// Per-message setup latency, seconds.
    pub base_latency_s: f64,
    /// Fixed cost of opening a communication channel between the center
    /// and one agent for one phase (connection establishment plus
    /// serialization dispatch). The paper singles this out: "the constant
    /// cost of invoking the communication channels also kills this design"
    /// (§IV-D). Charged once per (phase, agent) pair.
    pub channel_setup_s: f64,
    /// Datagram payload size the link fragments messages at:
    /// [`message_time_s`](WifiModel::message_time_s) charges
    /// `base_latency_s` once per *datagram* for messages larger than
    /// one MTU — what the PR-4 validation measured a real datagram
    /// stack paying (a fragmented 16 kB frame cost 13.4× the
    /// per-message model).
    pub mtu_bytes: u64,
}

impl Default for WifiModel {
    /// The paper's measured testbed: 62.24 Mbps, 8.83 ms per message,
    /// with a 150 ms per-phase channel-invocation overhead calibrated to
    /// Figure 5(b)'s communication growth and Figure 9's serial-crossover
    /// points, fragmenting at the datagram transport's default 1200 B
    /// MTU (messages that fit one datagram — every CartPole-scale genome
    /// — are charged exactly as before).
    fn default() -> Self {
        WifiModel {
            bandwidth_bps: 62.24e6,
            base_latency_s: 8.83e-3,
            channel_setup_s: 0.15,
            mtu_bytes: 1200,
        }
    }
}

impl WifiModel {
    /// Creates a link model with the default channel-invocation overhead.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is not positive and finite, or latency is
    /// negative or not finite (NaN fails both checks) — a link model
    /// with nonsense constants would silently corrupt every timeline
    /// built on it.
    pub fn new(bandwidth_bps: f64, base_latency_s: f64) -> WifiModel {
        assert!(
            bandwidth_bps.is_finite() && bandwidth_bps > 0.0,
            "bandwidth must be positive and finite, got {bandwidth_bps}"
        );
        assert!(
            base_latency_s.is_finite() && base_latency_s >= 0.0,
            "latency must be non-negative and finite, got {base_latency_s}"
        );
        WifiModel {
            bandwidth_bps,
            base_latency_s,
            channel_setup_s: WifiModel::default().channel_setup_s,
            mtu_bytes: WifiModel::default().mtu_bytes,
        }
    }

    /// A hypothetical improved link: bandwidth multiplied by
    /// `bandwidth_factor`, latency and channel setup divided by
    /// `latency_factor`.
    ///
    /// Figure 10(a, b) halves the communication cost, i.e.
    /// `scaled(2.0, 2.0)`.
    ///
    /// # Panics
    ///
    /// Panics if either factor is zero, negative, or not finite.
    /// (A zero latency factor would divide to infinity and a zero
    /// bandwidth factor would zero the link — both previously produced
    /// silent nonsense timelines instead of an error.)
    pub fn scaled(&self, bandwidth_factor: f64, latency_factor: f64) -> WifiModel {
        assert!(
            bandwidth_factor.is_finite() && bandwidth_factor > 0.0,
            "bandwidth factor must be positive and finite, got {bandwidth_factor}"
        );
        assert!(
            latency_factor.is_finite() && latency_factor > 0.0,
            "latency factor must be positive and finite, got {latency_factor}"
        );
        WifiModel {
            bandwidth_bps: self.bandwidth_bps * bandwidth_factor,
            base_latency_s: self.base_latency_s / latency_factor,
            channel_setup_s: self.channel_setup_s / latency_factor,
            mtu_bytes: self.mtu_bytes,
        }
    }

    /// Transfer time for a message of `bytes` bytes **charged per
    /// message**: one `base_latency_s` regardless of size (the paper's
    /// original accounting).
    pub fn transfer_time_s(&self, bytes: u64) -> f64 {
        self.base_latency_s + (bytes * 8) as f64 / self.bandwidth_bps
    }

    /// Transfer time for a message of `bytes` bytes fragmented into
    /// `mtu`-byte datagrams, charging `base_latency_s` once **per
    /// datagram** — what the PR-4 validation measured on a real datagram
    /// path (16 fragments ≈ 16 × 8.83 ms, a 13.4× gap the per-message
    /// model missed). A message that fits one datagram costs exactly
    /// [`transfer_time_s`](WifiModel::transfer_time_s).
    ///
    /// # Panics
    ///
    /// Panics if `mtu` is zero.
    pub fn transfer_time_fragmented_s(&self, bytes: u64, mtu: u64) -> f64 {
        assert!(mtu > 0, "mtu must be at least one byte");
        let datagrams = bytes.div_ceil(mtu).max(1);
        datagrams as f64 * self.base_latency_s + (bytes * 8) as f64 / self.bandwidth_bps
    }

    /// Transfer time the timeline model charges for one message of
    /// `bytes` bytes: fragmented per [`mtu_bytes`](WifiModel::mtu_bytes)
    /// past one MTU, per-message up to it.
    pub fn message_time_s(&self, bytes: u64) -> f64 {
        if bytes > self.mtu_bytes {
            self.transfer_time_fragmented_s(bytes, self.mtu_bytes)
        } else {
            self.transfer_time_s(bytes)
        }
    }

    /// Transfer time for a message carrying `genes` genes (4 B each),
    /// honoring the fragmentation MTU — this is what the analytic
    /// timelines (`Comm::phase`) charge per message.
    pub fn gene_transfer_time_s(&self, genes: u64) -> f64 {
        self.message_time_s(genes * GENE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let w = WifiModel::default();
        assert_eq!(w.bandwidth_bps, 62.24e6);
        assert_eq!(w.base_latency_s, 8.83e-3);
    }

    #[test]
    fn sixty_four_byte_transfer_near_measured_latency() {
        // The paper quotes 8.83 ms for 64 B; the payload adds ~8 µs.
        let t = WifiModel::default().transfer_time_s(64);
        assert!((t - 8.83e-3).abs() < 1e-4, "got {t}");
    }

    #[test]
    fn latency_dominates_small_payloads() {
        let w = WifiModel::default();
        let small = w.transfer_time_s(4);
        let medium = w.transfer_time_s(4_000);
        assert!(medium < 2.0 * small, "setup cost should dominate");
    }

    #[test]
    fn bandwidth_dominates_large_payloads() {
        let w = WifiModel::default();
        let mb = w.transfer_time_s(1_000_000);
        assert!(mb > 0.1, "1 MB at 62 Mbps is > 100 ms, got {mb}");
    }

    #[test]
    fn scaled_halves_cost() {
        let w = WifiModel::default();
        let better = w.scaled(2.0, 2.0);
        let t = w.transfer_time_s(10_000);
        let t2 = better.transfer_time_s(10_000);
        assert!((t2 - t / 2.0).abs() < 1e-9);
        assert!((better.channel_setup_s - w.channel_setup_s / 2.0).abs() < 1e-12);
    }

    #[test]
    fn gene_transfer_uses_four_bytes() {
        let w = WifiModel::default();
        assert_eq!(w.gene_transfer_time_s(16), w.transfer_time_s(64));
    }

    #[test]
    fn fragmented_transfer_charges_latency_per_datagram() {
        let w = WifiModel::default();
        // 16 kB at a 1024 B MTU = 16 datagrams: the PR-4 validation's
        // measured case (≈141 ms of per-datagram latency, not 8.83 ms).
        let bytes = 16 * 1024;
        let t = w.transfer_time_fragmented_s(bytes, 1024);
        let expected = 16.0 * w.base_latency_s + (bytes * 8) as f64 / w.bandwidth_bps;
        assert!((t - expected).abs() < 1e-12, "got {t}, want {expected}");
        // One datagram: exactly the per-message model.
        assert_eq!(
            w.transfer_time_fragmented_s(512, 1024),
            w.transfer_time_s(512)
        );
        assert_eq!(w.transfer_time_fragmented_s(0, 1024), w.transfer_time_s(0));
    }

    #[test]
    fn timeline_message_time_fragments_past_the_mtu() {
        let w = WifiModel::default();
        let mtu = w.mtu_bytes;
        // At or under the MTU: unchanged vs the paper's accounting.
        assert_eq!(w.message_time_s(mtu), w.transfer_time_s(mtu));
        assert_eq!(w.gene_transfer_time_s(mtu / 4), w.transfer_time_s(mtu));
        // Past it: per-datagram latency kicks in.
        assert!(w.message_time_s(mtu + 1) > w.transfer_time_s(mtu + 1));
        assert_eq!(
            w.message_time_s(10 * mtu),
            w.transfer_time_fragmented_s(10 * mtu, mtu)
        );
    }

    #[test]
    #[should_panic(expected = "mtu must be at least one byte")]
    fn zero_mtu_rejected() {
        let _ = WifiModel::default().transfer_time_fragmented_s(100, 0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        WifiModel::new(0.0, 0.001);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn nan_bandwidth_rejected() {
        WifiModel::new(f64::NAN, 0.001);
    }

    #[test]
    #[should_panic(expected = "latency must be non-negative")]
    fn infinite_latency_rejected() {
        WifiModel::new(1e6, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "bandwidth factor must be positive")]
    fn zero_bandwidth_factor_rejected() {
        let _ = WifiModel::default().scaled(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "latency factor must be positive")]
    fn zero_latency_factor_rejected() {
        // Previously divided to an infinite-latency link, silently.
        let _ = WifiModel::default().scaled(2.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "latency factor must be positive")]
    fn negative_latency_factor_rejected() {
        let _ = WifiModel::default().scaled(2.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth factor must be positive")]
    fn nan_factor_rejected() {
        let _ = WifiModel::default().scaled(f64::NAN, 1.0);
    }
}
