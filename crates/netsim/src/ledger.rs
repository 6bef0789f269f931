//! Per-message-kind communication accounting (paper Figure 4).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The message categories of the paper's Figure 4 legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MessageKind {
    /// Center → agents: whole genomes for distributed inference (DCS) or
    /// the one-time clan distribution (DDA initialization).
    SendGenomes,
    /// Agents → center: fitness scalars after inference.
    SendFitness,
    /// Center → agents: per-species spawn counts (DDS planning).
    SendSpawnCount,
    /// Center → agents: child specs / parent index lists (DDS planning).
    SendParentList,
    /// Center → agents: parent genomes needed for reproduction (DDS).
    SendParentGenomes,
    /// Agents → center: formed children for synchronous speciation (DDS).
    SendChildren,
}

impl MessageKind {
    /// All kinds, in the paper's legend order.
    pub const ALL: [MessageKind; 6] = [
        MessageKind::SendGenomes,
        MessageKind::SendFitness,
        MessageKind::SendSpawnCount,
        MessageKind::SendParentList,
        MessageKind::SendParentGenomes,
        MessageKind::SendChildren,
    ];
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageKind::SendGenomes => "Sending Genomes",
            MessageKind::SendFitness => "Sending Fitness",
            MessageKind::SendSpawnCount => "Sending Spawn Count",
            MessageKind::SendParentList => "Sending Parent List",
            MessageKind::SendParentGenomes => "Sending Parent Genomes",
            MessageKind::SendChildren => "Sending Children",
        };
        f.write_str(s)
    }
}

/// Accumulated traffic for one message kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Number of messages sent.
    pub messages: u64,
    /// Total 32-bit values (genes/floats) carried.
    pub floats: u64,
    /// Measured bytes on a real transport (framing included). Zero for
    /// purely modeled runs, where only `floats` is accounted.
    pub wire_bytes: u64,
    /// Bytes spent *recovering loss* on top of `wire_bytes`. Loss is
    /// booked per link, not per kind, so a kind's entry keeps this at
    /// zero; the run's total is
    /// [`CommLedger::total_retrans_bytes`].
    pub retrans_wire_bytes: u64,
}

/// Records every message of a run, by kind.
///
/// The ledger is the source of both Figure 4 (floats transferred by kind)
/// and, combined with a [`WifiModel`], the communication-time component of
/// the execution timelines.
///
/// [`WifiModel`]: crate::WifiModel
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommLedger {
    entries: BTreeMap<MessageKind, LedgerEntry>,
    /// Loss-recovery bytes over all links (see
    /// [`record_retrans`](CommLedger::record_retrans)).
    #[serde(default)]
    retrans_bytes: u64,
}

impl CommLedger {
    /// Creates an empty ledger.
    pub fn new() -> CommLedger {
        CommLedger::default()
    }

    /// Records one message of `kind` carrying `floats` 32-bit values.
    pub fn record(&mut self, kind: MessageKind, floats: u64) {
        self.record_wire(kind, floats, 0);
    }

    /// Records one message of `kind` carrying `floats` 32-bit values that
    /// was observed on a real transport occupying `wire_bytes` bytes
    /// (payload plus framing). The real TCP/channel runtime uses this so
    /// the analytic model's traffic (4 bytes per float, no framing) can
    /// be validated against what a wire format actually costs.
    pub fn record_wire(&mut self, kind: MessageKind, floats: u64, wire_bytes: u64) {
        let e = self.entries.entry(kind).or_default();
        e.messages += 1;
        e.floats += floats;
        e.wire_bytes += wire_bytes;
    }

    /// Records `bytes` of loss-recovery overhead (retransmitted and
    /// duplicate datagrams). Message and float counts are untouched: a
    /// retransmission moves no new payload, only repeats bytes already
    /// accounted in `wire_bytes`.
    pub fn record_retrans(&mut self, bytes: u64) {
        self.retrans_bytes += bytes;
    }

    /// Accumulated entry for `kind`.
    pub fn entry(&self, kind: MessageKind) -> LedgerEntry {
        self.entries.get(&kind).copied().unwrap_or_default()
    }

    /// Total floats transferred across all kinds.
    pub fn total_floats(&self) -> u64 {
        self.entries.values().map(|e| e.floats).sum()
    }

    /// Total messages sent across all kinds.
    pub fn total_messages(&self) -> u64 {
        self.entries.values().map(|e| e.messages).sum()
    }

    /// Total measured bytes on the wire across all kinds (zero for
    /// modeled-only ledgers).
    pub fn total_wire_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.wire_bytes).sum()
    }

    /// Total loss-recovery bytes (retransmissions + received duplicates)
    /// across all links. Zero on reliable transports; under a lossy
    /// datagram transport this is the measured price of the medium.
    pub fn total_retrans_bytes(&self) -> u64 {
        self.retrans_bytes
    }

    /// Loss-recovery bytes as a fraction of first-transmission wire
    /// bytes, when both were measured — e.g. `0.25` means a quarter of
    /// the useful traffic was re-sent.
    pub fn retrans_overhead(&self) -> Option<f64> {
        let wire = self.total_wire_bytes();
        (wire > 0 && self.total_retrans_bytes() > 0)
            .then(|| self.total_retrans_bytes() as f64 / wire as f64)
    }

    /// Bytes the analytic model charges for this traffic: 4 bytes per
    /// 32-bit float/gene, no framing (paper Table II).
    pub fn modeled_bytes(&self) -> u64 {
        self.total_floats() * 4
    }

    /// Measured-over-modeled byte ratio, when both were recorded.
    ///
    /// `> 1.0` means the real wire format (f64 attributes, gene keys,
    /// length prefixes) costs more than the paper's 4-bytes-per-gene
    /// accounting; the gap is the framing overhead `clan-netsim`'s
    /// timeline model does not see.
    pub fn framing_overhead(&self) -> Option<f64> {
        let (modeled, wire) = (self.modeled_bytes(), self.total_wire_bytes());
        (modeled > 0 && wire > 0).then(|| wire as f64 / modeled as f64)
    }

    /// `(kind, entry)` rows in legend order, including zero rows.
    pub fn rows(&self) -> Vec<(MessageKind, LedgerEntry)> {
        MessageKind::ALL
            .iter()
            .map(|&k| (k, self.entry(k)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut l = CommLedger::new();
        l.record(MessageKind::SendGenomes, 100);
        l.record(MessageKind::SendGenomes, 50);
        l.record(MessageKind::SendFitness, 1);
        assert_eq!(
            l.entry(MessageKind::SendGenomes),
            LedgerEntry {
                messages: 2,
                floats: 150,
                wire_bytes: 0,
                retrans_wire_bytes: 0
            }
        );
        assert_eq!(l.total_floats(), 151);
        assert_eq!(l.total_messages(), 3);
    }

    #[test]
    fn wire_bytes_tracked_and_compared_to_model() {
        let mut l = CommLedger::new();
        assert_eq!(l.framing_overhead(), None, "empty ledger has no ratio");
        l.record_wire(MessageKind::SendGenomes, 100, 1000);
        l.record_wire(MessageKind::SendFitness, 50, 200);
        assert_eq!(l.total_wire_bytes(), 1200);
        assert_eq!(l.modeled_bytes(), 600);
        assert!((l.framing_overhead().unwrap() - 2.0).abs() < 1e-12);
        // Modeled-only records keep the ratio meaningful.
        l.record(MessageKind::SendSpawnCount, 10);
        assert_eq!(l.entry(MessageKind::SendSpawnCount).wire_bytes, 0);
    }

    #[test]
    fn rows_in_legend_order_with_zeros() {
        let mut l = CommLedger::new();
        l.record(MessageKind::SendChildren, 7);
        let rows = l.rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].0, MessageKind::SendGenomes);
        assert_eq!(rows[0].1.floats, 0);
        assert_eq!(rows[5].1.floats, 7);
    }

    #[test]
    fn retrans_bytes_total_without_message_counts() {
        let mut l = CommLedger::new();
        assert_eq!(l.total_retrans_bytes(), 0);
        assert_eq!(l.retrans_overhead(), None);
        l.record_wire(MessageKind::SendGenomes, 100, 1000);
        l.record_retrans(250);
        l.record_retrans(50);
        assert_eq!(l.total_messages(), 1, "retrans moves no new messages");
        assert_eq!(l.entry(MessageKind::SendGenomes).retrans_wire_bytes, 0);
        assert_eq!(l.total_retrans_bytes(), 300);
        assert!((l.retrans_overhead().unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn overhead_ratios_guard_zero_denominators() {
        // Empty ledger: no traffic at all — both ratios are None, never
        // NaN or inf.
        let empty = CommLedger::new();
        assert_eq!(empty.framing_overhead(), None);
        assert_eq!(empty.retrans_overhead(), None);

        // Modeled-only run: floats recorded, zero wire bytes. The
        // framing ratio would divide wire/modeled = 0/600 (misleading,
        // not undefined) and retrans would divide by zero wire bytes.
        let mut modeled = CommLedger::new();
        modeled.record(MessageKind::SendGenomes, 150);
        assert_eq!(modeled.modeled_bytes(), 600);
        assert_eq!(modeled.framing_overhead(), None);
        assert_eq!(modeled.retrans_overhead(), None);

        // Retransmissions without measured first-transmission bytes
        // (pathological, but reachable if only record_retrans ran): the
        // retrans ratio's denominator is zero, so it must stay None.
        let mut retrans_only = CommLedger::new();
        retrans_only.record_retrans(512);
        assert_eq!(retrans_only.total_retrans_bytes(), 512);
        assert_eq!(retrans_only.retrans_overhead(), None);

        // Measured wire traffic turns both ratios on, and they are finite.
        let mut wire = CommLedger::new();
        wire.record_wire(MessageKind::SendGenomes, 100, 800);
        wire.record_retrans(200);
        assert!((wire.framing_overhead().unwrap() - 2.0).abs() < 1e-12);
        assert!((wire.retrans_overhead().unwrap() - 0.25).abs() < 1e-12);
        assert!(wire.framing_overhead().unwrap().is_finite());
        assert!(wire.retrans_overhead().unwrap().is_finite());
    }

    #[test]
    fn display_matches_legend() {
        assert_eq!(
            MessageKind::SendSpawnCount.to_string(),
            "Sending Spawn Count"
        );
        assert_eq!(
            MessageKind::SendParentGenomes.to_string(),
            "Sending Parent Genomes"
        );
    }
}
