//! Pluggable cluster transports: how coordinator and agents actually
//! exchange frames.
//!
//! The CLAN protocols are transport-agnostic: one [`codec`] defines the
//! binary frame vocabulary ([`WireMessage`]), and a [`Transport`] moves
//! opaque frames between two endpoints. Two implementations ship:
//!
//! - [`ChannelTransport`] — in-process `mpsc` byte channels, the
//!   zero-configuration default for threaded clusters and tests;
//! - [`TcpTransport`] — length-prefixed frames over `std::net`
//!   sockets, connecting real processes on real machines (or loopback
//!   agents spawned by
//!   [`EdgeCluster::spawn_local_spec`](crate::runtime::EdgeCluster::spawn_local_spec)).
//!
//! Both move the *same encoded bytes*, so byte accounting, determinism,
//! and malformed-frame behavior are identical regardless of transport:
//! a TCP cluster run is bit-identical to a serial run (asserted by
//! `tests/net_equivalence.rs`), and every decode failure is a typed
//! [`FrameError`](crate::error::FrameError), never a panic or a hang.
//!
//! The agent side of the protocol lives in [`agent`]: a session loop
//! shared by in-process worker threads and `clan-cli agent` processes.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::indexing_slicing)]
#![allow(clippy::disallowed_methods, reason = "ARQ timers are wall-clock")]

pub mod agent;
mod channel;
pub mod churn;
pub mod codec;
mod delay;
pub mod faults;
mod tcp;
pub mod udp;

pub use channel::{channel_pair, ChannelTransport};
pub use churn::{ChurnAction, ChurnEvent, ChurnSchedule, DeadTransport};
pub use codec::{
    decode, encode, ClusterSpec, WireEvaluation, WireMessage, LENGTH_PREFIX_BYTES, MAX_FRAME_BYTES,
};
pub use delay::DelayTransport;
pub use faults::{FaultConfig, FaultyTransport, InjectedFaults};
pub use tcp::TcpTransport;
pub use udp::{
    datagram_channel_pair, ChannelDatagramLink, DatagramLink, LinkStats, UdpConfig, UdpLink,
    UdpTransport,
};

use crate::error::ClanError;
use std::time::Duration;

/// A bidirectional, ordered, reliable frame pipe between a coordinator
/// and one agent.
///
/// Implementations move frames verbatim; the [`codec`] gives the bytes
/// meaning. `recv_frame` blocks until a frame arrives or the peer is
/// gone — disconnection is a typed error, never a hang.
pub trait Transport: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`ClanError::Transport`] if the peer is unreachable.
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), ClanError>;

    /// Receives the next frame, blocking.
    ///
    /// # Errors
    ///
    /// [`ClanError::Transport`] on disconnect or I/O failure, and
    /// [`ClanError::Frame`] if the stream announces an oversized frame.
    fn recv_frame(&mut self) -> Result<Vec<u8>, ClanError>;

    /// Human-readable peer label (address or transport kind), used in
    /// error messages.
    fn peer(&self) -> String;

    /// Returns and resets the loss-recovery overhead observed since the
    /// last call (retransmitted / duplicate datagrams). Reliable
    /// transports have none; [`UdpTransport`] measures it.
    fn take_link_stats(&mut self) -> LinkStats {
        LinkStats::default()
    }

    /// Best-effort flush: blocks until every frame already sent is known
    /// to have reached the peer — and, on success, tells a
    /// [`linger`](Transport::linger)ing peer so — or `deadline` elapses. A no-op on
    /// transports whose `send_frame` is already synchronous (channel,
    /// TCP); [`UdpTransport`] keeps its window and retransmission
    /// timers running until everything is acknowledged — `EdgeCluster::shutdown` uses this so a lossy link
    /// still delivers the final `Shutdown`.
    ///
    /// # Errors
    ///
    /// [`ClanError::Timeout`] if unacknowledged frames remain at the
    /// deadline, plus any transport failure.
    fn drain(&mut self, deadline: Duration) -> Result<(), ClanError> {
        let _ = deadline;
        Ok(())
    }

    /// Called by the side that leaves a session first, after its last
    /// frame has arrived: stays just long enough for the peer to learn
    /// that it did. A no-op on transports that deliver synchronously;
    /// [`UdpTransport`] keeps re-acknowledging the peer's
    /// retransmissions until the peer's [`drain`](Transport::drain)
    /// reports completion or the link has gone quiet (bounded), so a
    /// lost final ack costs the peer milliseconds, not its whole
    /// deadline.
    fn linger(&mut self) {}
}

/// Bytes a frame occupies on the wire: its encoded length plus the
/// stream framing (length prefix) every transport charges uniformly.
///
/// This is deliberately *frame-level* accounting, identical on every
/// transport so ledgers stay comparable across TCP/channel/UDP runs: a
/// datagram transport's per-fragment and ack headers are not charged
/// here (its loss-recovery overhead is measured separately in
/// [`LinkStats`], in the same frame-byte units).
pub fn wire_bytes(frame: &[u8]) -> u64 {
    frame.len() as u64 + LENGTH_PREFIX_BYTES
}

/// Refuses a frame length above [`MAX_FRAME_BYTES`], wherever one enters
/// (announced by a peer or about to be sent), before acting on it.
pub(crate) fn check_frame_len(announced: u64) -> Result<(), ClanError> {
    let max = MAX_FRAME_BYTES;
    if announced > max {
        return Err(crate::error::FrameError::Oversized { announced, max }.into());
    }
    Ok(())
}

/// Sends a message and returns its measured wire size.
///
/// # Errors
///
/// Propagates transport failures.
pub fn send_message(t: &mut dyn Transport, msg: &WireMessage) -> Result<u64, ClanError> {
    let frame = encode(msg);
    t.send_frame(&frame)?;
    Ok(wire_bytes(&frame))
}

/// Receives and decodes the next message, returning it with its
/// measured wire size.
///
/// # Errors
///
/// Propagates transport failures and typed frame errors.
pub fn recv_message(t: &mut dyn Transport) -> Result<(WireMessage, u64), ClanError> {
    // The concrete transport's recv_frame owns the deadline (TCP
    // read_timeout, UDP idle_timeout).
    let frame = t.recv_frame()?;
    let msg = decode(&frame)?;
    Ok((msg, wire_bytes(&frame)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_moves_messages_both_ways() {
        let (mut a, mut b) = channel_pair();
        send_message(&mut a, &WireMessage::Shutdown).unwrap();
        let (msg, bytes) = recv_message(&mut b).unwrap();
        assert_eq!(msg, WireMessage::Shutdown);
        assert_eq!(bytes, 6 + LENGTH_PREFIX_BYTES);
        send_message(&mut b, &WireMessage::Shutdown).unwrap();
        assert!(recv_message(&mut a).is_ok());
    }

    #[test]
    fn dropped_peer_is_a_typed_error() {
        let (mut a, b) = channel_pair();
        drop(b);
        assert!(matches!(
            send_message(&mut a, &WireMessage::Shutdown),
            Err(ClanError::Transport { .. })
        ));
        assert!(matches!(
            recv_message(&mut a),
            Err(ClanError::Transport { .. })
        ));
    }
}
