//! Loss-tolerant datagram transport: MTU fragmentation + sliding-window
//! ARQ over UDP.
//!
//! The paper's edge swarm talks over shared-medium WiFi (§IV-A measures
//! 62.24 Mbps / 8.83 ms for 64 B transfers), where frames are lost,
//! duplicated, and reordered. The TCP transport sidesteps that by
//! assuming a reliable stream; this module meets it head on:
//!
//! - a [`DatagramLink`] moves *unreliable* datagrams — a real
//!   [`UdpLink`] over `std::net::UdpSocket`, an in-process
//!   [`datagram_channel_pair`] for tests, or a
//!   [`FaultyTransport`](super::FaultyTransport) wrapper injecting
//!   seeded drop / duplicate / reorder / delay faults below the
//!   reliability layer;
//! - [`UdpTransport`] turns any such link into a reliable, ordered
//!   [`Transport`]: frames are split into MTU-sized `DATA` datagrams
//!   carrying `(frame seq, fragment index, fragment count)` and sent
//!   through an **ack-clocked sliding window**; receivers deduplicate
//!   and reassemble, and frames are delivered strictly in sequence
//!   order.
//!
//! # The sender
//!
//! **Window.** At most [`DatagramLink::window`] datagrams are
//! sent-and-unacknowledged per link. The window is a property of the
//! medium, not a setting: a [`UdpLink`] keeps 64 in flight (64 × 1200 B
//! sits safely under the default 208 KiB `SO_RCVBUF`, which a
//! fire-and-forget 1.4 MB frame overflowed — the loss used to be
//! self-inflicted), an in-process channel has no buffer to overflow and
//! is unbounded. `send_frame` transmits what fits and returns without
//! waiting on any ack; the rest leaves as acks arrive, inside the same
//! pump that serves `recv_frame`, [`drain`](Transport::drain) and
//! [`linger`](Transport::linger). The request/response shape of the
//! cluster protocol guarantees every send is followed by a receive, so
//! nothing is ever stranded.
//!
//! **Timers.** Every fragment carries its own last-sent time and send
//! count. The retransmission timeout is derived from the measured
//! round trip (smoothed RTT + 4 × variance, sampled only from
//! never-retransmitted fragments — Karn's rule), floored at 2 ms,
//! doubled per retransmission of that fragment, and capped by
//! [`UdpConfig::retransmit_interval_s`], which is also the timeout
//! before the first sample. A timer fires **only after the link's
//! backlog has been read**: an endpoint returning from a compute phase
//! finds its timers expired *and* the acks already queued, and must not
//! declare those fragments lost.
//!
//! **Probes.** Nor does an expired timer declare anything lost: the peer
//! may simply not have read yet — an agent evaluating one run while the
//! next arrives, a coordinator's link worker waiting for work, any thread
//! kept off an oversubscribed host's CPU for longer than the timeout. The
//! endpoint sends a `PROBE` naming its latest transmission instead, again
//! at each timeout, doubled per unanswered probe. The peer `ANSWER`s
//! when it reads the probe, after acknowledging everything that arrived
//! before it, so a fragment sent before the probe and still
//! unacknowledged when the answer arrives was lost, and is re-sent
//! alone. A peer slow to read costs probes, never a retransmission. Only
//! a peer never heard from is sent the expired fragments again instead:
//! it may not have opened the session a probe would ask about (an agent
//! daemon adopts a coordinator on a fragment of its first frame alone).
//!
//! **Acks.** One `ACK` datagram carries `(frame seq, index, cum,
//! bitmap)`: the fragment that triggered it, the cumulative index
//! (every fragment below `cum` has arrived) and a 64-bit map of the
//! fragments just before the trigger (bit `k` ⇒ `index - 1 - k`
//! arrived). Every arrival is thus reported by the next 64 acks as
//! well as its own, so a lost ack costs nothing, and a gap is visible
//! at once: a fragment is declared lost — and re-sent immediately,
//! without waiting for its timer — as soon as a transmission made three
//! or more places after its own has been acknowledged (transmissions
//! are numbered per link, so a lost *re*transmission is caught the same
//! way).
//!
//! Because the ARQ layer reconstructs the exact frame bytes the codec
//! produced, everything above it — byte accounting, protocol sessions,
//! the determinism contract — is untouched by loss: a UDP cluster run
//! under 20 % injected loss is bit-identical to a serial run
//! (`tests/lossy_equivalence.rs`). What loss *does* cost is measured:
//! every retransmitted or duplicate-received datagram lands in
//! [`LinkStats`], which the runtime books against the link's
//! [`AgentStats`](crate::membership::AgentStats) row and the
//! [`CommLedger`](clan_netsim::CommLedger)'s
//! [`total_retrans_bytes`](clan_netsim::CommLedger::total_retrans_bytes).
//! On a clean link both stay zero.
//!
//! # Liveness
//!
//! A peer that goes silent never hangs the runtime. If no datagram at
//! all arrives for [`UdpConfig::idle_timeout_s`], `recv_frame` surfaces
//! a typed [`ClanError::Timeout`]. The last frame of a session is the
//! two-generals case — its ack can be lost after the receiver has left
//! — so the side that leaves first [`linger`](Transport::linger)s: it
//! keeps re-acknowledging duplicates until the sender's
//! [`drain`](Transport::drain) reports, with a `DONE` datagram, that
//! everything it sent is acknowledged — or, should that be lost too,
//! until the link has been quiet for two RTO ceilings (longer than any
//! pause between the sender's retransmissions), eight at most. The
//! drain then completes in milliseconds instead of retransmitting to
//! nobody until its deadline.

use super::{check_frame_len, Transport};
use crate::error::ClanError;
use crate::transport::faults::FaultConfig;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::net::{ToSocketAddrs, UdpSocket};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Magic prefix of every CLAN datagram (distinct from the `CLAN` frame
/// magic, which appears only inside reassembled frames).
pub const DATAGRAM_MAGIC: [u8; 4] = *b"CLDG";
/// Bytes of header on a `DATA` datagram (magic, type, seq, index, count).
pub const DATA_HEADER_BYTES: usize = 4 + 1 + 8 + 4 + 4;
/// Bytes of an `ACK` datagram (magic, type, seq, index, cumulative
/// index, bitmap of the 64 fragments before `index`).
pub const ACK_BYTES: usize = 4 + 1 + 8 + 4 + 4 + 8;
/// Frames more than this far ahead of the delivery cursor are ignored:
/// the request/response protocol never has more than two frames in
/// flight per direction, so a larger gap is garbage or hostility.
const SEQ_WINDOW: u64 = 64;
/// Datagrams a [`UdpLink`] keeps sent-and-unacknowledged: 64 × the
/// default 1200 B MTU is 75 KiB, well under the default 208 KiB
/// `SO_RCVBUF` even with the kernel's per-datagram bookkeeping.
const UDP_WINDOW: usize = 64;
/// A fragment is declared lost once a transmission this many places
/// after its own has been acknowledged (tolerates adjacent reordering).
const LOSS_THRESHOLD: u64 = 3;
/// Floor of the retransmission timeout: below it most probes find a peer
/// not yet scheduled. Never above the configured ceiling.
const MIN_RTO: Duration = Duration::from_millis(2);
/// [`linger`](Transport::linger) ends once the link has been silent
/// for this many RTO ceilings — longer than any gap between two of the
/// peer's retransmissions, whatever its own RTT estimate says…
const LINGER_QUIET_RTOS: u32 = 2;
/// …and in any case after this many.
const LINGER_MAX_RTOS: u32 = 8;

const TYPE_DATA: u8 = 1;
const TYPE_ACK: u8 = 2;
const TYPE_DONE: u8 = 3;
const TYPE_PROBE: u8 = 4;
const TYPE_ANSWER: u8 = 5;

/// An unreliable datagram pipe: sends may be lost, duplicated, or
/// reordered in transit; each receive yields one whole datagram.
///
/// This is the layer fault injection targets
/// ([`FaultyTransport`](super::FaultyTransport) wraps any link) and the
/// layer [`UdpTransport`] builds reliability on top of.
pub trait DatagramLink: Send {
    /// Sends one datagram (best-effort; the medium may drop it).
    ///
    /// # Errors
    ///
    /// [`ClanError::Transport`] only on a *local* failure (socket gone);
    /// loss in transit is silent, as on a real wire.
    fn send(&mut self, datagram: &[u8]) -> Result<(), ClanError>;

    /// Receives one datagram, waiting up to `timeout`. `Ok(None)` on
    /// timeout; a zero `timeout` polls — it returns what is already
    /// queued, or `Ok(None)`, without blocking.
    ///
    /// # Errors
    ///
    /// [`ClanError::Transport`] on a local socket failure.
    fn recv(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, ClanError>;

    /// Human-readable peer label for error messages.
    fn peer(&self) -> String;

    /// How many datagrams the medium holds sent-and-unacknowledged
    /// before its buffers overflow — the ARQ layer's send window.
    /// Unbounded by default: an in-process channel has no buffer to
    /// overflow.
    fn window(&self) -> usize {
        usize::MAX
    }
}

// ----------------------------------------------------------------------
// Real UDP sockets
// ----------------------------------------------------------------------

/// A [`DatagramLink`] over one connected `std::net::UdpSocket`.
pub struct UdpLink {
    socket: UdpSocket,
    peer: String,
    /// The one receive buffer, sized for the largest UDP datagram.
    buf: Box<[u8]>,
    /// Whether the socket is currently in non-blocking (poll) mode.
    polling: bool,
    /// The read timeout the socket currently carries.
    read_timeout: Option<Duration>,
}

impl std::fmt::Debug for UdpLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpLink")
            .field("socket", &self.socket)
            .field("peer", &self.peer)
            .finish_non_exhaustive()
    }
}

impl UdpLink {
    /// Binds an ephemeral local port (matching the peer's address
    /// family, so IPv6 agents work like they do over TCP) and connects
    /// it to `addr`.
    ///
    /// # Errors
    ///
    /// [`ClanError::Transport`] if the address does not resolve or
    /// binding/connecting fails.
    pub fn connect<A: ToSocketAddrs + std::fmt::Display>(addr: A) -> Result<UdpLink, ClanError> {
        let peer = addr.to_string();
        let err = |what: &str, e: std::io::Error| ClanError::Transport {
            peer: peer.clone(),
            reason: format!("{what}: {e}"),
        };
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| err("udp resolve", e))?
            .next()
            .ok_or_else(|| ClanError::Transport {
                peer: peer.clone(),
                reason: "udp resolve: no addresses".into(),
            })?;
        let wildcard: std::net::IpAddr = if resolved.is_ipv6() {
            std::net::Ipv6Addr::UNSPECIFIED.into()
        } else {
            std::net::Ipv4Addr::UNSPECIFIED.into()
        };
        let socket = UdpSocket::bind((wildcard, 0)).map_err(|e| err("udp bind", e))?;
        socket
            .connect(resolved)
            .map_err(|e| err("udp connect", e))?;
        Ok(UdpLink::from_socket(socket, peer))
    }

    /// Wraps an already-connected, blocking socket (the agent side does
    /// this after learning the coordinator's address from its first
    /// datagram).
    pub fn from_socket(socket: UdpSocket, peer: String) -> UdpLink {
        UdpLink {
            socket,
            peer,
            buf: vec![0u8; 65_535].into_boxed_slice(),
            polling: false,
            read_timeout: None,
        }
    }

    /// Puts the socket in the mode `timeout` asks for — non-blocking for
    /// zero, blocking with that read timeout otherwise — touching only
    /// what differs from the mode it is already in: the ARQ pump asks
    /// for the same wait datagram after datagram.
    fn set_wait(&mut self, timeout: Duration) -> std::io::Result<()> {
        let poll = timeout.is_zero();
        if poll != self.polling {
            self.socket.set_nonblocking(poll)?;
            self.polling = poll;
        }
        if !poll && self.read_timeout != Some(timeout) {
            self.socket.set_read_timeout(Some(timeout))?;
            self.read_timeout = Some(timeout);
        }
        Ok(())
    }
}

impl DatagramLink for UdpLink {
    fn send(&mut self, datagram: &[u8]) -> Result<(), ClanError> {
        match self.socket.send(datagram) {
            Ok(_) => Ok(()),
            // An earlier datagram found the peer's port closed (a daemon
            // between sessions); this one is as good as lost in transit,
            // and the ARQ layer re-sends it once the peer is back.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => Ok(()),
            Err(e) => Err(ClanError::Transport {
                peer: self.peer.clone(),
                reason: format!("udp send: {e}"),
            }),
        }
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, ClanError> {
        self.set_wait(timeout).map_err(|e| ClanError::Transport {
            peer: self.peer.clone(),
            reason: format!("udp set timeout: {e}"),
        })?;
        match self.socket.recv(&mut self.buf) {
            #[expect(
                clippy::indexing_slicing,
                reason = "n <= buf.len() by the recv(2) contract; a datagram never exceeds the link's 64 KiB buffer"
            )]
            Ok(n) => Ok(Some(self.buf[..n].to_vec())),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            // A previous send to a vanished peer can surface here as
            // ECONNREFUSED; treat it as silence (the idle deadline is
            // the liveness authority, and the peer may still come up).
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => Ok(None),
            Err(e) => Err(ClanError::Transport {
                peer: self.peer.clone(),
                reason: format!("udp recv: {e}"),
            }),
        }
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn window(&self) -> usize {
        UDP_WINDOW
    }
}

// ----------------------------------------------------------------------
// In-process datagram channels (tests, benches)
// ----------------------------------------------------------------------

/// One endpoint of an in-process datagram pipe — same unreliable
/// *semantics* as UDP is allowed to have (no loss unless a
/// [`FaultyTransport`](super::FaultyTransport) injects it), useful for
/// deterministic fragmentation/ARQ tests without sockets.
#[derive(Debug)]
pub struct ChannelDatagramLink {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    label: String,
}

/// Creates a connected pair of in-process datagram links.
pub fn datagram_channel_pair() -> (ChannelDatagramLink, ChannelDatagramLink) {
    let (tx_ab, rx_ab) = channel();
    let (tx_ba, rx_ba) = channel();
    (
        ChannelDatagramLink {
            tx: tx_ab,
            rx: rx_ba,
            label: "dgram-channel:a".into(),
        },
        ChannelDatagramLink {
            tx: tx_ba,
            rx: rx_ab,
            label: "dgram-channel:b".into(),
        },
    )
}

impl DatagramLink for ChannelDatagramLink {
    fn send(&mut self, datagram: &[u8]) -> Result<(), ClanError> {
        // Datagram semantics: a send toward a vanished peer is a *lost
        // datagram*, not an error — exactly like UDP into the void. The
        // liveness deadline is the sole authority on a dead peer.
        let _ = self.tx.send(datagram.to_vec());
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, ClanError> {
        match self.rx.recv_timeout(timeout) {
            Ok(d) => Ok(Some(d)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                // Same datagram semantics: silence, not disconnection.
                // Sleep out the budget so the ARQ pump does not spin hot
                // while its idle deadline counts down.
                std::thread::sleep(timeout);
                Ok(None)
            }
        }
    }

    fn peer(&self) -> String {
        self.label.clone()
    }
}

// ----------------------------------------------------------------------
// Datagram codec
// ----------------------------------------------------------------------

enum Datagram<'a> {
    Data {
        seq: u64,
        index: u32,
        count: u32,
        payload: &'a [u8],
    },
    /// "Fragment `index` of frame `seq` arrived; so has every fragment
    /// below `cum`, and fragment `index - 1 - k` for each set bit `k`."
    Ack {
        seq: u64,
        index: u32,
        cum: u32,
        bitmap: u64,
    },
    /// "Everything I sent has been acknowledged": the sender's
    /// [`drain`](Transport::drain) completed, so a peer that
    /// [`linger`](Transport::linger)s on its account may leave.
    Done,
    /// A retransmission timer expired: "answer once you have acknowledged
    /// what reached you before this, my latest transmission `tx`" — or,
    /// with `answer` set, that answer.
    Probe { tx: u64, answer: bool },
}

/// Encodes a datagram of any type but `DATA` (which reuses one buffer).
fn encode_control(kind: u8, fields: &[&[u8]]) -> Vec<u8> {
    [&[&DATAGRAM_MAGIC[..], &[kind]][..], fields]
        .concat()
        .concat()
}

/// Encodes one `DATA` datagram into `out` (cleared first), so a sender
/// reuses one buffer for every transmission.
fn encode_data(out: &mut Vec<u8>, seq: u64, index: u32, count: u32, payload: &[u8]) {
    out.clear();
    out.extend_from_slice(&DATAGRAM_MAGIC);
    out.push(TYPE_DATA);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(payload);
}

fn encode_ack(seq: u64, index: u32, cum: u32, bitmap: u64) -> Vec<u8> {
    let (index, cum) = (index.to_le_bytes(), cum.to_le_bytes());
    encode_control(
        TYPE_ACK,
        &[&seq.to_le_bytes(), &index, &cum, &bitmap.to_le_bytes()],
    )
}

/// Splits `n` leading bytes off a slice, or `None` — the panic-free
/// cursor primitive the datagram decoder is built from.
fn take_bytes(buf: &[u8], n: usize) -> Option<(&[u8], &[u8])> {
    if buf.len() < n {
        return None;
    }
    Some(buf.split_at(n))
}

/// Reads a little-endian `u64` off the front of a slice.
fn take_u64(buf: &[u8]) -> Option<(u64, &[u8])> {
    let (head, rest) = take_bytes(buf, 8)?;
    let mut a = [0u8; 8];
    a.copy_from_slice(head);
    Some((u64::from_le_bytes(a), rest))
}

/// Reads a little-endian `u32` off the front of a slice.
fn take_u32(buf: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = take_bytes(buf, 4)?;
    let mut a = [0u8; 4];
    a.copy_from_slice(head);
    Some((u32::from_le_bytes(a), rest))
}

/// Decodes one datagram. `None` on malformation — a lossy medium can
/// corrupt anything, so garbage is dropped silently like a bad checksum,
/// never panicked on. Every read is bounds-checked through the `take_*`
/// cursors: no index into the wire bytes can panic.
fn decode_datagram(buf: &[u8]) -> Option<Datagram<'_>> {
    let (magic, rest) = take_bytes(buf, 4)?;
    if magic != DATAGRAM_MAGIC {
        return None;
    }
    let (&ty, rest) = rest.split_first()?;
    match ty {
        TYPE_DATA => {
            let (seq, rest) = take_u64(rest)?;
            let (index, rest) = take_u32(rest)?;
            let (count, payload) = take_u32(rest)?;
            Some(Datagram::Data {
                seq,
                index,
                count,
                payload,
            })
        }
        TYPE_ACK => {
            let (seq, rest) = take_u64(rest)?;
            let (index, rest) = take_u32(rest)?;
            let (cum, rest) = take_u32(rest)?;
            let (bitmap, rest) = take_u64(rest)?;
            // ACKs are fixed-size: trailing bytes mean corruption.
            if !rest.is_empty() {
                return None;
            }
            Some(Datagram::Ack {
                seq,
                index,
                cum,
                bitmap,
            })
        }
        TYPE_DONE => rest.is_empty().then_some(Datagram::Done),
        TYPE_PROBE | TYPE_ANSWER => {
            let (tx, rest) = take_u64(rest)?;
            let answer = ty == TYPE_ANSWER;
            rest.is_empty().then_some(Datagram::Probe { tx, answer })
        }
        _ => None,
    }
}

/// Whether `header` — the leading bytes of a datagram, payload optional
/// — is a well-formed `DATA` fragment of frame 0: the only datagram
/// that can open a session. A datagram server adopts a peer on nothing
/// less; a stale retransmit from a finished session (`seq ≠ 0`), an
/// `ACK`, or noise must not capture it.
pub(crate) fn opens_session(header: &[u8]) -> bool {
    matches!(
        decode_datagram(header),
        Some(Datagram::Data { seq: 0, index, count, .. }) if index < count
    )
}

// ----------------------------------------------------------------------
// Configuration + stats
// ----------------------------------------------------------------------

/// Tuning for a [`UdpTransport`] and optional fault injection for the
/// link beneath it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UdpConfig {
    /// Payload bytes per `DATA` datagram (the fragmentation unit).
    pub mtu: usize,
    /// The retransmission timeout, in seconds, before the link has
    /// measured a round trip — and its ceiling ever after: the timeout
    /// in force is RTT-derived (see the module docs), doubles per
    /// retransmission of a fragment, and never exceeds this.
    pub retransmit_interval_s: f64,
    /// Liveness deadline: a receive that hears *nothing* from the peer
    /// for this long surfaces [`ClanError::Timeout`]. Must exceed the
    /// longest silent compute phase between protocol messages.
    pub idle_timeout_s: f64,
    /// Seeded faults injected on this endpoint's link (drop / duplicate
    /// / reorder / delay); `None` leaves the medium alone.
    pub faults: Option<FaultConfig>,
}

impl Default for UdpConfig {
    /// 1200 B MTU (safely under typical 1500 B Ethernet/WiFi payloads),
    /// 25 ms initial and maximum retransmission timeout, 30 s liveness
    /// window, no faults.
    fn default() -> UdpConfig {
        UdpConfig {
            mtu: 1200,
            retransmit_interval_s: 0.025,
            idle_timeout_s: 30.0,
            faults: None,
        }
    }
}

impl UdpConfig {
    /// Sets the fragmentation MTU.
    ///
    /// # Panics
    ///
    /// Panics if `mtu` is zero.
    pub fn with_mtu(mut self, mtu: usize) -> UdpConfig {
        assert!(mtu > 0, "mtu must be at least one byte");
        self.mtu = mtu;
        self
    }

    /// Sets the initial and maximum retransmission timeout.
    pub fn with_retransmit_interval_s(mut self, s: f64) -> UdpConfig {
        self.retransmit_interval_s = s;
        self
    }

    /// Sets the liveness deadline.
    pub fn with_idle_timeout_s(mut self, s: f64) -> UdpConfig {
        self.idle_timeout_s = s;
        self
    }

    /// Attaches injected faults.
    pub fn with_faults(mut self, faults: FaultConfig) -> UdpConfig {
        self.faults = Some(faults);
        self
    }
}

/// Reliability overhead observed on one link: datagrams this endpoint
/// retransmitted and duplicates it received. On a clean medium both are
/// zero; under loss they measure what the paper's analytic WiFi model
/// does not charge.
///
/// Byte counters are **frame-payload bytes** (the 21 B per-datagram
/// header excluded) so they share units with the ledger's frame-level
/// `wire_bytes` accounting — `retrans_bytes / wire_bytes` is then
/// "fraction of useful frame traffic that had to be re-sent", not a
/// mix of raw-medium and frame units. (Neither column charges the
/// per-datagram/ack header overhead of the medium itself, just as the
/// stream transports' `wire_bytes` charges only the 4 B length prefix.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// `DATA` datagrams retransmitted by this endpoint.
    pub retrans_datagrams: u64,
    /// Frame-payload bytes of those retransmissions.
    pub retrans_bytes: u64,
    /// Duplicate `DATA` datagrams received (and discarded).
    pub dup_datagrams: u64,
    /// Frame-payload bytes of those duplicates.
    pub dup_bytes: u64,
}

impl LinkStats {
    /// Total overhead bytes attributable to loss recovery on this
    /// endpoint (retransmitted + duplicate-received).
    pub(crate) fn overhead_bytes(&self) -> u64 {
        self.retrans_bytes + self.dup_bytes
    }
}

// ----------------------------------------------------------------------
// The reliable transport
// ----------------------------------------------------------------------

/// ARQ state of one fragment of an outbound frame.
#[derive(Clone, Copy)]
struct Slot {
    /// When the fragment last left (unset while `sends == 0`).
    sent_at: Instant,
    /// The link-wide number of that transmission; loss detection orders
    /// transmissions by it.
    tx_no: u64,
    /// Transmissions so far; `0` = still waiting for window space.
    sends: u32,
    acked: bool,
}

/// An outbound frame awaiting acknowledgment.
struct Outgoing {
    /// The frame's bytes; fragment `i` is its `i`-th MTU-sized chunk,
    /// encoded afresh for each transmission.
    frame: Vec<u8>,
    slots: Vec<Slot>,
    /// Every fragment below this is acknowledged.
    base: usize,
    /// The first fragment never transmitted.
    next_unsent: usize,
    /// Fragments not yet acknowledged.
    unacked: usize,
}

impl Outgoing {
    /// The fragments that are in flight: sent and not yet acknowledged.
    fn in_flight(&self) -> impl Iterator<Item = (usize, &Slot)> {
        self.slots
            .iter()
            .enumerate()
            .take(self.next_unsent)
            .skip(self.base)
            .filter(|(_, s)| !s.acked)
    }
}

/// An inbound frame under reassembly.
struct Incoming {
    count: u32,
    frags: BTreeMap<u32, Vec<u8>>,
    bytes: u64,
    /// The cumulative index: every fragment below it has arrived.
    cum: u32,
}

impl Incoming {
    fn is_complete(&self) -> bool {
        self.frags.len() as u32 == self.count
    }

    fn assemble(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bytes as usize);
        for (_, frag) in self.frags {
            out.extend_from_slice(&frag);
        }
        out
    }

    /// The `(cum, bitmap)` an `ACK` triggered by fragment `index`
    /// reports: bit `k` says fragment `index - 1 - k` has arrived, for
    /// the fragments at or above `cum` (those below it go without
    /// saying).
    fn ack_state(&self, index: u32) -> (u32, u64) {
        let lo = self.cum.max(index.saturating_sub(64));
        let mut bitmap = 0u64;
        if lo < index {
            for (&i, _) in self.frags.range(lo..index) {
                bitmap |= 1u64 << (index - 1 - i);
            }
        }
        (self.cum, bitmap)
    }
}

/// The smoothed round-trip estimate behind the retransmission timeout
/// (RFC 6298's estimator).
struct RttEstimator {
    srtt: Option<Duration>,
    rttvar: Duration,
    /// [`UdpConfig::retransmit_interval_s`]: the timeout before the
    /// first sample, and the cap afterwards.
    ceiling: Duration,
}

impl RttEstimator {
    fn sample(&mut self, rtt: Duration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                self.rttvar = (self.rttvar * 3 + srtt.abs_diff(rtt)) / 4;
                self.srtt = Some((srtt * 7 + rtt) / 8);
            }
        }
    }

    /// The timeout of a fragment's first transmission.
    fn rto(&self) -> Duration {
        match self.srtt {
            None => self.ceiling,
            Some(srtt) => (srtt + self.rttvar * 4).clamp(MIN_RTO.min(self.ceiling), self.ceiling),
        }
    }

    /// The timeout of a fragment's `sends`-th transmission: doubled per
    /// retransmission, up to the ceiling.
    fn timeout_after(&self, sends: u32) -> Duration {
        self.rto()
            .saturating_mul(1u32 << sends.saturating_sub(1).min(16))
            .min(self.ceiling)
    }
}

/// A reliable, ordered [`Transport`] over any [`DatagramLink`]:
/// fragmentation, an ack-clocked sliding window, cumulative + selective
/// acknowledgment, per-fragment RTT-derived probes and retransmission,
/// receive-side deduplication and in-order reassembly (the module docs
/// describe the protocol).
///
/// Sends are asynchronous: `send_frame` transmits as many fragments as
/// the link's [`window`](DatagramLink::window) admits and returns
/// without reading a single ack; the remaining fragments, the probes, and
/// the retransmission of anything the peer has not acknowledged, leave while
/// this endpoint waits in `recv_frame` (and in
/// [`drain`](Transport::drain), which `EdgeCluster::shutdown` uses to
/// push the final `Shutdown` through a lossy link, and
/// [`linger`](Transport::linger), with which the agent answers it). The
/// request/response shape of the cluster protocol guarantees every send
/// is followed by a receive, so nothing is ever stranded.
pub struct UdpTransport<L: DatagramLink = UdpLink> {
    link: L,
    mtu: usize,
    idle_timeout: Duration,
    rtt: RttEstimator,
    next_tx: u64,
    next_rx: u64,
    outstanding: BTreeMap<u64, Outgoing>,
    /// Fragments sent and not yet acknowledged, over all outstanding
    /// frames: what the link's window bounds.
    in_flight: usize,
    /// Transmissions made so far; each takes the next number.
    tx_count: u64,
    /// The highest-numbered transmission known to have arrived.
    acked_tx: u64,
    /// Whether any well-formed datagram has come from the peer yet.
    heard: bool,
    /// Probes sent since the last answer.
    probes: u32,
    /// Until when the last of them holds the timers off.
    probe_until: Option<Instant>,
    partial: BTreeMap<u64, Incoming>,
    ready: VecDeque<Vec<u8>>,
    /// The peer has said `DONE` and sent nothing since: nothing of its
    /// is left to acknowledge.
    peer_done: bool,
    stats: LinkStats,
    /// Encode buffer shared by every `DATA` transmission.
    scratch: Vec<u8>,
}

impl<L: DatagramLink> UdpTransport<L> {
    /// Wraps `link` with the default [`UdpConfig`] tuning.
    pub fn over(link: L) -> UdpTransport<L> {
        UdpTransport::with_config(link, &UdpConfig::default())
    }

    /// Wraps `link` with explicit tuning (the config's `faults` field is
    /// *not* applied here — wrap the link in a [`FaultyTransport`](super::FaultyTransport)
    /// yourself, as a cluster does on its side of every link).
    pub fn with_config(link: L, cfg: &UdpConfig) -> UdpTransport<L> {
        assert!(cfg.mtu > 0, "mtu must be at least one byte");
        UdpTransport {
            link,
            mtu: cfg.mtu,
            idle_timeout: Duration::from_secs_f64(cfg.idle_timeout_s.max(0.001)),
            rtt: RttEstimator {
                srtt: None,
                rttvar: Duration::ZERO,
                ceiling: Duration::from_secs_f64(cfg.retransmit_interval_s.max(0.001)),
            },
            next_tx: 0,
            next_rx: 0,
            outstanding: BTreeMap::new(),
            in_flight: 0,
            tx_count: 0,
            acked_tx: 0,
            heard: false,
            probes: 0,
            probe_until: None,
            partial: BTreeMap::new(),
            ready: VecDeque::new(),
            peer_done: false,
            stats: LinkStats::default(),
            scratch: Vec::new(),
        }
    }

    /// The wrapped link (e.g. to read a
    /// [`FaultyTransport`](super::FaultyTransport)'s injection counters).
    pub fn link(&self) -> &L {
        &self.link
    }

    /// Reliability overhead observed so far (without resetting; the
    /// [`Transport::take_link_stats`] impl resets).
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Transmits fragment `i` of outstanding frame `seq`: its first
    /// transmission takes a place in the window, any later one is
    /// counted as loss-recovery overhead.
    fn transmit(&mut self, seq: u64, i: usize) -> Result<(), ClanError> {
        let UdpTransport {
            link,
            mtu,
            outstanding,
            in_flight,
            tx_count,
            stats,
            scratch,
            ..
        } = self;
        let Some(out) = outstanding.get_mut(&seq) else {
            return Ok(());
        };
        let count = out.slots.len() as u32;
        let Some(slot) = out.slots.get_mut(i) else {
            return Ok(());
        };
        // An empty frame still travels as one (empty) fragment.
        let chunk = out.frame.chunks(*mtu).nth(i).unwrap_or_default();
        encode_data(scratch, seq, i as u32, count, chunk);
        link.send(scratch)?;
        if slot.sends == 0 {
            *in_flight += 1;
            out.next_unsent = out.next_unsent.max(i + 1);
        } else {
            stats.retrans_datagrams += 1;
            // Frame-payload bytes only (header excluded), so the
            // ledger's retransmission column shares units with its
            // frame-level `wire_bytes` accounting.
            stats.retrans_bytes += chunk.len() as u64;
        }
        *tx_count += 1;
        slot.sent_at = Instant::now();
        slot.tx_no = *tx_count;
        slot.sends += 1;
        Ok(())
    }

    /// First transmissions, oldest frame first, for as long as the
    /// link's window has room.
    fn fill_window(&mut self) -> Result<(), ClanError> {
        let window = self.link.window();
        while self.in_flight < window {
            let next = self
                .outstanding
                .iter()
                .find(|(_, out)| out.next_unsent < out.slots.len())
                .map(|(seq, out)| (*seq, out.next_unsent));
            let Some((seq, i)) = next else { break };
            self.transmit(seq, i)?;
        }
        Ok(())
    }

    /// Re-sends, each alone, the in-flight fragments `is_due` selects.
    fn retransmit_where(&mut self, is_due: impl Fn(&Self, &Slot) -> bool) -> Result<(), ClanError> {
        let due: Vec<(u64, usize)> = self
            .outstanding
            .iter()
            .flat_map(|(seq, out)| out.in_flight().map(move |(i, slot)| (*seq, i, slot)))
            .filter(|(_, _, slot)| is_due(self, slot))
            .map(|(seq, i, _)| (seq, i))
            .collect();
        for (seq, i) in due {
            self.transmit(seq, i)?;
        }
        Ok(())
    }

    /// When the next probe is due: when the earliest retransmission timer
    /// of an in-flight fragment expires, but not before the last
    /// unanswered probe's own timeout.
    fn next_timer(&self) -> Option<Instant> {
        let due = self
            .outstanding
            .values()
            .flat_map(Outgoing::in_flight)
            .map(|(_, slot)| slot.sent_at + self.rtt.timeout_after(slot.sends))
            .min()?;
        Some(self.probe_until.map_or(due, |until| due.max(until)))
    }

    /// Handles one received datagram.
    fn process(&mut self, buf: &[u8], now: Instant) -> Result<(), ClanError> {
        let datagram = decode_datagram(buf);
        self.heard |= datagram.is_some();
        match datagram {
            None => Ok(()), // corrupt datagram: drop, like a failed checksum
            Some(Datagram::Done) => {
                self.peer_done = true;
                Ok(())
            }
            Some(Datagram::Ack {
                seq,
                index,
                cum,
                bitmap,
            }) => self.on_ack(seq, index, cum, bitmap, now),
            Some(Datagram::Data {
                seq,
                index,
                count,
                payload,
            }) => self.on_data(seq, index, count, payload),
            Some(Datagram::Probe { tx, answer: false }) => {
                // A probing peer has something unacknowledged after all.
                self.peer_done = false;
                self.link
                    .send(&encode_control(TYPE_ANSWER, &[&tx.to_le_bytes()]))
            }
            Some(Datagram::Probe { tx, answer: true }) => {
                (self.probes, self.probe_until) = (0, None);
                // Every ack the peer sent before its answer has been read:
                // what was sent before the probe and is still unacknowledged
                // was lost.
                self.retransmit_where(|_, slot| slot.tx_no <= tx)
            }
        }
    }

    /// Ack bookkeeping: marks what the ack reports, feeds the RTT
    /// estimate, and re-sends at once whatever the ack shows to be lost.
    ///
    /// The ack is wire input: one that names a frame not outstanding, a
    /// fragment the frame does not have, or a fragment never sent is
    /// ignored (whole or in that part), never trusted.
    fn on_ack(
        &mut self,
        seq: u64,
        index: u32,
        cum: u32,
        bitmap: u64,
        now: Instant,
    ) -> Result<(), ClanError> {
        let UdpTransport {
            outstanding,
            in_flight,
            acked_tx,
            rtt,
            ..
        } = self;
        let Some(out) = outstanding.get_mut(&seq) else {
            return Ok(());
        };
        let n = out.slots.len() as u64;
        // Bit k is fragment `index - 1 - k`: none may reach below 0.
        if u64::from(index) >= n || u64::from(cum) > n || 64 - bitmap.leading_zeros() > index {
            return Ok(());
        }
        let (index, cum) = (index as usize, cum as usize);
        let reported = (out.base..cum).chain(std::iter::once(index)).chain(
            (0..64)
                .filter(|k| (bitmap >> k) & 1 == 1)
                .map(|k| index - 1 - k),
        );
        for i in reported {
            let Some(slot) = out.slots.get_mut(i) else {
                continue;
            };
            if slot.acked || slot.sends == 0 {
                continue;
            }
            slot.acked = true;
            out.unacked -= 1;
            *in_flight -= 1;
            // Karn's rule: only a never-retransmitted fragment says
            // which transmission arrived — and only the fragment that
            // triggered this ack arrived *just now*.
            if slot.sends == 1 {
                *acked_tx = (*acked_tx).max(slot.tx_no);
                if i == index {
                    rtt.sample(now.saturating_duration_since(slot.sent_at));
                }
            }
        }
        while out.slots.get(out.base).is_some_and(|s| s.acked) {
            out.base += 1;
        }
        if out.unacked == 0 {
            outstanding.remove(&seq);
        }
        // Fast retransmit: a transmission LOSS_THRESHOLD places later
        // has arrived, so this one did not.
        self.retransmit_where(|t, slot| slot.tx_no + LOSS_THRESHOLD <= t.acked_tx)
    }

    /// Reassembly, dedup, in-order delivery into the ready queue — and
    /// the ack.
    fn on_data(
        &mut self,
        seq: u64,
        index: u32,
        count: u32,
        payload: &[u8],
    ) -> Result<(), ClanError> {
        // Acks are sent only for *accepted* fragments (and for genuine
        // duplicates of accepted ones). Acking before validation would
        // tell the sender a fragment we are about to discard was
        // delivered — it would never be retransmitted and the frame
        // could never complete.
        if seq >= self.next_rx + SEQ_WINDOW || count == 0 || index >= count {
            return Ok(()); // garbage or far-future: ignore, no ack
        }
        // A peer that is (re)sending has unacknowledged data after all.
        self.peer_done = false;
        if seq < self.next_rx {
            // Frame already delivered; the peer missed our acks. One
            // ack covers the whole frame.
            self.link.send(&encode_ack(seq, index, count, 0))?;
            self.stats.dup_datagrams += 1;
            self.stats.dup_bytes += payload.len() as u64;
            return Ok(());
        }
        // Even 1-byte fragments could not finish under the frame cap —
        // typed rejection, not slow memory growth.
        check_frame_len(u64::from(count))?;
        if payload.is_empty() && count > 1 {
            return Ok(()); // only a lone empty frame may be empty
        }
        let inc = self.partial.entry(seq).or_insert_with(|| Incoming {
            count,
            frags: BTreeMap::new(),
            bytes: 0,
            cum: 0,
        });
        if inc.count != count {
            // Conflicts with the count this frame was first seen with:
            // corrupt or hostile. Unacked, so if *this* datagram was
            // the truth its retransmissions keep arriving; worst case
            // the frame stalls into a typed Timeout instead of silently
            // "succeeding".
            return Ok(());
        }
        if inc.frags.contains_key(&index) {
            // Genuine duplicate of an accepted fragment: the sender
            // missed our ack — re-ack so it stops.
            let (cum, bitmap) = inc.ack_state(index);
            self.link.send(&encode_ack(seq, index, cum, bitmap))?;
            self.stats.dup_datagrams += 1;
            self.stats.dup_bytes += payload.len() as u64;
            return Ok(());
        }
        inc.bytes += payload.len() as u64;
        check_frame_len(inc.bytes)?;
        inc.frags.insert(index, payload.to_vec());
        while inc.frags.contains_key(&inc.cum) {
            inc.cum += 1;
        }
        let (cum, bitmap) = inc.ack_state(index);
        self.link.send(&encode_ack(seq, index, cum, bitmap))?;
        // Promote every in-order complete frame. The remove-after-check
        // is written as a single `remove` + re-insert-on-incomplete so
        // there is no panic path between the check and the take.
        while let Some(done) = self.partial.remove(&self.next_rx) {
            if !done.is_complete() {
                self.partial.insert(self.next_rx, done);
                break;
            }
            self.ready.push_back(done.assemble());
            self.next_rx += 1;
        }
        Ok(())
    }

    /// Keeps the link moving — window refills, acks, retransmissions —
    /// until `until` says stop, or surfaces a typed
    /// [`ClanError::Timeout`] once nothing at all has been heard for
    /// `quiet`.
    fn pump(
        &mut self,
        quiet: Duration,
        mut until: impl FnMut(&Self) -> bool,
    ) -> Result<(), ClanError> {
        let mut now = Instant::now();
        let mut last_heard = now;
        loop {
            if until(self) {
                return Ok(());
            }
            self.fill_window()?;
            let idle = now.duration_since(last_heard);
            if idle >= quiet {
                return Err(ClanError::Timeout {
                    peer: self.link.peer(),
                    waited: idle,
                });
            }
            // A timer already due makes this a zero wait — a poll: the
            // link's backlog is read to the end before any fragment is
            // declared lost, because the acks may be sitting in it.
            // With no timer pending the wait is `quiet` itself, datagram
            // after datagram, which is what lets the link keep its mode.
            let wait = self.next_timer().map_or(quiet - idle, |due| {
                due.saturating_duration_since(now).min(quiet - idle)
            });
            let heard = self.link.recv(wait)?;
            now = Instant::now();
            match heard {
                Some(d) => {
                    last_heard = now;
                    self.process(&d, now)?;
                }
                // A peer never heard from may not have opened the session
                // a probe would ask it about: send the fragments again.
                None if !self.heard => self.retransmit_where(|t, slot| {
                    slot.sent_at + t.rtt.timeout_after(slot.sends) <= now
                })?,
                None if self.next_timer().is_some_and(|due| due <= now) => {
                    self.link
                        .send(&encode_control(TYPE_PROBE, &[&self.tx_count.to_le_bytes()]))?;
                    self.probes += 1;
                    self.probe_until = Some(now + self.rtt.timeout_after(self.probes));
                }
                None => {}
            }
        }
    }
}

impl<L: DatagramLink> Transport for UdpTransport<L> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), ClanError> {
        check_frame_len(frame.len() as u64)?;
        let seq = self.next_tx;
        self.next_tx += 1;
        let count = frame.len().div_ceil(self.mtu).max(1);
        let unsent = Slot {
            sent_at: Instant::now(),
            tx_no: 0,
            sends: 0,
            acked: false,
        };
        self.outstanding.insert(
            seq,
            Outgoing {
                frame: frame.to_vec(),
                slots: vec![unsent; count],
                base: 0,
                next_unsent: 0,
                unacked: count,
            },
        );
        // What fits the window leaves now; nothing here waits on an ack.
        self.fill_window()
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, ClanError> {
        // `pump` enforces the link's idle_timeout, so this cannot hang
        // on a silent peer.
        self.pump(self.idle_timeout, |t| !t.ready.is_empty())?;
        self.ready.pop_front().ok_or_else(|| ClanError::Transport {
            peer: self.link.peer(),
            reason: "pump returned without a ready frame".into(),
        })
    }

    fn peer(&self) -> String {
        format!("udp:{}", self.link.peer())
    }

    fn take_link_stats(&mut self) -> LinkStats {
        std::mem::take(&mut self.stats)
    }

    fn drain(&mut self, deadline: Duration) -> Result<(), ClanError> {
        let end = Instant::now() + deadline;
        // The idle window shrinks to the deadline so a vanished peer
        // cannot stall shutdown past it.
        self.pump(self.idle_timeout.min(deadline), |t| {
            t.outstanding.is_empty() || Instant::now() >= end
        })?;
        if !self.outstanding.is_empty() {
            return Err(ClanError::Timeout {
                peer: self.link.peer(),
                waited: deadline,
            });
        }
        // Releases a peer lingering on this endpoint's account; if it is
        // lost the peer's quiet window ends the linger instead.
        self.link.send(&encode_control(TYPE_DONE, &[]))
    }

    fn linger(&mut self) {
        let end = Instant::now() + self.rtt.ceiling * LINGER_MAX_RTOS;
        // Ends on the peer's `DONE`, else on the quiet window's Timeout,
        // else at the bound; a link failure ends it just as well.
        let _ = self.pump(self.rtt.ceiling * LINGER_QUIET_RTOS, |t| {
            t.peer_done || Instant::now() >= end
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FrameError;
    use crate::transport::{recv_message, send_message, WireMessage, MAX_FRAME_BYTES};

    fn pair_with(
        cfg: &UdpConfig,
    ) -> (
        UdpTransport<ChannelDatagramLink>,
        UdpTransport<ChannelDatagramLink>,
    ) {
        let (a, b) = datagram_channel_pair();
        (
            UdpTransport::with_config(a, cfg),
            UdpTransport::with_config(b, cfg),
        )
    }

    fn data(seq: u64, index: u32, count: u32, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_data(&mut out, seq, index, count, payload);
        out
    }

    fn fast_cfg() -> UdpConfig {
        UdpConfig::default()
            .with_retransmit_interval_s(0.005)
            .with_idle_timeout_s(1.0)
    }

    #[test]
    fn frames_round_trip_over_channel_datagrams() {
        let (mut a, mut b) = pair_with(&fast_cfg().with_mtu(16));
        let frame: Vec<u8> = (0..200u8).collect();
        a.send_frame(&frame).unwrap();
        assert_eq!(b.recv_frame().unwrap(), frame);
        // And back, multiple frames in order.
        b.send_frame(&[1, 2, 3]).unwrap();
        b.send_frame(&[]).unwrap();
        b.send_frame(&frame).unwrap();
        assert_eq!(a.recv_frame().unwrap(), vec![1, 2, 3]);
        assert_eq!(a.recv_frame().unwrap(), Vec::<u8>::new());
        assert_eq!(a.recv_frame().unwrap(), frame);
    }

    #[test]
    fn frames_round_trip_over_real_udp_sockets() {
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let cfg = fast_cfg();
        let cfg2 = cfg.clone();
        let join = std::thread::spawn(move || {
            let mut buf = [0u8; 1];
            let (_, peer) = server.peek_from(&mut buf).unwrap();
            server.connect(peer).unwrap();
            let mut t =
                UdpTransport::with_config(UdpLink::from_socket(server, peer.to_string()), &cfg2);
            let (msg, _) = recv_message(&mut t).unwrap();
            send_message(&mut t, &msg).unwrap();
        });
        let mut client = UdpTransport::with_config(UdpLink::connect(addr).unwrap(), &cfg);
        send_message(&mut client, &WireMessage::Shutdown).unwrap();
        let (echo, _) = recv_message(&mut client).unwrap();
        assert_eq!(echo, WireMessage::Shutdown);
        join.join().unwrap();
    }

    #[test]
    fn a_closed_peer_port_is_loss_not_a_link_failure() {
        // A daemon between sessions has no socket bound: the kernel
        // refuses the datagrams sent meanwhile, which the link reports
        // as silence on both directions, so the ARQ layer re-sends.
        let gone = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = gone.local_addr().unwrap();
        drop(gone);
        let mut link = UdpLink::connect(addr).unwrap();
        for _ in 0..3 {
            link.send(b"hello?").unwrap();
        }
        assert_eq!(link.recv(Duration::from_millis(10)).unwrap(), None);
        link.send(b"hello?").unwrap();
    }

    #[test]
    fn silent_peer_is_a_typed_timeout_not_a_hang() {
        // A bound socket that never answers.
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = sink.local_addr().unwrap();
        let cfg = UdpConfig::default()
            .with_retransmit_interval_s(0.01)
            .with_idle_timeout_s(0.15);
        let mut t = UdpTransport::with_config(UdpLink::connect(addr).unwrap(), &cfg);
        t.send_frame(b"hello?").unwrap();
        let start = Instant::now();
        match t.recv_frame() {
            Err(ClanError::Timeout { waited, .. }) => {
                assert!(waited >= Duration::from_millis(140));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(5), "must not hang");
        // The retransmit timer ran while waiting.
        assert!(t.stats().retrans_datagrams > 0);
    }

    #[test]
    fn oversized_frame_rejected_at_send() {
        let (a, _b) = datagram_channel_pair();
        let mut t = UdpTransport::over(a);
        // Fake an oversized frame without allocating 64 MiB: cap + 1 of
        // zero-length chunks is impossible, so use a length check probe.
        let huge = vec![0u8; (MAX_FRAME_BYTES + 1) as usize];
        assert!(matches!(
            t.send_frame(&huge),
            Err(ClanError::Frame(FrameError::Oversized { .. }))
        ));
    }

    #[test]
    fn hostile_fragment_count_is_typed_error_not_oom() {
        let (mut a, b) = datagram_channel_pair();
        let mut t = UdpTransport::with_config(b, &fast_cfg());
        // Announce more fragments than the frame cap allows.
        a.send(&data(0, 0, u32::MAX, b"x")).unwrap();
        assert!(matches!(
            t.recv_frame(),
            Err(ClanError::Frame(FrameError::Oversized { .. }))
        ));
    }

    #[test]
    fn duplicates_are_dropped_and_counted() {
        let (mut a, b) = datagram_channel_pair();
        let mut t = UdpTransport::with_config(b, &fast_cfg());
        let d = data(0, 0, 2, b"aaaa");
        let d2 = data(0, 1, 2, b"bb");
        a.send(&d).unwrap();
        a.send(&d).unwrap(); // duplicate in flight
        a.send(&d2).unwrap();
        assert_eq!(t.recv_frame().unwrap(), b"aaaabb");
        assert_eq!(t.stats().dup_datagrams, 1);
        // Re-delivery of a fragment of a completed frame is also a
        // counted duplicate (and re-acked, not re-delivered).
        a.send(&d2).unwrap();
        t.idle_timeout = Duration::from_millis(50);
        assert!(matches!(t.recv_frame(), Err(ClanError::Timeout { .. })));
        assert_eq!(t.stats().dup_datagrams, 2);
    }

    #[test]
    fn reordered_fragments_reassemble_in_index_order() {
        let (mut a, b) = datagram_channel_pair();
        let mut t = UdpTransport::with_config(b, &fast_cfg());
        // Frame 0 fragments arrive backwards; frame 1 arrives first.
        a.send(&data(1, 0, 1, b"second")).unwrap();
        a.send(&data(0, 1, 2, b"st")).unwrap();
        a.send(&data(0, 0, 2, b"fir")).unwrap();
        assert_eq!(t.recv_frame().unwrap(), b"first");
        assert_eq!(t.recv_frame().unwrap(), b"second");
    }

    #[test]
    fn acks_clear_outstanding_state() {
        let (mut a, mut b) = pair_with(&fast_cfg().with_mtu(8));
        a.send_frame(b"0123456789abcdef").unwrap();
        assert_eq!(a.outstanding.len(), 1);
        b.recv_frame().unwrap();
        // b acked both fragments; pumping a (via drain) clears them.
        a.drain(Duration::from_millis(500)).unwrap();
        assert!(a.outstanding.is_empty());
    }

    #[test]
    fn acks_are_wire_input_and_not_trusted() {
        let (mut peer, link) = datagram_channel_pair();
        let mut t = UdpTransport::with_config(link, &fast_cfg().with_mtu(4));
        t.send_frame(b"0123456789ab").unwrap(); // frame 0, 3 fragments
        let unacked = |t: &UdpTransport<ChannelDatagramLink>| {
            t.outstanding.get(&0).map_or(0, |out| out.unacked)
        };
        for hostile in [
            encode_ack(7, 0, 1, 0),        // a frame not outstanding
            encode_ack(0, 3, 0, 0),        // a fragment the frame lacks
            encode_ack(0, 0, 4, 0),        // cumulative index past the end
            encode_ack(0, 1, 0, 0b10),     // bitmap reaching below fragment 0
            encode_ack(0, 2, 0, u64::MAX), // …by 61 places
        ] {
            peer.send(&hostile).unwrap();
        }
        assert!(matches!(
            t.drain(Duration::from_millis(20)),
            Err(ClanError::Timeout { .. })
        ));
        assert_eq!(unacked(&t), 3, "nothing above may clear a fragment");
        // Trigger 2, nothing below a gap at 0, bit 0 = fragment 1.
        peer.send(&encode_ack(0, 2, 0, 0b1)).unwrap();
        assert!(t.drain(Duration::from_millis(20)).is_err());
        assert_eq!(unacked(&t), 1);
        peer.send(&encode_ack(0, 0, 3, 0)).unwrap();
        t.drain(Duration::from_millis(500)).unwrap();
        assert!(t.outstanding.is_empty() && t.in_flight == 0);
    }

    #[test]
    fn only_a_first_fragment_of_frame_zero_opens_a_session() {
        assert!(opens_session(&data(0, 0, 1, b"configure")));
        assert!(opens_session(&data(0, 2, 3, b"")[..DATA_HEADER_BYTES]));
        assert!(!opens_session(&data(5, 0, 1, b"stale retransmit")));
        assert!(!opens_session(&data(0, 1, 1, b"index past count")));
        assert!(!opens_session(&encode_ack(0, 0, 1, 0)));
        assert!(!opens_session(&data(0, 0, 1, b"")[..DATA_HEADER_BYTES - 1]));
        assert!(!opens_session(b"noise"));
    }

    #[test]
    fn rto_follows_the_round_trip_between_floor_and_ceiling() {
        let mut rtt = RttEstimator {
            srtt: None,
            rttvar: Duration::ZERO,
            ceiling: Duration::from_millis(25),
        };
        assert_eq!(rtt.rto(), rtt.ceiling, "no sample yet: the initial RTO");
        rtt.sample(Duration::from_micros(100));
        assert_eq!(rtt.rto(), MIN_RTO, "a loopback round trip: the floor");
        for _ in 0..50 {
            rtt.sample(Duration::from_millis(9));
        }
        let wifi = rtt.rto();
        assert!(wifi > Duration::from_millis(9) && wifi < Duration::from_millis(12));
        // Doubled per retransmission, never past the ceiling.
        assert_eq!(rtt.timeout_after(2), wifi * 2);
        assert_eq!(rtt.timeout_after(9), rtt.ceiling);
        rtt.sample(Duration::from_secs(1));
        assert_eq!(rtt.rto(), rtt.ceiling);
        // A ceiling under the floor wins: it is the configured maximum.
        rtt.ceiling = Duration::from_millis(1);
        assert_eq!(rtt.rto(), rtt.ceiling);
    }

    #[test]
    fn corrupt_datagrams_are_ignored() {
        let (mut a, b) = datagram_channel_pair();
        let mut t = UdpTransport::with_config(b, &fast_cfg());
        a.send(b"not a clan datagram").unwrap();
        a.send(&[]).unwrap();
        a.send(&data(0, 0, 1, b"ok")).unwrap();
        assert_eq!(t.recv_frame().unwrap(), b"ok");
    }
}
