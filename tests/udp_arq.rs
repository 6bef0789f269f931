//! The reliable-UDP sender's contract: an ack-clocked window that never
//! overflows the medium, per-fragment timers that probe the peer and
//! re-send alone a fragment its answer shows lost — never one a slow
//! reader still has queued — acks that survive their own loss, and an
//! endpoint that neither blocks in `send_frame`, hangs on a silent peer,
//! stalls a shutdown on a lost final ack, nor is captured by a stray
//! datagram.
//!
//! The two-endpoint tests run **both ends on one thread**, stepping
//! them in turn (`exchange`): every datagram one end produced is queued
//! before the other end looks, so the interleaving is forced rather
//! than slept for. The sender reads its backlog before it fires a
//! timer, so losing the CPU *between* steps cannot fake a loss; the
//! receiver's 20 ms step makes the measured round trip — hence the RTO
//! — twenty times the sender's 1 ms step, so only a test thread that
//! loses the CPU for ~20 ms *inside* that step could.

use clan::core::runtime::EdgeCluster;
use clan::core::transport::agent::{serve_session, AgentServer};
use clan::core::transport::udp::{ACK_BYTES, DATAGRAM_MAGIC, DATA_HEADER_BYTES};
use clan::core::transport::{
    datagram_channel_pair, ChannelDatagramLink, ClusterSpec, DatagramLink, LinkStats, Transport,
    UdpConfig, UdpLink, UdpTransport,
};
use clan::core::{ClanError, FrameError, InferenceMode};
use clan::envs::Workload;
use clan::neat::{NeatConfig, Population};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, BTreeSet};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Counts live heap bytes, so the fuzz can assert that hostile
/// datagrams do not buy unbounded allocation.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// ----------------------------------------------------------------------
// The wire format, spelled out: these tests pin it.
// ----------------------------------------------------------------------

const TYPE_DATA: u8 = 1;
const TYPE_ACK: u8 = 2;
const TYPE_DONE: u8 = 3;

fn data(seq: u64, index: u32, count: u32, payload: &[u8]) -> Vec<u8> {
    let mut d = DATAGRAM_MAGIC.to_vec();
    d.push(TYPE_DATA);
    d.extend_from_slice(&seq.to_le_bytes());
    d.extend_from_slice(&index.to_le_bytes());
    d.extend_from_slice(&count.to_le_bytes());
    assert_eq!(d.len(), DATA_HEADER_BYTES);
    d.extend_from_slice(payload);
    d
}

/// "Fragment `index` arrived; so has every fragment below `cum`, and
/// fragment `index - 1 - k` for each set bit `k`."
fn ack(seq: u64, index: u32, cum: u32, bitmap: u64) -> Vec<u8> {
    let mut d = DATAGRAM_MAGIC.to_vec();
    d.push(TYPE_ACK);
    d.extend_from_slice(&seq.to_le_bytes());
    d.extend_from_slice(&index.to_le_bytes());
    d.extend_from_slice(&cum.to_le_bytes());
    d.extend_from_slice(&bitmap.to_le_bytes());
    assert_eq!(d.len(), ACK_BYTES);
    d
}

fn u32_at(d: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(d[at..at + 4].try_into().unwrap())
}

fn u64_at(d: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(d[at..at + 8].try_into().unwrap())
}

/// "Everything I sent has been acknowledged."
fn done() -> Vec<u8> {
    let mut d = DATAGRAM_MAGIC.to_vec();
    d.push(TYPE_DONE);
    d
}

fn is_ack(d: &[u8]) -> bool {
    d.len() == ACK_BYTES && d[4] == TYPE_ACK
}

// ----------------------------------------------------------------------
// Single-threaded stepping
// ----------------------------------------------------------------------

/// A config whose idle window is one receiver step: a `recv_frame`
/// call works through everything queued, waits 20 ms for more, and
/// hands control back with a typed `Timeout`. The RTO ceiling is out of
/// the way, so the timeout in force follows the measured round trip —
/// one receiver step.
fn step_cfg(mtu: usize) -> UdpConfig {
    UdpConfig::default()
        .with_mtu(mtu)
        .with_retransmit_interval_s(1.0)
        .with_idle_timeout_s(0.02)
}

/// Sends `frame` from `a` and steps both ends in turn until `b` has it
/// and `a` knows: returns the frame as delivered.
fn exchange<A: DatagramLink, B: DatagramLink>(
    a: &mut UdpTransport<A>,
    b: &mut UdpTransport<B>,
    frame: &[u8],
) -> Vec<u8> {
    let deadline = Instant::now() + Duration::from_secs(10);
    a.send_frame(frame).unwrap();
    let mut delivered = None;
    let mut acked = false;
    while delivered.is_none() || !acked {
        assert!(Instant::now() < deadline, "frame not delivered in 10 s");
        // Once the frame is out, this keeps answering duplicates.
        match b.recv_frame() {
            Ok(f) => delivered = Some(f),
            Err(ClanError::Timeout { .. }) => {}
            Err(e) => panic!("receiver: {e}"),
        }
        acked = a.drain(Duration::from_millis(1)).is_ok();
    }
    delivered.unwrap()
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

// ----------------------------------------------------------------------
// (a) A clean link needs no loss recovery at all.
// ----------------------------------------------------------------------

#[test]
fn clean_loopback_frame_is_delivered_without_a_single_retransmission() {
    let (near, far) = (
        UdpSocket::bind("127.0.0.1:0").unwrap(),
        UdpSocket::bind("127.0.0.1:0").unwrap(),
    );
    let (near_addr, far_addr) = (near.local_addr().unwrap(), far.local_addr().unwrap());
    near.connect(far_addr).unwrap();
    far.connect(near_addr).unwrap();
    let cfg = step_cfg(1200);
    let mut a = UdpTransport::with_config(UdpLink::from_socket(near, far_addr.to_string()), &cfg);
    let mut b = UdpTransport::with_config(UdpLink::from_socket(far, near_addr.to_string()), &cfg);
    // A generation-sized frame: 1 167 fragments, five times what the
    // receiver's default socket buffer holds.
    let frame = payload(1_400_000);
    assert_eq!(exchange(&mut a, &mut b, &frame), frame);
    for (end, t) in [("sender", a.stats()), ("receiver", b.stats())] {
        assert_eq!(
            (t.retrans_datagrams, t.dup_datagrams),
            (0, 0),
            "{end}: a clean link must not lose what the sender itself overflowed"
        );
    }
}

// ----------------------------------------------------------------------
// (b) The window bounds what is in flight; a loss is repaired alone.
// ----------------------------------------------------------------------

/// What a [`Counting`] link saw cross it.
#[derive(Default)]
struct Wire {
    /// Transmissions per `(frame, fragment)`.
    sends: BTreeMap<(u64, u32), u32>,
    /// Fragments an ack that reached the sender has reported.
    acked: BTreeSet<(u64, u32)>,
    /// The most fragments ever sent and not yet acknowledged.
    peak_in_flight: usize,
    acks_seen: usize,
}

/// A bounded-window link over an in-process channel that records every
/// `DATA` it carries and every `ACK` it hands back, and can lose one
/// chosen datagram of each kind.
struct Counting {
    inner: ChannelDatagramLink,
    window: usize,
    wire: Arc<Mutex<Wire>>,
    /// Lose the first transmission of this fragment.
    lose_data: Option<(u64, u32)>,
    /// Lose the n-th ack (1-based) on its way to the sender.
    lose_ack: Option<usize>,
}

impl DatagramLink for Counting {
    fn send(&mut self, datagram: &[u8]) -> Result<(), ClanError> {
        if datagram[4] == TYPE_DATA {
            let key = (u64_at(datagram, 5), u32_at(datagram, 13));
            let mut wire = self.wire.lock().unwrap();
            let sends = wire.sends.entry(key).or_insert(0);
            *sends += 1;
            let first = *sends == 1;
            let in_flight = wire
                .sends
                .keys()
                .filter(|k| !wire.acked.contains(k))
                .count();
            wire.peak_in_flight = wire.peak_in_flight.max(in_flight);
            if first && self.lose_data == Some(key) {
                return Ok(());
            }
        }
        self.inner.send(datagram)
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, ClanError> {
        loop {
            let Some(d) = self.inner.recv(timeout)? else {
                return Ok(None);
            };
            if is_ack(&d) {
                let mut wire = self.wire.lock().unwrap();
                wire.acks_seen += 1;
                if self.lose_ack == Some(wire.acks_seen) {
                    continue;
                }
                let (seq, index) = (u64_at(&d, 5), u32_at(&d, 13));
                let (cum, bitmap) = (u32_at(&d, 17), u64_at(&d, 21));
                wire.acked.extend((0..cum).map(|i| (seq, i)));
                wire.acked.insert((seq, index));
                wire.acked.extend(
                    (0..64u32)
                        .filter(|k| (bitmap >> k) & 1 == 1)
                        .map(|k| (seq, index - 1 - k)),
                );
            }
            return Ok(Some(d));
        }
    }

    fn peer(&self) -> String {
        "counting".into()
    }

    fn window(&self) -> usize {
        self.window
    }
}

const WINDOW: usize = 8;
const FRAGMENTS: u32 = 40;

/// One 40-fragment frame across a window-8 [`Counting`] link with the
/// given losses: what crossed the wire, and both ends' statistics.
fn counted_exchange(
    lose_data: Option<(u64, u32)>,
    lose_ack: Option<usize>,
) -> (Wire, LinkStats, LinkStats) {
    let (near, far) = datagram_channel_pair();
    let wire = Arc::new(Mutex::new(Wire::default()));
    let cfg = step_cfg(32);
    let link = Counting {
        inner: near,
        window: WINDOW,
        wire: Arc::clone(&wire),
        lose_data,
        lose_ack,
    };
    let mut a = UdpTransport::with_config(link, &cfg);
    let mut b = UdpTransport::with_config(far, &cfg);
    let frame = payload(32 * FRAGMENTS as usize);
    assert_eq!(exchange(&mut a, &mut b, &frame), frame);
    let (sent, received) = (a.stats(), b.stats());
    drop(a);
    let wire = Arc::into_inner(wire).unwrap().into_inner().unwrap();
    (wire, sent, received)
}

#[test]
fn in_flight_never_exceeds_the_links_window() {
    let (wire, sent, received) = counted_exchange(None, None);
    assert_eq!(
        wire.peak_in_flight, WINDOW,
        "the window is used, and bounds"
    );
    assert_eq!(wire.sends.len(), FRAGMENTS as usize);
    assert!(wire.sends.values().all(|&n| n == 1));
    assert_eq!((sent.retrans_datagrams, received.dup_datagrams), (0, 0));
}

#[test]
fn a_lost_fragment_is_resent_alone() {
    // Fragment 5 is caught by the acks of those sent after it; the last
    // fragment has none, so only the answer to a probe shows it lost.
    for lost in [(0, 5), (0, FRAGMENTS - 1)] {
        let (wire, sent, received) = counted_exchange(Some(lost), None);
        assert!(wire.peak_in_flight <= WINDOW);
        for (key, &n) in &wire.sends {
            let expected = if *key == lost { 2 } else { 1 };
            assert_eq!(n, expected, "fragment {key:?} crossed {n} times");
        }
        assert_eq!(sent.retrans_datagrams, 1);
        assert_eq!(received.dup_datagrams, 0, "the one re-send filled the gap");
    }
}

#[test]
fn a_peer_slow_to_read_is_probed_not_sent_to_again() {
    // The sender's timers expire while the receiver is busy elsewhere —
    // an agent evaluating one run while the next arrives. Nothing was
    // lost, so nothing may be sent twice.
    let (near, far) = datagram_channel_pair();
    let cfg = step_cfg(32).with_retransmit_interval_s(0.002);
    let mut a = UdpTransport::with_config(near, &cfg);
    let mut b = UdpTransport::with_config(far, &cfg);
    // A session under way: each end has heard the other.
    assert_eq!(exchange(&mut a, &mut b, b"configure"), b"configure");
    let frame = payload(32 * 10);
    a.send_frame(&frame).unwrap();
    // The 2 ms timeout expires ten times over with `b` not reading.
    assert!(a.drain(Duration::from_millis(20)).is_err());
    // `b` reads: it acknowledges the frame, then answers every probe.
    assert_eq!(b.recv_frame().unwrap(), frame);
    b.linger();
    a.drain(Duration::from_millis(100)).unwrap();
    for (end, t) in [("sender", a.stats()), ("receiver", b.stats())] {
        assert_eq!((t.retrans_datagrams, t.dup_datagrams), (0, 0), "{end}");
    }
}

#[test]
fn a_lost_ack_is_covered_by_the_next_one() {
    let (wire, sent, received) = counted_exchange(None, Some(3));
    assert!(wire.peak_in_flight <= WINDOW);
    assert!(
        wire.sends.values().all(|&n| n == 1),
        "the next ack's cumulative index reports what the lost one did"
    );
    assert_eq!((sent.retrans_datagrams, received.dup_datagrams), (0, 0));
}

// ----------------------------------------------------------------------
// (c) `send_frame` never waits; silence is a typed Timeout.
// ----------------------------------------------------------------------

#[test]
fn send_frame_never_blocks_and_a_silent_peer_is_a_typed_timeout() {
    // A bound socket that never answers.
    let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
    let cfg = UdpConfig::default().with_idle_timeout_s(0.3);
    let mut t =
        UdpTransport::with_config(UdpLink::connect(sink.local_addr().unwrap()).unwrap(), &cfg);
    // Exactly one window: leaves whole, on no ack at all.
    let start = Instant::now();
    t.send_frame(&payload(64 * 1200)).unwrap();
    // Four windows: what fits leaves, the call still returns at once.
    t.send_frame(&payload(256 * 1200)).unwrap();
    assert!(
        start.elapsed() < Duration::from_millis(100),
        "send_frame waited {:?} on a peer that never acks",
        start.elapsed()
    );
    match t.recv_frame() {
        Err(ClanError::Timeout { waited, .. }) => {
            assert!(waited >= Duration::from_millis(290), "{waited:?}")
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(start.elapsed() < Duration::from_secs(3), "must not hang");
    assert!(t.stats().retrans_datagrams > 0, "the timers ran meanwhile");
}

// ----------------------------------------------------------------------
// (d) Hostile datagrams: Ok or a typed Err, in bounded time and memory.
// ----------------------------------------------------------------------

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One to three seeded edits of a valid datagram: a header field
/// overwritten with a value from its edges (sequence window, fragment
/// count, bitmap extremes), or a byte flipped, inserted, removed, or
/// the datagram cut short.
fn mutate(d: &mut Vec<u8>, count: u32, rng: &mut u64) {
    const SEQS: [u64; 8] = [0, 1, 2, 63, 64, 65, u64::MAX - 1, u64::MAX];
    for _ in 0..1 + xorshift(rng) % 3 {
        if d.is_empty() {
            return;
        }
        let at = (xorshift(rng) % d.len() as u64) as usize;
        let small = [0, 1, count - 1, count, count + 1, u32::MAX - 64, u32::MAX]
            [(xorshift(rng) % 7) as usize];
        let mut put = |at: usize, bytes: &[u8]| {
            if let Some(field) = d.get_mut(at..at + bytes.len()) {
                field.copy_from_slice(bytes);
            }
        };
        match xorshift(rng) % 9 {
            0 => put(5, &SEQS[(xorshift(rng) % 8) as usize].to_le_bytes()),
            1 => put(13, &small.to_le_bytes()),
            2 => put(17, &small.to_le_bytes()),
            3 => put(
                21,
                &[0, 1, 1 << 63, u64::MAX, xorshift(rng)][(xorshift(rng) % 5) as usize]
                    .to_le_bytes(),
            ),
            4 => d[at] ^= 1 << (xorshift(rng) % 8),
            5 => d[at] = xorshift(rng) as u8,
            6 => d.insert(at, xorshift(rng) as u8),
            7 => drop(d.remove(at)),
            _ => d.truncate(at),
        }
    }
}

#[test]
fn mutated_datagrams_end_in_ok_or_a_typed_error_in_bounded_time_and_memory() {
    const COUNT: u32 = 6;
    let chunk = |i: u32| vec![i as u8; 8];
    let whole: Vec<u8> = (0..COUNT).flat_map(chunk).collect();
    let cfg = UdpConfig::default()
        .with_mtu(8)
        .with_retransmit_interval_s(0.001)
        .with_idle_timeout_s(0.002);
    let peak_before = PEAK_BYTES.load(Ordering::Relaxed);
    let started = Instant::now();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let (mut delivered, mut timed_out, mut oversized) = (0u32, 0u32, 0u32);
    for case in 0..3_000u32 {
        let (mut peer, link) = datagram_channel_pair();
        let mut t = UdpTransport::with_config(link, &cfg);
        // An outstanding frame of its own, so acks have something to
        // claim: frame 0, COUNT fragments, all sent (unbounded window).
        t.send_frame(&whole).unwrap();
        // The peer's valid traffic — acks for that frame, and frame 0
        // of its own — with a few datagrams of it mutated.
        let mut traffic: Vec<Vec<u8>> = (0..COUNT)
            .map(|i| ack(0, i, i + 1, 0))
            .chain((0..COUNT).map(|i| data(0, i, COUNT, &chunk(i))))
            .chain([done()])
            .collect();
        for _ in 0..1 + case % 3 {
            let victim = (xorshift(&mut rng) % traffic.len() as u64) as usize;
            let mut hostile = traffic[victim].clone();
            mutate(&mut hostile, COUNT, &mut rng);
            // Hostile first, so it can poison what follows.
            traffic.insert(victim, hostile);
        }
        for d in &traffic {
            peer.send(d).unwrap();
        }
        let case_started = Instant::now();
        match t.recv_frame() {
            // Whatever was delivered under frame 0 is the right size or
            // a mutation's own (a changed count is a different frame).
            Ok(_) => delivered += 1,
            Err(ClanError::Timeout { .. }) => timed_out += 1,
            Err(ClanError::Frame(FrameError::Oversized { .. })) => oversized += 1,
            Err(e) => panic!("case {case}: untyped failure {e}"),
        }
        assert!(
            case_started.elapsed() < Duration::from_secs(2),
            "case {case} took {:?}",
            case_started.elapsed()
        );
    }
    // The mutations reach past the magic, and do not reject everything.
    assert!(
        delivered > 0 && timed_out > 0 && oversized > 0,
        "delivered {delivered}, timed out {timed_out}, oversized {oversized}"
    );
    assert!(started.elapsed() < Duration::from_secs(60));
    let grown = PEAK_BYTES
        .load(Ordering::Relaxed)
        .saturating_sub(peak_before);
    assert!(
        grown < 64 << 20,
        "hostile datagrams grew the heap's peak by {grown} bytes"
    );
}

// ----------------------------------------------------------------------
// Satellites: the shutdown stall and the captured daemon.
// ----------------------------------------------------------------------

fn neat_cfg(pop: usize) -> NeatConfig {
    let w = Workload::CartPole;
    NeatConfig::builder(w.obs_dim(), w.n_actions())
        .population_size(pop)
        .build()
        .unwrap()
}

/// Loses the next ack on its way in, once armed.
struct LoseNextAck {
    inner: ChannelDatagramLink,
    armed: Arc<AtomicBool>,
}

impl DatagramLink for LoseNextAck {
    fn send(&mut self, datagram: &[u8]) -> Result<(), ClanError> {
        self.inner.send(datagram)
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, ClanError> {
        loop {
            match self.inner.recv(timeout)? {
                Some(d) if is_ack(&d) && self.armed.swap(false, Ordering::SeqCst) => {}
                other => return Ok(other),
            }
        }
    }

    fn peer(&self) -> String {
        "loses-one-ack".into()
    }
}

#[test]
fn shutdown_survives_the_loss_of_its_own_ack_in_milliseconds() {
    let cfg = neat_cfg(6);
    let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::SingleStep, cfg.clone());
    let (coordinator, agent) = datagram_channel_pair();
    let agent = std::thread::spawn(move || serve_session(&mut UdpTransport::over(agent)));
    let armed = Arc::new(AtomicBool::new(false));
    let link = LoseNextAck {
        inner: coordinator,
        armed: Arc::clone(&armed),
    };
    let mut cluster =
        EdgeCluster::connect_transports(vec![Box::new(UdpTransport::over(link)) as _], spec)
            .unwrap();
    cluster.evaluate(&mut Population::new(cfg, 1)).unwrap();
    // Every ack of the round has been read (each precedes the reply in
    // the channel), so the next ack is the one for `Shutdown`. Without
    // a lingering agent it is gone for good: the agent has left, and
    // the drain retransmits to nobody until its 750 ms deadline.
    armed.store(true, Ordering::SeqCst);
    let start = Instant::now();
    cluster.shutdown();
    let took = start.elapsed();
    assert!(!armed.load(Ordering::SeqCst), "the ack was lost");
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    agent.join().unwrap().unwrap();
}

#[test]
fn a_stray_datagram_does_not_capture_the_agent_daemon() {
    let mut server = AgentServer::bind("127.0.0.1:0", Some(UdpConfig::default())).unwrap();
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.serve_once());
    // What reaches an idle daemon's port besides a coordinator: a stale
    // retransmit from a finished session, a late ack, noise.
    let stray = UdpSocket::bind("127.0.0.1:0").unwrap();
    for d in [data(5, 0, 1, b"stale"), ack(3, 0, 1, 0), b"noise".to_vec()] {
        stray.send_to(&d, addr).unwrap();
    }
    let cfg = neat_cfg(6);
    let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::SingleStep, cfg.clone());
    // A short liveness window, so a captured daemon fails this test in
    // seconds instead of holding it for the default 30.
    let udp = UdpConfig::default().with_idle_timeout_s(2.0);
    let mut cluster = EdgeCluster::connect_udp_cfg(&[addr.to_string()], spec, udp).unwrap();
    let start = Instant::now();
    cluster
        .evaluate(&mut Population::new(cfg, 1))
        .expect("the real coordinator is served");
    assert!(start.elapsed() < Duration::from_secs(1), "served promptly");
    cluster.shutdown();
    daemon.join().unwrap().unwrap();
}
