//! The agent side of the cluster protocol: a session loop that serves
//! one coordinator, plus [`AgentServer`], the TCP or UDP daemon that
//! runs it for standalone agent processes (`clan-cli agent --listen ADDR
//! [--udp]`) and loopback agent threads alike.
//!
//! The same [`serve_session`] drives every agent, whether it lives in a
//! thread of the coordinator's process (channel, loopback TCP or UDP)
//! or on another machine: the protocol — `Configure` once,
//! then `Evaluate`/`BuildChildren` request-response rounds until
//! `Shutdown` — is transport-invariant, and so is the work itself, which
//! is why a distributed run is bit-identical to a serial one.

use super::{
    recv_message, send_message, DelayTransport, TcpTransport, Transport, UdpConfig, UdpLink,
    UdpTransport, WireMessage,
};
use crate::error::ClanError;
use crate::evaluator::Evaluator;
use clan_neat::reproduction::{make_child, ChildKind};
use clan_neat::{Genome, GenomeId};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs, UdpSocket};
use std::time::Duration;

/// Serves one coordinator session over `transport` until `Shutdown` or
/// disconnect.
///
/// The first message must be `Configure`; the agent builds its
/// [`Evaluator`] from the received [`ClusterSpec`](super::ClusterSpec)
/// so there is no configuration to keep in sync between machines.
///
/// # Errors
///
/// [`ClanError::Protocol`] if the coordinator violates the session
/// protocol — a message out of turn, a child spec naming a parent it
/// did not send, an `Evaluate` genome no network can be built from —
/// plus any transport or frame error. A clean disconnect after
/// `Shutdown` is success.
pub fn serve_session(transport: &mut dyn Transport) -> Result<(), ClanError> {
    let spec = match recv_message(transport)?.0 {
        WireMessage::Configure(spec) => *spec,
        other => {
            return Err(ClanError::Protocol {
                peer: transport.peer(),
                reason: format!("expected Configure, got {}", message_name(&other)),
            })
        }
    };
    let mut evaluator = Evaluator::with_options(
        spec.workload,
        spec.mode,
        spec.episodes.max(1),
        1,
        spec.agent_engine_options(),
    );
    let cfg = spec.cfg;
    loop {
        let msg = match recv_message(transport) {
            Ok((msg, _)) => msg,
            // Coordinator gone: the session is over. Dying quietly (not
            // erroring) lets loopback clusters tear down in any order.
            // A datagram transport observes "gone" as a liveness timeout
            // rather than a disconnect — same treatment.
            Err(ClanError::Transport { .. }) | Err(ClanError::Timeout { .. }) => return Ok(()),
            Err(e) => return Err(e),
        };
        match msg {
            WireMessage::Evaluate {
                master_seed,
                genomes,
                ..
            } => {
                // The frame decoded, but its genomes are still a peer's
                // word: one no network can be built from ends the session.
                // They are consumed — hashed (the hash alone seeds the
                // episodes), compiled and dropped one at a time.
                let owned = genomes.into_iter().map(|g| (g.content_hash(), g));
                let results = evaluator
                    .evaluate_uncached(owned, &cfg, master_seed)
                    .map_err(|e| ClanError::Protocol {
                        peer: transport.peer(),
                        reason: format!("Evaluate carries an unusable genome: {e}"),
                    })?;
                send_message(transport, &WireMessage::Fitness(results))?;
            }
            WireMessage::BuildChildren {
                generation,
                master_seed,
                specs,
                parents,
            } => {
                let lookup: BTreeMap<GenomeId, Genome> =
                    parents.into_iter().map(|g| (g.id(), g)).collect();
                let parent = |id: &GenomeId| {
                    lookup.get(id).ok_or_else(|| ClanError::Protocol {
                        peer: transport.peer(),
                        reason: format!("spec references absent parent {id}"),
                    })
                };
                let mut children = Vec::with_capacity(specs.len());
                for spec in &specs {
                    let parents = match spec.kind {
                        ChildKind::Elite { source } => (parent(&source)?, None),
                        ChildKind::Crossover { parent1, parent2 } => {
                            (parent(&parent1)?, Some(parent(&parent2)?))
                        }
                    };
                    children.push(make_child(&cfg, spec, parents, master_seed, generation));
                }
                send_message(transport, &WireMessage::Children(children))?;
            }
            WireMessage::Shutdown => {
                // The coordinator is still draining this frame: stay
                // until it has heard the ack (a no-op on stream links).
                transport.linger();
                return Ok(());
            }
            other => {
                return Err(ClanError::Protocol {
                    peer: transport.peer(),
                    reason: format!("unexpected {} mid-session", message_name(&other)),
                })
            }
        }
    }
}

/// The message's kind, for protocol-violation reports.
pub(crate) fn message_name(msg: &WireMessage) -> &'static str {
    match msg {
        WireMessage::Configure(_) => "Configure",
        WireMessage::Evaluate { .. } => "Evaluate",
        WireMessage::Fitness(_) => "Fitness",
        WireMessage::BuildChildren { .. } => "BuildChildren",
        WireMessage::Children(_) => "Children",
        WireMessage::Shutdown => "Shutdown",
    }
}

/// A standalone agent daemon: binds an address and serves coordinators,
/// one session at a time, over TCP or the loss-tolerant [`UdpTransport`]
/// — the `clan-cli agent [--udp]` entry point, and the server behind
/// every loopback agent thread.
///
/// A UDP socket has no accept(): the server learns each coordinator's
/// address from the first datagram it sends (the `Configure` frame's
/// first fragment), connects the socket to that peer for the session,
/// and rebinds the same port for the next one. Only a well-formed `DATA`
/// fragment of frame 0 opens a session; anything else that reaches the
/// unconnected port — a stale retransmit from a finished session, noise
/// — is consumed and discarded.
#[derive(Debug)]
pub struct AgentServer {
    listener: Listener,
    /// The resolved local address, stable across UDP rebinds.
    addr: SocketAddr,
    delay: Duration,
}

#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    /// The socket for the next session (`None` until rebound after one)
    /// and the datagram tuning.
    Udp(Option<UdpSocket>, UdpConfig),
}

impl AgentServer {
    /// Binds the server: TCP, or UDP with `udp`'s tuning (MTU,
    /// retransmission timeout, liveness window). Its `faults` are not
    /// injected here: a cluster injects them on the coordinator's side of
    /// each link, where they perturb both directions. Use port 0 for an
    /// ephemeral port (loopback clusters do).
    ///
    /// # Errors
    ///
    /// [`ClanError::Transport`] if the address cannot be bound.
    pub fn bind<A: ToSocketAddrs + std::fmt::Display>(
        addr: A,
        udp: Option<UdpConfig>,
    ) -> Result<AgentServer, ClanError> {
        let err = |what: &str, e: std::io::Error| ClanError::Transport {
            peer: addr.to_string(),
            reason: format!("{what}: {e}"),
        };
        let (listener, local) = match udp {
            None => {
                let listener = TcpListener::bind(&addr).map_err(|e| err("bind failed", e))?;
                let local = listener.local_addr();
                (Listener::Tcp(listener), local)
            }
            Some(udp) => {
                let socket = UdpSocket::bind(&addr).map_err(|e| err("udp bind failed", e))?;
                let local = socket.local_addr();
                (Listener::Udp(Some(socket), udp), local)
            }
        };
        Ok(AgentServer {
            listener,
            addr: local.map_err(|e| err("local addr", e))?,
            delay: Duration::ZERO,
        })
    }

    /// Adds an artificial per-request delay (`clan-cli agent
    /// --delay-ms`): every received frame stalls this long before being
    /// processed, emulating a slower device for heterogeneity testing.
    /// Results are unchanged — only timing.
    pub fn with_delay(mut self, delay: Duration) -> AgentServer {
        self.delay = delay;
        self
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for one coordinator and serves it to completion. A UDP
    /// coordinator that vanishes mid-session ends the session cleanly
    /// (the transport's liveness timeout), exactly like a TCP
    /// disconnect.
    ///
    /// # Errors
    ///
    /// Socket failures and in-session protocol/frame errors. Serving
    /// errors are returned, not panicked, so a malformed peer cannot
    /// take the agent down.
    pub fn serve_once(&mut self) -> Result<(), ClanError> {
        let addr = self.addr;
        let err = |what: &str, e: std::io::Error| ClanError::Transport {
            peer: addr.to_string(),
            reason: format!("{what}: {e}"),
        };
        let delay = self.delay;
        let (socket, udp) = match &mut self.listener {
            Listener::Tcp(listener) => {
                let (stream, peer) = listener.accept().map_err(|e| err("accept failed", e))?;
                return serve_delayed(TcpTransport::from_stream(stream, peer.to_string()), delay);
            }
            Listener::Udp(socket, udp) => (socket.take(), &*udp),
        };
        let socket = match socket {
            Some(s) => s,
            // Rebind the same port for a fresh, unconnected socket.
            None => UdpSocket::bind(addr).map_err(|e| err("udp rebind failed", e))?,
        };
        // Learn the coordinator's address without consuming its first
        // datagram, then filter the socket to that peer. Adopting
        // whoever sent *anything* would leave the daemon deaf to every
        // real coordinator until the idle timeout.
        socket
            .set_read_timeout(None)
            .map_err(|e| err("udp set timeout", e))?;
        let mut header = [0u8; super::udp::DATA_HEADER_BYTES];
        let peer = loop {
            let (n, from) = socket
                .peek_from(&mut header)
                .map_err(|e| err("udp peek", e))?;
            if header.get(..n).is_some_and(super::udp::opens_session) {
                break from;
            }
            socket
                .recv_from(&mut header)
                .map_err(|e| err("udp discard", e))?;
        };
        socket.connect(peer).map_err(|e| err("udp connect", e))?;
        // The connected socket goes with the transport; the next session
        // rebinds the port fresh.
        let link = UdpLink::from_socket(socket, peer.to_string());
        serve_delayed(UdpTransport::with_config(link, udp), delay)
    }

    /// Serves coordinators forever, logging (not propagating) per-session
    /// failures: one bad coordinator must not kill an edge device's
    /// agent daemon.
    pub fn serve_forever(&mut self) -> ! {
        loop {
            if let Err(e) = self.serve_once() {
                eprintln!("agent session error: {e}");
            }
        }
    }
}

/// Serves one session over `transport`, stalling `delay` after every
/// received frame when it is not zero.
fn serve_delayed(mut transport: impl Transport, delay: Duration) -> Result<(), ClanError> {
    if delay.is_zero() {
        serve_session(&mut transport)
    } else {
        serve_session(&mut DelayTransport::new(transport, delay))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::InferenceMode;
    use crate::transport::{channel_pair, ClusterSpec};
    use clan_envs::Workload;
    use clan_neat::NeatConfig;

    fn spec() -> ClusterSpec {
        let w = Workload::CartPole;
        let cfg = NeatConfig::builder(w.obs_dim(), w.n_actions())
            .population_size(8)
            .build()
            .unwrap();
        ClusterSpec::new(w, InferenceMode::MultiStep, cfg)
    }

    #[test]
    fn session_requires_configure_first() {
        let (mut coord, mut agent_side) = channel_pair();
        let handle = std::thread::spawn(move || serve_session(&mut agent_side));
        send_message(
            &mut coord,
            &WireMessage::Evaluate {
                generation: 0,
                master_seed: 0,
                genomes: vec![],
            },
        )
        .unwrap();
        let err = handle.join().unwrap().unwrap_err();
        assert!(matches!(err, ClanError::Protocol { .. }), "{err}");
    }

    #[test]
    fn session_shutdown_is_clean() {
        let (mut coord, mut agent_side) = channel_pair();
        let handle = std::thread::spawn(move || serve_session(&mut agent_side));
        send_message(&mut coord, &WireMessage::Configure(Box::new(spec()))).unwrap();
        send_message(&mut coord, &WireMessage::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn coordinator_disconnect_ends_session_quietly() {
        let (mut coord, mut agent_side) = channel_pair();
        let handle = std::thread::spawn(move || serve_session(&mut agent_side));
        send_message(&mut coord, &WireMessage::Configure(Box::new(spec()))).unwrap();
        drop(coord);
        handle.join().unwrap().unwrap();
    }
}
