//! TCP transport: length-prefixed frames over `std::net` sockets.
//!
//! Wire format per frame: a little-endian `u32` length, then that many
//! frame bytes (which themselves start with the `CLAN` magic — see
//! [`codec`](super::codec)). The length is validated against
//! [`MAX_FRAME_BYTES`](super::MAX_FRAME_BYTES) *before* any allocation,
//! so a corrupt or hostile peer cannot force an OOM — and before a send,
//! so the peer is never pushed a frame it must refuse. Prefix and frame
//! leave in one vectored write: under `TCP_NODELAY` two writes are two
//! segments, and the peer wakes for four bytes only to block again. A
//! peer that disconnects mid-frame is a typed [`ClanError::Transport`].

use super::{check_frame_len, Transport};
use crate::error::ClanError;
use std::io::{IoSlice, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A frame pipe over one TCP connection.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    peer: String,
    /// When set, a receive that sees no bytes for this long surfaces a
    /// typed [`ClanError::Timeout`] instead of blocking forever.
    read_timeout: Option<std::time::Duration>,
    /// Set after a read timeout: `read_exact` may have consumed part of
    /// a frame before timing out, so the stream's frame boundary is
    /// lost. Every later receive fails typed instead of decoding
    /// garbage from a desynchronized stream.
    desynchronized: bool,
}

impl TcpTransport {
    /// Connects to a listening agent or coordinator.
    ///
    /// # Errors
    ///
    /// [`ClanError::Transport`] if the address does not resolve or the
    /// connection is refused.
    pub fn connect<A: ToSocketAddrs + std::fmt::Display>(
        addr: A,
    ) -> Result<TcpTransport, ClanError> {
        let peer = addr.to_string();
        let stream = TcpStream::connect(&addr).map_err(|e| ClanError::Transport {
            peer: peer.clone(),
            reason: format!("connect failed: {e}"),
        })?;
        Ok(TcpTransport::from_stream(stream, peer))
    }

    /// Wraps an accepted connection.
    pub fn from_stream(stream: TcpStream, peer: String) -> TcpTransport {
        // Frames are whole protocol messages; coalescing them behind
        // Nagle's algorithm only adds latency to the request/response
        // rhythm. Best-effort: a failure here only costs performance.
        let _ = stream.set_nodelay(true);
        TcpTransport {
            stream,
            peer,
            read_timeout: None,
            desynchronized: false,
        }
    }

    /// Arms a liveness deadline: any receive that hears nothing for
    /// `timeout` fails with [`ClanError::Timeout`] — the stream-transport
    /// mirror of the UDP idle timeout, for peers that stay connected but
    /// go silent mid-generation.
    ///
    /// A timeout is terminal for the connection: the partial read may
    /// have consumed part of a frame, losing the stream's frame
    /// boundary, so every subsequent receive on this transport fails
    /// typed rather than decoding garbage. Discard the transport and
    /// reconnect (exactly how the runtime treats any exchange error).
    ///
    /// # Errors
    ///
    /// [`ClanError::Transport`] if the socket rejects the option.
    pub fn with_read_timeout(
        mut self,
        timeout: std::time::Duration,
    ) -> Result<TcpTransport, ClanError> {
        self.stream
            .set_read_timeout(Some(timeout.max(std::time::Duration::from_millis(1))))
            .map_err(|e| self.io_err("set read timeout", e))?;
        self.read_timeout = Some(timeout);
        Ok(self)
    }

    fn io_err(&self, what: &str, e: std::io::Error) -> ClanError {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            if let Some(waited) = self.read_timeout {
                return ClanError::Timeout {
                    peer: self.peer.clone(),
                    waited,
                };
            }
        }
        ClanError::Transport {
            peer: self.peer.clone(),
            reason: format!("{what}: {e}"),
        }
    }
}

impl Transport for TcpTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), ClanError> {
        check_frame_len(frame.len() as u64)?;
        let prefix = (frame.len() as u32).to_le_bytes(); // the cap fits 32 bits
        let mut parts = [IoSlice::new(&prefix), IoSlice::new(frame)];
        let mut parts = &mut parts[..];
        // One call per frame; a short write resumes where it stopped.
        while !parts.is_empty() {
            match self.stream.write_vectored(parts) {
                Ok(0) => return Err(self.io_err("send", std::io::ErrorKind::WriteZero.into())),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(self.io_err("send", e)),
            }
        }
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, ClanError> {
        if self.desynchronized {
            return Err(ClanError::Transport {
                peer: self.peer.clone(),
                reason: "stream desynchronized by an earlier read timeout".into(),
            });
        }
        let fail = |t: &mut Self, what: &str, e: std::io::Error| {
            // A timed-out read_exact may have consumed a partial frame;
            // the boundary is gone for good.
            t.desynchronized = true;
            t.io_err(what, e)
        };
        let mut len_buf = [0u8; 4];
        self.stream
            .read_exact(&mut len_buf)
            .map_err(|e| fail(self, "recv length", e))?;
        let len = u32::from_le_bytes(len_buf);
        check_frame_len(u64::from(len))?;
        let mut frame = vec![0u8; len as usize];
        self.stream
            .read_exact(&mut frame)
            .map_err(|e| fail(self, "recv frame", e))?;
        Ok(frame)
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FrameError;
    use crate::transport::{recv_message, send_message, WireMessage, MAX_FRAME_BYTES};
    use std::net::TcpListener;

    fn loopback_pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (stream, peer) = listener.accept().unwrap();
            TcpTransport::from_stream(stream, peer.to_string())
        });
        let client = TcpTransport::connect(addr).unwrap();
        (client, join.join().unwrap())
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let (mut a, mut b) = loopback_pair();
        send_message(&mut a, &WireMessage::Shutdown).unwrap();
        let (msg, _) = recv_message(&mut b).unwrap();
        assert_eq!(msg, WireMessage::Shutdown);
    }

    #[test]
    fn oversized_length_prefix_is_typed_error_not_allocation() {
        let (mut a, mut b) = loopback_pair();
        // Announce a 4 GiB frame without sending it.
        a.stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        match b.recv_frame() {
            Err(ClanError::Frame(FrameError::Oversized { announced, .. })) => {
                assert_eq!(announced, u64::from(u32::MAX));
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frame_is_refused_before_the_first_byte() {
        let (mut a, mut b) = loopback_pair();
        // Zeroed pages are never touched: the bound is checked first.
        let too_big = vec![0u8; MAX_FRAME_BYTES as usize + 1];
        match a.send_frame(&too_big) {
            Err(ClanError::Frame(FrameError::Oversized { announced, max })) => {
                assert_eq!((announced, max), (MAX_FRAME_BYTES + 1, MAX_FRAME_BYTES));
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // Nothing left the socket, so the stream still frames: the
        // next frame is the first thing the peer reads.
        send_message(&mut a, &WireMessage::Shutdown).unwrap();
        let (msg, _) = recv_message(&mut b).unwrap();
        assert_eq!(msg, WireMessage::Shutdown);
    }

    #[test]
    fn disconnect_mid_frame_is_typed_error() {
        let (mut a, mut b) = loopback_pair();
        // Announce 100 bytes, deliver 3, vanish.
        a.stream.write_all(&100u32.to_le_bytes()).unwrap();
        a.stream.write_all(&[1, 2, 3]).unwrap();
        drop(a);
        assert!(matches!(b.recv_frame(), Err(ClanError::Transport { .. })));
    }

    #[test]
    fn silent_connected_peer_times_out_typed() {
        use std::time::{Duration, Instant};
        let (a, b) = loopback_pair();
        let mut b = b.with_read_timeout(Duration::from_millis(80)).unwrap();
        // `a` stays connected but never sends a byte.
        let start = Instant::now();
        match b.recv_frame() {
            Err(ClanError::Timeout { waited, .. }) => {
                assert_eq!(waited, Duration::from_millis(80));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(5), "must not hang");
        // The timed-out stream may have lost its frame boundary: later
        // receives fail typed instead of decoding garbage.
        assert!(matches!(b.recv_frame(), Err(ClanError::Transport { .. })));
        drop(a);
    }

    #[test]
    fn connect_to_unbound_port_fails_typed() {
        // Bind then immediately drop to get a port that refuses.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        assert!(matches!(
            TcpTransport::connect(addr),
            Err(ClanError::Transport { .. })
        ));
    }
}
