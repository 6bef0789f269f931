//! A transport wrapper that emulates a slow agent.
//!
//! Heterogeneity tests and benches need an agent that is *measurably*
//! slower than its peers without changing any computed result.
//! [`DelayTransport`] wraps any [`Transport`] and sleeps a fixed
//! per-message latency after each received frame. Frames themselves are
//! moved verbatim — determinism is untouched, only timing changes.
//!
//! `clan-cli agent --delay-ms N` wraps its session transport in one of
//! these, which is how CI's delayed-agent smoke run slows a real agent
//! process down.

use super::Transport;
use crate::error::ClanError;
use std::time::Duration;

/// Wraps a transport, delaying after every received frame.
#[derive(Debug)]
pub struct DelayTransport<T> {
    inner: T,
    fixed: Duration,
}

impl<T: Transport> DelayTransport<T> {
    /// Delays `fixed` after each received frame.
    pub fn new(inner: T, fixed: Duration) -> DelayTransport<T> {
        DelayTransport { inner, fixed }
    }
}

impl<T: Transport> Transport for DelayTransport<T> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), ClanError> {
        self.inner.send_frame(frame)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, ClanError> {
        // The wrapped transport owns the idle deadline.
        let frame = self.inner.recv_frame()?;
        if !self.fixed.is_zero() {
            std::thread::sleep(self.fixed);
        }
        Ok(frame)
    }

    fn peer(&self) -> String {
        format!("{} (delayed)", self.inner.peer())
    }

    fn linger(&mut self) {
        self.inner.linger();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{channel_pair, recv_message, send_message, WireMessage};
    use std::time::Instant;

    #[test]
    fn frames_pass_through_unchanged_but_late() {
        let (a, mut b) = channel_pair();
        let mut delayed = DelayTransport::new(a, Duration::from_millis(20));
        send_message(&mut b, &WireMessage::Shutdown).unwrap();
        let start = Instant::now();
        let (msg, _) = recv_message(&mut delayed).unwrap();
        assert_eq!(msg, WireMessage::Shutdown);
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert!(delayed.peer().contains("delayed"));
    }

    #[test]
    fn errors_propagate_without_sleeping() {
        let (a, b) = channel_pair();
        drop(b);
        let mut delayed = DelayTransport::new(a, Duration::from_secs(60));
        let start = Instant::now();
        assert!(delayed.recv_frame().is_err());
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
