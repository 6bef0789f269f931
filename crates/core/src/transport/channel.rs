//! In-process transport: frames over `std::sync::mpsc` byte channels.
//!
//! The encoded-bytes boundary is deliberate — even between threads of
//! one process, messages cross as the same frames TCP would carry, so
//! byte accounting and malformed-frame behavior are transport-invariant.

use super::Transport;
use crate::error::ClanError;
use std::sync::mpsc::{channel, Receiver, Sender};

/// One endpoint of an in-process frame pipe.
#[derive(Debug)]
pub struct ChannelTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    label: String,
}

/// Creates a connected pair of in-process transports.
pub fn channel_pair() -> (ChannelTransport, ChannelTransport) {
    let (tx_ab, rx_ab) = channel();
    let (tx_ba, rx_ba) = channel();
    (
        ChannelTransport {
            tx: tx_ab,
            rx: rx_ba,
            label: "channel:agent".into(),
        },
        ChannelTransport {
            tx: tx_ba,
            rx: rx_ab,
            label: "channel:coordinator".into(),
        },
    )
}

impl Transport for ChannelTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), ClanError> {
        self.tx
            .send(frame.to_vec())
            .map_err(|_| ClanError::Transport {
                peer: self.label.clone(),
                reason: "peer disconnected".into(),
            })
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, ClanError> {
        // No deadline needed: a dead peer thread drops its Sender and recv
        // unblocks with Err; a silent-but-alive peer is a cross-process
        // hazard this transport cannot have.
        self.rx.recv().map_err(|_| ClanError::Transport {
            peer: self.label.clone(),
            reason: "peer disconnected".into(),
        })
    }

    fn peer(&self) -> String {
        self.label.clone()
    }
}
