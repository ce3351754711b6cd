//! The sans-I/O transport boundary.
//!
//! A [`Transport`] is a mailbox between a session's two sides (nodes and
//! referee): the session *pushes* every message it produces with
//! [`Transport::send`] and *pulls* whatever the network chose to deliver
//! with [`Transport::recv`]. No threads, sockets or clocks live here —
//! which is exactly what makes the runtime testable: a perfect FIFO
//! ([`PerfectTransport`]), a seeded adversary
//! ([`FaultyTransport`](crate::FaultyTransport)), and the real-socket
//! `wirenet::SocketTransport` (MAC-authenticated frames multiplexed over
//! nonblocking TCP) all plug into the same session state machines.

use crate::metrics::TransportCounters;
use referee_graph::VertexId;
use referee_protocol::Message;
use std::collections::VecDeque;

/// The referee's address (vertex IDs are `1..=n`, so 0 is free).
pub const REFEREE: VertexId = 0;

/// The cross-shard exchange's address: a sharded session's partials
/// travel `to: EXCHANGE` with `from` naming the emitting shard index.
/// No vertex ID can equal it, so node traffic never reaches the
/// exchange and exchange traffic never aliases a node.
pub const EXCHANGE: VertexId = VertexId::MAX;

/// Identifies one session on a shared transport, so a single connection
/// can carry a whole fleet's envelopes (cross-session multiplexing).
///
/// In-memory transports are usually dedicated to one session, where the
/// default id `0` is fine; multiplexing transports (`wirenet`) assign a
/// distinct id per session and demultiplex inbound traffic by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One transmission: a session-tagged, round-stamped, addressed
/// [`Message`].
///
/// `from`/`to` use vertex IDs with [`REFEREE`] (0) for the referee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The session this envelope belongs to (multiplexing key).
    pub session: SessionId,
    /// Protocol round the payload belongs to (1-based).
    pub round: u32,
    /// Sender.
    pub from: VertexId,
    /// Recipient.
    pub to: VertexId,
    /// The message bits.
    pub payload: Message,
}

/// A pluggable, polled message channel.
pub trait Transport {
    /// Accept an outbound envelope.
    fn send(&mut self, env: Envelope);

    /// Deliver the next envelope, if any is currently deliverable.
    ///
    /// `None` means the channel is *empty* — every envelope ever sent has
    /// been delivered or destroyed. Sessions treat `None` while still
    /// expecting traffic as evidence of loss.
    fn recv(&mut self) -> Option<Envelope>;

    /// Delivery accounting so far.
    fn counters(&self) -> TransportCounters;
}

/// Lossless, orderly, in-memory FIFO transport.
#[derive(Debug, Default)]
pub struct PerfectTransport {
    queue: VecDeque<Envelope>,
    counters: TransportCounters,
}

impl PerfectTransport {
    /// An empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Envelopes currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }
}

impl Transport for PerfectTransport {
    fn send(&mut self, env: Envelope) {
        self.counters.sent += 1;
        self.queue.push_back(env);
    }

    fn recv(&mut self) -> Option<Envelope> {
        let env = self.queue.pop_front()?;
        self.counters.delivered += 1;
        Some(env)
    }

    fn counters(&self) -> TransportCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(round: u32, from: VertexId, to: VertexId) -> Envelope {
        Envelope { session: SessionId::default(), round, from, to, payload: Message::empty() }
    }

    #[test]
    fn fifo_order_and_counters() {
        let mut t = PerfectTransport::new();
        t.send(env(1, 1, REFEREE));
        t.send(env(1, 2, REFEREE));
        assert_eq!(t.in_flight(), 2);
        assert_eq!(t.recv().unwrap().from, 1);
        assert_eq!(t.recv().unwrap().from, 2);
        assert!(t.recv().is_none());
        let c = t.counters();
        assert_eq!((c.sent, c.delivered, c.dropped), (2, 2, 0));
    }
}
