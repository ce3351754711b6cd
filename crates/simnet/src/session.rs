//! The session engine: one sans-I/O state machine that executes every
//! protocol the runtime supports, with all I/O behind a [`Transport`].
//!
//! A [`Session`] owns *both* sides of the referee model — the nodes'
//! local computations and the referee's global computation — but routes
//! every message between them through the transport. `step()` advances
//! the machine as far as currently-deliverable traffic allows and
//! returns; the caller (a scheduler, a test, a reactor) decides when to
//! poll again. Nothing here blocks, sleeps, or spawns.
//!
//! # One engine
//!
//! The engine runs a [`MultiRoundProtocol`] whose referee is split over
//! `k ≥ 1` shards ([`with_shards`](Session::with_shards)). Every round
//! it sends each node's uplink and link messages, collects the round's
//! uplinks into `k` [`RoundShard`]s (routed by the balanced ID partition
//! of `referee_protocol::shard`), runs `referee_step` on the reassembled
//! uplink vector, and delivers the downlinks.
//!
//! * **Monolithic is k = 1.** The single shard's `finish()` output goes
//!   straight to `referee_step`: no partial is encoded, sent or decoded,
//!   so a round takes three steps (send, uplinks, receive).
//! * **Sharded is k > 1.** Once a round's uplinks are in, every shard
//!   encodes its [`RoundPartialState`] and ships it through the transport
//!   in a seeded order ([`with_exchange_seed`](Session::with_exchange_seed)),
//!   exposed to the same faults as node traffic; the merged partials
//!   feed `referee_step`. The round also travels inside each encoded
//!   partial, so a partial replayed into another round fails the merge.
//! * **One-round is a 1-round run.** [`OneRoundSession`] is the engine
//!   driving [`OneRoundAsMultiRound`] with a round cap of 1, reporting
//!   the one-round `Result<O, DecodeError>` shape. On graphs at or above
//!   [`parallel_threshold`](referee_protocol::parallel_threshold) nodes,
//!   its round-1 uplinks come from the fanned-out
//!   [`local_phase`](referee_protocol::referee::local_phase) in one batch.
//!   [`MultiRoundSession`] is the engine on a borrowed protocol.
//!
//! Exchange partials are addressed `to:` [`EXCHANGE`], with `from`
//! naming the shard index. No vertex ID equals that address, so node
//! traffic is never mistaken for a partial: a stray sender `n + 1` is an
//! unknown node for every `k`.
//!
//! # Delivery semantics
//!
//! * **Out-of-order arrivals** are fine: envelopes are round-stamped and
//!   buffered until their round runs (the early-message cache). A round
//!   beyond the round cap never runs, so its traffic fails the session
//!   with [`DecodeError::Invalid`].
//! * **Duplicates** are fine *if identical*: at-least-once delivery is
//!   made idempotent by content comparison; the copy is counted as
//!   `stale`. A duplicate that *differs* from the recorded original
//!   **while its round is open** is evidence of tampering and fails the
//!   session with [`DecodeError::Inconsistent`]. A round's uplinks close
//!   when its shards hand over (k = 1) or exchange (k > 1); uplinks
//!   straggling in after that, and all traffic of earlier rounds, are
//!   committed history, dropped uncompared.
//! * **Loss** is detected when the transport reports itself empty while
//!   the session still expects traffic — a session never hangs.
//! * **Corruption** is *not* detected here. Flipped bits flow unchanged
//!   into the protocol decoders (and the partial decoder), whose
//!   [`DecodeError`] rejection paths are the system's integrity layer.
//!   (Transports that cross real sockets add their own frame MACs —
//!   `wirenet` — but that happens below this boundary.)
//! * **Cross-session traffic** is a demux fault: an inbound envelope
//!   whose [`SessionId`] differs from the session's own fails the run
//!   with [`DecodeError::Invalid`] rather than being silently absorbed
//!   into the wrong protocol state.

use crate::clock::{real_clock, SharedClock};
use crate::metrics::SessionMetrics;
use crate::transport::{Envelope, SessionId, Transport, EXCHANGE, REFEREE};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use referee_graph::{LabelledGraph, VertexId};
use referee_protocol::combinators::OneRoundAsMultiRound;
use referee_protocol::multiround::{MultiRoundProtocol, MultiRoundStats, RefereeStep};
use referee_protocol::shard::multiround::{RoundPartialState, RoundShard};
use referee_protocol::shard::{shard_of, Arrival};
use referee_protocol::{DecodeError, Message, NodeView, OneRoundProtocol};
use std::collections::BTreeMap;

/// Result of one [`step`](Session::step) call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// More work remains; poll again.
    Running,
    /// The session has an outcome.
    Done,
}

/// One round's mailboxes.
struct RoundBuf {
    /// The round's uplink wait, split by sender range. Each shard is
    /// taken when the round closes.
    shards: Vec<Option<RoundShard>>,
    uplinks_filled: usize,
    /// Set once the shards handed over: later uplinks are history.
    closed: bool,
    /// Exchange partials absorbed so far, by shard index.
    partials: Vec<Option<Message>>,
    merged: usize,
    acc: RoundPartialState,
    /// Downlinks and link inboxes by node, allocated on first use (a
    /// one-round run never needs them).
    downlinks: Vec<Option<Message>>,
    downlinks_filled: usize,
    inbox: Vec<Vec<(VertexId, Message)>>,
    inbox_count: usize,
}

impl RoundBuf {
    fn new(n: usize, k: usize, round: u32) -> Self {
        RoundBuf {
            shards: (0..k).map(|i| Some(RoundShard::new(n, k, i, round))).collect(),
            uplinks_filled: 0,
            closed: false,
            partials: vec![None; k],
            merged: 0,
            acc: RoundPartialState::new(n, round),
            downlinks: Vec::new(),
            downlinks_filled: 0,
            inbox: Vec::new(),
            inbox_count: 0,
        }
    }
}

/// Record `payload` in an empty slot (`Ok(true)`), absorb an identical
/// re-delivery (`Ok(false)`, counted stale), or fail on a conflicting one.
fn fill(
    slot: &mut Option<Message>,
    payload: Message,
    stale: &mut u64,
    what: impl FnOnce() -> String,
) -> Result<bool, DecodeError> {
    match slot {
        None => {
            *slot = Some(payload);
            Ok(true)
        }
        Some(existing) if *existing == payload => {
            *stale += 1;
            Ok(false)
        }
        Some(_) => Err(DecodeError::Inconsistent(format!("conflicting duplicate {}", what()))),
    }
}

enum Phase {
    Send,
    Uplinks,
    Partials,
    Receive,
    Finished,
}

/// Computes every node's round-1 uplink in one batch.
type FanOut<Q> = fn(&Q, &LabelledGraph) -> Vec<Message>;

/// The session engine (see the module docs); use it through
/// [`OneRoundSession`] or [`MultiRoundSession`].
pub struct Session<'a, Q: MultiRoundProtocol> {
    protocol: Q,
    graph: &'a LabelledGraph,
    session: SessionId,
    clock: SharedClock,
    max_rounds: usize,
    k: usize,
    exchange_seed: u64,
    exchange_bits: usize,
    /// Replaces per-node `node_send` in round 1 when set.
    fan_out: Option<FanOut<Q>>,
    node_states: Vec<Q::NodeState>,
    referee_state: Q::RefereeState,
    round: u32,
    phase: Phase,
    /// The running round's mailboxes.
    current: RoundBuf,
    /// Mailboxes of later rounds: the early-message cache that makes
    /// cross-round reordering harmless.
    future: BTreeMap<u32, RoundBuf>,
    /// Node→node envelopes sent this round (recorded at send time: the
    /// session knows the ground truth of what was transmitted, so loss is
    /// distinguishable from "that neighbour simply did not send").
    links_expected: usize,
    /// Per-(node, round) duplicate-target detection in O(1) per send:
    /// `link_seen[target] == link_epoch` means this sender already
    /// messaged `target` in the current round (sized on the first link).
    link_seen: Vec<u64>,
    link_epoch: u64,
    round_started: f64,
    outcome: Option<Result<Option<Q::Output>, DecodeError>>,
    metrics: SessionMetrics,
    stats: MultiRoundStats,
}

/// A single execution of a [`OneRoundProtocol`]: the engine driving
/// [`OneRoundAsMultiRound`] with a round cap of 1.
pub type OneRoundSession<'a, P> = Session<'a, OneRoundAsMultiRound<&'a P>>;

/// A single execution of a [`MultiRoundProtocol`].
pub type MultiRoundSession<'a, P> = Session<'a, &'a P>;

impl<'a, Q: MultiRoundProtocol> Session<'a, Q> {
    fn with_protocol(protocol: Q, graph: &'a LabelledGraph, max_rounds: usize) -> Self {
        let n = graph.n();
        let node_states = (1..=n as VertexId)
            .map(|v| protocol.node_init(NodeView::new(n, v, graph.neighbourhood(v))))
            .collect();
        let referee_state = protocol.referee_init(n);
        let clock = real_clock();
        Session {
            protocol,
            graph,
            session: SessionId::default(),
            round_started: clock.now(),
            clock,
            max_rounds,
            k: 1,
            exchange_seed: 0,
            exchange_bits: 0,
            fan_out: None,
            node_states,
            referee_state,
            round: 1,
            phase: Phase::Send,
            current: RoundBuf::new(n, 1, 1),
            future: BTreeMap::new(),
            links_expected: 0,
            link_seen: Vec::new(),
            link_epoch: 0,
            outcome: None,
            metrics: SessionMetrics::new(n),
            stats: MultiRoundStats {
                n,
                rounds: 0,
                max_uplink_bits: 0,
                max_downlink_bits: 0,
                max_link_bits: 0,
            },
        }
    }

    /// Tag this session's envelopes with `id` (multiplexing). Inbound
    /// envelopes carrying any *other* session id fail the run — they are
    /// evidence of a demultiplexing fault in the transport layer.
    pub fn with_session(mut self, id: SessionId) -> Self {
        self.session = id;
        self
    }

    /// Stamp latency metrics from `clock` instead of wall time. Round 1's
    /// timer restarts here; later rounds start at their send step.
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.round_started = clock.now();
        self.clock = clock;
        self
    }

    /// Split the referee over `shards` mergeable shards (clamped to at
    /// least 1); above one, their partials cross the transport before
    /// every `referee_step`. Call before the first `step`.
    pub fn with_shards(mut self, shards: usize) -> Self {
        let k = shards.max(1);
        if k != self.k {
            self.k = k;
            self.current = RoundBuf::new(self.graph.n(), k, 1);
        }
        self
    }

    /// Scramble the per-round order shards emit their partials with
    /// `seed` — merge is commutative, and a seeded shuffle proves the
    /// exchange order immaterial on every run.
    pub fn with_exchange_seed(mut self, seed: u64) -> Self {
        self.exchange_seed = seed;
        self
    }

    /// Advance as far as deliverable traffic allows.
    pub fn step(&mut self, transport: &mut impl Transport) -> Step {
        let progress = match self.phase {
            Phase::Send => self.send(transport),
            Phase::Uplinks => self.collect_uplinks(transport),
            Phase::Partials => self.collect_partials(transport),
            Phase::Receive => self.receive(transport),
            Phase::Finished => Ok(()),
        };
        if let Err(e) = progress {
            self.finish(Err(e));
        }
        match self.phase {
            Phase::Finished => Step::Done,
            _ => Step::Running,
        }
    }

    /// The engine's report, with the transport's counters merged into
    /// the metrics; call after `step` returns [`Step::Done`].
    fn engine_report(mut self, transport: &impl Transport) -> MultiRoundReport<Q::Output> {
        self.metrics.transport.merge(&transport.counters());
        MultiRoundReport {
            outcome: self.outcome.take().expect("session not finished"),
            metrics: self.metrics,
            stats: self.stats,
            shards: self.k,
            exchange_bits: self.exchange_bits,
        }
    }

    /// Classify one arrival into its round buffer.
    fn classify(&mut self, env: Envelope) -> Result<(), DecodeError> {
        let (n, k) = (self.graph.n(), self.k);
        let stale = &mut self.metrics.transport.stale;
        if env.session != self.session {
            return Err(DecodeError::Invalid(format!(
                "envelope for session {} delivered to session {} (demux fault)",
                env.session, self.session
            )));
        }
        if env.round < self.round {
            *stale += 1;
            return Ok(());
        }
        if env.round as usize > self.max_rounds {
            return Err(DecodeError::Invalid(format!(
                "round-{} envelope from {} to {} beyond the {}-round cap",
                env.round, env.from, env.to, self.max_rounds
            )));
        }
        let buf = if env.round == self.round {
            &mut self.current
        } else {
            let round = env.round;
            self.future.entry(round).or_insert_with(|| RoundBuf::new(n, k, round))
        };
        if env.to == EXCHANGE {
            let idx = env.from as usize;
            if idx >= k {
                return Err(DecodeError::OutOfRange(format!(
                    "partial from unknown shard {idx} (k = {k})"
                )));
            }
            if !fill(&mut buf.partials[idx], env.payload, stale, || {
                format!("partial from shard {idx}")
            })? {
                return Ok(());
            }
            let partial =
                RoundPartialState::decode(n, buf.partials[idx].as_ref().expect("just filled"))?;
            if partial.round() != env.round {
                return Err(DecodeError::Invalid(format!(
                    "round-{} partial delivered in a round-{} envelope",
                    partial.round(),
                    env.round
                )));
            }
            buf.acc.merge(partial)?;
            buf.merged += 1;
            return Ok(());
        }
        if env.from == REFEREE {
            if env.to == REFEREE || env.to as usize > n {
                return Err(DecodeError::OutOfRange(format!(
                    "downlink to unknown node {}",
                    env.to
                )));
            }
            if buf.downlinks.is_empty() {
                buf.downlinks = vec![None; n];
            }
            let slot = &mut buf.downlinks[(env.to - 1) as usize];
            if fill(slot, env.payload, stale, || format!("downlink for node {}", env.to))? {
                buf.downlinks_filled += 1;
            }
            return Ok(());
        }
        if env.from as usize > n {
            return Err(DecodeError::OutOfRange(format!(
                "message from unknown node {} (n = {n})",
                env.from
            )));
        }
        if env.to == REFEREE {
            if buf.closed {
                *stale += 1;
                return Ok(());
            }
            let shard = buf.shards[shard_of(n, k, env.from)]
                .as_mut()
                .expect("shards live until their round closes");
            match shard.ingest(env.from, env.payload)? {
                Arrival::Fresh => buf.uplinks_filled += 1,
                Arrival::Duplicate { identical: true } => *stale += 1,
                Arrival::Duplicate { identical: false } => {
                    return Err(DecodeError::Inconsistent(format!(
                        "conflicting duplicate uplink from node {}",
                        env.from
                    )))
                }
                Arrival::OutOfRange => unreachable!("senders are range-checked above"),
            }
            return Ok(());
        }
        // Node → node link message.
        if env.to as usize > n {
            return Err(DecodeError::OutOfRange(format!("message to unknown node {}", env.to)));
        }
        if !self.graph.has_edge(env.from, env.to) {
            return Err(DecodeError::Invalid(format!(
                "link message along non-edge {} → {}",
                env.from, env.to
            )));
        }
        if buf.inbox.is_empty() {
            buf.inbox = vec![Vec::new(); n];
        }
        let inbox = &mut buf.inbox[(env.to - 1) as usize];
        match inbox.iter().find(|(from, _)| *from == env.from) {
            Some((_, existing)) if *existing == env.payload => *stale += 1,
            Some(_) => {
                return Err(DecodeError::Inconsistent(format!(
                    "conflicting duplicate link message {} → {}",
                    env.from, env.to
                )))
            }
            None => {
                inbox.push((env.from, env.payload));
                buf.inbox_count += 1;
            }
        }
        Ok(())
    }

    /// Pull envelopes until the current round's buffer is `ready`; a
    /// transport that drains first is starvation, described by `starved`.
    fn pump(
        &mut self,
        transport: &mut impl Transport,
        ready: impl Fn(&RoundBuf) -> bool,
        starved: impl Fn(&RoundBuf) -> String,
    ) -> Result<(), DecodeError> {
        loop {
            if ready(&self.current) {
                return Ok(());
            }
            let Some(env) = transport.recv() else {
                return Err(DecodeError::Inconsistent(starved(&self.current)));
            };
            self.classify(env)?;
        }
    }

    fn send(&mut self, transport: &mut impl Transport) -> Result<(), DecodeError> {
        if self.stats.rounds >= self.max_rounds {
            self.finish(Ok(None)); // round cap: referee never finished
            return Ok(());
        }
        let (n, round) = (self.graph.n(), self.round);
        let t0 = self.clock.now();
        if round > 1 {
            self.round_started = t0; // round 1's timer runs from construction
        }
        self.stats.rounds += 1;
        self.links_expected = 0;
        let mut fanned = self.fan_out.take().map(|f| f(&self.protocol, self.graph).into_iter());
        for v in 1..=n as VertexId {
            let (links, uplink) = match fanned.as_mut() {
                Some(uplinks) => (Vec::new(), uplinks.next().expect("one uplink per node")),
                None => self.protocol.node_send(
                    &self.node_states[(v - 1) as usize],
                    NodeView::new(n, v, self.graph.neighbourhood(v)),
                    round as usize,
                ),
            };
            self.stats.max_uplink_bits = self.stats.max_uplink_bits.max(uplink.len_bits());
            self.metrics.stats.total_message_bits += uplink.len_bits();
            transport.send(Envelope {
                session: self.session,
                round,
                from: v,
                to: REFEREE,
                payload: uplink,
            });
            self.link_epoch += 1;
            for (target, payload) in links {
                if !self.graph.has_edge(v, target) {
                    return Err(DecodeError::Invalid(format!(
                        "node {v} tried to message non-neighbour {target}"
                    )));
                }
                // CONGEST carries one message per link per round; a
                // second send to the same target would be inseparable
                // from a transport duplicate at the receiver, so it is
                // rejected here rather than mis-accounted later.
                if self.link_seen.is_empty() {
                    self.link_seen = vec![0; n + 1];
                }
                if self.link_seen[target as usize] == self.link_epoch {
                    return Err(DecodeError::Invalid(format!(
                        "node {v} sent two messages to {target} in round {round} \
                         (one message per link per round)"
                    )));
                }
                self.link_seen[target as usize] = self.link_epoch;
                self.stats.max_link_bits = self.stats.max_link_bits.max(payload.len_bits());
                self.metrics.stats.total_message_bits += payload.len_bits();
                self.links_expected += 1;
                transport.send(Envelope {
                    session: self.session,
                    round,
                    from: v,
                    to: target,
                    payload,
                });
            }
        }
        self.metrics.stats.local_seconds += self.clock.now() - t0;
        self.phase = Phase::Uplinks;
        Ok(())
    }

    /// Wait for the round's uplinks, then close the round: at k = 1 the
    /// shard's vector goes straight to the referee, at k > 1 every
    /// shard's partial enters the exchange.
    fn collect_uplinks(&mut self, transport: &mut impl Transport) -> Result<(), DecodeError> {
        let (n, k, round) = (self.graph.n(), self.k, self.round);
        self.pump(
            transport,
            |b| b.uplinks_filled == n,
            |b| {
                format!(
                    "transport drained with {} of {n} round-{round} uplinks missing",
                    n - b.uplinks_filled
                )
            },
        )?;
        let buf = &mut self.current;
        buf.closed = true;
        if k == 1 {
            let uplinks = buf.shards[0].take().expect("a round closes once").finish()?;
            return self.referee_step(transport, &uplinks);
        }
        let mut order: Vec<usize> = (0..k).collect();
        let seed = self.exchange_seed ^ u64::from(round).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        for idx in order {
            let shard = buf.shards[idx].take().expect("a round closes once");
            let payload = shard.into_partial().encode();
            self.exchange_bits += payload.len_bits();
            transport.send(Envelope {
                session: self.session,
                round,
                from: idx as VertexId,
                to: EXCHANGE,
                payload,
            });
        }
        self.phase = Phase::Partials;
        Ok(())
    }

    fn collect_partials(&mut self, transport: &mut impl Transport) -> Result<(), DecodeError> {
        let (k, round) = (self.k, self.round);
        self.pump(
            transport,
            |b| b.merged == k,
            |b| {
                format!(
                    "transport drained with {} of {k} round-{round} shard partials missing",
                    k - b.merged
                )
            },
        )?;
        let acc = std::mem::replace(&mut self.current.acc, RoundPartialState::new(0, 0));
        let uplinks = acc.finish()?;
        self.referee_step(transport, &uplinks)
    }

    fn referee_step(
        &mut self,
        transport: &mut impl Transport,
        uplinks: &[Message],
    ) -> Result<(), DecodeError> {
        let (n, round) = (self.graph.n(), self.round);
        let t0 = self.clock.now();
        let step =
            self.protocol.referee_step(&mut self.referee_state, n, round as usize, uplinks);
        self.metrics.stats.global_seconds += self.clock.now() - t0;
        let downlinks = match step {
            RefereeStep::Done(out) => {
                self.finish(Ok(Some(out)));
                return Ok(());
            }
            RefereeStep::Continue(downlinks) => downlinks,
        };
        if downlinks.len() != n {
            return Err(DecodeError::Inconsistent(format!(
                "referee produced {} downlinks for {n} nodes",
                downlinks.len()
            )));
        }
        for (i, payload) in downlinks.into_iter().enumerate() {
            self.stats.max_downlink_bits = self.stats.max_downlink_bits.max(payload.len_bits());
            self.metrics.stats.total_message_bits += payload.len_bits();
            transport.send(Envelope {
                session: self.session,
                round,
                from: REFEREE,
                to: (i + 1) as VertexId,
                payload,
            });
        }
        self.phase = Phase::Receive;
        Ok(())
    }

    fn receive(&mut self, transport: &mut impl Transport) -> Result<(), DecodeError> {
        let (n, links, round) = (self.graph.n(), self.links_expected, self.round);
        self.pump(
            transport,
            |b| b.downlinks_filled == n && b.inbox_count == links,
            |_| format!("transport drained while nodes awaited round-{round} deliveries"),
        )?;
        let next = round + 1;
        let fresh = || RoundBuf::new(n, self.k, next);
        let next_buf = self.future.remove(&next).unwrap_or_else(fresh);
        let mut buf = std::mem::replace(&mut self.current, next_buf);
        let t0 = self.clock.now();
        for (i, state) in self.node_states.iter_mut().enumerate() {
            let v = (i + 1) as VertexId;
            let inbox = match buf.inbox.get_mut(i) {
                Some(inbox) => {
                    inbox.sort_by_key(|&(from, _)| from);
                    &inbox[..]
                }
                None => &[],
            };
            let downlink = buf.downlinks[i].as_ref().expect("downlink present");
            let view = NodeView::new(n, v, self.graph.neighbourhood(v));
            self.protocol.node_receive(state, view, round as usize, inbox, downlink);
        }
        self.metrics.stats.local_seconds += self.clock.now() - t0;
        self.metrics.round_seconds.push(self.clock.now() - self.round_started);
        self.round += 1;
        self.phase = Phase::Send;
        Ok(())
    }

    fn finish(&mut self, outcome: Result<Option<Q::Output>, DecodeError>) {
        // Close out the round timer if the session ended mid-round.
        if self.metrics.round_seconds.len() < self.stats.rounds {
            self.metrics.round_seconds.push(self.clock.now() - self.round_started);
        }
        self.metrics.rounds = self.stats.rounds;
        self.metrics.stats.max_message_bits = self
            .stats
            .max_uplink_bits
            .max(self.stats.max_downlink_bits)
            .max(self.stats.max_link_bits);
        self.outcome = Some(outcome);
        self.phase = Phase::Finished;
    }
}

impl<'a, P: OneRoundProtocol + Sync> Session<'a, OneRoundAsMultiRound<&'a P>> {
    /// A fresh one-round session for `protocol` on `graph`.
    pub fn new(protocol: &'a P, graph: &'a LabelledGraph) -> Self {
        let mut session = Session::with_protocol(OneRoundAsMultiRound(protocol), graph, 1);
        // Large standalone runs keep the legacy simulator's thread
        // fan-out for the embarrassingly-parallel local phase (a
        // scheduler sweep sets the threshold to MAX, so its sessions
        // always compute uplinks node by node).
        if graph.n() >= referee_protocol::parallel_threshold() {
            session.fan_out = Some(|p, g| referee_protocol::referee::local_phase(p.0, g));
        }
        session
    }

    /// Drive to completion on `transport`.
    pub fn run(mut self, transport: &mut impl Transport) -> OneRoundReport<P::Output> {
        while self.step(transport) == Step::Running {}
        self.into_report(transport)
    }

    /// The outcome and metrics; call after `step` returns [`Step::Done`].
    pub fn into_report(self, transport: &impl Transport) -> OneRoundReport<P::Output> {
        let report = self.engine_report(transport);
        OneRoundReport {
            outcome: report
                .outcome
                .map(|out| out.expect("a one-round referee decides in round 1")),
            metrics: report.metrics,
            shards: report.shards,
            exchange_bits: report.exchange_bits,
        }
    }
}

impl<'a, P: MultiRoundProtocol> Session<'a, &'a P> {
    /// A fresh multi-round session; `max_rounds` is the safety stop,
    /// mirroring [`referee_protocol::multiround::run_multiround`].
    pub fn new(protocol: &'a P, graph: &'a LabelledGraph, max_rounds: usize) -> Self {
        Session::with_protocol(protocol, graph, max_rounds)
    }

    /// Drive to completion on `transport`.
    pub fn run(mut self, transport: &mut impl Transport) -> MultiRoundReport<P::Output> {
        while self.step(transport) == Step::Running {}
        self.into_report(transport)
    }

    /// The outcome, metrics and multi-round stats; call after `step`
    /// returns [`Step::Done`].
    pub fn into_report(self, transport: &impl Transport) -> MultiRoundReport<P::Output> {
        self.engine_report(transport)
    }
}

/// Outcome of a one-round session.
#[derive(Debug)]
pub struct OneRoundReport<O> {
    /// The referee's output, or the decode/delivery failure that ended
    /// the session.
    pub outcome: Result<O, DecodeError>,
    /// Everything measured along the way. The frugality stats count node
    /// uplinks only, whatever the shard count.
    pub metrics: SessionMetrics,
    /// Shard count the session ran with.
    pub shards: usize,
    /// Total bits of serialized partials shipped in the exchange (0 at
    /// k = 1, where no exchange runs).
    pub exchange_bits: usize,
}

/// Outcome of a multi-round session.
#[derive(Debug)]
pub struct MultiRoundReport<O> {
    /// `Ok(Some(out))` when the referee finished, `Ok(None)` when the
    /// round cap was hit, `Err` on decode/delivery failure.
    pub outcome: Result<Option<O>, DecodeError>,
    /// Runtime metrics. The frugality stats count node traffic only.
    pub metrics: SessionMetrics,
    /// Legacy-compatible per-link-class message-size stats.
    pub stats: MultiRoundStats,
    /// Shard count the session ran with.
    pub shards: usize,
    /// Total bits of serialized round partials shipped in the exchanges
    /// (all rounds; 0 at k = 1).
    pub exchange_bits: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultyTransport};
    use crate::transport::PerfectTransport;
    use referee_graph::{algo, generators};
    use referee_protocol::easy::EdgeCountProtocol;
    use referee_protocol::multiround::BoruvkaConnectivity;

    /// Drops every exchange envelope.
    struct DropPartials<T: Transport>(T);
    impl<T: Transport> Transport for DropPartials<T> {
        fn send(&mut self, env: Envelope) {
            if env.to != EXCHANGE {
                self.0.send(env);
            }
        }
        fn recv(&mut self) -> Option<Envelope> {
            self.0.recv()
        }
        fn counters(&self) -> crate::metrics::TransportCounters {
            self.0.counters()
        }
    }

    /// Flips payload bit `.1` of every exchange envelope.
    struct CorruptPartials<T: Transport>(T, usize);
    impl<T: Transport> Transport for CorruptPartials<T> {
        fn send(&mut self, mut env: Envelope) {
            if env.to == EXCHANGE {
                env.payload = env.payload.with_bit_flipped(self.1);
            }
            self.0.send(env);
        }
        fn recv(&mut self) -> Option<Envelope> {
            self.0.recv()
        }
        fn counters(&self) -> crate::metrics::TransportCounters {
            self.0.counters()
        }
    }

    #[test]
    fn one_round_sharded_matches_unsharded_bit_for_bit() {
        for g in [
            generators::petersen(),
            generators::grid(4, 7),
            generators::path(1),
            LabelledGraph::new(0),
            generators::complete(9),
        ] {
            let mut perfect = PerfectTransport::new();
            let mono = OneRoundSession::new(&EdgeCountProtocol, &g).run(&mut perfect);
            let mono_out = mono.outcome.unwrap();
            for k in 1..=8usize {
                let mut t = PerfectTransport::new();
                let sharded = OneRoundSession::new(&EdgeCountProtocol, &g)
                    .with_shards(k)
                    .with_exchange_seed(k as u64 * 77)
                    .run(&mut t);
                assert_eq!(sharded.outcome.unwrap(), mono_out, "k={k}, n={}", g.n());
                assert_eq!(
                    sharded.metrics.stats.max_message_bits, mono.metrics.stats.max_message_bits,
                    "k={k}: frugality accounting must ignore the exchange"
                );
                assert_eq!(
                    sharded.metrics.stats.total_message_bits,
                    mono.metrics.stats.total_message_bits
                );
                assert_eq!(sharded.shards, k);
                assert_eq!(sharded.exchange_bits > 0, k > 1, "only k > 1 exchanges partials");
            }
        }
    }

    #[test]
    fn one_round_exchange_order_is_immaterial() {
        let g = generators::grid(5, 5);
        let mut outputs = Vec::new();
        for seed in 0..16u64 {
            let mut t = PerfectTransport::new();
            let r = OneRoundSession::new(&EdgeCountProtocol, &g)
                .with_shards(5)
                .with_exchange_seed(seed)
                .run(&mut t);
            outputs.push(r.outcome.unwrap());
        }
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn one_round_sharded_faulty_transport_never_fabricates() {
        // Under loss/dup/reorder (no corruption) every completed outcome
        // is exact; loss of node traffic or partials rejects cleanly.
        let mut completed = 0usize;
        let mut rejected = 0usize;
        for seed in 0..60u64 {
            let g = generators::gnp(
                14 + (seed % 9) as usize,
                0.25,
                &mut StdRng::seed_from_u64(seed),
            );
            let cfg = FaultConfig {
                seed,
                loss: 0.02,
                duplication: 0.15,
                reorder: 0.35,
                corruption: 0.0,
            };
            let mut t = FaultyTransport::new(PerfectTransport::new(), cfg);
            let r = OneRoundSession::new(&EdgeCountProtocol, &g)
                .with_shards(4)
                .with_exchange_seed(seed)
                .run(&mut t);
            match r.outcome {
                Ok(out) => {
                    assert_eq!(out, Ok(g.m()), "seed {seed} fabricated an edge count");
                    completed += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(completed > 0, "some runs must survive 2% loss");
        assert!(rejected > 0, "some runs must lose an envelope");
    }

    #[test]
    fn one_round_lost_partial_is_detected_as_starvation() {
        let g = generators::grid(3, 3);
        let mut t = DropPartials(PerfectTransport::new());
        let r = OneRoundSession::new(&EdgeCountProtocol, &g).with_shards(3).run(&mut t);
        let err = r.outcome.unwrap_err();
        assert!(format!("{err}").contains("shard partials missing"), "{err}");
    }

    #[test]
    fn one_round_corrupted_partial_structure_is_rejected() {
        // Flip a bit in the n field of every partial (after the 32-bit
        // round): the partial decoder must reject, the session must fail
        // closed.
        let g = generators::grid(3, 4);
        let mut t = CorruptPartials(PerfectTransport::new(), 32 + 10);
        let r = OneRoundSession::new(&EdgeCountProtocol, &g).with_shards(2).run(&mut t);
        assert!(r.outcome.is_err(), "structurally corrupted partial must reject");
    }

    #[test]
    fn multi_round_sharded_matches_unsharded_bit_for_bit() {
        for g in [
            generators::petersen(),
            generators::path(17),
            generators::path(4).disjoint_union(&generators::path(5)),
            generators::grid(3, 6),
            LabelledGraph::new(0),
            LabelledGraph::new(1),
        ] {
            let mut perfect = PerfectTransport::new();
            let mono = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64).run(&mut perfect);
            let mono_out = mono.outcome.unwrap();
            for k in 1..=8usize {
                let mut t = PerfectTransport::new();
                let sharded = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64)
                    .with_shards(k)
                    .with_exchange_seed(k as u64 * 131)
                    .run(&mut t);
                assert_eq!(sharded.outcome.unwrap(), mono_out, "k={k}, n={}", g.n());
                assert_eq!(sharded.stats, mono.stats, "k={k}: stats must be identical");
                assert_eq!(
                    sharded.metrics.stats.total_message_bits,
                    mono.metrics.stats.total_message_bits,
                    "k={k}: frugality accounting must ignore the exchange"
                );
                assert_eq!(sharded.shards, k);
                assert_eq!(sharded.exchange_bits > 0, k > 1, "only k > 1 exchanges partials");
            }
        }
    }

    #[test]
    fn multi_round_exchange_order_is_immaterial() {
        let g = generators::grid(4, 4);
        let mut outcomes = Vec::new();
        for seed in 0..12u64 {
            let mut t = PerfectTransport::new();
            let r = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64)
                .with_shards(5)
                .with_exchange_seed(seed)
                .run(&mut t);
            outcomes.push(r.outcome.unwrap());
        }
        assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn multi_round_dup_and_reorder_are_absorbed_bit_for_bit() {
        // No loss, no corruption: duplication and cross-round reordering
        // must be invisible — same verdict as the perfect run.
        for seed in 0..24u64 {
            let g = generators::gnp(
                10 + (seed % 7) as usize,
                0.22,
                &mut StdRng::seed_from_u64(seed),
            );
            let mut perfect = PerfectTransport::new();
            let mono = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64).run(&mut perfect);
            let cfg = FaultConfig {
                seed,
                loss: 0.0,
                duplication: 0.2,
                reorder: 0.3,
                corruption: 0.0,
            };
            let mut t = FaultyTransport::new(PerfectTransport::new(), cfg);
            let r = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64)
                .with_shards(3)
                .with_exchange_seed(seed)
                .run(&mut t);
            assert_eq!(r.outcome.unwrap(), mono.outcome.unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn multi_round_sharded_faulty_transport_never_fabricates() {
        // Under loss every completed run is exact; lost traffic rejects.
        let mut completed = 0usize;
        let mut rejected = 0usize;
        for seed in 0..60u64 {
            let g = generators::gnp(
                9 + (seed % 8) as usize,
                0.25,
                &mut StdRng::seed_from_u64(seed ^ 0xabc),
            );
            let cfg = FaultConfig {
                seed,
                loss: 0.004,
                duplication: 0.1,
                reorder: 0.2,
                corruption: 0.0,
            };
            let mut t = FaultyTransport::new(PerfectTransport::new(), cfg);
            let r = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64)
                .with_shards(4)
                .with_exchange_seed(seed)
                .run(&mut t);
            match r.outcome {
                Ok(out) => {
                    let verdict = out.expect("cap is generous").expect("honest bits decode");
                    assert_eq!(verdict, algo::is_connected(&g), "seed {seed} fabricated");
                    completed += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(completed > 0, "some runs must survive 0.4% loss");
        assert!(rejected > 0, "some runs must lose an envelope");
    }

    #[test]
    fn multi_round_lost_partial_is_detected_as_starvation() {
        // Drop every exchange envelope: the collector must starve
        // loudly, never hang or fabricate.
        let g = generators::grid(3, 3);
        let mut t = DropPartials(PerfectTransport::new());
        let r = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64).with_shards(3).run(&mut t);
        let err = r.outcome.unwrap_err();
        assert!(format!("{err}").contains("shard partials missing"), "{err}");
    }

    #[test]
    fn multi_round_corrupted_partial_is_rejected() {
        // Flip a bit inside every exchange payload's round field: the
        // decoder (round mismatch or structural damage) must reject.
        let g = generators::grid(3, 4);
        let mut t = CorruptPartials(PerfectTransport::new(), 31); // round field LSB
        let r = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64).with_shards(2).run(&mut t);
        assert!(r.outcome.is_err(), "corrupted round stamp must reject");
    }

    /// A stray node envelope from `n + 1` — just past the node IDs, where
    /// a byzantine node forges out-of-range senders — is an unknown node
    /// for every shard count, never a shard partial.
    #[test]
    fn stray_sender_past_n_is_out_of_range_for_every_shard_count() {
        let g = generators::grid(3, 3);
        let n = g.n();
        let stray = || {
            let mut t = PerfectTransport::new();
            t.send(Envelope {
                session: SessionId::default(),
                round: 1,
                from: n as VertexId + 1,
                to: REFEREE,
                payload: RoundPartialState::new(n, 1).encode(),
            });
            t
        };
        for k in [1usize, 2, 8] {
            let one =
                OneRoundSession::new(&EdgeCountProtocol, &g).with_shards(k).run(&mut stray());
            assert!(
                matches!(one.outcome, Err(DecodeError::OutOfRange(_))),
                "one-round k={k}: {:?}",
                one.outcome
            );
            let multi = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64)
                .with_shards(k)
                .run(&mut stray());
            assert!(
                matches!(multi.outcome, Err(DecodeError::OutOfRange(_))),
                "multi-round k={k}: {:?}",
                multi.outcome
            );
        }
    }
}
