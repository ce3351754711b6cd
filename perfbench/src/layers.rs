//! In-memory replays of the workload's sessions through each layer's
//! public functions, one span per layer per session, and the in-memory
//! simnet engines on the same graphs. The replays are what the layer
//! ledger explains a session's CPU cost with.

use crate::trace::{Recorder, Span};
use crate::workload::{Expected, Service, Workload, ROUND_CAP};
use referee_graph::LabelledGraph;
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::multiround::{BoruvkaConnectivity, MultiRoundProtocol, RefereeStep};
use referee_protocol::referee::local_phase;
use referee_protocol::shard::multiround::{RoundPartialState, RoundShard};
use referee_protocol::shard::{route_arrival, PartialState, RefereeShard};
use referee_protocol::{BitWriter, Message, NodeView};
use referee_simnet::{Envelope, Scheduler, SessionId};
use referee_wirenet::{decode_frames, encode_frame_into, vector_digest, AuthKey, FrameKind};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The layers whose self time the ledger adds up. `auth.mac` is left
/// out: the MAC is computed inside `frame.encode` and
/// `frame.decode_verify`, and is timed on its own only to show its share.
pub const EXPLAINED: [&str; 6] = [
    "protocol.local_phase",
    "frame.encode",
    "frame.decode_verify",
    "protocol.shard_ingest",
    "protocol.partial_merge",
    "protocol.referee_step",
];

/// What the sessions carry, counted over one pass of the pool.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Carried {
    pub sessions: usize,
    pub rounds: usize,
    /// Protocol messages (uplinks and downlinks) and their bits.
    pub messages: usize,
    pub message_bits: usize,
    pub max_message_bits: usize,
    /// Protocol payload bytes: each message rounded up to whole bytes.
    pub payload_bytes: usize,
    /// Frames through the client-side codec (encoded and decoded once
    /// each) and through the MAC pass.
    pub frames: usize,
    pub mac_frames: usize,
}

impl Carried {
    fn message(&mut self, m: &Message) {
        let bits = m.len_bits();
        self.messages += 1;
        self.message_bits += bits;
        self.max_message_bits = self.max_message_bits.max(bits);
        self.payload_bytes += bits.div_ceil(8);
    }
}

/// Keys as the services use them: the client connection key, and the
/// key cross-shard partials are framed with.
struct Keys {
    base: AuthKey,
    conn: AuthKey,
    exchange: AuthKey,
}

fn frame(
    kind: FrameKind,
    session: u64,
    round: u32,
    from: u32,
    to: u32,
    m: Message,
) -> (FrameKind, Envelope) {
    (kind, Envelope { session: SessionId(session), round, from, to, payload: m })
}

/// Tag every frame in `buf` again, as the sender and receiver each do.
fn mac_all(key: &AuthKey, buf: &[u8]) -> usize {
    let mut at = 0;
    let mut frames = 0;
    while at + 4 <= buf.len() {
        let len = u32::from_be_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        black_box(key.tag(&buf[at + 4..at + 4 + len - referee_wirenet::TAG_BYTES]));
        at += 4 + len;
        frames += 1;
    }
    frames
}

/// Encode `envs` into `buf` (one batch, as the write path coalesces
/// them), MAC them again on their own, then decode and verify the batch.
fn codec(
    rec: &mut Recorder,
    sid: u64,
    root: Option<usize>,
    key: &AuthKey,
    envs: &[(FrameKind, Envelope)],
    buf: &mut Vec<u8>,
    carried: &mut Carried,
) -> Result<Vec<Envelope>, String> {
    buf.clear();
    rec.time("frame.encode", sid, root, || {
        for (kind, e) in envs {
            encode_frame_into(key, *kind, e, buf);
        }
    });
    carried.mac_frames += rec.time("auth.mac", sid, root, || mac_all(key, buf));
    let (frames, used) = rec
        .time("frame.decode_verify", sid, root, || decode_frames(key, buf))
        .map_err(|e| format!("replayed frames failed to decode: {e:?}"))?;
    if used != buf.len() || frames.len() != envs.len() {
        return Err("replayed frame batch decoded short".into());
    }
    carried.frames += envs.len();
    Ok(frames.into_iter().map(|f| f.envelope).collect())
}

/// Frame a merge partial and read it back, as shard workers exchange
/// them.
fn exchange(
    keys: &Keys,
    sid: u64,
    round: u32,
    from: u32,
    m: Message,
) -> Result<Message, String> {
    let mut buf = Vec::new();
    let (kind, env) = frame(FrameKind::Partial, sid, round, from, 0, m);
    encode_frame_into(&keys.exchange, kind, &env, &mut buf);
    let (mut frames, _) =
        decode_frames(&keys.exchange, &buf).map_err(|e| format!("partial frame: {e:?}"))?;
    Ok(frames.pop().ok_or("partial frame vanished")?.envelope.payload)
}

fn verdict_message(digest: u64) -> Message {
    let mut w = BitWriter::new();
    w.push_bit(true);
    w.write_bits(digest, 64);
    Message::from_writer(w)
}

/// One one-round session: local phase, uplink framing, shard ingest,
/// the partial exchange and merge, the referee's digest, the verdict.
#[allow(clippy::too_many_arguments)]
fn replay_verify(
    rec: &mut Recorder,
    sid: u64,
    g: &LabelledGraph,
    shards: usize,
    keys: &Keys,
    expected: Expected,
    buf: &mut Vec<u8>,
    carried: &mut Carried,
) -> Result<(), String> {
    let n = g.n();
    let session = rec.open("replay.session", sid, None);
    let root = Some(session);
    let messages =
        rec.time("protocol.local_phase", sid, root, || local_phase(&EdgeCountProtocol, g));
    let mut announce = BitWriter::new();
    announce.write_bits(n as u64, 32);
    let envs: Vec<_> = std::iter::once(frame(
        FrameKind::Announce,
        sid,
        0,
        0,
        0,
        Message::from_writer(announce),
    ))
    .chain(
        messages
            .iter()
            .enumerate()
            .map(|(j, m)| frame(FrameKind::Data, sid, 1, j as u32 + 1, 0, m.clone())),
    )
    .collect();
    messages.iter().for_each(|m| carried.message(m));
    let decoded = codec(rec, sid, root, &keys.conn, &envs, buf, carried)?;

    let mut parts = rec.time("protocol.shard_ingest", sid, root, || -> Result<_, String> {
        let mut parts: Vec<RefereeShard> =
            (0..shards).map(|i| RefereeShard::new(n, shards, i)).collect();
        for e in decoded.into_iter().skip(1) {
            parts[route_arrival(n, shards, e.from)]
                .ingest(e.from, e.payload)
                .map_err(|err| format!("ingest: {err:?}"))?;
        }
        Ok(parts)
    })?;

    let acc =
        rec.time("protocol.partial_merge", sid, root, || -> Result<PartialState, String> {
            let mut acc = parts.remove(0).into_partial();
            for (i, part) in parts.into_iter().enumerate() {
                let wire = exchange(keys, sid, 1, i as u32 + 1, part.into_partial().encode())?;
                let decoded =
                    PartialState::decode(n, &wire).map_err(|e| format!("partial: {e:?}"))?;
                acc.merge(decoded).map_err(|e| format!("merge: {e:?}"))?;
            }
            Ok(acc)
        })?;

    let digest = rec.time("protocol.referee_step", sid, root, || {
        acc.finish().map(|vector| vector_digest(&keys.base, &vector))
    });
    let digest = digest.map_err(|e| format!("referee: {e:?}"))?;
    if Expected::Digest(digest) != expected {
        return Err(format!("replayed session {sid} digest differs from the expected one"));
    }
    codec(
        rec,
        sid,
        root,
        &keys.conn,
        &[frame(FrameKind::Verdict, sid, 0, 0, 0, verdict_message(digest))],
        buf,
        carried,
    )?;
    carried.rounds += 1;
    rec.close(session);
    Ok(())
}

/// One Borůvka session, round by round: node sends, uplink framing,
/// per-round shard ingest, partial exchange and merge, `referee_step`,
/// downlink framing, node receives.
#[allow(clippy::too_many_arguments)]
fn replay_boruvka(
    rec: &mut Recorder,
    sid: u64,
    g: &LabelledGraph,
    shards: usize,
    keys: &Keys,
    expected: Expected,
    buf: &mut Vec<u8>,
    carried: &mut Carried,
) -> Result<(), String> {
    let p = BoruvkaConnectivity;
    let n = g.n();
    let session = rec.open("replay.session", sid, None);
    let root = Some(session);
    let view = |v: u32| NodeView::new(n, v, g.neighbourhood(v));
    let mut nodes = rec.time("protocol.local_phase", sid, root, || {
        (1..=n as u32).map(|v| p.node_init(view(v))).collect::<Vec<_>>()
    });
    let mut referee = p.referee_init(n);
    let mut announce = BitWriter::new();
    announce.write_bits(n as u64, 32);
    codec(
        rec,
        sid,
        root,
        &keys.conn,
        &[frame(FrameKind::Announce, sid, 0, 0, 0, Message::from_writer(announce))],
        buf,
        carried,
    )?;

    for round in 1..=ROUND_CAP {
        let r = round as u32;
        let (uplinks, mut inbox) = rec.time("protocol.local_phase", sid, root, || {
            let mut inbox: Vec<Vec<(u32, Message)>> = vec![Vec::new(); n];
            let mut uplinks = Vec::with_capacity(n);
            for v in 1..=n as u32 {
                let (to_nbrs, up) = p.node_send(&nodes[(v - 1) as usize], view(v), round);
                for (target, m) in to_nbrs {
                    inbox[(target - 1) as usize].push((v, m));
                }
                uplinks.push(frame(FrameKind::Data, sid, r, v, 0, up));
            }
            (uplinks, inbox)
        });
        uplinks.iter().for_each(|(_, e)| carried.message(&e.payload));
        let decoded = codec(rec, sid, root, &keys.conn, &uplinks, buf, carried)?;

        let parts = rec.time("protocol.shard_ingest", sid, root, || -> Result<_, String> {
            let mut parts: Vec<RoundShard> =
                (0..shards).map(|i| RoundShard::new(n, shards, i, r)).collect();
            for e in decoded {
                parts[route_arrival(n, shards, e.from)]
                    .ingest(e.from, e.payload)
                    .map_err(|err| format!("ingest: {err:?}"))?;
            }
            Ok(parts)
        })?;
        let vector = rec.time(
            "protocol.partial_merge",
            sid,
            root,
            || -> Result<Vec<Message>, String> {
                let mut acc = RoundPartialState::new(n, r);
                for (i, part) in parts.into_iter().enumerate() {
                    let part = part.into_partial();
                    let part = if i == 0 {
                        part
                    } else {
                        let wire = exchange(keys, sid, r, i as u32, part.encode())?;
                        RoundPartialState::decode(n, &wire)
                            .map_err(|e| format!("partial: {e:?}"))?
                    };
                    acc.merge(part).map_err(|e| format!("merge: {e:?}"))?;
                }
                acc.finish().map_err(|e| format!("finish: {e:?}"))
            },
        )?;

        let step = rec.time("protocol.referee_step", sid, root, || {
            p.referee_step(&mut referee, n, round, &vector)
        });
        let downlinks = match step {
            RefereeStep::Done(out) => {
                let verdict = out.map_err(|e| format!("referee: {e:?}"))?;
                if Expected::Connected(verdict) != expected {
                    return Err(format!(
                        "replayed session {sid} verdict differs from the expected one"
                    ));
                }
                let envs = [frame(
                    FrameKind::Verdict,
                    sid,
                    r,
                    0,
                    0,
                    referee_protocol::service::encode_bool_output(&Ok(verdict)),
                )];
                codec(rec, sid, root, &keys.conn, &envs, buf, carried)?;
                carried.rounds += round;
                rec.close(session);
                return Ok(());
            }
            RefereeStep::Continue(d) => d,
        };
        let envs: Vec<_> = downlinks
            .into_iter()
            .enumerate()
            .map(|(i, m)| frame(FrameKind::Data, sid, r, 0, i as u32 + 1, m))
            .collect();
        envs.iter().for_each(|(_, e)| carried.message(&e.payload));
        let downlinks = codec(rec, sid, root, &keys.conn, &envs, buf, carried)?;

        rec.time("protocol.local_phase", sid, root, || {
            for v in 1..=n as u32 {
                let i = (v - 1) as usize;
                inbox[i].sort_by_key(|&(from, _)| from);
                p.node_receive(&mut nodes[i], view(v), round, &inbox[i], &downlinks[i].payload);
            }
        });
    }
    Err(format!("replayed session {sid} hit the {ROUND_CAP}-round cap"))
}

/// Replay the whole pool at least once and until `budget` is spent (at
/// most `max_passes` passes). Returns the spans and what one pass
/// carried.
pub fn replay(
    w: &Workload,
    key: &AuthKey,
    graphs: &[LabelledGraph],
    expected: &[(Expected, usize)],
    budget: Duration,
    max_passes: usize,
) -> Result<(Vec<Span>, Carried, usize), String> {
    let keys = Keys { base: *key, conn: key.derive(1), exchange: key.derive(u64::MAX) };
    let started = Instant::now();
    let mut rec = Recorder::new(started);
    let mut buf = Vec::new();
    let mut first = Carried::default();
    let mut passes = 0;
    while passes == 0 || (passes < max_passes && started.elapsed() < budget) {
        let mut carried = Carried::default();
        for (i, g) in graphs.iter().enumerate() {
            let sid = (passes * graphs.len() + i) as u64;
            let exp = expected[i].0;
            match w.service {
                Service::Verify => replay_verify(
                    &mut rec,
                    sid,
                    g,
                    w.shards,
                    &keys,
                    exp,
                    &mut buf,
                    &mut carried,
                )?,
                Service::Boruvka => replay_boruvka(
                    &mut rec,
                    sid,
                    g,
                    w.shards,
                    &keys,
                    exp,
                    &mut buf,
                    &mut carried,
                )?,
            }
            carried.sessions += 1;
        }
        if passes == 0 {
            first = carried;
        }
        passes += 1;
    }
    Ok((rec.into_spans(), first, passes))
}

/// Mean in-memory session time, in µs, of the monolithic and the
/// `k`-sharded simnet engine on one worker, each over whole passes of
/// the pool until `budget` is spent. Every outcome is checked.
pub fn simnet(
    w: &Workload,
    graphs: &[LabelledGraph],
    expected: &[(Expected, usize)],
    budget: Duration,
) -> Result<(f64, f64, Vec<Span>), String> {
    let scheduler = Scheduler::new(1, 8);
    let started = Instant::now();
    let mut rec = Recorder::new(started);
    let mut timed =
        |name: &'static str, sweep: &dyn Fn() -> Result<(), String>| -> Result<f64, String> {
            let t = Instant::now();
            let mut passes = 0u64;
            while passes == 0 || t.elapsed() < budget {
                rec.time(name, passes, None, sweep)?;
                passes += 1;
            }
            Ok(t.elapsed().as_secs_f64() * 1e6 / (passes as f64 * graphs.len() as f64))
        };
    let check = |i: usize, ok: bool| {
        if ok {
            Ok(())
        } else {
            Err(format!("simnet outcome for graph {i} differs from the expected one"))
        }
    };
    let (mono, sharded) = match w.service {
        Service::Verify => {
            let edges = |i: usize| graphs[i].m();
            let mono = timed("simnet.mono", &|| {
                let r = scheduler.sweep_one_round(&EdgeCountProtocol, graphs, None);
                r.reports.iter().enumerate().try_for_each(|(i, r)| {
                    check(i, matches!(&r.outcome, Ok(Ok(m)) if *m == edges(i)))
                })
            })?;
            let sharded = timed("simnet.sharded", &|| {
                let r = scheduler.sweep_one_round_sharded(
                    &EdgeCountProtocol,
                    graphs,
                    w.shards,
                    None,
                );
                r.reports.iter().enumerate().try_for_each(|(i, r)| {
                    check(i, matches!(&r.outcome, Ok(Ok(m)) if *m == edges(i)))
                })
            })?;
            (mono, sharded)
        }
        Service::Boruvka => {
            let want = |i: usize| match expected[i].0 {
                Expected::Connected(c) => Some(c),
                Expected::Digest(_) => None,
            };
            let mono = timed("simnet.mono", &|| {
                let r =
                    scheduler.sweep_multi_round(&BoruvkaConnectivity, graphs, ROUND_CAP, None);
                r.reports.iter().enumerate().try_for_each(|(i, r)| {
                    check(i, matches!(&r.outcome, Ok(Some(Ok(c))) if Some(*c) == want(i)))
                })
            })?;
            let sharded = timed("simnet.sharded", &|| {
                let r = scheduler.sweep_multi_round_sharded(
                    &BoruvkaConnectivity,
                    graphs,
                    w.shards,
                    ROUND_CAP,
                    None,
                );
                r.reports.iter().enumerate().try_for_each(|(i, r)| {
                    check(i, matches!(&r.outcome, Ok(Some(Ok(c))) if Some(*c) == want(i)))
                })
            })?;
            (mono, sharded)
        }
    };
    Ok((mono, sharded, rec.into_spans()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::self_time_ns;
    use crate::workload::{by_name, WORKLOADS};

    #[test]
    fn replays_check_verdicts_and_count_what_sessions_carry() {
        let key = AuthKey::from_seed(3);
        for w in &WORKLOADS {
            let graphs: Vec<_> = w.graphs(4).into_iter().take(6).collect();
            let expected = w.expected(&key, &graphs).unwrap();
            let (spans, carried, passes) =
                replay(w, &key, &graphs, &expected, Duration::ZERO, 1).unwrap();
            assert_eq!(passes, 1);
            assert_eq!(carried.sessions, 6);
            let rounds: usize = expected.iter().map(|e| e.1).sum();
            assert_eq!(carried.rounds, rounds, "{}", w.name);
            assert_eq!(carried.frames, carried.mac_frames);
            let t = self_time_ns(&spans);
            for layer in EXPLAINED {
                assert!(t.contains_key(layer), "{} lacks {layer}", w.name);
            }
            // A wrong expectation is caught, not timed.
            let mut wrong = expected.clone();
            wrong[0].0 = match wrong[0].0 {
                Expected::Digest(d) => Expected::Digest(d ^ 1),
                Expected::Connected(c) => Expected::Connected(!c),
            };
            assert!(replay(w, &key, &graphs, &wrong, Duration::ZERO, 1).is_err());
        }
    }

    #[test]
    fn one_round_frames_are_announce_uplinks_and_verdict() {
        let w = by_name("verify-narrow-k8").unwrap();
        let key = AuthKey::from_seed(8);
        let graphs: Vec<_> = w.graphs(1).into_iter().take(3).collect();
        let expected = w.expected(&key, &graphs).unwrap();
        let (_, carried, _) = replay(w, &key, &graphs, &expected, Duration::ZERO, 1).unwrap();
        let nodes: usize = graphs.iter().map(|g| g.n()).sum();
        assert_eq!(carried.messages, nodes);
        assert_eq!(carried.frames, nodes + 2 * graphs.len());
    }

    #[test]
    fn simnet_engines_agree_with_the_expected_verdicts() {
        let key = AuthKey::from_seed(2);
        for name in ["verify-narrow-k8", "boruvka-rounds"] {
            let w = by_name(name).unwrap();
            let graphs: Vec<_> = w.graphs(6).into_iter().take(4).collect();
            let expected = w.expected(&key, &graphs).unwrap();
            let (mono, sharded, spans) = simnet(w, &graphs, &expected, Duration::ZERO).unwrap();
            assert!(mono > 0.0 && sharded > 0.0);
            assert_eq!(spans.len(), 2);
        }
    }
}
