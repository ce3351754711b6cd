//! The wire codec: length-prefixed, versioned, typed, MAC-authenticated
//! binary framing of [`Envelope`]s.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//!  4 bytes  1    1      8       4      4     4      4      ⌈bits/8⌉     8
//! ┌────────┬────┬─────┬────────┬──────┬─────┬─────┬────────┬──────────┬─────────┐
//! │ length │ver │kind │session │round │from │ to  │len_bits│ payload  │ MAC tag │
//! └────────┴────┴─────┴────────┴──────┴─────┴─────┴────────┴──────────┴─────────┘
//!          └──────────────── MAC-covered (SipHash-2-4, 64-bit) ────────────────┘
//! ```
//!
//! `length` counts every byte after itself (the *body*). The session id
//! is the multiplexing key: one connection carries frames of a whole
//! fleet, demultiplexed by the receiver. The [`FrameKind`] byte types
//! the frame: [`Data`](FrameKind::Data) carries session envelopes;
//! [`Hello`](FrameKind::Hello), [`Announce`](FrameKind::Announce),
//! [`Partial`](FrameKind::Partial) and [`Verdict`](FrameKind::Verdict)
//! carry the per-connection key handshake and the sharded-referee
//! service traffic (see [`crate::shard`]) — all MAC'd identically. The
//! payload is the [`Message`]'s canonical byte serialization plus its
//! exact bit length, so `decode ∘ encode` is the identity on envelopes
//! (pinned by proptests).
//!
//! Decoding is *streaming*: [`decode_frame`] consumes a prefix of a byte
//! buffer and returns [`None`] while the frame is still incomplete.
//! Every malformed input — truncation that can never complete, version
//! or length lies, MAC mismatch, non-canonical payload padding — returns
//! a [`WireError`]; nothing panics on wire bytes. The MAC is verified
//! *before* any body field is interpreted (authenticate, then parse).

use crate::auth::AuthKey;
use referee_protocol::{DecodeError, Message};
use referee_simnet::{Envelope, SessionId};

/// Wire protocol version carried in every frame (bumped to 2 when the
/// frame-kind byte was added for the sharded referee service).
pub const WIRE_VERSION: u8 = 2;

/// What a frame carries. The kind byte sits inside the MAC-covered
/// region, so a frame's type can no more be forged than its contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// A session envelope (the only kind the echo mailbox serves).
    Data = 0,
    /// Server → client at accept time: `from` is the connection id both
    /// ends feed to [`AuthKey::derive`] for the per-connection key.
    Hello = 1,
    /// Client → sharded server: declares a session and its network size
    /// (`n` in the payload) before any data, so frames can be routed to
    /// shard workers by node range.
    Announce = 2,
    /// Shard → shard: a serialized
    /// [`PartialState`](referee_protocol::shard::PartialState); `from`
    /// names the emitting shard.
    Partial = 3,
    /// Sharded server → client: the referee's verdict for a session
    /// (ok + message-vector digest, or a rejection class).
    Verdict = 4,
    /// Coordinator → shard host at connect time: registers the
    /// connection as one shard of a placement (mode, shard index, shard
    /// count, registration generation in the payload). The only frame a
    /// shard-host link carries under the registration key; everything
    /// after runs under the per-shard generation key (see
    /// `wirenet::placement`).
    Register = 5,
    /// Coordinator → shard host: a session's verdict shipped — drop its
    /// shard state (`from` = coordinator connection id).
    Finish = 6,
    /// Coordinator → shard host: a client connection died — drop all of
    /// its sessions (`from` = coordinator connection id).
    Retire = 7,
    /// Shard host → coordinator: a serialized
    /// [`TraceSnapshot`](referee_protocol::trace::TraceSnapshot) segment
    /// (`from` names the emitting shard) for cross-process timeline
    /// stitching. Shipped piggy-backed on session teardown, never on the
    /// hot path.
    Trace = 8,
    /// Server → client: a serialized
    /// [`EvidenceBundle`](referee_protocol::evidence::EvidenceBundle)
    /// proving a protocol violation (`session` names the session it was
    /// cut from, `from` the accused principal — or 0 when the violation
    /// is provable but not attributable). Shipped coordinator-ward at
    /// the point the offending frame was rejected, so the operator holds
    /// third-party-verifiable evidence before the session even fails.
    Evidence = 9,
}

impl FrameKind {
    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Announce),
            3 => Some(FrameKind::Partial),
            4 => Some(FrameKind::Verdict),
            5 => Some(FrameKind::Register),
            6 => Some(FrameKind::Finish),
            7 => Some(FrameKind::Retire),
            8 => Some(FrameKind::Trace),
            9 => Some(FrameKind::Evidence),
            _ => None,
        }
    }
}

/// Bytes of header inside the body: version, kind, session, round, from,
/// to, payload bit length.
pub const HEADER_BYTES: usize = 1 + 1 + 8 + 4 + 4 + 4 + 4;

/// Bytes of MAC tag at the end of the body.
pub const TAG_BYTES: usize = 8;

/// Hard cap on a frame body — frugal protocols ship tiny messages, so
/// anything near this is an attack or a desynchronized stream, not data.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Whether a frame carrying `payload` fits under [`MAX_BODY_BYTES`].
pub(crate) fn fits_frame(payload: &Message) -> bool {
    HEADER_BYTES + payload.len_bits().div_ceil(8) + TAG_BYTES <= MAX_BODY_BYTES
}

/// Why a frame was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The kind byte names no known [`FrameKind`].
    BadKind(u8),
    /// The length prefix is out of bounds or disagrees with the
    /// payload-size field.
    BadLength(String),
    /// MAC verification failed: the frame was corrupted or forged.
    BadMac,
    /// The MAC verified but the payload serialization is not canonical
    /// (a peer bug, not line noise).
    BadPayload(DecodeError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadLength(s) => write!(f, "bad frame length: {s}"),
            WireError::BadMac => write!(f, "frame failed MAC verification"),
            WireError::BadPayload(e) => write!(f, "authenticated frame has bad payload: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for DecodeError {
    /// Surface wire-layer rejections through the protocol stack's
    /// existing rejection paths.
    fn from(e: WireError) -> DecodeError {
        match e {
            WireError::BadMac => {
                DecodeError::Inconsistent("wire frame failed MAC verification".into())
            }
            WireError::BadPayload(inner) => inner,
            other => DecodeError::Invalid(other.to_string()),
        }
    }
}

/// One successfully decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedFrame {
    /// Bytes consumed from the front of the buffer (prefix + body).
    pub consumed: usize,
    /// What the frame carries.
    pub kind: FrameKind,
    /// The decoded envelope (its `session` field is the wire session id).
    pub envelope: Envelope,
}

/// Serialize `env` into one authenticated [`FrameKind::Data`] frame.
///
/// Panics if the payload exceeds [`MAX_BODY_BYTES`] — frugal protocols
/// never get near it, so an oversized payload is a caller bug.
pub fn encode_frame(key: &AuthKey, env: &Envelope) -> Vec<u8> {
    encode_wire_frame(key, FrameKind::Data, env)
}

/// Serialize `env` into one authenticated wire frame of the given kind.
/// Control kinds reuse the envelope container with kind-specific field
/// meanings (see [`FrameKind`]).
pub fn encode_wire_frame(key: &AuthKey, kind: FrameKind, env: &Envelope) -> Vec<u8> {
    let payload = env.payload.as_bytes();
    let body_len = HEADER_BYTES + payload.len() + TAG_BYTES;
    let mut out = Vec::with_capacity(4 + body_len);
    encode_frame_into(key, kind, env, &mut out);
    out
}

/// Serialize `env` into one authenticated wire frame *appended* to
/// `out`, returning the number of bytes written. The MAC is computed in
/// place over the appended span, so a reused buffer makes the whole
/// encode allocation-free — this is the batched write path's hot
/// function: frames coalesce into one per-connection buffer and flush
/// with one `write(2)` per sweep.
///
/// Panics if the payload exceeds [`MAX_BODY_BYTES`], like
/// [`encode_wire_frame`].
pub fn encode_frame_into(
    key: &AuthKey,
    kind: FrameKind,
    env: &Envelope,
    out: &mut Vec<u8>,
) -> usize {
    let payload = env.payload.as_bytes();
    let body_len = HEADER_BYTES + payload.len() + TAG_BYTES;
    assert!(body_len <= MAX_BODY_BYTES, "payload of {} bytes exceeds frame cap", payload.len());
    let start = out.len();
    out.reserve(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_be_bytes());
    out.push(WIRE_VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&env.session.0.to_be_bytes());
    out.extend_from_slice(&env.round.to_be_bytes());
    out.extend_from_slice(&env.from.to_be_bytes());
    out.extend_from_slice(&env.to.to_be_bytes());
    out.extend_from_slice(&(env.payload.len_bits() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    let tag = key.tag(&out[start + 4..]);
    out.extend_from_slice(&tag.to_be_bytes());
    out.len() - start
}

fn be_u32(bytes: &[u8]) -> u32 {
    u32::from_be_bytes(bytes.try_into().expect("4 bytes"))
}

/// Authenticate the frame at the front of `buf` without materializing
/// its [`Envelope`]: the echo fast path. Runs exactly the checks of
/// [`decode_frame`] — length bounds, MAC, version, kind, length
/// cross-check, payload canonicality — and returns only the frame's
/// kind and total wire length (prefix + body). Accept/reject behavior
/// is identical to [`decode_frame`] on every input (pinned by tests);
/// skipped is only the envelope construction (two heap allocations and
/// a field parse per frame), which matters to a server echoing
/// hundreds of thousands of frames per second that never looks inside
/// them.
pub fn verify_frame(
    key: &AuthKey,
    buf: &[u8],
) -> Result<Option<(FrameKind, usize)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let body_len = be_u32(&buf[..4]) as usize;
    if !(HEADER_BYTES + TAG_BYTES..=MAX_BODY_BYTES).contains(&body_len) {
        return Err(WireError::BadLength(format!("body of {body_len} bytes out of bounds")));
    }
    if buf.len() < 4 + body_len {
        return Ok(None);
    }
    let body = &buf[4..4 + body_len];

    // Authenticate before interpreting any field.
    let tag = u64::from_be_bytes(body[body_len - TAG_BYTES..].try_into().expect("8 bytes"));
    if !key.verify(&body[..body_len - TAG_BYTES], tag) {
        return Err(WireError::BadMac);
    }

    if body[0] != WIRE_VERSION {
        return Err(WireError::BadVersion(body[0]));
    }
    let kind = FrameKind::from_byte(body[1]).ok_or(WireError::BadKind(body[1]))?;
    let len_bits = be_u32(&body[22..26]) as usize;
    let payload_bytes = len_bits.div_ceil(8);
    if HEADER_BYTES + payload_bytes + TAG_BYTES != body_len {
        return Err(WireError::BadLength(format!(
            "length field {body_len} disagrees with {len_bits}-bit payload"
        )));
    }
    // The canonicality rule `Message::from_bits` enforces, applied in
    // place: padding bits of a ragged final byte must be zero.
    if !len_bits.is_multiple_of(8) {
        let pad_mask = 0xffu8 >> (len_bits % 8);
        if body[HEADER_BYTES + payload_bytes - 1] & pad_mask != 0 {
            return Err(WireError::BadPayload(DecodeError::Invalid(
                "non-canonical payload: padding bits set".into(),
            )));
        }
    }
    Ok(Some((kind, 4 + body_len)))
}

/// Try to decode one frame from the front of `buf`.
///
/// * `Ok(None)` — the buffer holds an incomplete (but so far plausible)
///   frame; read more bytes and retry.
/// * `Ok(Some(frame))` — a frame was authenticated and decoded;
///   `frame.consumed` bytes of `buf` are spent.
/// * `Err(_)` — the stream is bad. There is no way to resynchronize a
///   corrupted length-prefixed stream, so callers must drop the
///   connection.
pub fn decode_frame(key: &AuthKey, buf: &[u8]) -> Result<Option<DecodedFrame>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let body_len = be_u32(&buf[..4]) as usize;
    if !(HEADER_BYTES + TAG_BYTES..=MAX_BODY_BYTES).contains(&body_len) {
        return Err(WireError::BadLength(format!("body of {body_len} bytes out of bounds")));
    }
    if buf.len() < 4 + body_len {
        return Ok(None);
    }
    let body = &buf[4..4 + body_len];

    // Authenticate before interpreting any field.
    let tag = u64::from_be_bytes(body[body_len - TAG_BYTES..].try_into().expect("8 bytes"));
    if !key.verify(&body[..body_len - TAG_BYTES], tag) {
        return Err(WireError::BadMac);
    }

    if body[0] != WIRE_VERSION {
        return Err(WireError::BadVersion(body[0]));
    }
    let kind = FrameKind::from_byte(body[1]).ok_or(WireError::BadKind(body[1]))?;
    let session = SessionId(u64::from_be_bytes(body[2..10].try_into().expect("8 bytes")));
    let round = be_u32(&body[10..14]);
    let from = be_u32(&body[14..18]);
    let to = be_u32(&body[18..22]);
    let len_bits = be_u32(&body[22..26]) as usize;

    let payload_bytes = len_bits.div_ceil(8);
    if HEADER_BYTES + payload_bytes + TAG_BYTES != body_len {
        return Err(WireError::BadLength(format!(
            "length field {body_len} disagrees with {len_bits}-bit payload"
        )));
    }
    let payload =
        Message::from_bits(body[HEADER_BYTES..HEADER_BYTES + payload_bytes].to_vec(), len_bits)
            .map_err(WireError::BadPayload)?;
    Ok(Some(DecodedFrame {
        consumed: 4 + body_len,
        kind,
        envelope: Envelope { session, round, from, to, payload },
    }))
}

/// Decode *every* complete frame at the front of `buf` in one pass —
/// the batched read path: drain the socket once, then parse everything
/// that arrived before returning to the poller.
///
/// Returns the decoded frames and the total bytes consumed. A torn
/// final frame (or torn length prefix) is *not* consumed — its bytes
/// stay in the buffer for the next read to complete. The first
/// malformed frame aborts with its error; frames decoded before it are
/// lost, which is fine because every error here is terminal for the
/// connection (a corrupted length-prefixed stream cannot be
/// resynchronized).
pub fn decode_frames(
    key: &AuthKey,
    buf: &[u8],
) -> Result<(Vec<DecodedFrame>, usize), WireError> {
    let mut frames = Vec::new();
    let mut consumed = 0;
    while let Some(frame) = decode_frame(key, &buf[consumed..])? {
        consumed += frame.consumed;
        frames.push(frame);
    }
    Ok((frames, consumed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use referee_protocol::BitWriter;

    fn key() -> AuthKey {
        AuthKey::from_seed(42)
    }

    fn env(session: u64, round: u32, from: u32, to: u32, value: u64, width: u32) -> Envelope {
        let mut w = BitWriter::new();
        w.write_bits(value, width);
        Envelope {
            session: SessionId(session),
            round,
            from,
            to,
            payload: Message::from_writer(w),
        }
    }

    #[test]
    fn round_trip() {
        let e = env(7, 3, 12, 0, 0xdead, 16);
        let bytes = encode_frame(&key(), &e);
        let d = decode_frame(&key(), &bytes).unwrap().unwrap();
        assert_eq!(d.consumed, bytes.len());
        assert_eq!(d.kind, FrameKind::Data);
        assert_eq!(d.envelope, e);
    }

    #[test]
    fn encode_into_appends_identically_to_encode() {
        // The in-place encoder is byte-for-byte the allocating one, at
        // any starting offset (the MAC span must track the append
        // point, not the buffer start).
        let a = env(7, 3, 12, 0, 0xdead, 16);
        let b = env(8, 1, 2, 3, 0b101, 3);
        let mut batch = Vec::new();
        let wrote_a = encode_frame_into(&key(), FrameKind::Data, &a, &mut batch);
        let wrote_b = encode_frame_into(&key(), FrameKind::Verdict, &b, &mut batch);
        let lone_a = encode_wire_frame(&key(), FrameKind::Data, &a);
        let lone_b = encode_wire_frame(&key(), FrameKind::Verdict, &b);
        assert_eq!(wrote_a, lone_a.len());
        assert_eq!(wrote_b, lone_b.len());
        assert_eq!(&batch[..wrote_a], &lone_a[..]);
        assert_eq!(&batch[wrote_a..], &lone_b[..]);
    }

    #[test]
    fn batch_decode_drains_complete_frames_and_keeps_torn_tail() {
        let envs: Vec<Envelope> = (0..5).map(|i| env(i, 1, 2, 0, i * 7 + 1, 12)).collect();
        let mut stream = Vec::new();
        for e in &envs {
            encode_frame_into(&key(), FrameKind::Data, e, &mut stream);
        }
        let tail_start = stream.len();
        // Append a torn final frame: all but its last byte.
        let torn = encode_wire_frame(&key(), FrameKind::Data, &env(99, 1, 1, 0, 3, 2));
        stream.extend_from_slice(&torn[..torn.len() - 1]);
        let (frames, consumed) = decode_frames(&key(), &stream).unwrap();
        assert_eq!(consumed, tail_start, "torn tail must not be consumed");
        assert_eq!(frames.len(), envs.len());
        for (f, e) in frames.iter().zip(&envs) {
            assert_eq!(&f.envelope, e);
        }
        // Completing the tail yields exactly the missing frame.
        let mut rest = stream[consumed..].to_vec();
        rest.push(torn[torn.len() - 1]);
        let (frames, consumed) = decode_frames(&key(), &rest).unwrap();
        assert_eq!(consumed, rest.len());
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].envelope.session.0, 99);
    }

    #[test]
    fn batch_decode_surfaces_mid_stream_corruption() {
        let mut stream = encode_frame(&key(), &env(1, 1, 1, 0, 1, 1));
        let mut bad = encode_frame(&key(), &env(2, 1, 1, 0, 1, 1));
        *bad.last_mut().unwrap() ^= 1; // corrupt the second frame's MAC
        stream.extend_from_slice(&bad);
        assert_eq!(decode_frames(&key(), &stream), Err(WireError::BadMac));
    }

    #[test]
    fn every_kind_round_trips() {
        let e = env(1, 2, 3, 4, 0b1011, 4);
        for kind in [
            FrameKind::Data,
            FrameKind::Hello,
            FrameKind::Announce,
            FrameKind::Partial,
            FrameKind::Verdict,
            FrameKind::Register,
            FrameKind::Finish,
            FrameKind::Retire,
            FrameKind::Trace,
            FrameKind::Evidence,
        ] {
            let bytes = encode_wire_frame(&key(), kind, &e);
            let d = decode_frame(&key(), &bytes).unwrap().unwrap();
            assert_eq!(d.kind, kind);
            assert_eq!(d.envelope, e);
        }
    }

    #[test]
    fn unknown_kind_rejected_after_authentication() {
        // Forge a validly-MAC'd frame with kind byte 10: the *decoder*
        // must reject it (a buggy peer, not line noise — the MAC holds).
        let mut bytes = encode_wire_frame(&key(), FrameKind::Data, &env(1, 1, 1, 0, 1, 1));
        bytes[5] = 10; // kind byte: after 4-byte length + 1-byte version
        let body_end = bytes.len() - TAG_BYTES;
        let tag = key().tag(&bytes[4..body_end]);
        bytes.truncate(body_end);
        bytes.extend_from_slice(&tag.to_be_bytes());
        assert_eq!(decode_frame(&key(), &bytes), Err(WireError::BadKind(10)));
    }

    #[test]
    fn empty_payload_round_trip() {
        let e = Envelope {
            session: SessionId(u64::MAX),
            round: u32::MAX,
            from: 0,
            to: 9,
            payload: Message::empty(),
        };
        let bytes = encode_frame(&key(), &e);
        assert_eq!(bytes.len(), 4 + HEADER_BYTES + TAG_BYTES);
        assert_eq!(decode_frame(&key(), &bytes).unwrap().unwrap().envelope, e);
    }

    #[test]
    fn streaming_prefixes_are_incomplete_not_errors() {
        let bytes = encode_frame(&key(), &env(1, 1, 1, 0, 0b101, 3));
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_frame(&key(), &bytes[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_left_for_the_next_frame() {
        let a = env(1, 1, 1, 0, 5, 4);
        let b = env(2, 9, 3, 4, 6, 4);
        let mut stream = encode_frame(&key(), &a);
        let first_len = stream.len();
        stream.extend_from_slice(&encode_frame(&key(), &b));
        let d1 = decode_frame(&key(), &stream).unwrap().unwrap();
        assert_eq!(d1.consumed, first_len);
        assert_eq!(d1.envelope, a);
        let d2 = decode_frame(&key(), &stream[d1.consumed..]).unwrap().unwrap();
        assert_eq!(d2.envelope, b);
    }

    #[test]
    fn every_body_bit_flip_is_rejected() {
        let bytes = encode_frame(&key(), &env(3, 2, 5, 0, 0xabc, 12));
        for bit in (4 * 8)..(bytes.len() * 8) {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (7 - bit % 8);
            match decode_frame(&key(), &bad) {
                Err(WireError::BadMac) => {}
                other => panic!("body bit {bit}: expected BadMac, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_key_is_rejected() {
        let bytes = encode_frame(&key(), &env(3, 2, 5, 0, 0xabc, 12));
        assert_eq!(decode_frame(&AuthKey::from_seed(43), &bytes), Err(WireError::BadMac));
    }

    #[test]
    fn length_lies_are_rejected_or_stall() {
        let bytes = encode_frame(&key(), &env(1, 1, 2, 0, 1, 1));
        // Too-small and too-large length prefixes are structural errors.
        for lie in [0u32, 1, (HEADER_BYTES + TAG_BYTES - 1) as u32, (MAX_BODY_BYTES + 1) as u32]
        {
            let mut bad = bytes.clone();
            bad[..4].copy_from_slice(&lie.to_be_bytes());
            assert!(
                matches!(decode_frame(&key(), &bad), Err(WireError::BadLength(_))),
                "lie {lie}"
            );
        }
        // A plausible but wrong length either stalls (waiting for bytes
        // that never come) or fails the MAC over the wrong span — never
        // yields a frame.
        for delta in [-8i64, -1, 1, 8] {
            let truth = (bytes.len() - 4) as i64;
            let lie = (truth + delta) as u32;
            let mut bad = bytes.clone();
            bad[..4].copy_from_slice(&lie.to_be_bytes());
            match decode_frame(&key(), &bad) {
                Ok(None) | Err(_) => {}
                Ok(Some(f)) => panic!("length lie {delta:+} produced a frame: {f:?}"),
            }
        }
    }

    #[test]
    fn noncanonical_padding_is_rejected_after_authentication() {
        // Build a frame whose padding bit is set, with a *valid* MAC —
        // i.e. a buggy peer, not line noise. 3-bit payload, pad bit set.
        let mut body = vec![WIRE_VERSION, FrameKind::Data as u8];
        body.extend_from_slice(&1u64.to_be_bytes());
        body.extend_from_slice(&1u32.to_be_bytes());
        body.extend_from_slice(&1u32.to_be_bytes());
        body.extend_from_slice(&0u32.to_be_bytes());
        body.extend_from_slice(&3u32.to_be_bytes());
        body.push(0b1010_0001); // 3 payload bits + a set padding bit
        let tag = key().tag(&body);
        body.extend_from_slice(&tag.to_be_bytes());
        let mut frame = ((body.len() as u32).to_be_bytes()).to_vec();
        frame.extend_from_slice(&body);
        assert!(matches!(decode_frame(&key(), &frame), Err(WireError::BadPayload(_))));
    }

    /// `verify_frame` must agree with `decode_frame` on every input:
    /// same acceptance (kind + consumed), same rejection class.
    fn assert_verify_matches_decode(bytes: &[u8]) {
        let decoded = decode_frame(&key(), bytes);
        let verified = verify_frame(&key(), bytes);
        match (decoded, verified) {
            (Ok(None), Ok(None)) => {}
            (Ok(Some(d)), Ok(Some((kind, consumed)))) => {
                assert_eq!((d.kind, d.consumed), (kind, consumed));
            }
            (Err(de), Err(ve)) => assert_eq!(de, ve),
            (d, v) => panic!("decode_frame {d:?} but verify_frame {v:?}"),
        }
    }

    #[test]
    fn verify_matches_decode_on_valid_frames_prefixes_and_bit_flips() {
        let bytes = encode_frame(&key(), &env(3, 2, 5, 0, 0xabc, 12));
        for cut in 0..=bytes.len() {
            assert_verify_matches_decode(&bytes[..cut]);
        }
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (7 - bit % 8);
            assert_verify_matches_decode(&bad);
        }
    }

    #[test]
    fn verify_matches_decode_on_authenticated_forgeries() {
        // Line noise always dies at the MAC; the interesting cases are
        // *validly MAC'd* malformed frames (a buggy or hostile peer
        // holding the key). Re-tag after each mutation so both decoders
        // reach their structural checks.
        let base = encode_wire_frame(&key(), FrameKind::Data, &env(1, 1, 1, 0, 0b101, 3));
        let retag = |mut bytes: Vec<u8>| {
            let body_end = bytes.len() - TAG_BYTES;
            let tag = key().tag(&bytes[4..body_end]);
            bytes.truncate(body_end);
            bytes.extend_from_slice(&tag.to_be_bytes());
            bytes
        };
        for (at, val) in [
            (4usize, 9u8),     // bad version
            (5, 10),           // unknown kind
            (26, 0xff),        // len_bits lie (disagrees with body length)
            (30, 0b1010_0001), // padding bit set (non-canonical payload)
        ] {
            let mut bad = base.clone();
            bad[at] = val;
            assert_verify_matches_decode(&retag(bad));
        }
    }

    #[test]
    fn wire_errors_map_into_decode_errors() {
        assert!(matches!(DecodeError::from(WireError::BadMac), DecodeError::Inconsistent(_)));
        assert!(matches!(DecodeError::from(WireError::BadVersion(9)), DecodeError::Invalid(_)));
        assert_eq!(
            DecodeError::from(WireError::BadPayload(DecodeError::Truncated)),
            DecodeError::Truncated
        );
    }
}
