//! One shard's range of a session, and the one-round verifier as a
//! catalog entry of the referee service ([`crate::multiround`]).
//!
//! # The range state machine
//!
//! `RangeState` is what a shard holds for one session: the
//! [`RoundShard`] collecting the current round's uplinks for its slice
//! of the ID space, plus the partial it last shipped, kept as the
//! transcript that late arrivals are judged against. The in-process
//! shard workers and the remote [`ShardHost`](crate::placement::ShardHost)
//! both drive it, so the ingest rule cannot drift between them:
//!
//! * an uplink for the collecting round is ingested; a duplicate or an
//!   out-of-range sender poisons the round, which then ships at once —
//!   a fault fixes the verdict's `Err` shape, so the accumulator judges
//!   without waiting for ranges that may never fill;
//! * an uplink for a round whose range partial already shipped is by
//!   definition a repeat or a stray. The transcript proves what the
//!   sender said first, and a **poison notice** for that round goes to
//!   the accumulator, which merges it while the round is pending and
//!   drops it once the round is stepped;
//! * a stamp outside `1..=cap` is provably wrong on the frame alone:
//!   round 0 is absorbed, a past-cap stamp poisons like an uplink that
//!   races ahead of its round's downlinks.
//!
//! # The one-round verifier
//!
//! §I.B's referee waits for one message per vertex and decides. Served
//! here it is a [`WireReferee`] with a round cap of 1 whose stepper
//! answers round 1 with the keyed [`vector_digest`] of the assembled
//! vector: the verdict frame is `1` + 64 digest bits on success, `0` +
//! the 2-bit rejection class otherwise. A client cross-checks the
//! digest against the vector it sent, so the referee cannot silently
//! reorder, truncate or substitute anything.

use crate::auth::AuthKey;
use crate::metrics::WireMetrics;
use crate::multiround::decode_mr_verdict;
use referee_protocol::evidence::{
    encode_record_body, verify_bundle, EvidenceBundle, EvidenceRecord, ProvableError,
    SessionParams,
};
use referee_protocol::multiround::RefereeStep;
use referee_protocol::service::{RefereeStepper, WireReferee};
use referee_protocol::shard::multiround::{RoundPartialState, RoundShard};
use referee_protocol::shard::Arrival;
use referee_protocol::trace::TraceKind;
use referee_protocol::{BitWriter, DecodeError, Message};
use referee_simnet::Envelope;

/// Domain-separation tweak for the message-vector digest key.
const DIGEST_TWEAK: u64 = 0x7368_6172_645f_6467; // "shard_dg"

/// Keyed digest of an assembled message vector: SipHash-2-4 under
/// `key.derive(DIGEST_TWEAK)` over every message's position, bit length
/// and canonical bytes. Both ends of a fleet compute it from the base
/// key, so a verdict's digest pins the *exact* vector the referee
/// assembled — any reordering, truncation or substitution changes it.
pub fn vector_digest(key: &AuthKey, messages: &[Message]) -> u64 {
    let mut buf = Vec::new();
    for (i, m) in messages.iter().enumerate() {
        buf.extend_from_slice(&(i as u32 + 1).to_be_bytes());
        buf.extend_from_slice(&(m.len_bits() as u32).to_be_bytes());
        buf.extend_from_slice(m.as_bytes());
    }
    key.derive(DIGEST_TWEAK).tag(&buf)
}

/// The verify entry's output: the 64-bit digest.
fn digest_output(digest: u64) -> Message {
    let mut w = BitWriter::new();
    w.write_bits(digest, 64);
    Message::from_writer(w)
}

/// The one-round verifier as a catalog entry: one round, answered with
/// the keyed [`vector_digest`] of the uplink vector.
pub(crate) struct VerifyReferee {
    key: AuthKey,
}

impl VerifyReferee {
    pub(crate) fn new(key: AuthKey) -> VerifyReferee {
        VerifyReferee { key }
    }
}

impl WireReferee for VerifyReferee {
    fn open(&self, _n: usize) -> Box<dyn RefereeStepper> {
        Box::new(VerifyReferee { key: self.key })
    }

    fn round_cap(&self, _n: usize) -> usize {
        1
    }
}

impl RefereeStepper for VerifyReferee {
    fn step(&mut self, _n: usize, _round: usize, uplinks: &[Message]) -> RefereeStep<Message> {
        RefereeStep::Done(digest_output(vector_digest(&self.key, uplinks)))
    }
}

/// Decode a verify session's verdict payload: the digest, or the
/// rejection that ended the session. Malformed payloads surface as
/// `DecodeError`s.
pub(crate) fn decode_verdict(msg: &Message) -> Result<u64, DecodeError> {
    let out = decode_mr_verdict(msg)?;
    let mut r = out.reader();
    let digest = r.read_bits(64)?;
    if !r.is_exhausted() {
        return Err(DecodeError::Invalid("trailing bits after verdict digest".into()));
    }
    Ok(digest)
}

/// What one uplink proves about its sender on its own; the caller
/// packages it as evidence (the shard host, which ships none, ignores
/// it).
pub(crate) enum Proof {
    /// Sender 0 or `> n`.
    OutOfRange,
    /// A round stamp outside `1..=cap`.
    WrongRound,
    /// A bit-identical repeat: provable, but attributable to nobody.
    Duplicate,
    /// A conflicting repeat, with the recorded original.
    Equivocation(Message),
}

/// The outcome of [`RangeState::ingest`].
pub(crate) struct Ingested {
    /// The violation the arrival proves, if any.
    pub proof: Option<Proof>,
    /// A poison notice for an already-shipped round, bound for the
    /// accumulator.
    pub notice: Option<RoundPartialState>,
}

/// One shard's range of one session (see the module docs).
pub(crate) struct RangeState {
    n: usize,
    shards: usize,
    index: usize,
    cap: u32,
    /// The round being collected.
    shard: RoundShard,
    /// The last shipped round's partial: the transcript a late repeat
    /// is proven against.
    shipped: Option<RoundPartialState>,
}

impl RangeState {
    /// Shard `index` of `shards` of a size-`n` session, collecting
    /// round `round` under a round cap of `cap`.
    pub(crate) fn new(
        n: usize,
        shards: usize,
        index: usize,
        round: u32,
        cap: u32,
    ) -> RangeState {
        let shard = RoundShard::new(n, shards, index, round);
        RangeState { n, shards, index, cap, shard, shipped: None }
    }

    /// Apply the ingest rule to one routed uplink. `Err` is a
    /// router/shard range disagreement — a bug, not wire data.
    pub(crate) fn ingest(
        &mut self,
        round: u32,
        from: u32,
        payload: Message,
    ) -> Result<Ingested, DecodeError> {
        let current = self.shard.round();
        let stray = from == 0 || from as usize > self.n;
        let mut out = Ingested { proof: stray.then_some(Proof::OutOfRange), notice: None };
        if round == 0 || round > self.cap {
            out.proof.get_or_insert(Proof::WrongRound);
            if round > self.cap {
                out.notice = self.poison(from);
            }
        } else if round < current {
            if !stray {
                out.proof = self
                    .shipped
                    .as_ref()
                    .filter(|p| p.round() == round)
                    .and_then(|p| p.message_for(from))
                    .map(|prev| {
                        if *prev == payload {
                            Proof::Duplicate
                        } else {
                            Proof::Equivocation(prev.clone())
                        }
                    });
            }
            out.notice = Some(RoundPartialState::poison_notice(self.n, round, from));
        } else if round > current {
            // An uplink for a round whose downlinks were never issued.
            out.notice = self.poison(from);
        } else if let Arrival::Duplicate { identical } = self.shard.ingest(from, payload)? {
            out.proof = if identical {
                Some(Proof::Duplicate)
            } else {
                self.shard.message_for(from).cloned().map(Proof::Equivocation)
            };
            self.shard.note_duplicate(from);
        }
        Ok(out)
    }

    /// Poison the collecting round — or, once the range shipped its last
    /// capped round, notice that round instead.
    fn poison(&mut self, from: u32) -> Option<RoundPartialState> {
        if self.shard.round() > self.cap {
            return Some(RoundPartialState::poison_notice(self.n, self.cap, from));
        }
        self.shard.note_fault(from);
        None
    }

    /// Ship the collecting round if it is complete or poisoned: open the
    /// next round and keep the shipped partial as the transcript. Empty
    /// ranges and rounds past the cap never ship.
    pub(crate) fn take_ready(&mut self) -> Option<&RoundPartialState> {
        let s = &self.shard;
        if s.range().is_empty() || !(s.is_complete() || s.is_poisoned()) || s.round() > self.cap
        {
            return None;
        }
        let next = RoundShard::new(self.n, self.shards, self.index, s.round() + 1);
        self.shipped = Some(std::mem::replace(&mut self.shard, next).into_partial());
        self.shipped.as_ref()
    }
}

/// Re-sign one client payload as a transcript record. The evidence
/// record body layout is byte-for-byte the wire frame's MAC-covered
/// body, and the record key path `[conn]` folds to the connection key
/// both ends already derived — so a record cut from a decoded arrival
/// carries exactly the tag the client's frame did (pinned by tests).
pub(crate) fn evidence_record_for(
    base: &AuthKey,
    conn: u32,
    env: &Envelope,
    payload: &Message,
) -> EvidenceRecord {
    let body = encode_record_body(
        crate::frame::WIRE_VERSION,
        crate::frame::FrameKind::Data as u8,
        env.session.0,
        env.round,
        env.from,
        env.to,
        payload,
    );
    EvidenceRecord::sign(base.mac_key(), vec![u64::from(conn)], body)
}

/// Assemble and self-verify the evidence bundle `proof` makes of the
/// arrival `env` on `conn`, accusing `conn` when the error is
/// attributable. `None` means the frame's fields fall outside the
/// self-contained shape rules (say, a data frame addressed off the
/// referee) and prove nothing to a third party — the accountability
/// layer never ships a bundle `verify_bundle` would bounce. Also logs
/// the bundle on `metrics` and traces the emission.
pub(crate) fn build_evidence(
    base: &AuthKey,
    conn: u32,
    params: SessionParams,
    proof: &Proof,
    env: &Envelope,
    endpoint: u32,
    metrics: &WireMetrics,
) -> Option<EvidenceBundle> {
    let rec = || evidence_record_for(base, conn, env, &env.payload);
    let (error, records) = match proof {
        Proof::OutOfRange => (ProvableError::OutOfRangeSender, vec![rec()]),
        Proof::WrongRound => (ProvableError::WrongRound, vec![rec()]),
        Proof::Duplicate => (ProvableError::DuplicateSender, vec![rec(), rec()]),
        Proof::Equivocation(prev) => (
            ProvableError::Equivocation,
            vec![evidence_record_for(base, conn, env, prev), rec()],
        ),
    };
    let accused = error.attributable().then_some(conn);
    let bundle = EvidenceBundle { error, accused, records };
    verify_bundle(base.mac_key(), &params, &bundle).ok()?;
    metrics.record_evidence(&bundle);
    metrics.trace(
        params.session,
        endpoint,
        TraceKind::Evidence,
        u64::from(accused.unwrap_or(0)),
    );
    Some(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiround::encode_mr_verdict;

    #[test]
    fn verdict_codec_round_trips() {
        for result in [
            Ok(0u64),
            Ok(u64::MAX),
            Ok(0xdead_beef),
            Err(DecodeError::Truncated),
            Err(DecodeError::OutOfRange("x".into())),
            Err(DecodeError::Inconsistent("y".into())),
            Err(DecodeError::Invalid("z".into())),
        ] {
            let payload = encode_mr_verdict(&result.clone().map(digest_output));
            if result.is_ok() {
                assert_eq!(payload.len_bits(), 65, "an Ok verdict is 1 + 64 digest bits");
            }
            let decoded = decode_verdict(&payload);
            match (&result, &decoded) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "{a:?} vs {b:?}"
                ),
                other => panic!("verdict round trip changed shape: {other:?}"),
            }
        }
    }

    /// The ingest rule shared by workers and shard hosts: a repeat of a
    /// shipped round is proven from the transcript and noticed for that
    /// round, a stray is noticed as out of range, and a past-cap stamp
    /// after the last capped round shipped notices that round.
    #[test]
    fn range_state_applies_the_late_arrival_rule() {
        let m = |v: u64| {
            let mut w = BitWriter::new();
            w.write_bits(v, 5);
            Message::from_writer(w)
        };
        let notice_of = |ing: &Ingested| ing.notice.as_ref().map(|p| (p.round(), p.poisoned()));
        // Shard 1 of 2 at n = 4 owns nodes 3..=4; one-round cap.
        let mut range = RangeState::new(4, 2, 1, 1, 1);
        for from in [3, 4] {
            let ing = range.ingest(1, from, m(u64::from(from))).unwrap();
            assert!(ing.proof.is_none() && ing.notice.is_none());
        }
        let shipped = range.take_ready().expect("a complete range ships").clone();
        assert_eq!((shipped.round(), shipped.arrivals(), shipped.poisoned()), (1, 2, false));
        assert!(range.take_ready().is_none(), "round 2 is past the cap");

        let dup = range.ingest(1, 3, m(3)).unwrap();
        assert!(matches!(dup.proof, Some(Proof::Duplicate)));
        assert_eq!(notice_of(&dup), Some((1, true)));
        let equiv = range.ingest(1, 3, m(9)).unwrap();
        assert!(matches!(equiv.proof, Some(Proof::Equivocation(ref prev)) if *prev == m(3)));
        assert_eq!(notice_of(&equiv), Some((1, true)));
        let stray = range.ingest(1, 7, m(1)).unwrap();
        assert!(matches!(stray.proof, Some(Proof::OutOfRange)));
        assert!(stray
            .notice
            .unwrap()
            .finish()
            .is_err_and(|e| matches!(e, DecodeError::OutOfRange(_))));
        let past_cap = range.ingest(2, 4, m(1)).unwrap();
        assert!(matches!(past_cap.proof, Some(Proof::WrongRound)));
        assert_eq!(notice_of(&past_cap), Some((1, true)));
        let round_zero = range.ingest(0, 4, m(1)).unwrap();
        assert!(matches!(round_zero.proof, Some(Proof::WrongRound)));
        assert!(round_zero.notice.is_none(), "round 0 is absorbed");
    }

    #[test]
    fn digest_pins_position_content_and_length() {
        let key = AuthKey::from_seed(4);
        let m = |v: u64, w: u32| {
            let mut wr = BitWriter::new();
            wr.write_bits(v, w);
            Message::from_writer(wr)
        };
        let base = vec![m(1, 8), m(2, 8)];
        let swapped = vec![m(2, 8), m(1, 8)];
        let padded = vec![m(1, 8), m(2, 9)];
        let d = vector_digest(&key, &base);
        assert_ne!(d, vector_digest(&key, &swapped), "order must matter");
        assert_ne!(d, vector_digest(&key, &padded), "bit length must matter");
        assert_ne!(d, vector_digest(&AuthKey::from_seed(5), &base), "key must matter");
        assert_eq!(d, vector_digest(&key, &base.clone()), "deterministic");
    }
}
