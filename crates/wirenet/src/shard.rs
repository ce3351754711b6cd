//! Evidence for what a shard's range observes, and the one-round
//! verifier as a catalog entry of the referee service
//! ([`crate::multiround`]). The range rule itself is
//! `referee_protocol::shard::range`; this module packages its
//! [`Proof`]s as evidence bundles.
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
use referee_protocol::shard::range::Proof;
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
