//! One shard's range of one session. [`RangeState`] holds the
//! [`RoundShard`] collecting the current round's uplinks for its slice
//! of the ID space, plus the partial it last shipped: the transcript
//! late arrivals are judged against. The wire's shard workers and shard
//! hosts and the simnet placement twin all drive it, so the rule cannot
//! drift between them:
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

use super::multiround::{RoundPartialState, RoundShard};
use super::Arrival;
use crate::{DecodeError, Message};
use referee_graph::VertexId;

/// What one uplink proves about its sender on its own; the caller
/// packages it as evidence or ignores it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Proof {
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
#[derive(Debug)]
pub struct Ingested {
    /// The violation the arrival proves, if any.
    pub proof: Option<Proof>,
    /// A poison notice for an already-shipped round, bound for the
    /// accumulator.
    pub notice: Option<RoundPartialState>,
}

/// One shard's range of one session (see the module docs).
#[derive(Debug, Clone)]
pub struct RangeState {
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
    pub fn new(n: usize, shards: usize, index: usize, round: u32, cap: u32) -> RangeState {
        let shard = RoundShard::new(n, shards, index, round);
        RangeState { n, shards, index, cap, shard, shipped: None }
    }

    /// Apply the ingest rule to one routed uplink. `Err` is a
    /// router/shard range disagreement — a bug, not wire data.
    pub fn ingest(
        &mut self,
        round: u32,
        from: VertexId,
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
    fn poison(&mut self, from: VertexId) -> Option<RoundPartialState> {
        if self.shard.round() > self.cap {
            return Some(RoundPartialState::poison_notice(self.n, self.cap, from));
        }
        self.shard.note_fault(from);
        None
    }

    /// Ship the collecting round if it is complete or poisoned: open the
    /// next round and keep the shipped partial as the transcript. Empty
    /// ranges and rounds past the cap never ship.
    pub fn take_ready(&mut self) -> Option<&RoundPartialState> {
        let s = &self.shard;
        if s.range().is_empty() || !(s.is_complete() || s.is_poisoned()) || s.round() > self.cap
        {
            return None;
        }
        let next = RoundShard::new(self.n, self.shards, self.index, s.round() + 1);
        self.shipped = Some(std::mem::replace(&mut self.shard, next).into_partial());
        self.shipped.as_ref()
    }

    /// The collecting round's partial as it stands, for a wait that ends
    /// before the range ships: `None` past the cap, and for an empty
    /// range unless a stray poisoned it.
    pub fn unshipped(&self) -> Option<RoundPartialState> {
        let s = &self.shard;
        let holds = s.is_poisoned() || !s.range().is_empty();
        (s.round() <= self.cap && holds).then(|| s.clone().into_partial())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitWriter;

    /// A repeat of a shipped round is proven from the transcript and
    /// noticed for that round, a stray is noticed as out of range, and a
    /// past-cap stamp after the last capped round shipped notices that
    /// round.
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
}
