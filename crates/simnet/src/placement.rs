//! A sans-I/O model of cross-host shard placement under host loss —
//! the deterministic twin of `wirenet::placement`. [`PlacementSim`]
//! plays the wire's three roles with their production state machines,
//! **no I/O and a single seed**, so any reconnect bug has a
//! seed-reproducible counterexample:
//!
//! * **host** — each shard, placed by a [`PlacementPolicy`], is a
//!   [`RangeState`] with a round cap of 1;
//! * **proxy** — each shard's [`ShardJournal`] records every arrival
//!   first and turns one for a committed range into a poison notice; a
//!   merged range partial commits the journal;
//! * **kill** — a seeded kill wipes every range on a host, committed
//!   ones included, and rebuilds each at its journal's resume round
//!   from the journal's replay, as a proxy's redial does.
//!
//! For *any* seed, kill rate and placement, an `Ok` verdict equals the
//! monolithic
//! [`assemble_from_arrivals`](referee_protocol::referee::assemble_from_arrivals)
//! bit for bit, and an `Err` verdict has its [`DecodeError`] class. The
//! offender may differ: a poisoned range ships at once, so its later
//! first uplinks are noticed as duplicates, as on the wire.

use crate::clock::{Clock, ManualClock};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use referee_graph::VertexId;
use referee_protocol::shard::multiround::RoundPartialState;
use referee_protocol::shard::placement::{HostId, PlacementPolicy};
use referee_protocol::shard::range::RangeState;
use referee_protocol::shard::replay::{Recorded, ShardJournal};
use referee_protocol::shard::route_arrival;
use referee_protocol::trace::{FlightRecorder, TraceKind};
use referee_protocol::{DecodeError, Message};

/// The simulated assembly's trace session id (session 0 is the
/// connection-level namespace in `wirenet` traces).
const SIM_SESSION: u64 = 1;

/// Trace endpoint ids, mirroring `wirenet::metrics::trace_endpoint`:
/// the coordinator is endpoint 0, simulated host `h` is `HOSTS + h`.
const COORDINATOR: u32 = 0;
const HOSTS: u32 = 0x200;

/// A seeded host-loss model for one sharded assembly (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct PlacementSim {
    /// Seed for the delivery order and the kill schedule.
    pub seed: u64,
    /// Probability that a host is killed (and restarted with replay)
    /// before any given delivery step.
    pub kill_rate: f64,
}

/// What one [`PlacementSim::run`] did and decided.
#[derive(Debug, Clone)]
pub struct PlacementReport {
    /// The canonical verdict of the surviving assembly.
    pub verdict: Result<Vec<Message>, DecodeError>,
    /// Host kills injected by the schedule.
    pub kills: usize,
    /// Journal entries replayed into restarted ranges.
    pub replayed: usize,
    /// Range partials merged, those drained when the wait ends included.
    pub partials: usize,
    /// Poison notices merged, raised by the proxy or by a host.
    pub notices: usize,
}

impl PlacementSim {
    /// A sim with the given seed and kill rate (clamped to `[0, 1]`).
    pub fn new(seed: u64, kill_rate: f64) -> PlacementSim {
        PlacementSim { seed, kill_rate: kill_rate.clamp(0.0, 1.0) }
    }

    /// Drive one size-`n` assembly, placed by `policy`, over `arrivals`
    /// delivered in a seed-shuffled order with seeded host kills.
    ///
    /// Returns the verdict and the fault accounting; the verdict agrees
    /// with the monolithic one as the module docs pin down.
    pub fn run(
        &self,
        n: usize,
        policy: &PlacementPolicy,
        arrivals: &[(VertexId, Message)],
    ) -> PlacementReport {
        self.run_inner(n, policy, arrivals, None)
    }

    /// Like [`run`](Self::run), but records every schedule decision —
    /// kills, journal replays, deliveries, partial emit/merge, poison
    /// notices and the final verdict — into `recorder`, stamped from
    /// `clock` (advanced one microsecond per event). The verdict and
    /// fault accounting are identical to the untraced run, and the
    /// resulting [`TraceSnapshot`](referee_protocol::trace::TraceSnapshot)
    /// is a pure function of `(seed, kill_rate, n, policy, arrivals)`:
    /// the same inputs encode to byte-identical traces.
    pub fn run_traced(
        &self,
        n: usize,
        policy: &PlacementPolicy,
        arrivals: &[(VertexId, Message)],
        recorder: &FlightRecorder,
        clock: &ManualClock,
    ) -> PlacementReport {
        self.run_inner(n, policy, arrivals, Some((recorder, clock)))
    }

    fn run_inner(
        &self,
        n: usize,
        policy: &PlacementPolicy,
        arrivals: &[(VertexId, Message)],
        tracer: Option<(&FlightRecorder, &ManualClock)>,
    ) -> PlacementReport {
        let k = policy.shards();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.shuffle(&mut rng);
        let mut run = Run {
            policy,
            tracer,
            ranges: (0..k).map(|i| RangeState::new(n, k, i, 1, 1)).collect(),
            journals: (0..k).map(|_| ShardJournal::new(n)).collect(),
            acc: RoundPartialState::new(n, 1),
            report: PlacementReport {
                verdict: Ok(Vec::new()),
                kills: 0,
                replayed: 0,
                partials: 0,
                notices: 0,
            },
        };
        let hosts: Vec<HostId> = policy.hosts();
        for step in order {
            // Chaos first: maybe kill (and restart) a host.
            if rng.gen_bool(self.kill_rate) {
                run.kill(hosts[rng.gen_range(0..hosts.len())]);
            }
            let (sender, payload) = &arrivals[step];
            run.proxy(*sender, payload);
        }
        // End the wait: merge every range still collecting, so missing
        // nodes surface as the canonical missing-node verdict.
        for i in 0..k {
            if let Some(partial) = run.ranges[i].unshipped() {
                run.ship(i, partial);
            }
        }
        let verdict = std::mem::replace(&mut run.acc, RoundPartialState::new(n, 1)).finish();
        run.trace(COORDINATOR, TraceKind::Verdict, verdict.is_ok() as u64);
        PlacementReport { verdict, ..run.report }
    }
}

/// One run's state: host-side ranges, proxy-side journals, accumulator.
struct Run<'a> {
    policy: &'a PlacementPolicy,
    /// [`PlacementSim::run_traced`]'s recorder and clock.
    tracer: Option<(&'a FlightRecorder, &'a ManualClock)>,
    ranges: Vec<RangeState>,
    journals: Vec<ShardJournal>,
    acc: RoundPartialState,
    report: PlacementReport,
}

impl Run<'_> {
    /// Record through the tracer, if any, one manual-clock microsecond
    /// per event: the same seed reproduces the trace bit-for-bit.
    fn trace(&self, endpoint: u32, kind: TraceKind, payload: u64) {
        if let Some((recorder, clock)) = self.tracer {
            clock.advance(1e-6);
            let ts_us = (clock.now() * 1e6).round() as u64;
            recorder.record(ts_us, SIM_SESSION, endpoint, kind, payload);
        }
    }

    /// The proxy: journal one uplink and forward it to the host, or turn
    /// it into a poison notice when its range already committed.
    fn proxy(&mut self, sender: VertexId, payload: &Message) {
        let n = self.acc.n();
        let i = route_arrival(n, self.ranges.len(), sender);
        self.trace(COORDINATOR, TraceKind::Uplink, u64::from(sender));
        match self.journals[i].record(1, sender, payload.clone()) {
            Recorded::Forward => self.host(i, 1, sender, payload.clone()),
            Recorded::Stale => {
                self.notice(COORDINATOR, sender, RoundPartialState::poison_notice(n, 1, sender))
            }
        }
    }

    /// The host: ingest one uplink into shard `i`'s range, merge any
    /// poison notice it raises, and ship the range once it is ready.
    fn host(&mut self, i: usize, round: u32, sender: VertexId, payload: Message) {
        let ingested = self.ranges[i].ingest(round, sender, payload);
        if let Some(notice) = ingested.expect("routed to its own range").notice {
            self.notice(HOSTS + self.policy.host_of_shard(i), sender, notice);
        }
        if let Some(partial) = self.ranges[i].take_ready().cloned() {
            self.ship(i, partial);
        }
    }

    /// Merge shard `i`'s range partial and commit its journal.
    fn ship(&mut self, i: usize, partial: RoundPartialState) {
        let endpoint = HOSTS + self.policy.host_of_shard(i);
        self.trace(endpoint, TraceKind::PartialEmit, i as u64);
        self.acc.merge(partial).expect("round-1 partials of one n always merge");
        self.trace(COORDINATOR, TraceKind::PartialMerge, i as u64);
        self.journals[i].commit(1);
        self.report.partials += 1;
    }

    /// Merge a poison notice against `sender`, raised at `endpoint`.
    fn notice(&mut self, endpoint: u32, sender: VertexId, notice: RoundPartialState) {
        self.trace(endpoint, TraceKind::Poison, u64::from(sender));
        self.acc.merge(notice).expect("round-1 notices of one n always merge");
        self.report.notices += 1;
    }

    /// Kill `victim`: wipe every range it hosts, committed ones included,
    /// and rebuild each at its resume round from the journal's replay.
    fn kill(&mut self, victim: HostId) {
        self.report.kills += 1;
        let endpoint = HOSTS + victim;
        self.trace(endpoint, TraceKind::Kill, u64::from(victim));
        let (n, k) = (self.acc.n(), self.ranges.len());
        for i in (0..k).filter(|&i| self.policy.host_of_shard(i) == victim) {
            self.ranges[i] = RangeState::new(n, k, i, self.journals[i].resume_round(), 1);
            for (round, sender, payload) in self.journals[i].clone().replay() {
                self.report.replayed += 1;
                self.trace(endpoint, TraceKind::Replay, u64::from(sender));
                self.host(i, round, sender, payload.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use referee_protocol::referee::assemble_from_arrivals;
    use referee_protocol::BitWriter;

    fn msg(v: u64, w: u32) -> Message {
        let mut wr = BitWriter::new();
        wr.write_bits(v, w);
        Message::from_writer(wr)
    }

    fn honest(n: usize) -> Vec<(VertexId, Message)> {
        (1..=n as VertexId).map(|v| (v, msg(v as u64 * 3 + 1, 12))).collect()
    }

    fn check(n: usize, arrivals: &[(VertexId, Message)], policy: &PlacementPolicy, seed: u64) {
        let mono = assemble_from_arrivals(n, arrivals.iter().cloned());
        for kill_rate in [0.0, 0.3, 0.9] {
            let sim = PlacementSim::new(seed, kill_rate);
            let got = sim.run(n, policy, arrivals);
            match (&mono, &got.verdict) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "seed {seed} rate {kill_rate}"),
                (Err(a), Err(b)) => {
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}")
                }
                other => panic!("verdict shape diverged (seed {seed}): {other:?}"),
            }
        }
    }

    #[test]
    fn honest_assemblies_survive_any_kill_schedule() {
        for n in [0usize, 1, 5, 17] {
            for k in [1usize, 3, 8] {
                let policy = PlacementPolicy::balanced(k, &[0, 1, 2]);
                for seed in 0..10 {
                    check(n, &honest(n), &policy, seed);
                }
            }
        }
    }

    #[test]
    fn faulty_assemblies_match_the_monolithic_verdict() {
        let policy = PlacementPolicy::balanced(4, &[0, 1]);
        let n = 9;
        // Duplicate sender.
        let mut dup = honest(n);
        dup.push((4, msg(0, 4)));
        // Out-of-range stray.
        let mut stray = honest(n);
        stray.push((99, msg(1, 4)));
        // Missing node.
        let missing: Vec<_> = honest(n).into_iter().filter(|(v, _)| *v != 6).collect();
        for (i, arrivals) in [dup, stray, missing].iter().enumerate() {
            for seed in 0..10 {
                check(n, arrivals, &policy, seed * 31 + i as u64);
            }
        }
    }

    #[test]
    fn kills_actually_happen_and_replay_rebuilds() {
        let policy = PlacementPolicy::balanced(4, &[0, 1]);
        let n = 40;
        let sim = PlacementSim::new(7, 0.5);
        let report = sim.run(n, &policy, &honest(n));
        assert!(report.kills > 0, "a 0.5 kill rate over 40 steps must kill");
        assert!(report.replayed > 0, "kills mid-collection must replay journal entries");
        assert!(report.verdict.is_ok());
    }

    #[test]
    fn traced_run_is_bit_for_bit_reproducible() {
        let policy = PlacementPolicy::balanced(4, &[0, 1, 2]);
        let n = 23;
        let arrivals = honest(n);
        let trace_of = |seed: u64| {
            let recorder = FlightRecorder::with_capacity(4096);
            let clock = ManualClock::default();
            let report = PlacementSim::new(seed, 0.4)
                .run_traced(n, &policy, &arrivals, &recorder, &clock);
            (report, recorder.snapshot().encode())
        };
        let (a_report, a_trace) = trace_of(42);
        let (b_report, b_trace) = trace_of(42);
        assert_eq!(a_trace.as_bytes(), b_trace.as_bytes(), "same seed, same bytes");
        assert_eq!(format!("{:?}", a_report.verdict), format!("{:?}", b_report.verdict));
        // A different seed schedules differently — traces diverge.
        let (_, c_trace) = trace_of(43);
        assert_ne!(a_trace.as_bytes(), c_trace.as_bytes(), "different seed, different trace");
    }

    #[test]
    fn traced_run_matches_untraced_and_records_the_schedule() {
        let policy = PlacementPolicy::balanced(4, &[0, 1]);
        let n = 40;
        let arrivals = honest(n);
        let sim = PlacementSim::new(7, 0.5);
        let plain = sim.run(n, &policy, &arrivals);
        let recorder = FlightRecorder::with_capacity(8192);
        let clock = ManualClock::default();
        let traced = sim.run_traced(n, &policy, &arrivals, &recorder, &clock);
        assert_eq!(format!("{:?}", plain.verdict), format!("{:?}", traced.verdict));
        assert_eq!(plain.kills, traced.kills);
        assert_eq!(plain.replayed, traced.replayed);

        let snap = recorder.snapshot();
        let count = |kind: TraceKind| snap.events().iter().filter(|e| e.kind == kind).count();
        assert_eq!(count(TraceKind::Kill), traced.kills);
        assert_eq!(count(TraceKind::Replay), traced.replayed);
        assert_eq!(count(TraceKind::Uplink), arrivals.len());
        assert_eq!(count(TraceKind::PartialEmit), count(TraceKind::PartialMerge));
        assert_eq!(count(TraceKind::Verdict), 1);
        // ManualClock hands every event its own tick, so the timeline is
        // causally ordered: all stamps distinct, and within each
        // endpoint's lane seq order and time order agree.
        let mut ts: Vec<u64> = snap.events().iter().map(|e| e.ts_us).collect();
        let total = ts.len();
        ts.sort_unstable();
        ts.dedup();
        assert_eq!(ts.len(), total, "one distinct tick per event");
        for w in snap.events().windows(2) {
            if w[0].session == w[1].session && w[0].endpoint == w[1].endpoint {
                assert!(w[0].seq < w[1].seq && w[0].ts_us < w[1].ts_us, "lane-monotone");
            }
        }
    }

    #[test]
    fn post_commit_stragglers_poison_via_notices() {
        // n = 1: whichever of the two sender-1 arrivals delivers first
        // completes (and commits) the only shard, so the other is a
        // post-commit straggler in *every* shuffle — it must surface as
        // a synthesized poison notice and an Inconsistent verdict.
        let policy = PlacementPolicy::from_map(vec![0]);
        for seed in 0..8 {
            let sim = PlacementSim::new(seed, 0.0);
            let report = sim.run(1, &policy, &[(1, msg(3, 4)), (1, msg(9, 4))]);
            assert!(matches!(report.verdict, Err(DecodeError::Inconsistent(_))));
            assert_eq!(report.notices, 1, "seed {seed}");
        }
    }
}
