//! The served system under a closed loop: a real `FleetServer` (plus
//! shard hosts for remote placement) and a `FleetClient` pool over
//! loopback TCP, driven by named caller threads that each block on one
//! session at a time.

use crate::procfs;
use crate::stats;
use crate::trace::{Recorder, Span};
use crate::workload::{Expected, Service, Workload, ROUND_CAP};
use referee_graph::LabelledGraph;
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::multiround::BoruvkaConnectivity;
use referee_protocol::referee::local_phase;
use referee_protocol::service::decode_bool_output;
use referee_simnet::SessionId;
use referee_wirenet::{
    boruvka_connectivity_service, AuthKey, FleetClient, FleetServer, PlacementPolicy,
    RemotePlacement, ShardHost, WireSnapshot,
};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Thread-name prefix of the benchmark's callers (`comm` holds at most
/// 15 bytes, which `bench-caller-NN` fits).
pub const CALLER_PREFIX: &str = "bench-caller-";

/// A running service and its client pool.
pub struct Fleet {
    client: FleetClient,
    server: FleetServer,
    hosts: Vec<ShardHost>,
}

/// Wire counters of every endpoint at one instant.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub client: WireSnapshot,
    pub server: WireSnapshot,
    pub hosts: Vec<WireSnapshot>,
}

impl Snapshot {
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            client: self.client.delta(&earlier.client),
            server: self.server.delta(&earlier.server),
            hosts: self.hosts.iter().zip(&earlier.hosts).map(|(a, b)| a.delta(b)).collect(),
        }
    }
}

impl Fleet {
    /// Spawn the workload's service (and shard hosts) and connect a pool
    /// of `conns` connections.
    pub fn spawn(w: &Workload, key: AuthKey, conns: usize) -> io::Result<Fleet> {
        let mut hosts = Vec::new();
        let server = match (w.service, w.hosts) {
            (Service::Verify, 0) => FleetServer::spawn_sharded(key, w.shards)?,
            (Service::Verify, h) => {
                hosts = (0..h).map(|_| ShardHost::spawn(key)).collect::<io::Result<_>>()?;
                let ids: Vec<u32> = (0..h as u32).collect();
                let placement = RemotePlacement::new(
                    PlacementPolicy::balanced(w.shards, &ids),
                    hosts.iter().zip(&ids).map(|(host, &id)| (id, host.addr())),
                )?;
                FleetServer::builder(key).placement(placement).spawn()?
            }
            (Service::Boruvka, _) => {
                FleetServer::spawn_multiround(key, w.shards, boruvka_connectivity_service())?
            }
        };
        let client = FleetClient::connect(server.addr(), conns, key)?;
        Ok(Fleet { client, server, hosts })
    }

    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            client: self.client.metrics(),
            server: self.server.metrics(),
            hosts: self.hosts.iter().map(ShardHost::metrics).collect(),
        }
    }

    /// Close the pool, then stop the server and the hosts; the final
    /// counters of every endpoint.
    pub fn stop(self) -> Snapshot {
        let client = self.client.metrics();
        drop(self.client);
        let server = self.server.stop();
        let hosts = self.hosts.into_iter().map(ShardHost::stop).collect();
        Snapshot { client, server, hosts }
    }
}

/// Open a span when the run is traced.
fn open(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    id: u64,
    parent: Option<usize>,
) -> Option<usize> {
    rec.as_mut().map(|r| r.open(name, id, parent))
}

fn close(rec: &mut Option<&mut Recorder>, span: Option<usize>) {
    if let (Some(r), Some(span)) = (rec.as_mut(), span) {
        r.close(span);
    }
}

/// Run one session and compare its verdict with the expected one:
/// `Ok(true)` verified, `Ok(false)` a wrong verdict, `Err` a failed
/// session. Also returns the session's latency in µs: the time of the
/// call into the client alone, from announce to verdict, so the node
/// side's `local_phase` (computed before it) is not part of it. In
/// traced runs the calls are wrapped in spans.
fn session(
    w: &Workload,
    client: &FleetClient,
    id: u64,
    g: &LabelledGraph,
    expected: Expected,
    mut rec: Option<&mut Recorder>,
) -> (Result<bool, String>, f64) {
    let root = open(&mut rec, "session", id, None);
    let (verdict, t) = match w.service {
        Service::Verify => {
            let span = open(&mut rec, "node.local_phase", id, root);
            let messages = local_phase(&EdgeCountProtocol, g);
            close(&mut rec, span);
            let span = open(&mut rec, "wire.verify_session", id, root);
            let arrivals = messages.into_iter().enumerate().map(|(j, m)| (j as u32 + 1, m));
            let t = Instant::now();
            let out = client.verify_session(SessionId(id), g.n(), arrivals);
            let t = t.elapsed();
            close(&mut rec, span);
            (out.map(Expected::Digest), t)
        }
        Service::Boruvka => {
            let span = open(&mut rec, "wire.run_multiround_session", id, root);
            let t = Instant::now();
            let out = client.run_multiround_session(
                SessionId(id),
                &BoruvkaConnectivity,
                g,
                ROUND_CAP,
            );
            let t = t.elapsed();
            close(&mut rec, span);
            (out.and_then(|m| decode_bool_output(&m)).map(Expected::Connected), t)
        }
    };
    close(&mut rec, root);
    let verdict = verdict.map(|v| v == expected).map_err(|e| format!("{e:?}"));
    (verdict, t.as_secs_f64() * 1e6)
}

/// When the callers stop.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After every graph of the pool has run once.
    OnePass,
    /// At the first session boundary after this long.
    After(Duration),
}

/// What one closed-loop window measured.
#[derive(Debug)]
pub struct Window {
    /// Sessions whose verdict matched the expected one.
    pub verified: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
    pub wall_s: f64,
    /// Process CPU ticks (every thread, user + sys) over the window.
    pub ticks: u64,
    /// Latencies (µs) of every verified session, sorted.
    pub latencies_us: Vec<f32>,
    /// CPU ticks each caller read from its own `/proc/thread-self/stat`.
    pub caller_ticks: u64,
    /// CPU ticks of every other live thread, grouped by `comm`.
    pub thread_ticks: BTreeMap<String, u64>,
    /// Live threads at the end of the window, callers included.
    pub threads: usize,
    pub wire: Snapshot,
    /// One span log per caller (traced windows only).
    pub spans: Vec<Vec<Span>>,
}

impl Window {
    /// Verified sessions per wall second.
    pub fn sessions_per_s(&self) -> f64 {
        self.verified as f64 / self.wall_s
    }

    /// Process CPU per verified session, in µs; `None` if none verified.
    pub fn cpu_us_per_session(&self) -> Option<f64> {
        (self.verified > 0).then(|| procfs::cpu_us(self.ticks) / self.verified as f64)
    }

    /// The exact `q`-quantile of the latencies, in µs.
    pub fn latency_us(&self, q: f64) -> Option<f64> {
        stats::quantile(&self.latencies_us, q)
    }

    /// The p99 latency in µs, when at least [`stats::MIN_BEYOND`]
    /// samples lie beyond it.
    pub fn p99_us(&self) -> Option<f64> {
        stats::tail_quantile(&self.latencies_us, 0.99)
    }
}

/// Above any one caller's session rate; sizes the latency buffers.
const MAX_SESSIONS_PER_S: f64 = 50_000.0;

struct CallerOut {
    /// Latencies (µs) of the verified sessions.
    latencies_us: Vec<f32>,
    verified: usize,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    ticks: u64,
    spans: Vec<Span>,
}

/// Drive the fleet with `callers` closed-loop callers. Callers claim
/// pool indices from one counter, so each graph runs in turn; session
/// ids come from `ids` and are never reused.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    fleet: &Fleet,
    w: &Workload,
    graphs: &[LabelledGraph],
    expected: &[(Expected, usize)],
    callers: usize,
    stop: Stop,
    traced: bool,
    ids: &AtomicU64,
) -> Result<Window, String> {
    let claimed = AtomicU64::new(0);
    let start = Barrier::new(callers + 1);
    let done = Barrier::new(callers + 1);
    let release = Barrier::new(callers + 1);
    let began: OnceLock<Instant> = OnceLock::new();

    thread::scope(|s| {
        let mut handles = Vec::with_capacity(callers);
        for c in 0..callers {
            let (claimed, start, done, release, began) =
                (&claimed, &start, &done, &release, &began);
            let h = thread::Builder::new()
                .name(format!("{CALLER_PREFIX}{c}"))
                .spawn_scoped(s, move || -> Result<CallerOut, String> {
                    start.wait();
                    let began = *began.get().expect("set before the start barrier opens");
                    let ticks0 = procfs::thread_ticks();
                    let mut rec = traced.then(|| Recorder::new(began));
                    // Reserved up front, so the buffer never reallocates
                    // mid-window: untouched capacity costs no resident
                    // memory, and the harness's share of `peak_rss_mib`
                    // grows with the sessions run, not in doubling steps.
                    let capacity = match stop {
                        Stop::OnePass => graphs.len(),
                        Stop::After(d) => (d.as_secs_f64() * MAX_SESSIONS_PER_S) as usize,
                    };
                    let mut out = CallerOut {
                        latencies_us: Vec::with_capacity(capacity),
                        verified: 0,
                        attempted: 0,
                        failed: 0,
                        first_error: None,
                        ticks: 0,
                        spans: Vec::new(),
                    };
                    loop {
                        let k = claimed.fetch_add(1, Ordering::Relaxed) as usize;
                        let over = match stop {
                            Stop::OnePass => k >= graphs.len(),
                            Stop::After(d) => began.elapsed() >= d,
                        };
                        if over {
                            break;
                        }
                        let i = k % graphs.len();
                        let id = ids.fetch_add(1, Ordering::Relaxed);
                        let (verdict, us) = session(
                            w,
                            &fleet.client,
                            id,
                            &graphs[i],
                            expected[i].0,
                            rec.as_mut(),
                        );
                        out.attempted += 1;
                        match verdict {
                            Ok(true) => {
                                out.verified += 1;
                                out.latencies_us.push(us as f32);
                            }
                            Ok(false) => {
                                out.failed += 1;
                                out.first_error.get_or_insert_with(|| {
                                    format!("session {id} (graph {i}): wrong verdict")
                                });
                            }
                            Err(e) => {
                                out.failed += 1;
                                out.first_error.get_or_insert_with(|| {
                                    format!("session {id} (graph {i}): {e}")
                                });
                            }
                        }
                    }
                    // Read this thread's CPU time itself, before it can
                    // be joined and vanish from /proc.
                    let ticks1 = procfs::thread_ticks();
                    done.wait();
                    release.wait();
                    out.ticks = ticks1? - ticks0?;
                    out.spans = rec.map(Recorder::into_spans).unwrap_or_default();
                    Ok(out)
                })
                .map_err(|e| format!("spawning caller {c}: {e}"))?;
            handles.push(h);
        }

        // Every barrier is passed before any error propagates, so a
        // failed read never leaves a caller waiting forever.
        let threads0 = procfs::threads();
        let wire0 = fleet.snapshot();
        let ticks0 = procfs::process_ticks();
        let t0 = Instant::now();
        began.set(t0).expect("set once");
        start.wait();
        done.wait();
        let wall_s = t0.elapsed().as_secs_f64();
        let ticks1 = procfs::process_ticks();
        let wire1 = fleet.snapshot();
        let threads1 = procfs::threads();
        release.wait();
        let (threads0, threads1) = (threads0?, threads1?);

        let mut window = Window {
            verified: 0,
            attempted: 0,
            failed: 0,
            first_error: None,
            wall_s,
            ticks: ticks1? - ticks0?,
            latencies_us: Vec::new(),
            caller_ticks: 0,
            thread_ticks: BTreeMap::new(),
            threads: threads1.len(),
            wire: wire1.delta(&wire0),
            spans: Vec::new(),
        };
        for (tid, (comm, ticks)) in &threads1 {
            if comm.starts_with(CALLER_PREFIX) {
                continue;
            }
            let before = threads0.get(tid).map_or(0, |(_, t)| *t);
            *window.thread_ticks.entry(comm.clone()).or_insert(0) += ticks - before;
        }
        let mut outs = Vec::with_capacity(callers);
        for h in handles {
            outs.push(h.join().map_err(|_| "a caller panicked".to_string())??);
        }
        window.latencies_us.reserve_exact(outs.iter().map(|o| o.latencies_us.len()).sum());
        for out in outs {
            window.latencies_us.extend(out.latencies_us);
            window.verified += out.verified;
            window.attempted += out.attempted;
            window.failed += out.failed;
            if window.first_error.is_none() {
                window.first_error = out.first_error;
            }
            window.caller_ticks += out.ticks;
            window.spans.push(out.spans);
        }
        window.latencies_us.sort_by(f32::total_cmp);
        Ok(window)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_totals_are_plain_ratios() {
        let snap = WireSnapshot::default();
        let mut w = Window {
            verified: 0,
            attempted: 0,
            failed: 0,
            first_error: None,
            wall_s: 2.0,
            ticks: 50,
            latencies_us: Vec::new(),
            caller_ticks: 0,
            thread_ticks: BTreeMap::new(),
            threads: 0,
            wire: Snapshot { client: snap, server: snap, hosts: Vec::new() },
            spans: Vec::new(),
        };
        assert_eq!(w.cpu_us_per_session(), None);
        assert_eq!(w.latency_us(0.5), None);
        w.verified = 1000;
        w.latencies_us = (1..=1000).map(|i| i as f32).collect();
        assert_eq!(w.sessions_per_s(), 500.0);
        // 50 ticks of 10 ms over 1000 sessions.
        assert_eq!(w.cpu_us_per_session(), Some(500.0));
        assert_eq!(w.latency_us(0.5), Some(500.0));
        assert_eq!(w.p99_us(), Some(990.0));
        w.latencies_us.pop();
        assert_eq!(w.p99_us(), None, "999 samples leave only 9 beyond the p99");
    }
}
