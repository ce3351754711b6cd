//! The four workloads and their seeded inputs. The services under test
//! see only the generated graphs; the expected verdicts are computed
//! here, in memory, before any session runs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_graph::{generators, LabelledGraph};
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::multiround::{run_multiround, BoruvkaConnectivity};
use referee_protocol::referee::local_phase;
use referee_protocol::shard::multiround::run_multiround_sharded;
use referee_wirenet::{vector_digest, AuthKey};

/// Round cap for Borůvka sessions, far above the `O(log n)` rounds the
/// workload's graphs need.
pub const ROUND_CAP: usize = 64;

/// Which referee service a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// One-round `EdgeCountProtocol` sessions through
    /// `FleetClient::verify_session`; the verdict is a vector digest.
    Verify,
    /// Multi-round Borůvka connectivity through
    /// `FleetClient::run_multiround_session`.
    Boruvka,
}

/// Edge density of the workload's `G(n, p)` graphs.
#[derive(Debug, Clone, Copy)]
pub enum Density {
    /// `p = d / n`: sparse graphs of mean degree about `d`.
    MeanDegree(f64),
    /// A fixed `p`.
    P(f64),
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub service: Service,
    pub shards: usize,
    /// Shard hosts the shards are placed on; 0 keeps them in-process.
    pub hosts: usize,
    /// Node counts cover `n_lo..n_hi` evenly: graph `i` of the pool has
    /// `n_lo + i mod (n_hi − n_lo)` nodes, so every seed has the same
    /// size mix and only the edges change. Seeds then differ by their
    /// graphs, not by how much work the pool holds.
    pub n_lo: usize,
    pub n_hi: usize,
    pub density: Density,
    /// Distinct graphs per seed, a multiple of `n_hi − n_lo`; the
    /// callers cycle through them.
    pub pool: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "verify-wide",
        why:
            "~380 uplink frames of <=2 B per session: the per-frame path (codec, MAC, router, \
              shard ingest) does most of the work; merge is one partial",
        service: Service::Verify,
        shards: 2,
        hosts: 0,
        n_lo: 256,
        n_hi: 512,
        density: Density::MeanDegree(8.0),
        pool: 512,
    },
    Workload {
        name: "verify-narrow-k8",
        why: "tiny sessions at k=8: per-session fixed cost (announce, 7 partials, merge, \
              verdict, handoffs across 9 server threads) dominates",
        service: Service::Verify,
        shards: 8,
        hosts: 0,
        n_lo: 12,
        n_hi: 32,
        density: Density::P(0.2),
        pool: 1000,
    },
    Workload {
        name: "boruvka-rounds",
        why: "multi-round Boruvka at k=2: ~5 round trips, per-round merges and referee steps, \
              and n server-to-client downlinks per round",
        service: Service::Boruvka,
        shards: 2,
        hosts: 0,
        n_lo: 16,
        n_hi: 48,
        density: Density::P(0.15),
        pool: 512,
    },
    Workload {
        name: "remote-k4",
        why: "k=4 shards on 2 in-process shard hosts: the only workload through placement \
              proxies, per-shard keys and the journal",
        service: Service::Verify,
        shards: 4,
        hosts: 2,
        n_lo: 12,
        n_hi: 32,
        density: Density::P(0.2),
        pool: 240,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The expected verdict of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// The keyed digest of the node message vector.
    Digest(u64),
    /// Whether the graph is connected.
    Connected(bool),
}

impl Workload {
    /// The seeded graph pool: the same seed gives the same graphs.
    pub fn graphs(&self, seed: u64) -> Vec<LabelledGraph> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.pool)
            .map(|i| {
                let n = self.n_lo + i % (self.n_hi - self.n_lo);
                let p = match self.density {
                    Density::MeanDegree(d) => (d / n as f64).min(1.0),
                    Density::P(p) => p,
                };
                generators::gnp(n, p, &mut rng)
            })
            .collect()
    }

    /// Each graph's expected verdict, and the rounds its session takes
    /// (1 for one-round services). Borůvka verdicts come from
    /// `run_multiround` and must agree with the sharded in-memory run at
    /// the workload's `k`.
    pub fn expected(
        &self,
        key: &AuthKey,
        graphs: &[LabelledGraph],
    ) -> Result<Vec<(Expected, usize)>, String> {
        graphs
            .iter()
            .map(|g| match self.service {
                Service::Verify => Ok((
                    Expected::Digest(vector_digest(key, &local_phase(&EdgeCountProtocol, g))),
                    1,
                )),
                Service::Boruvka => {
                    let (mono, _) = run_multiround(&BoruvkaConnectivity, g, ROUND_CAP);
                    let (sharded, stats) =
                        run_multiround_sharded(&BoruvkaConnectivity, g, self.shards, ROUND_CAP);
                    match (mono, sharded) {
                        (Some(Ok(a)), Some(Ok(b))) if a == b => {
                            Ok((Expected::Connected(a), stats.rounds))
                        }
                        other => Err(format!(
                            "in-memory Borůvka runs disagree or fail on n={}: {other:?}",
                            g.n()
                        )),
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_inputs() {
        for w in &WORKLOADS {
            let a = w.graphs(17);
            assert_eq!(a.len(), w.pool);
            assert_eq!(a, w.graphs(17), "{} is not reproducible", w.name);
            assert_ne!(a, w.graphs(18), "{} ignores its seed", w.name);
            assert_eq!(w.pool % (w.n_hi - w.n_lo), 0, "{} mixes sizes unevenly", w.name);
            let mut sizes: Vec<usize> = a.iter().map(|g| g.n()).collect();
            sizes.sort_unstable();
            sizes.dedup();
            assert_eq!(sizes, (w.n_lo..w.n_hi).collect::<Vec<_>>());
        }
    }

    #[test]
    fn wide_graphs_are_sparse_and_narrow_ones_small() {
        let wide = by_name("verify-wide").unwrap().graphs(3);
        let mean_deg: f64 = wide.iter().map(|g| 2.0 * g.m() as f64 / g.n() as f64).sum::<f64>()
            / wide.len() as f64;
        assert!((7.0..9.0).contains(&mean_deg), "mean degree {mean_deg}");
        assert!(by_name("verify-narrow-k8").unwrap().graphs(3).iter().all(|g| g.n() < 32));
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn expected_verdicts_are_deterministic() {
        let key = AuthKey::from_seed(5);
        for w in &WORKLOADS {
            let graphs: Vec<_> = w.graphs(9).into_iter().take(8).collect();
            let a = w.expected(&key, &graphs).unwrap();
            assert_eq!(a, w.expected(&key, &graphs).unwrap());
            let rounds_ok = |&(_, r): &(Expected, usize)| match w.service {
                Service::Verify => r == 1,
                Service::Boruvka => (1..=ROUND_CAP).contains(&r),
            };
            assert!(a.iter().all(rounds_ok), "{}", w.name);
        }
    }
}
