//! Protocol-agnostic **referee services**: the type-erased referee half
//! of any [`MultiRoundProtocol`] ([`WireReferee`]/[`RefereeStepper`]),
//! plus the [`ServiceCatalog`] — a named registry that lets one server
//! host many protocols concurrently (clients select a service by name
//! in their authenticated `Announce`).
//!
//! These types started life inside the `wirenet` crate, welded to its
//! Borůvka service; they live here now because *nothing* about them is
//! wire-specific — a stepper is just "referee state + `referee_step` +
//! output encoder", and any transport (in-memory, sharded, TCP) can
//! drive one. `wirenet` re-exports everything for compatibility.
//!
//! # Registering a new wire service
//!
//! ```
//! use referee_protocol::multiround::BoruvkaConnectivity;
//! use referee_protocol::service::{encode_bool_output, ServiceCatalog};
//!
//! let catalog = ServiceCatalog::new()
//!     .register("boruvka", BoruvkaConnectivity, encode_bool_output);
//! assert_eq!(catalog.index_of("boruvka"), Some(0));
//! ```
//!
//! The encoder turns the protocol's typed output into the [`Message`]
//! the verdict frame carries; ship a matching decoder to clients (see
//! [`encode_bool_output`]/[`decode_bool_output`] and
//! [`encode_graph_output`]/[`decode_graph_output`] for the two shapes
//! the workspace uses).

use crate::multiround::{
    run_multiround, BoruvkaConnectivity, MultiRoundProtocol, MultiRoundStats, RefereeStep,
};
use crate::{BitWriter, DecodeError, Message};
use referee_graph::graph6::{from_graph6, to_graph6};
use referee_graph::LabelledGraph;
use std::sync::Arc;

/// The referee half of a multi-round protocol, type-erased for
/// transports: the final output is pre-encoded into a [`Message`] (the
/// client decodes it with the matching helper, e.g.
/// [`decode_bool_output`]).
pub trait RefereeStepper: Send {
    /// One referee step on round `round`'s complete uplink vector.
    fn step(&mut self, n: usize, round: usize, uplinks: &[Message]) -> RefereeStep<Message>;
}

/// Factory for per-session referee steppers — what a referee service
/// serves. Implemented for any [`MultiRoundProtocol`] via
/// [`ProtocolReferee`].
pub trait WireReferee: Send + Sync {
    /// Fresh referee state for a size-`n` session.
    fn open(&self, n: usize) -> Box<dyn RefereeStepper>;
    /// Server-side safety stop: a session still unfinished after this
    /// many rounds is rejected (bounds referee state against stalled or
    /// hostile clients).
    fn round_cap(&self, n: usize) -> usize;
}

/// Adapts any (cloneable) [`MultiRoundProtocol`] into a [`WireReferee`]
/// by pairing it with an output encoder.
pub struct ProtocolReferee<P: MultiRoundProtocol> {
    protocol: P,
    encode: fn(&P::Output) -> Message,
}

impl<P: MultiRoundProtocol> ProtocolReferee<P> {
    /// Serve `protocol`, encoding each final output with `encode`.
    pub fn new(protocol: P, encode: fn(&P::Output) -> Message) -> ProtocolReferee<P> {
        ProtocolReferee { protocol, encode }
    }
}

struct ProtocolStepper<P: MultiRoundProtocol> {
    protocol: P,
    state: P::RefereeState,
    encode: fn(&P::Output) -> Message,
}

impl<P> RefereeStepper for ProtocolStepper<P>
where
    P: MultiRoundProtocol + Send,
    P::RefereeState: Send,
{
    fn step(&mut self, n: usize, round: usize, uplinks: &[Message]) -> RefereeStep<Message> {
        match self.protocol.referee_step(&mut self.state, n, round, uplinks) {
            RefereeStep::Done(out) => RefereeStep::Done((self.encode)(&out)),
            RefereeStep::Continue(d) => RefereeStep::Continue(d),
        }
    }
}

impl<P> WireReferee for ProtocolReferee<P>
where
    P: MultiRoundProtocol + Clone + Send + Sync + 'static,
    P::RefereeState: Send,
{
    fn open(&self, n: usize) -> Box<dyn RefereeStepper> {
        Box::new(ProtocolStepper {
            protocol: self.protocol.clone(),
            state: self.protocol.referee_init(n),
            encode: self.encode,
        })
    }

    fn round_cap(&self, n: usize) -> usize {
        // The Borůvka bound `4·log₂(n) + 8` is comfortably above every
        // protocol this workspace ships (adaptive degeneracy needs
        // `log₂(n) + 2`, chained composites at most the sum of their
        // phases); widen per deployment if a future protocol needs
        // more rounds.
        4 * (usize::BITS - n.leading_zeros()) as usize + 8
    }
}

/// The connectivity referee ([`BoruvkaConnectivity`]) as a wire
/// service; decode verdict payloads with [`decode_bool_output`].
pub fn boruvka_connectivity_service() -> Arc<dyn WireReferee> {
    Arc::new(ProtocolReferee::new(BoruvkaConnectivity, encode_bool_output))
}

// ---------------------------------------------------------------------------
// Output codecs
// ---------------------------------------------------------------------------

/// Encode a `Result<bool, DecodeError>` protocol output: `1·b` on
/// success, else `0` plus the 2-bit rejection class (the same classes
/// as the one-round verdict codec).
pub fn encode_bool_output(out: &Result<bool, DecodeError>) -> Message {
    let mut w = BitWriter::new();
    match out {
        Ok(b) => {
            w.push_bit(true);
            w.push_bit(*b);
        }
        Err(e) => {
            w.push_bit(false);
            w.write_bits(error_class(e), 2);
        }
    }
    Message::from_writer(w)
}

/// Inverse of [`encode_bool_output`].
pub fn decode_bool_output(msg: &Message) -> Result<bool, DecodeError> {
    let mut r = msg.reader();
    if r.read_bit()? {
        let b = r.read_bit()?;
        if !r.is_exhausted() {
            return Err(DecodeError::Invalid("trailing bits after bool output".into()));
        }
        return Ok(b);
    }
    let class = r.read_bits(2)?;
    if !r.is_exhausted() {
        return Err(DecodeError::Invalid("trailing bits after output class".into()));
    }
    Err(class_error(class))
}

/// Encode a `Result<LabelledGraph, DecodeError>` protocol output (the
/// reconstruction protocols' shape): `1`, the graph6 byte count (32
/// bits), then the graph6 bytes; else `0` plus the 2-bit rejection
/// class. graph6 is canonical per labelled graph, so equal graphs
/// encode to equal payloads — verdict comparisons stay bit-for-bit.
pub fn encode_graph_output(out: &Result<LabelledGraph, DecodeError>) -> Message {
    let mut w = BitWriter::new();
    match out {
        Ok(g) => {
            w.push_bit(true);
            let g6 = to_graph6(g);
            w.write_bits(g6.len() as u64, 32);
            for b in g6.bytes() {
                w.write_bits(u64::from(b), 8);
            }
        }
        Err(e) => {
            w.push_bit(false);
            w.write_bits(error_class(e), 2);
        }
    }
    Message::from_writer(w)
}

/// Inverse of [`encode_graph_output`]. The payload is **prefix-free**
/// (like every codec here), so it also decodes mid-stream — chained
/// outputs concatenate these encodings back to back.
pub fn decode_graph_output(msg: &Message) -> Result<LabelledGraph, DecodeError> {
    let mut r = msg.reader();
    let out = decode_graph_part(&mut r)?;
    if !r.is_exhausted() {
        return Err(DecodeError::Invalid("trailing bits after graph output".into()));
    }
    out
}

/// Decode one [`encode_graph_output`] unit from a reader, leaving the
/// reader positioned after it (for concatenated chain outputs). The
/// outer `Err` is a framing failure; the inner `Result` is the decoded
/// protocol output.
pub fn decode_graph_part(
    r: &mut crate::BitReader<'_>,
) -> Result<Result<LabelledGraph, DecodeError>, DecodeError> {
    if r.read_bit()? {
        let len = r.read_bits(32)? as usize;
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            bytes.push(r.read_bits(8)? as u8);
        }
        let s = String::from_utf8(bytes)
            .map_err(|_| DecodeError::Invalid("graph6 payload is not ASCII".into()))?;
        let g = from_graph6(&s)
            .map_err(|e| DecodeError::Invalid(format!("graph6 decode failed: {e:?}")))?;
        return Ok(Ok(g));
    }
    let class = r.read_bits(2)?;
    Ok(Err(class_error(class)))
}

/// The canonical 2-bit wire class of a [`DecodeError`] (verdicts carry
/// the class, not the message text).
pub fn error_class(e: &DecodeError) -> u64 {
    match e {
        DecodeError::Truncated => 0,
        DecodeError::OutOfRange(_) => 1,
        DecodeError::Inconsistent(_) => 2,
        DecodeError::Invalid(_) => 3,
    }
}

/// The canonical [`DecodeError`] reconstructed from its 2-bit wire
/// class.
pub fn class_error(class: u64) -> DecodeError {
    match class {
        0 => DecodeError::Truncated,
        1 => DecodeError::OutOfRange("multi-round referee: out-of-range sender".into()),
        2 => DecodeError::Inconsistent(
            "multi-round referee: duplicate or missing message".into(),
        ),
        _ => DecodeError::Invalid("multi-round referee: invalid session traffic".into()),
    }
}

// ---------------------------------------------------------------------------
// Service catalog
// ---------------------------------------------------------------------------

/// How the coordinator replays a service locally: run the full protocol
/// (both halves, in process) and return the *encoded* output — the
/// exact payload the wire verdict would carry — plus the run stats.
type LocalRun =
    Arc<dyn Fn(&LabelledGraph, usize) -> (Option<Message>, MultiRoundStats) + Send + Sync>;

/// One named service in a [`ServiceCatalog`].
#[derive(Clone)]
pub struct CatalogEntry {
    name: String,
    referee: Arc<dyn WireReferee>,
    run_local: Option<LocalRun>,
}

impl CatalogEntry {
    /// The service's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The referee factory this service serves.
    pub fn referee(&self) -> &Arc<dyn WireReferee> {
        &self.referee
    }

    /// The service's round cap at size `n`.
    pub fn round_cap(&self, n: usize) -> usize {
        self.referee.round_cap(n)
    }

    /// Open a fresh per-session stepper.
    pub fn open(&self, n: usize) -> Box<dyn RefereeStepper> {
        self.referee.open(n)
    }

    /// Run the whole protocol locally (both halves, no wire) and return
    /// the encoded output + stats — the ground truth wire verdicts are
    /// compared against. `None` for entries registered from a bare
    /// [`WireReferee`] (no node half to run).
    pub fn run_local(
        &self,
        g: &LabelledGraph,
        max_rounds: usize,
    ) -> Option<(Option<Message>, MultiRoundStats)> {
        self.run_local.as_ref().map(|f| f(g, max_rounds))
    }
}

impl std::fmt::Debug for CatalogEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CatalogEntry")
            .field("name", &self.name)
            .field("replayable", &self.run_local.is_some())
            .finish()
    }
}

/// The longest service name an `Announce` can carry (its length prefix
/// is one byte).
pub const MAX_SERVICE_NAME_BYTES: usize = 255;

/// A named registry of referee services: one multi-protocol server
/// serves every entry concurrently, with clients selecting by name in
/// their authenticated `Announce`. Indexes are stable registration
/// order — servers key per-session worker state by (connection,
/// session, service index).
#[derive(Clone, Default, Debug)]
pub struct ServiceCatalog {
    entries: Vec<CatalogEntry>,
}

impl ServiceCatalog {
    /// An empty catalog.
    pub fn new() -> ServiceCatalog {
        ServiceCatalog { entries: Vec::new() }
    }

    /// A single-service catalog wrapping a bare referee under the name
    /// `"default"` — how the single-protocol server APIs are expressed
    /// in catalog terms.
    pub fn single(referee: Arc<dyn WireReferee>) -> ServiceCatalog {
        ServiceCatalog::new().register_referee("default", referee)
    }

    fn validate_name(&self, name: &str) {
        assert!(!name.is_empty(), "service names must be non-empty");
        assert!(
            name.len() <= MAX_SERVICE_NAME_BYTES,
            "service name {name:?} exceeds {MAX_SERVICE_NAME_BYTES} bytes"
        );
        assert!(self.index_of(name).is_none(), "service {name:?} is already registered");
    }

    /// Register `protocol` under `name`, encoding outputs with
    /// `encode`. The entry is fully replayable: `run_local` runs both
    /// protocol halves in process for ground-truth comparisons.
    ///
    /// Panics on an empty, oversized, or duplicate name.
    pub fn register<P>(
        mut self,
        name: &str,
        protocol: P,
        encode: fn(&P::Output) -> Message,
    ) -> ServiceCatalog
    where
        P: MultiRoundProtocol + Clone + Send + Sync + 'static,
        P::RefereeState: Send,
    {
        self.validate_name(name);
        let local = protocol.clone();
        let run_local: LocalRun = Arc::new(move |g, max_rounds| {
            let (out, stats) = run_multiround(&local, g, max_rounds);
            (out.map(|o| encode(&o)), stats)
        });
        self.entries.push(CatalogEntry {
            name: name.to_string(),
            referee: Arc::new(ProtocolReferee::new(protocol, encode)),
            run_local: Some(run_local),
        });
        self
    }

    /// Register a bare referee under `name` (no local replay — use
    /// [`register`](ServiceCatalog::register) when the node half is
    /// available). Panics on an empty, oversized, or duplicate name.
    pub fn register_referee(
        mut self,
        name: &str,
        referee: Arc<dyn WireReferee>,
    ) -> ServiceCatalog {
        self.validate_name(name);
        self.entries.push(CatalogEntry { name: name.to_string(), referee, run_local: None });
        self
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registered names, in index order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.name.as_str())
    }

    /// The stable index of `name`, if registered.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.name == name)
    }

    /// The entry registered as `name`.
    pub fn get(&self, name: &str) -> Option<&CatalogEntry> {
        self.index_of(name).map(|i| &self.entries[i])
    }

    /// The entry at `index` (registration order).
    pub fn by_index(&self, index: usize) -> Option<&CatalogEntry> {
        self.entries.get(index)
    }

    /// All entries, in index order.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use referee_graph::generators;

    #[test]
    fn graph_output_codec_round_trips() {
        for g in [
            LabelledGraph::new(0),
            LabelledGraph::new(1),
            generators::petersen(),
            generators::grid(3, 4),
            generators::complete(7),
        ] {
            let decoded = decode_graph_output(&encode_graph_output(&Ok(g.clone()))).unwrap();
            assert_eq!(decoded, g);
        }
        for e in [
            DecodeError::Truncated,
            DecodeError::OutOfRange("a".into()),
            DecodeError::Inconsistent("b".into()),
            DecodeError::Invalid("c".into()),
        ] {
            let back = decode_graph_output(&encode_graph_output(&Err(e.clone()))).unwrap_err();
            assert_eq!(std::mem::discriminant(&back), std::mem::discriminant(&e));
        }
    }

    #[test]
    fn graph_part_decodes_mid_stream() {
        // Two concatenated graph outputs decode sequentially.
        let a = generators::path(5);
        let b = generators::cycle(4).unwrap();
        let mut w = BitWriter::new();
        encode_graph_output(&Ok(a.clone())).append_to(&mut w);
        encode_graph_output(&Ok(b.clone())).append_to(&mut w);
        let joint = Message::from_writer(w);
        let mut r = joint.reader();
        assert_eq!(decode_graph_part(&mut r).unwrap().unwrap(), a);
        assert_eq!(decode_graph_part(&mut r).unwrap().unwrap(), b);
        assert!(r.is_exhausted());
    }

    #[test]
    fn catalog_registration_and_lookup() {
        let catalog = ServiceCatalog::new()
            .register("boruvka", BoruvkaConnectivity, encode_bool_output)
            .register_referee("raw", boruvka_connectivity_service());
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.names().collect::<Vec<_>>(), ["boruvka", "raw"]);
        assert_eq!(catalog.index_of("boruvka"), Some(0));
        assert_eq!(catalog.index_of("raw"), Some(1));
        assert_eq!(catalog.index_of("nope"), None);
        assert!(catalog.get("boruvka").unwrap().run_local.is_some());
        assert!(catalog.get("raw").unwrap().run_local.is_none());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_names_panic() {
        let _ = ServiceCatalog::new()
            .register("x", BoruvkaConnectivity, encode_bool_output)
            .register("x", BoruvkaConnectivity, encode_bool_output);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_names_panic() {
        let _ = ServiceCatalog::new().register("", BoruvkaConnectivity, encode_bool_output);
    }

    #[test]
    fn run_local_matches_direct_run() {
        let catalog =
            ServiceCatalog::new().register("boruvka", BoruvkaConnectivity, encode_bool_output);
        let g = generators::petersen();
        let cap = 40;
        let (out, stats) = catalog.get("boruvka").unwrap().run_local(&g, cap).unwrap();
        let (direct, direct_stats) = run_multiround(&BoruvkaConnectivity, &g, cap);
        assert_eq!(out.unwrap(), encode_bool_output(&direct.unwrap()));
        assert_eq!(stats, direct_stats);
    }

    #[test]
    fn single_wraps_a_bare_referee() {
        let catalog = ServiceCatalog::single(boruvka_connectivity_service());
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.index_of("default"), Some(0));
        let stepper = catalog.by_index(0).unwrap().open(3);
        drop(stepper);
    }

    #[test]
    fn stepper_runs_a_session_end_to_end() {
        // Drive the type-erased stepper by hand on a 1-node graph: the
        // single node proposes nothing; two quiet rounds finish it.
        let svc = boruvka_connectivity_service();
        let mut stepper = svc.open(1);
        let mut w = BitWriter::new();
        w.push_bit(false);
        let none = Message::from_writer(w);
        let mut verdict = None;
        for round in 1..=svc.round_cap(1) {
            match stepper.step(1, round, std::slice::from_ref(&none)) {
                RefereeStep::Continue(d) => assert_eq!(d.len(), 1),
                RefereeStep::Done(out) => {
                    verdict = Some(out);
                    break;
                }
            }
        }
        let out = verdict.expect("terminates within the cap");
        assert_eq!(decode_bool_output(&out), Ok(true));
    }
}
