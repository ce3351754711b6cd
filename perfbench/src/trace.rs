//! In-memory spans recorded by the benchmark around its own calls into
//! each layer's public functions, and the per-layer self time derived
//! from them.

use crate::report::json_str;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One timed call: `parent` indexes the enclosing span in the same
/// [`Recorder`]; all spans of one session share `session`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub session: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single thread's span log. Spans are opened and closed in stack
/// order, so a child always lies inside its parent.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder { epoch, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span and return its index, to pass to [`close`](Self::close)
    /// and as the parent of nested spans.
    pub fn open(&mut self, name: &'static str, session: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, session, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        session: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, session, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Total self time per span name, in nanoseconds: each span's duration
/// minus the durations of its direct children. `spans` is one
/// recorder's log, whose parents index into the same slice.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.duration_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= i128::from(s.duration_ns());
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        *by_name.entry(s.name).or_insert(0u64) += t.max(0) as u64;
    }
    by_name
}

/// Write `logs` as JSON lines, one span per line. Parents are rewritten
/// to global line indices so the file stands alone.
pub fn write_jsonl(out: &mut impl Write, logs: &[(&str, &[Span])]) -> io::Result<usize> {
    let mut base = 0usize;
    for (origin, spans) in logs {
        for s in *spans {
            let parent = s.parent.map_or("null".to_string(), |p| (base + p).to_string());
            writeln!(
                out,
                "{{\"origin\": {}, \"name\": {}, \"session\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                json_str(origin),
                json_str(s.name),
                s.session,
                s.start_ns,
                s.end_ns
            )?;
        }
        base += spans.len();
    }
    Ok(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, session: 1, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("session", None, 0, 100),
            span("encode", Some(0), 10, 40),
            span("mac", Some(1), 20, 30),
            span("decode", Some(0), 50, 70),
            span("encode", None, 200, 205),
        ];
        let t = self_time_ns(&spans);
        assert_eq!(t["session"], 100 - 30 - 20);
        assert_eq!(t["encode"], (30 - 10) + 5);
        assert_eq!(t["mac"], 10);
        assert_eq!(t["decode"], 20);
        // Self times partition the root's wall time plus the stray root.
        assert_eq!(t.values().sum::<u64>(), 105);
    }

    #[test]
    fn recorder_nests_and_exports_global_parents() {
        let mut r = Recorder::new(Instant::now());
        let root = r.open("session", 7, None);
        let v = r.time("child", 7, Some(root), || 41 + 1);
        r.close(root);
        assert_eq!(v, 42);
        let spans = r.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut out = Vec::new();
        let logs = [("a", &spans[..]), ("b", &spans[..])];
        assert_eq!(write_jsonl(&mut out, &logs).unwrap(), 4);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[3].contains("\"parent\": 2,"), "{}", lines[3]);
        assert!(lines[2].contains("\"origin\": \"b\""), "{}", lines[2]);
    }
}
