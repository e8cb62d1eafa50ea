//! Spans recorded from the benchmark's own files around each call into
//! a layer of the program. Kept in memory, written once at exit.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder; [`NO_SPAN`] for "none".
pub type SpanId = u32;

/// The parent of a root span, and what [`Tracer::begin`] returns while
/// recording is off.
pub const NO_SPAN: SpanId = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `lang.parse`.
    pub name: &'static str,
    /// Start, ns after the run's epoch.
    pub start_ns: u64,
    /// End, ns after the run's epoch.
    pub end_ns: u64,
    /// The span that caused this one ([`NO_SPAN`] for an op's root).
    pub parent: SpanId,
    /// Shared by every span of one op: `round * ops_per_round + index`.
    pub op_id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder owned by one thread. While off, `begin` and `end`
/// cost one branch each, so the same code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder measuring from `epoch`; recording starts off.
    pub fn new(epoch: Instant) -> Self {
        Tracer { on: false, epoch, spans: Vec::new() }
    }

    /// Turns recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op_id: u64) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, op_id });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Moves another recorder's spans into this one, keeping their
    /// parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are not counted
/// twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-round totals of the spans called `name`, in ns: element `r` sums
/// the spans whose `op_id / ops_per_round == r`. Rounds without such a
/// span are left out, so a median over the result is a median over the
/// rounds that were traced.
pub fn per_round_ns(spans: &[Span], name: &str, ops_per_round: u64) -> Vec<f64> {
    let mut sums = std::collections::BTreeMap::<u64, f64>::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *sums.entry(s.op_id / ops_per_round).or_default() += s.dur_ns() as f64;
    }
    sums.into_values().collect()
}

/// Durations (ns) of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
}

/// Writes the spans as JSON lines, one object per span.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let selfs = self_times_ns(spans);
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = if s.parent == NO_SPAN { "null".to_string() } else { s.parent.to_string() };
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{},\"self_ns\":{self_ns}}}",
            s.name, s.start_ns, s.end_ns, s.op_id
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId, op_id: u64) -> Span {
        Span { name, start_ns, end_ns, parent, op_id }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", 0, 100, NO_SPAN, 0),
            span("a", 10, 40, 0, 0),
            span("b", 30, 60, 0, 0), // overlaps `a` by 10
            span("a.inner", 15, 20, 1, 0),
            span("c", 90, 120, 0, 0), // runs past its parent: clipped to 10
        ];
        // op: 100 - (10..60 = 50) - (90..100 = 10) = 40
        assert_eq!(self_times_ns(&spans), vec![40, 25, 30, 5, 30]);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let id = t.begin("x", NO_SPAN, 0);
        t.end(id);
        assert_eq!(id, NO_SPAN);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let (mut a, mut b) = (Tracer::new(epoch), Tracer::new(epoch));
        a.set_on(true);
        b.set_on(true);
        let root = a.begin("op", NO_SPAN, 0);
        a.end(root);
        let root = b.begin("op", NO_SPAN, 1);
        let kid = b.begin("kid", root, 1);
        b.end(kid);
        b.end(root);
        a.absorb(b);
        let parents: Vec<SpanId> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_SPAN, NO_SPAN, 1]);
    }

    #[test]
    fn per_round_sums_group_by_round() {
        let spans = vec![
            span("p", 0, 5, NO_SPAN, 0),
            span("p", 5, 7, NO_SPAN, 1),
            span("q", 7, 9, NO_SPAN, 1),
            span("p", 9, 12, NO_SPAN, 4),
        ];
        assert_eq!(per_round_ns(&spans, "p", 2), vec![7.0, 3.0]);
        assert_eq!(durations_ns(&spans, "q"), vec![2.0]);
    }
}
