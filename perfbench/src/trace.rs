//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a
//! simulator crate: its name, start and end in nanoseconds since the
//! recorder was created, and the span that encloses it. Spans stay in
//! memory and are written out once, when the run ends. A disabled
//! recorder only runs the closure, so untraced passes pay one branch per
//! call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.run`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by direct child spans.
    pub self_ns: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder, recording only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Turns recording on or off; only between top-level spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "recording toggled inside a span");
        self.enabled = enabled;
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.ns_since_origin(Instant::now());
        self.spans.push(Span { name, parent: self.open.last().copied(), start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns_since_origin(Instant::now()).max(start_ns);
        out
    }

    /// Records a span measured elsewhere (e.g. on an engine worker
    /// thread) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let start_ns = self.ns_since_origin(start);
        let end_ns = self.ns_since_origin(end).max(start_ns);
        self.spans.push(Span { name, parent: self.open.last().copied(), start_ns, end_ns });
    }

    /// The recorded spans, in start order of their opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.ns();
            t.self_ns += s.ns().saturating_sub(children);
        }
        out
    }

    /// Totals for one span name (zero when none was recorded).
    pub fn total(&self, name: &str) -> SpanTotals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// The spans and their per-name totals as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("],\"totals\":{");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("a", |_| 7), 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            tr.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let t = tr.totals();
        assert_eq!(t["outer"].count, 1);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(t["outer"].total_ns >= t["inner"].total_ns);
        assert_eq!(t["outer"].self_ns, t["outer"].total_ns - t["inner"].total_ns);
        assert!(tr.to_json().contains("\"name\":\"inner\",\"parent\":0"));
    }
}
