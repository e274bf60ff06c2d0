//! Structured span/event tracer with Chrome/Perfetto trace-event export.
//!
//! Events carry *simulated cycles* (or, for campaign jobs, a logical
//! clock derived from submission order) as timestamps. The JSON emitted
//! by [`TraceLog::to_json`] therefore depends only on the simulated
//! execution, never on wall time, host, or worker count — running the
//! same workload twice produces identical bytes, which is what lets
//! `scripts/verify.sh` gate on `cmp`.
//!
//! The export is the Chrome trace-event format Perfetto ingests
//! directly: `{"traceEvents":[...]}` with `ph:"X"` complete spans,
//! `ph:"i"` instants and `ph:"C"` counter samples.

use crate::json::write_str;
use std::fmt::Write as _;

/// A value attached to an event's `args` map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// An integer argument (rendered bare).
    Int(i64),
    /// A string argument (rendered JSON-escaped).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::Int(v as i64)
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> ArgValue {
        ArgValue::Int(v)
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}

/// One trace event in Chrome trace-event terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (span or instant label).
    pub name: String,
    /// Category string (`cat` field) used for filtering in the UI.
    pub cat: &'static str,
    /// Phase: `"X"` complete span, `"i"` instant, `"C"` counter.
    pub ph: &'static str,
    /// Timestamp in simulated cycles (trace-event `ts`, microsecond
    /// units as far as the viewer cares — we treat 1 cycle = 1 us).
    pub ts: u64,
    /// Duration in simulated cycles (`X` events only).
    pub dur: Option<u64>,
    /// Process id lane.
    pub pid: u64,
    /// Thread id lane (e.g. pipeline stage or logical worker).
    pub tid: u64,
    /// Ordered key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// An append-only event log.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events, in append order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Records an instant event (`ph:"i"`).
    pub fn instant(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        ts: u64,
        pid: u64,
        tid: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.events.push(TraceEvent { name: name.into(), cat, ph: "i", ts, dur: None, pid, tid, args });
    }

    /// Records a complete span (`ph:"X"`) covering `[ts, ts + dur)`.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        ts: u64,
        dur: u64,
        pid: u64,
        tid: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.events.push(TraceEvent { name: name.into(), cat, ph: "X", ts, dur: Some(dur), pid, tid, args });
    }

    /// Records a counter sample (`ph:"C"`); each arg becomes one track.
    pub fn counter(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        ts: u64,
        pid: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.events.push(TraceEvent { name: name.into(), cat, ph: "C", ts, dur: None, pid, tid: 0, args });
    }

    /// Serializes the log as Chrome trace-event JSON
    /// (`{"traceEvents":[...]}`); byte-deterministic for a given event
    /// sequence.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":");
            write_str(&mut out, &e.name);
            let _ = write!(out, ",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{}", e.cat, e.ph, e.ts);
            if let Some(dur) = e.dur {
                let _ = write!(out, ",\"dur\":{dur}");
            }
            let _ = write!(out, ",\"pid\":{},\"tid\":{}", e.pid, e.tid);
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in e.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{k}\":");
                    match v {
                        ArgValue::Int(n) => {
                            let _ = write!(out, "{n}");
                        }
                        ArgValue::Str(s) => write_str(&mut out, s),
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_covers_all_phases() {
        let mut t = TraceLog::default();
        t.instant("fault", "harden", 42, 0, 1, vec![("kind", "bq_pop".into())]);
        t.span("execute", "exec", 100, 250, 1, 3, vec![("fp", ArgValue::Int(7))]);
        t.counter("occupancy", "pipe", 200, 0, vec![("bq", 4u64.into()), ("tq", 1u64.into())]);
        let j = t.to_json();
        assert!(j.starts_with("{\"traceEvents\":["), "{j}");
        assert!(j.contains("\"ph\":\"i\""), "{j}");
        assert!(j.contains("\"ph\":\"X\""), "{j}");
        assert!(j.contains("\"ph\":\"C\""), "{j}");
        assert!(j.contains("\"dur\":250"), "{j}");
        assert!(j.contains("\"kind\":\"bq_pop\""), "{j}");
        assert!(j.contains("\"bq\":4"), "{j}");
        assert!(j.trim_end().ends_with("]}"), "{j}");
    }

    #[test]
    fn json_is_deterministic() {
        let build = || {
            let mut t = TraceLog::default();
            t.span("a", "x", 1, 2, 0, 0, vec![("n", 9u64.into())]);
            t.instant("b", "x", 3, 0, 0, vec![]);
            t.to_json()
        };
        assert_eq!(build(), build());
    }
}
