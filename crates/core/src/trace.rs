//! Two observers of the kernel's event stream: per-instruction pipeline
//! tracing (pipeview) and the post-mortem snapshot ring.
//!
//! [`PipeTrace`] keeps each instruction's stage timestamps — fetch,
//! dispatch, issue, completion, retirement (or squash) — from the
//! [`KernelEvent::Retire`]/[`KernelEvent::Squash`] events, and renders
//! them as a classic pipeline diagram. Invaluable for seeing the CFD
//! mechanism at work: `Branch_on_BQ` pops complete at dispatch (they
//! resolved at fetch), while baseline branches crawl through the backend.
//!
//! [`SnapRing`] is the complementary whole-pipeline view: a fixed-size
//! ring of the per-cycle occupancy snapshots ([`CycleSnap`]), dumped when
//! a run dies (deadlock watchdog, oracle mismatch) so the last moments
//! before the failure are visible without re-running under a tracer.

use crate::kernel::{KernelEvent, Observer};
use cfd_isa::Instr;
use cfd_mem::CacheStats;
use cfd_obs::CPI_COMPONENTS;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Stage timestamps for one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeEvent {
    /// Fetch sequence number.
    pub seq: u64,
    /// PC.
    pub pc: u32,
    /// The instruction.
    pub instr: Instr,
    /// Fetch cycle.
    pub fetch: u64,
    /// Dispatch (rename) cycle.
    pub dispatch: Option<u64>,
    /// Issue cycle (backend instructions only).
    pub issue: Option<u64>,
    /// Completion cycle.
    pub complete: Option<u64>,
    /// Retirement cycle; `None` when squashed on the wrong path.
    pub retire: Option<u64>,
}

/// A bounded pipeline trace: an [`Observer`] keeping the first `limit`
/// instructions to retire or be squashed.
#[derive(Debug, Clone)]
pub struct PipeTrace {
    events: Vec<PipeEvent>,
    limit: usize,
}

impl PipeTrace {
    /// Creates a trace that keeps the first `limit` instructions.
    pub fn new(limit: usize) -> PipeTrace {
        PipeTrace { events: Vec::with_capacity(limit.min(4096)), limit }
    }

    /// Whether the trace still accepts events.
    pub fn accepting(&self) -> bool {
        self.events.len() < self.limit
    }

    /// Records an instruction's lifetime.
    pub fn record(&mut self, ev: PipeEvent) {
        if self.accepting() {
            self.events.push(ev);
        }
    }

    /// The recorded events, in fetch order.
    pub fn events(&self) -> &[PipeEvent] {
        &self.events
    }

    /// Renders a pipeline diagram: one row per instruction, one column per
    /// cycle (`F` fetch, `d` in front pipe, `D` dispatch, `w` waiting in
    /// the IQ, `I` issue, `e` executing, `C` complete, `.` waiting to
    /// retire, `R` retire, `x` squashed).
    pub fn render(&self) -> String {
        let Some(first) = self.events.first() else {
            return "(empty trace)\n".to_string();
        };
        let t0 = first.fetch;
        let t_end =
            self.events.iter().map(|e| e.retire.or(e.complete).or(e.dispatch).unwrap_or(e.fetch)).max().unwrap_or(t0)
                + 2; // room for retire plus a squash marker
        let width = ((t_end - t0) as usize).min(160);
        let mut out = String::new();
        let _ = writeln!(out, "cycles {t0}..{}  (one column per cycle)", t0 + width as u64);
        // Events are recorded at retire/squash time; show them in fetch order.
        let mut ordered: Vec<&PipeEvent> = self.events.iter().collect();
        ordered.sort_by_key(|e| (e.fetch, e.seq));
        for e in ordered {
            let mut row = vec![b' '; width];
            let col = |t: u64| -> Option<usize> {
                let c = t.checked_sub(t0)? as usize;
                (c < width).then_some(c)
            };
            let span = |row: &mut [u8], from: u64, to: u64, ch: u8| {
                for t in from..to {
                    if let Some(c) = col(t) {
                        if row[c] == b' ' {
                            row[c] = ch;
                        }
                    }
                }
            };
            if let Some(c) = col(e.fetch) {
                row[c] = b'F';
            }
            if let Some(d) = e.dispatch {
                span(&mut row, e.fetch + 1, d, b'd');
                if let Some(c) = col(d) {
                    row[c] = b'D';
                }
                if let Some(i) = e.issue {
                    span(&mut row, d + 1, i, b'w');
                    if let Some(c) = col(i) {
                        row[c] = b'I';
                    }
                    if let Some(done) = e.complete {
                        span(&mut row, i + 1, done, b'e');
                        if let Some(c) = col(done) {
                            row[c] = b'C';
                        }
                    }
                }
                if let Some(r) = e.retire {
                    let after = e.complete.or(e.issue).unwrap_or(d);
                    span(&mut row, after + 1, r, b'.');
                    if let Some(c) = col(r) {
                        row[c] = b'R';
                    }
                }
            }
            if e.retire.is_none() {
                // Mark the tail of a squashed instruction's row.
                if let Some(last) = row.iter().rposition(|&b| b != b' ') {
                    if last + 1 < width {
                        row[last + 1] = b'x';
                    }
                }
            }
            let _ = writeln!(
                out,
                "{:5} {:4} {:28} |{}|",
                e.seq,
                e.pc,
                truncate(&e.instr.to_string(), 28),
                String::from_utf8_lossy(&row)
            );
        }
        out
    }
}

impl Observer for PipeTrace {
    const STAGE_EVENTS: bool = true;

    fn observe(&mut self, ev: &KernelEvent) {
        if let KernelEvent::Retire { inst, .. } | KernelEvent::Squash(inst) = ev {
            self.record(*inst);
        }
    }
}

/// One cycle's pipeline occupancy snapshot ([`KernelEvent::Cycle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleSnap {
    /// Cycle number.
    pub cycle: u64,
    /// Next fetch PC.
    pub fetch_pc: u32,
    /// Instructions retired so far.
    pub retired: u64,
    /// Instructions fetched so far.
    pub fetched: u64,
    /// Mispredictions so far.
    pub mispredictions: u64,
    /// Conditional branches retired so far.
    pub retired_branches: u64,
    /// ROB occupancy.
    pub rob: usize,
    /// Issue-queue occupancy.
    pub iq: usize,
    /// Load/store-queue occupancy.
    pub lsq: usize,
    /// Front-pipe (fetched, not yet dispatched) occupancy.
    pub front_q: usize,
    /// Fetch-resident BQ occupancy.
    pub bq_len: u64,
    /// Rename-stage VQ occupancy.
    pub vq_len: u64,
    /// Fetch-resident TQ occupancy.
    pub tq_len: u64,
    /// Current TCR value.
    pub tcr: u32,
    /// Free physical registers.
    pub free_regs: usize,
    /// Free checkpoints.
    pub ckpt_free: usize,
    /// (L1D, L2, L3) cache statistics so far.
    pub caches: (CacheStats, CacheStats, CacheStats),
    /// CPI-stack retire slots so far, one per [`CpiComponent`](crate::CpiComponent).
    pub cpi_slots: [u64; CPI_COMPONENTS],
}

/// Cycles a [`SnapRing`] keeps.
pub const SNAP_RING_DEPTH: usize = 32;

/// A ring of the last [`SNAP_RING_DEPTH`] per-cycle pipeline snapshots:
/// an [`Observer`] whose contents, on a failure, are the post-mortem dump
/// (see [`Core::run_diag`](crate::Core::run_diag)).
#[derive(Debug, Clone, Default)]
pub struct SnapRing {
    buf: VecDeque<CycleSnap>,
}

impl SnapRing {
    /// Appends a snapshot, evicting the oldest when full.
    pub fn push(&mut self, snap: CycleSnap) {
        if self.buf.len() == SNAP_RING_DEPTH {
            self.buf.pop_front();
        }
        self.buf.push_back(snap);
    }

    /// The retained snapshots, oldest first.
    pub fn snaps(&self) -> impl Iterator<Item = &CycleSnap> {
        self.buf.iter()
    }

    /// Renders the ring as a fixed-width table, oldest cycle first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>10} {:>8} {:>10} {:>5} {:>4} {:>4} {:>7} {:>5} {:>5} {:>6} {:>5} {:>5}",
            "cycle", "fetch_pc", "retired", "rob", "iq", "lsq", "front_q", "bq", "tq", "tcr", "pregs", "ckpt"
        );
        for s in &self.buf {
            let _ = writeln!(
                out,
                "{:>10} {:>8} {:>10} {:>5} {:>4} {:>4} {:>7} {:>5} {:>5} {:>6} {:>5} {:>5}",
                s.cycle,
                s.fetch_pc,
                s.retired,
                s.rob,
                s.iq,
                s.lsq,
                s.front_q,
                s.bq_len,
                s.tq_len,
                s.tcr,
                s.free_regs,
                s.ckpt_free
            );
        }
        if self.buf.is_empty() {
            out.push_str("(no snapshots)\n");
        }
        out
    }
}

impl Observer for SnapRing {
    const CYCLES: bool = true;

    fn observe(&mut self, ev: &KernelEvent) {
        if let KernelEvent::Cycle(snap) = ev {
            self.push(*snap);
        }
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        format!("{s:n$}")
    } else {
        format!("{}…", &s[..n - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, fetch: u64) -> PipeEvent {
        PipeEvent {
            seq,
            pc: seq as u32,
            instr: Instr::Nop,
            fetch,
            dispatch: Some(fetch + 8),
            issue: Some(fetch + 9),
            complete: Some(fetch + 10),
            retire: Some(fetch + 12),
        }
    }

    #[test]
    fn bounded_capacity() {
        let mut t = PipeTrace::new(2);
        t.record(ev(0, 0));
        t.record(ev(1, 1));
        assert!(!t.accepting());
        t.record(ev(2, 2));
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn render_marks_stages() {
        let mut t = PipeTrace::new(4);
        t.record(ev(0, 0));
        let s = t.render();
        assert!(s.contains('F'));
        assert!(s.contains('D'));
        assert!(s.contains('I'));
        assert!(s.contains('C'));
        assert!(s.contains('R'));
    }

    #[test]
    fn squashed_instruction_marked() {
        let mut t = PipeTrace::new(4);
        let mut e = ev(0, 0);
        e.retire = None;
        t.record(e);
        assert!(t.render().contains('x'));
    }

    #[test]
    fn empty_trace_renders() {
        assert!(PipeTrace::new(4).render().contains("empty"));
    }

    fn snap(cycle: u64) -> CycleSnap {
        CycleSnap {
            cycle,
            fetch_pc: 7,
            retired: cycle * 2,
            fetched: cycle * 3,
            mispredictions: 0,
            retired_branches: cycle / 2,
            rob: 10,
            iq: 3,
            lsq: 2,
            front_q: 4,
            bq_len: 1,
            vq_len: 0,
            tq_len: 0,
            tcr: 0,
            free_regs: 100,
            ckpt_free: 8,
            caches: Default::default(),
            cpi_slots: [0; CPI_COMPONENTS],
        }
    }

    #[test]
    fn snap_ring_keeps_last_depth() {
        let mut r = SnapRing::default();
        assert!(r.render().contains("no snapshots"));
        for c in 0..100 {
            r.push(snap(c));
        }
        let cycles: Vec<u64> = r.snaps().map(|s| s.cycle).collect();
        assert_eq!(cycles, (100 - SNAP_RING_DEPTH as u64..100).collect::<Vec<_>>());
        let table = r.render();
        assert!(table.contains("fetch_pc"));
        assert!(table.contains("99"));
    }
}
