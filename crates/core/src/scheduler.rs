//! Issue/execute stage: event-driven wakeup, FU arbitration, and the
//! completion wheel.
//!
//! The scheduler never polls the IQ. Dispatch registers each backend
//! instruction via [`Pipeline::register_or_ready`]: instructions with all
//! sources computed go straight to `ready_list` (a sorted `Vec` of ROB
//! ordinals, so iteration is oldest-first); the rest park either on a
//! physical register's waiter list (value not computed yet) or on the
//! `wakeup_wheel` bucket of the cycle the value arrives. Producer writes go
//! through [`Pipeline::prf_write`], which drains waiter lists in place into
//! the wheel, and `issue` drains due wheel buckets before selecting.
//!
//! Both wheels are [`Wheel`](crate::wheel::Wheel)s: a ring of reusable
//! buckets indexed by `cycle & mask` over a fixed horizon, an ordered
//! overflow past it, and a drained-up-to cursor so an entry pushed for a
//! cycle already drained comes out at the next drain. With the ready list
//! walked in place and one scratch buffer reused for drained wakeups,
//! re-registrations and completions, the per-cycle path allocates nothing.
//!
//! Timing is identical to a per-cycle polling scheduler by construction:
//! `issue` re-validates the full polling predicate (liveness + source
//! readiness) on every candidate it examines, so a stale ordinal — squashed,
//! reused after recovery, or re-blocked because fault injection pointed it
//! at a recycled register — is dropped or re-registered, never issued early.
//! Completion replaces the `exec_list` rescan with `completion_wheel`
//! buckets keyed by each instruction's `ready_at`.

use crate::fault::{FaultKind, FaultSite};
use crate::kernel::SchedWork;
use crate::lsq::ForwardState;
use crate::pipeline::{extract, Pipeline};
use crate::rename::join_taint;
use crate::wheel::Walk;
use cfd_isa::{eval_alu, Instr, Src2};

/// Function-unit class an instruction competes for at issue (the paper's
/// Sandy-Bridge-class port model). One classification used for both the
/// availability check and the port-count bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FuClass {
    /// Simple ALU ops (including CFD queue pushes/pops executed as ALU ops).
    Simple,
    /// Complex ALU ops (mul/div class).
    Complex,
    /// Load ports (loads and non-binding prefetches).
    Load,
    /// Store (address-generation) ports.
    Store,
    /// Branch-resolution units.
    Branch,
    /// Not port-limited (never reaches the IQ in practice).
    Unbounded,
}

impl FuClass {
    /// Index into the per-cycle port-usage table (`None` = unlimited).
    fn slot(self) -> Option<usize> {
        match self {
            FuClass::Simple => Some(0),
            FuClass::Complex => Some(1),
            FuClass::Load => Some(2),
            FuClass::Store => Some(3),
            FuClass::Branch => Some(4),
            FuClass::Unbounded => None,
        }
    }
}

/// The single FU-classification map (availability check and port bump both
/// go through this).
pub(crate) fn fu_class(instr: &Instr) -> FuClass {
    match instr {
        Instr::Alu { op, .. } if op.is_complex() => FuClass::Complex,
        Instr::Alu { .. }
        | Instr::Li { .. }
        | Instr::PushBq { .. }
        | Instr::PushVq { .. }
        | Instr::PopVq { .. }
        | Instr::PushTq { .. } => FuClass::Simple,
        Instr::Load { .. } | Instr::Prefetch { .. } => FuClass::Load,
        Instr::Store { .. } => FuClass::Store,
        Instr::Branch { .. } | Instr::Jr { .. } => FuClass::Branch,
        _ => FuClass::Unbounded,
    }
}

impl Pipeline {
    // ------------------------------------------------------------------
    // Wakeup
    // ------------------------------------------------------------------

    /// Places a dispatched backend instruction under scheduler tracking:
    /// into `ready_list` when every source is computed, otherwise parked on
    /// its first blocking source (waiter list when the value has no
    /// completion time yet, wakeup wheel when it does). The readiness
    /// predicate is exactly the polling scheduler's: stores wait on address
    /// readiness alone.
    pub(crate) fn register_or_ready(&mut self, rob_seq: u64) {
        let Some(i) = self.win.rob_idx(rob_seq) else { return };
        let (psrc1, psrc2, is_store, live) = {
            let e = &self.win[i];
            let is_store = matches!(e.instr, Instr::Store { .. });
            (e.psrc1, e.psrc2, is_store, e.dispatched && !e.issued && e.in_iq)
        };
        if !live {
            return;
        }
        let now = self.now;
        let srcs = [psrc1, if is_store { None } else { psrc2 }];
        for p in srcs.into_iter().flatten() {
            if !self.rename.is_ready(p, now) {
                let at = self.rename.ready_at(p);
                if at == u64::MAX {
                    self.rename.add_waiter(p, rob_seq);
                } else {
                    self.wakeup_wheel.push(at, rob_seq);
                }
                return;
            }
        }
        self.ready_list.insert(rob_seq);
    }

    /// Moves every wakeup event due by now into the ready queue; returns
    /// how many it moved. Re-parking only ever schedules a later cycle, so
    /// one drain sees every due event.
    fn drain_wakeups(&mut self) -> u64 {
        let mut due = std::mem::take(&mut self.sched_scratch);
        self.wakeup_wheel.drain_due(self.now, &mut due);
        for &rob_seq in &due {
            self.register_or_ready(rob_seq);
        }
        let drained = due.len() as u64;
        due.clear();
        self.sched_scratch = due;
        drained
    }

    // ------------------------------------------------------------------
    // Issue (select)
    // ------------------------------------------------------------------

    /// Selects and executes this cycle's instructions; returns the work
    /// it took (host-side observability only, never fed back into timing).
    pub(crate) fn issue(&mut self) -> SchedWork {
        let wakeup_events = self.drain_wakeups();
        // What a polling scheduler would have scanned this cycle.
        let mut work = SchedWork { ready_checks: 0, wakeup_events, poll_equiv: self.iq_count as u64 };
        let mut issued = 0usize;
        let mut in_use = [0usize; 5];
        let limits = [
            self.cfg.n_alu,
            self.cfg.n_complex,
            self.cfg.n_load_ports,
            self.cfg.n_store_ports,
            self.cfg.n_branch_units,
        ];
        let now = self.now;

        // Oldest-first select, walking the ready queue in place. Nothing in
        // the walk touches the queue (issue never triggers recovery), so it
        // is taken out for the walk and put back; re-blocked candidates
        // collect in the scratch buffer and re-register afterwards.
        let mut ready = std::mem::take(&mut self.ready_list);
        ready.walk(|seq| {
            if issued >= self.cfg.issue_width {
                return Walk::Stop;
            }
            work.ready_checks += 1;
            // Liveness: recovery truncates `ready_list`, but a
            // truncated-then-reused ordinal or a lazily-dropped wheel entry
            // can still surface here. The checks below make such entries
            // inert.
            let Some(i) = self.win.rob_idx(seq) else { return Walk::Remove };
            let e = &self.win[i];
            if !(e.dispatched && !e.issued && e.in_iq) {
                return Walk::Remove;
            }
            debug_assert!(e.needs_backend());
            // Source readiness, re-validated with the polling predicate:
            // a register can become un-ready after this entry was enqueued
            // (fault injection can point an operand at a register that a
            // younger instruction re-allocates). Stores issue on address
            // readiness alone (split agen/data, like a real LSQ): the data
            // may arrive later and is checked at forwarding/retire time.
            let instr = e.instr;
            let is_store = matches!(instr, Instr::Store { .. });
            let ready = e.psrc1.is_none_or(|p| self.rename.is_ready(p, now))
                && (is_store || e.psrc2.is_none_or(|p| self.rename.is_ready(p, now)));
            if !ready {
                self.sched_scratch.push(seq);
                return Walk::Remove;
            }
            // FU availability.
            let class = fu_class(&instr);
            if class.slot().is_some_and(|k| in_use[k] >= limits[k]) {
                return Walk::Keep; // stays in the ready queue for next cycle
            }
            // Loads: conservative disambiguation (all older stores have
            // computed addresses; exact-match forwarding; partial overlap
            // waits for the store to drain). The one store-list scan also
            // decides forwarding at execute.
            let forward = match instr {
                Instr::Load { .. } => match self.load_may_issue(i) {
                    ForwardState::MustWait => return Walk::Keep,
                    f => f,
                },
                _ => ForwardState::Memory,
            };

            // Issue.
            if let Some(k) = class.slot() {
                in_use[k] += 1;
            }
            if !self.execute_at(i, forward) {
                // Transient structural refusal (e.g. MSHRs full): retry.
                if let Some(k) = class.slot() {
                    in_use[k] -= 1;
                }
                return Walk::Keep;
            }
            issued += 1;
            self.stats.issued += 1;
            let ready_at = self.win[i].ready_at;
            self.completion_wheel.push(ready_at, seq);
            if self.win[i].on_wrong_path {
                self.stats.wrong_path_issued += 1;
            }
            self.events.iq_wakeups += 1;
            if self.win[i].in_iq {
                self.win[i].in_iq = false;
                self.iq_count -= 1;
            }
            Walk::Remove
        });
        self.ready_list = ready;
        let mut blocked = std::mem::take(&mut self.sched_scratch);
        for &seq in &blocked {
            self.register_or_ready(seq);
        }
        blocked.clear();
        self.sched_scratch = blocked;
        work
    }

    /// Computes the instruction at ROB index `i` and schedules its
    /// completion; a load takes the forwarding decision `forward` that
    /// [`Pipeline::load_may_issue`] made. Returns false when a structural
    /// resource (MSHR) refused it this cycle.
    fn execute_at(&mut self, i: usize, forward: ForwardState) -> bool {
        let now = self.now;
        let (instr, pc, psrc1, psrc2) = {
            let e = &self.win[i];
            (e.instr, e.pc, e.psrc1, e.psrc2)
        };
        let v1 = psrc1.map(|p| self.rename.read(p)).unwrap_or(0);
        let v2 = psrc2.map(|p| self.rename.read(p)).unwrap_or(0);
        let t1 = psrc1.and_then(|p| self.rename.taint(p));
        let t2 = psrc2.and_then(|p| self.rename.taint(p));
        let in_taint = join_taint(t1, t2);
        self.events.regfile_reads += psrc1.is_some() as u64 + psrc2.is_some() as u64;

        let mut value = 0i64;
        let mut out_taint = in_taint;
        let latency: u64;
        match instr {
            Instr::Alu { op, src2, .. } => {
                let b = match src2 {
                    Src2::Reg(_) => v2,
                    Src2::Imm(imm) => imm,
                };
                value = eval_alu(op, v1, b);
                latency = if op.is_complex() {
                    self.events.alu_complex += 1;
                    if matches!(op, cfd_isa::AluOp::Div | cfd_isa::AluOp::Rem) {
                        20
                    } else {
                        3
                    }
                } else {
                    self.events.alu_simple += 1;
                    1
                };
            }
            Instr::Li { imm, .. } => {
                value = imm;
                out_taint = None;
                latency = 1;
                self.events.alu_simple += 1;
            }
            Instr::Load { offset, width, signed, .. } => {
                let addr = (v1 as u64).wrapping_add(offset as u64);
                self.events.lsq_ops += 1;
                // Store-to-load forwarding.
                match forward {
                    ForwardState::Forward { data, taint } => {
                        self.stats.lsq_forwards += 1;
                        value = extract(data, width, signed);
                        // The forwarded value carries the store data's taint.
                        out_taint = join_taint(in_taint, taint);
                        latency = 2;
                    }
                    ForwardState::Memory => {
                        let res = self.hier.access(pc as u64 * 4, addr, false, now);
                        if res.mshr_full {
                            return false;
                        }
                        value = self.oracle.mem.read(addr, width, signed);
                        out_taint = join_taint(in_taint, Some(res.level));
                        // Fault injection: a delayed memory response is a
                        // timing-only perturbation and must be masked.
                        let extra = match self.fault_at(FaultSite::LoadAccess) {
                            Some(FaultKind::MemDelay(n)) => n,
                            _ => 0,
                        };
                        latency = res.latency as u64 + extra;
                    }
                    ForwardState::MustWait => unreachable!("checked by load_may_issue"),
                }
                self.win[i].eff_addr = Some(addr);
            }
            Instr::Prefetch { offset, .. } => {
                let addr = (v1 as u64).wrapping_add(offset as u64);
                let res = self.hier.access(pc as u64 * 4, addr, false, now);
                if res.mshr_full {
                    return false;
                }
                self.win[i].eff_addr = Some(addr);
                latency = 1; // non-binding: completes immediately
                self.events.lsq_ops += 1;
            }
            Instr::Store { offset, .. } => {
                // Address generation only; data is read from the PRF when a
                // load forwards from this store (or implicitly at retire via
                // the oracle).
                let addr = (v1 as u64).wrapping_add(offset as u64);
                self.win[i].eff_addr = Some(addr);
                latency = 1;
                self.events.lsq_ops += 1;
            }
            Instr::Branch { .. } | Instr::Jr { .. } => {
                latency = 1;
                self.events.alu_simple += 1;
            }
            Instr::PushBq { .. } | Instr::PushTq { .. } => {
                latency = 1;
                self.events.alu_simple += 1;
            }
            Instr::PushVq { .. } => {
                value = v1;
                latency = 1;
                self.events.alu_simple += 1;
                self.events.vq_ops += 1;
            }
            Instr::PopVq { .. } => {
                value = v1;
                latency = 1;
                self.events.alu_simple += 1;
                self.events.vq_ops += 1;
            }
            _ => unreachable!("execute_at on a fetch-resolved instruction"),
        }

        let pdest = {
            let e = &mut self.win[i];
            e.issued = true;
            e.t_issue = now;
            e.ready_at = now + latency;
            e.taint = out_taint;
            e.pdest
        };
        if let Some(p) = pdest {
            // The waiter-draining write: consumers parked on `p` move to
            // the wakeup wheel at `ready_at`.
            self.prf_write(p, value, now + latency, out_taint);
            self.events.regfile_writes += 1;
        }
        true
    }

    // ------------------------------------------------------------------
    // Complete (writeback / resolve)
    // ------------------------------------------------------------------

    pub(crate) fn complete(&mut self) {
        // Drain every completion bucket due by now, oldest-first (recovery
        // squashes younger ones). A bucket entry is only a *hint*: the
        // liveness check below drops ordinals that were squashed (and
        // possibly reused) after their instruction issued.
        let mut due = std::mem::take(&mut self.sched_scratch);
        self.completion_wheel.drain_due(self.now, &mut due);
        due.sort_unstable();
        for k in 0..due.len() {
            let seq = due[k];
            let Some(i) = self.win.rob_idx(seq) else { continue };
            if !(self.win[i].issued && !self.win[i].done && self.win[i].ready_at <= self.now) {
                continue;
            }
            self.win[i].done = true;
            self.win[i].t_complete = self.now;
            let instr = self.win[i].instr;
            let truncated = match instr {
                Instr::Branch { .. } | Instr::Jr { .. } => self.resolve_branch(i),
                Instr::PushBq { .. } => self.execute_push_bq(i),
                Instr::PushTq { .. } => {
                    let abs = self.win[i].tq_abs.expect("tq push has index");
                    let src = self.win[i].psrc1.expect("tq push has source");
                    let mut v = self.rename.read(src);
                    // Fault injection at the TQ write port: an off-by-one
                    // trip count makes `Branch_on_TCR` run the loop a wrong
                    // number of times (oracle mismatch at retire).
                    if self.fault_at(FaultSite::TqExecutePush) == Some(FaultKind::TqCorrupt) {
                        v = v.wrapping_add(1);
                    }
                    self.tq.execute_push(abs, v);
                    self.events.tq_ops += 1;
                    false
                }
                _ => false,
            };
            if truncated {
                // Immediate recovery truncated the ROB: older survivors
                // (e.g. instructions between a late push and its speculative
                // pop) must be re-examined next cycle, exactly as the old
                // exec_list kept unprocessed entries. Squashed ordinals in
                // the requeued tail are dropped by the liveness check then.
                self.completion_wheel.extend(self.now + 1, due[k + 1..].iter().copied());
                break;
            }
        }
        due.clear();
        self.sched_scratch = due;
    }
}
