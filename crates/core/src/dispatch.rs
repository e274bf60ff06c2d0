//! Dispatch stage: decode/rename and ROB/IQ/LSQ allocation.
//!
//! Takes the front-pipe head once the front-pipe delay elapses, renames
//! its sources and destination in its window slot through
//! [`RenameState`](crate::rename::RenameState) and the VQ renamer, moves
//! it into the ROB by bumping the window's cursor (its slot ordinal is
//! its ROB ordinal), and hands backend instructions to the scheduler by
//! registering them for event-driven wakeup
//! ([`Pipeline::register_or_ready`]). Fetch-resolved instructions
//! complete here. Also re-verifies speculative BQ pops whose push executed
//! while they sat in the front pipe.

use crate::fault::{FaultKind, FaultSite};
use crate::pipeline::{taint_from_index, Pipeline};
use crate::rename::PhysReg;
use cfd_isa::Instr;

impl Pipeline {
    pub(crate) fn dispatch(&mut self) {
        for _ in 0..self.cfg.width {
            let Some(front) = self.win.front_head() else { return };
            if front.dispatch_at > self.now {
                return;
            }
            if self.win.rob_len() >= self.cfg.rob_size {
                return;
            }
            let needs_backend = front.needs_backend();
            if needs_backend && self.iq_count >= self.cfg.iq_size {
                return;
            }
            let is_mem = front.is_mem_op();
            if is_mem && self.lsq_count >= self.cfg.lsq_size {
                return;
            }
            let instr = front.instr;
            // VQ renamer hazards.
            match instr {
                Instr::PushVq { .. } if self.vq.push_would_stall() => return,
                Instr::PopVq { .. } if self.vq.pop_would_underflow() => return,
                _ => {}
            }
            // Register renaming: guarantee a free physical register up
            // front so no rename below can fail after mutating queue state.
            if self.rename.free_regs() < 1 {
                return;
            }
            let (s1, s2) = instr.sources();
            let mut psrc1 = s1.map(|r| self.rename.map(r));
            let psrc2 = s2.map(|r| self.rename.map(r));
            let (mut pdest, mut prev_phys, mut vq_free) = (None, None, None);
            match instr {
                Instr::PushVq { .. } => {
                    let Some(p) = self.rename.alloc_phys() else { return };
                    pdest = Some(p);
                    self.vq.rename_push(p);
                    self.events.vq_ops += 1;
                }
                Instr::PopVq { .. } => {
                    // Source comes from the VQ renamer head (the push's
                    // physical register); the destination renames normally.
                    // `pop_vq r0` is ISA-legal (consume and discard): it
                    // still pops the mapping but writes no register.
                    let mut vq_src = self.vq.rename_pop();
                    vq_free = Some(vq_src);
                    // Fault injection at the VQ rename map: the pop latches
                    // a different physical register than its push wrote.
                    // The wrong value either reaches control flow (oracle
                    // mismatch), wedges on a never-ready register
                    // (watchdog), or is overwritten downstream (masked —
                    // committed memory comes from the retire oracle). The
                    // free at retirement uses the true mapping (`vq_free`)
                    // either way.
                    if self.fault_at(FaultSite::VqRenamePop) == Some(FaultKind::VqRemapCorrupt) {
                        vq_src = (vq_src ^ 1) % self.cfg.prf_size as PhysReg;
                    }
                    psrc1 = Some(vq_src);
                    self.events.vq_ops += 1;
                    if let Some(rd) = instr.dest() {
                        let Some((p, prev)) = self.rename.rename_dest(rd) else { return };
                        pdest = Some(p);
                        prev_phys = Some(prev);
                    }
                }
                _ => {
                    if let Some(rd) = instr.dest() {
                        let Some((p, prev)) = self.rename.rename_dest(rd) else { return };
                        pdest = Some(p);
                        prev_phys = Some(prev);
                    }
                }
            }
            // Rename in place: the instruction keeps its slot, and its
            // ordinal becomes a ROB ordinal.
            let rob_seq = self.win.dispatch();
            let now = self.now;
            let e = self.win.at_mut(rob_seq);
            e.psrc1 = psrc1;
            e.psrc2 = psrc2;
            e.pdest = pdest;
            e.prev_phys = prev_phys;
            e.vq_free = vq_free;
            e.dispatched = true;
            e.t_dispatch = now;
            e.in_iq = needs_backend;
            e.in_lsq = is_mem;
            if !needs_backend {
                // Fetch-resolved instructions complete at dispatch.
                e.done = true;
                e.ready_at = now;
                e.t_complete = now;
            }
            let link = (e.pc + 1) as i64;
            let spec_pop_unverified = e.spec_pop && !e.verified;
            self.events.decoded += 1;
            self.events.renamed += 1;
            if needs_backend {
                self.iq_count += 1;
                self.events.iq_writes += 1;
            } else if let (Instr::Jal { .. }, Some(p)) = (instr, pdest) {
                // Link value is known statically.
                self.prf_write(p, link, now, None);
                self.events.regfile_writes += 1;
            }
            if is_mem {
                self.lsq_count += 1;
                if matches!(instr, Instr::Store { .. }) {
                    self.store_list.push_back(rob_seq);
                }
            }
            self.events.rob_ops += 1;
            if needs_backend {
                // Hand the instruction to the scheduler: straight to the
                // ready queue, or parked on its first blocking source.
                self.register_or_ready(rob_seq);
            }
            // The corrected path reached the ROB: misprediction refill over.
            self.refill_after_recovery = false;
            // A late push may have executed while this speculative pop sat
            // in the front pipe; its ROB scan could not find the pop then,
            // so verify against the BQ entry now.
            if spec_pop_unverified {
                let idx = self.win.rob_len() - 1;
                if self.verify_spec_pop_at_dispatch(idx) {
                    return; // recovery truncated the ROB
                }
            }
        }
    }

    /// Re-checks a just-dispatched speculative pop against its BQ entry.
    /// Returns true when a failed verification triggered immediate recovery.
    fn verify_spec_pop_at_dispatch(&mut self, idx: usize) -> bool {
        let abs = self.win[idx].bq_abs.expect("spec pop has a BQ index");
        let Some((predicate, taint_code)) = self.bq.peek_entry_tainted(abs) else { return false };
        self.win[idx].verified = true;
        self.win[idx].taint = taint_from_index(taint_code);
        let spec_taken = self.win[idx].fetch_taken.expect("spec pop chose a direction");
        let actual_taken = !predicate;
        if spec_taken == actual_taken {
            self.release_checkpoint(idx);
            return false;
        }
        // Degenerate pop: both directions continue at the same PC (see
        // `execute_push_bq`) — the fetched path is already correct.
        if let Instr::BranchOnBq { target } = self.win[idx].instr {
            if target == self.win[idx].pc + 1 {
                self.win[idx].resolved_taken = Some(actual_taken);
                self.release_checkpoint(idx);
                return false;
            }
        }
        self.stats.bq_spec_recoveries += 1;
        self.win[idx].mispredict = true;
        self.win[idx].resolved_taken = Some(actual_taken);
        let truncated = self.begin_recovery(idx);
        self.release_checkpoint(if truncated { self.win.rob_len() - 1 } else { idx });
        truncated
    }
}
