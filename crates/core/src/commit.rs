//! Commit stage: in-order retirement against the functional oracle,
//! predictor training, branch resolution, and misprediction recovery.
//!
//! Branch resolution (`resolve_branch`, `execute_push_bq`) lives here with
//! recovery rather than in the scheduler because its only side effects are
//! commit-side: verdicts, checkpoint reclamation, and the squash walk.
//! `recover_at` restores fetch-side queue snapshots, rewinds the predictor,
//! truncates the scheduler's ready queue, and repairs the rename state by
//! walking squashed instructions youngest-first, in their window slots,
//! before truncating the window.

use crate::core::CoreError;
use crate::fault::{FaultKind, FaultSite};
use crate::kernel::KernelEvent;
use crate::pipeline::Pipeline;
use crate::rename::join_taint;
use crate::stats::level_index;
use cfd_isa::{eval_branch, Instr, NullSink};

impl Pipeline {
    pub(crate) fn commit(&mut self) -> Result<(), CoreError> {
        for _ in 0..self.cfg.width {
            let Some(head) = self.win.rob_head() else { return Ok(()) };
            if !head.dispatched || !head.done || !head.verified {
                return Ok(());
            }
            // Deferred (retirement-time) misprediction recovery.
            if head.mispredict && head.recover_at_retire {
                self.stats.retire_recoveries += 1;
                self.recover_at(0);
            }
            // Retire the head in place: its slot stays intact until a
            // later fetch reuses it.
            let rob_seq = self.win.retire();
            let e = self.win.at(rob_seq);

            // Oracle cross-check: the retired stream must match functional
            // execution exactly.
            let opc = self.oracle.pc();
            if opc != e.pc {
                return Err(CoreError::OracleMismatch { seq: e.seq, core_pc: e.pc, oracle_pc: opc });
            }
            self.oracle.step(&mut NullSink).map_err(|err| CoreError::Program(err.to_string()))?;

            // Architectural queue high-water marks, sampled on the committed
            // (oracle) state so speculation never inflates them. cfd-harden
            // checks these against the static bounds from cfd-lint.
            let (bq, vq, tq) = (self.oracle.bq.len() as u64, self.oracle.vq.len() as u64, self.oracle.tq.len() as u64);
            self.stats.max_bq_occupancy = self.stats.max_bq_occupancy.max(bq);
            self.stats.max_vq_occupancy = self.stats.max_vq_occupancy.max(vq);
            self.stats.max_tq_occupancy = self.stats.max_tq_occupancy.max(tq);
            if let Some(out) = &mut self.outbox {
                out.push(KernelEvent::Retire { inst: e.pipe_event(Some(self.now)), bq, vq, tq });
            }

            self.stats.retired += 1;
            self.events.rob_ops += 1;
            if e.in_lsq {
                self.lsq_count -= 1;
            }
            if let Some(prev) = e.prev_phys {
                self.rename.free_phys(prev);
            }
            match e.instr {
                Instr::PushBq { .. } => self.bq.retire_push(),
                Instr::BranchOnBq { .. } => {
                    self.bq.retire_pop();
                    self.events.bq_ops += 1;
                }
                Instr::MarkBq => self.bq.retire_mark(),
                Instr::ForwardBq => self.bq.retire_forward(),
                Instr::PushVq { .. } => self.vq.retire_push(),
                Instr::PopVq { .. } => {
                    self.vq.retire_pop();
                    // The push's physical register is freed when the pop
                    // that references it retires (§IV-B).
                    if let Some(p) = e.vq_free {
                        self.rename.free_phys(p);
                    }
                }
                Instr::PushTq { .. } => self.tq.retire_push(),
                Instr::PopTq | Instr::PopTqBrOvf { .. } => self.tq.retire_pop(e.tq_loaded_tcr),
                Instr::BranchOnTcr { .. } => {
                    if e.fetch_taken == Some(true) {
                        self.tq.retire_tcr_decrement();
                    }
                    self.events.tq_ops += 1;
                }
                Instr::Store { .. } => {
                    // The oracle step above performed the store on committed
                    // memory; charge the cache access here (store buffer
                    // drains at retirement). Under MSHR saturation the fill
                    // is dropped rather than retried — a deliberate
                    // store-buffer simplification: correctness lives in the
                    // oracle memory, and retirement never stalls on stores.
                    if let Some(addr) = e.eff_addr {
                        self.hier.access(e.pc as u64 * 4, addr, true, self.now);
                    }
                    debug_assert_eq!(self.store_list.front(), Some(&rob_seq));
                    self.store_list.pop_front();
                }
                Instr::Halt => {
                    self.halted = true;
                }
                _ => {}
            }

            if e.has_checkpoint {
                self.checkpoints_free += 1;
            }
            // Branch bookkeeping + predictor training.
            if e.fetch_taken.is_some() || matches!(e.instr, Instr::Jr { .. }) {
                self.retire_branch(rob_seq);
            }
            if self.halted {
                return Ok(());
            }
        }
        Ok(())
    }

    fn retire_branch(&mut self, rob_seq: u64) {
        let e = self.win.at(rob_seq);
        let taken = e.resolved_taken.or(e.fetch_taken).unwrap_or(false);
        if e.instr.is_conditional() {
            self.stats.retired_branches += 1;
        }
        let stat = self.stats.branches.entry(e.pc).or_default();
        stat.executed += 1;
        if taken {
            stat.taken += 1;
        }
        if e.mispredict {
            stat.mispredicted += 1;
            stat.mispredicted_by_level[level_index(e.taint)] += 1;
            self.stats.mispredictions += 1;
        }
        if let Some(meta) = self.win.meta(rob_seq) {
            self.predictor.train(Self::bpc(e.pc), taken, meta);
            self.events.bpred_ops += 1;
        }
        if e.instr.is_plain_conditional() {
            self.confidence.update(Self::bpc(e.pc), !e.mispredict);
        }
    }

    /// Resolves a plain branch or indirect jump at ROB index `i`. Returns
    /// true if an immediate recovery truncated the ROB.
    pub(crate) fn resolve_branch(&mut self, i: usize) -> bool {
        let e = &self.win[i];
        let (actual_taken, actual_target) = match e.instr {
            Instr::Branch { cond, target, .. } => {
                let a = self.rename.read(e.psrc1.expect("branch src1"));
                let b = self.rename.read(e.psrc2.expect("branch src2"));
                let t = eval_branch(cond, a, b);
                (t, if t { target } else { e.pc + 1 })
            }
            Instr::Jr { .. } => {
                let t = self.rename.read(e.psrc1.expect("jr src")) as u32;
                (true, t)
            }
            _ => unreachable!("resolve_branch on non-branch"),
        };
        let taint = {
            let mut t = None;
            if let Some(p) = e.psrc1 {
                t = join_taint(t, self.rename.taint(p));
            }
            if let Some(p) = e.psrc2 {
                t = join_taint(t, self.rename.taint(p));
            }
            t
        };
        let predicted_target = e.fetch_target;
        let mispredicted = match e.instr {
            // A branch targeting its own fall-through has a single successor:
            // a wrong direction cannot take fetch down a wrong path, and the
            // fetch oracle (which tracks the *path*) never diverges on it.
            Instr::Branch { target, .. } => e.fetch_taken != Some(actual_taken) && target != e.pc + 1,
            _ => predicted_target != actual_target,
        };
        let idx = i;
        {
            let e = &mut self.win[idx];
            e.resolved_taken = Some(actual_taken);
            e.taint = taint;
        }
        if mispredicted {
            self.win[idx].mispredict = true;
            let truncated = self.begin_recovery(idx);
            // OoO checkpoint reclamation: the checkpoint was consumed by the
            // recovery (or was never held); release it now, not at retire.
            self.release_checkpoint(idx);
            truncated
        } else {
            // Correctly-predicted branch: its checkpoint is no longer needed
            // (aggressive OoO reclamation, the paper's best policy, §VI).
            self.release_checkpoint(idx);
            false
        }
    }

    /// Frees the checkpoint held by the ROB entry at `idx`, if any.
    pub(crate) fn release_checkpoint(&mut self, idx: usize) {
        if self.win[idx].has_checkpoint {
            self.win[idx].has_checkpoint = false;
            self.checkpoints_free += 1;
        }
    }

    /// Executes a `Push_BQ` at ROB index `i`; handles late-push
    /// verification. Returns true if recovery truncated the ROB.
    pub(crate) fn execute_push_bq(&mut self, i: usize) -> bool {
        let e = &self.win[i];
        let abs = e.bq_abs.expect("bq push has index");
        let src = e.psrc1.expect("bq push has source");
        let mut predicate = self.rename.read(src) != 0;
        let taint = self.rename.taint(src);
        // Fault injection at the BQ write port: a corrupted predicate
        // steers the pop down the wrong path (oracle mismatch at retire);
        // a dropped write leaves the pop unverifiable (watchdog trip).
        match self.fault_at(FaultSite::BqExecutePush) {
            Some(FaultKind::BqCorrupt) => predicate = !predicate,
            Some(FaultKind::BqDrop) => return false,
            _ => {}
        }
        self.events.bq_ops += 1;
        let Some((pop_seq, spec_pred)) = self.bq.execute_push_tainted(abs, predicate, level_index(taint) as u8) else {
            return false;
        };
        // Late push: find the speculative pop and verify it.
        let Some(pop_idx) = self.win.rob().position(|(_, x)| x.seq == pop_seq) else {
            return false; // the pop was squashed
        };
        {
            let pop = &mut self.win[pop_idx];
            pop.verified = true;
            pop.taint = taint;
        }
        if spec_pred == predicate {
            self.release_checkpoint(pop_idx);
            return false;
        }
        let actual_taken = !predicate;
        let taken_target = match self.win[pop_idx].instr {
            Instr::BranchOnBq { target } => target,
            _ => unreachable!("spec pop is a Branch_on_BQ"),
        };
        // Degenerate pop (taken target == fall-through): the predicate was
        // wrong but both directions continue at the same PC, so the fetched
        // path is already correct — no squash, and the fetch oracle (which
        // never diverged) must not be rewound.
        if taken_target == self.win[pop_idx].pc + 1 {
            self.win[pop_idx].resolved_taken = Some(actual_taken);
            self.release_checkpoint(pop_idx);
            return false;
        }
        // Speculation failed: the pop's direction flips (taken = !predicate).
        self.stats.bq_spec_recoveries += 1;
        self.win[pop_idx].mispredict = true;
        self.win[pop_idx].resolved_taken = Some(actual_taken);
        let truncated = self.begin_recovery(pop_idx);
        self.release_checkpoint(pop_idx);
        truncated
    }

    /// Starts recovery for the mispredicted instruction at ROB index `i`:
    /// immediately when it holds a checkpoint, else deferred to retirement.
    /// Returns true when the ROB was truncated now.
    pub(crate) fn begin_recovery(&mut self, i: usize) -> bool {
        if self.fault_has_fired() {
            self.stats.post_fault_recoveries += 1;
        }
        if self.win[i].has_checkpoint {
            self.stats.immediate_recoveries += 1;
            self.events.checkpoint_ops += 1;
            self.recover_at(i);
            true
        } else {
            self.win[i].recover_at_retire = true;
            false
        }
    }

    /// Squashes everything younger than ROB index `i` and restores front-end
    /// state from its snapshot; fetch resumes at the corrected target.
    pub(crate) fn recover_at(&mut self, i: usize) {
        let rob_seq = self.win.ordinal(i);
        let squashed = self.win.tail() - (rob_seq + 1);
        // Squash the front pipe entirely (younger than everything in ROB),
        // returning any checkpoints its branches hold.
        self.checkpoints_free += self.win.front().filter(|e| e.has_checkpoint).count();
        // Walk youngest -> oldest undoing renames, then drop the victims
        // and the front pipe in one truncation.
        for victim in (rob_seq + 1..self.win.mid()).rev() {
            self.squash_entry(victim);
        }
        self.win.truncate(rob_seq + 1);
        // Truncate squashed ordinals off the ready queue. Wakeup/completion
        // wheels and PRF waiter lists are pruned lazily instead: a stale
        // ordinal there (even one later reused, since the next dispatch
        // takes the first squashed ordinal) only triggers a spurious
        // liveness re-check — every issue and completion re-validates
        // against the live ROB entry.
        self.ready_list.truncate_after(rob_seq);
        self.store_list.retain(|&s| s <= rob_seq);
        // The snapshot and predictor metadata are read in place: the
        // window borrow is disjoint from the state they restore.
        let e = self.win.at(rob_seq);
        let (pc, seq, instr, resolved_taken, psrc1) = (e.pc, e.seq, e.instr, e.resolved_taken, e.psrc1);
        let snap = self.win.snapshot(rob_seq).expect("recovering instruction has a snapshot");
        self.bq.recover(&snap.bq);
        self.tq.recover(&snap.tq);
        // The VQ renamer was already repaired by the squash walk (it is a
        // rename-stage structure; fetch-time snapshots do not apply).
        self.ras.restore(&snap.ras);

        // Predictor history rewinds to this branch and learns the outcome.
        if let Some(meta) = self.win.meta(rob_seq) {
            self.predictor.recover(Self::bpc(pc), resolved_taken.unwrap_or(false), meta);
        }

        // Correct next PC.
        let target = match instr {
            Instr::Branch { target, .. } | Instr::BranchOnBq { target } => {
                if resolved_taken == Some(true) {
                    target
                } else {
                    pc + 1
                }
            }
            Instr::Jr { .. } => self.rename.read(psrc1.expect("jr src")) as u32,
            _ => pc + 1,
        };
        self.fetch_pc = target;
        self.fetch_resume_at = self.now + 1;
        self.fetch_halted = false;
        self.refill_after_recovery = true;
        if let Some(out) = &mut self.outbox {
            out.push(KernelEvent::Recovery { cycle: self.now, pc, seq, target, squashed });
        }

        // Resynchronize the fetch oracle when the diverging instruction
        // itself recovers.
        if self.diverged_at == Some(seq) {
            self.diverged_at = None;
            debug_assert_eq!(self.fetch_oracle.pc(), target, "fetch oracle resync mismatch");
        } else if self.diverged_at.is_none() && self.fetch_oracle.pc() != target {
            // A "recovery" that leaves the oracle's path can only come from
            // corrupted state (fault injection): an on-path branch resolved
            // with a wrong value. Mark fetch as diverged so the retirement
            // oracle reports the mismatch instead of the fetch-side
            // divergence tracker asserting.
            debug_assert!(self.fault.is_some(), "off-oracle recovery without fault injection");
            self.diverged_at = Some(seq);
        }
    }

    /// Undoes the bookkeeping of the squashed ROB instruction with ordinal
    /// `rob_seq`, read in its slot.
    fn squash_entry(&mut self, rob_seq: u64) {
        let victim = self.win.at(rob_seq);
        if let Some(out) = &mut self.outbox {
            out.push(KernelEvent::Squash(victim.pipe_event(None)));
        }
        if victim.in_iq && !victim.issued {
            self.iq_count -= 1;
        }
        if victim.in_lsq {
            self.lsq_count -= 1;
        }
        if victim.has_checkpoint {
            self.checkpoints_free += 1;
        }
        match victim.instr {
            Instr::PushVq { .. } => {
                // No RMT update; roll the VQ renamer tail back and return
                // the mapping's register.
                self.vq.unrename_push();
                if let Some(p) = victim.pdest {
                    self.rename.free_phys(p);
                }
            }
            Instr::PopVq { .. } => {
                self.vq.unrename_pop();
                if let (Some(rd), Some(p), Some(prev)) = (victim.instr.dest(), victim.pdest, victim.prev_phys) {
                    self.rename.unrename(rd, p, prev);
                }
            }
            _ => {
                if let (Some(rd), Some(p), Some(prev)) = (victim.instr.dest(), victim.pdest, victim.prev_phys) {
                    self.rename.unrename(rd, p, prev);
                }
            }
        }
    }
}
