//! Shared pipeline state and cross-stage plumbing.
//!
//! [`Pipeline`] owns every piece of simulated state — front end, rename,
//! ROB, scheduler wheels, hierarchy, statistics — and each stage
//! module ([`frontend`](crate::frontend), [`dispatch`](crate::dispatch),
//! [`scheduler`](crate::scheduler), [`lsq`](crate::lsq),
//! [`commit`](crate::commit)) contributes an `impl Pipeline` block with its
//! stage function plus that stage's private helpers. `core.rs` wraps the
//! struct in the public [`Core`](crate::Core) API.
//!
//! What lives *here* is the state struct itself and everything more than
//! one stage touches: the `DynInst` in-flight record (held in the
//! [`Window`](crate::window::Window)), the PRF-write wakeup hook,
//! fault-site visiting, CPI-stack accounting, the per-cycle snapshot, and
//! the post-mortem renderer.

use crate::cfd_queues::{BqSnapshot, FetchBq, FetchTq, TqSnapshot};
use crate::config::CoreConfig;
use crate::core::{CancelToken, CoreError};
use crate::fault::{FaultKind, FaultSite, FaultState, InjectionRecord};
use crate::frontend::l1i;
use crate::kernel::KernelEvent;
use crate::rename::{PhysReg, RenameState, Taint, VqRenamer};
use crate::stats::CoreStats;
use crate::trace::{CycleSnap, PipeEvent};
use crate::wheel::{ReadyList, Wheel};
use crate::window::Window;
use cfd_energy::EventCounts;
use cfd_isa::{Instr, Machine, MemImage, MemWidth, Program, QueueConfig};
use cfd_mem::{Cache, Hierarchy, MemLevel};
use cfd_obs::CpiComponent;
use cfd_predictor::{predictor_by_name, Btb, ConfidenceEstimator, DirectionPredictor, Ras, RasSnapshot};
use std::collections::VecDeque;

/// Recovery snapshot taken by instructions that can mispredict, kept in
/// the window's slot-indexed side array. (The VQ renamer is a
/// rename-stage structure repaired by the squash walk, so no VQ pointers
/// are snapshotted here.)
#[derive(Debug, Clone, Copy)]
pub(crate) struct Snapshot {
    pub(crate) bq: BqSnapshot,
    pub(crate) tq: TqSnapshot,
    pub(crate) ras: RasSnapshot,
}

/// One in-flight instruction, written once into its window slot at fetch.
/// Its ROB ordinal is the slot ordinal (see [`Window`]); its snapshot and
/// predictor metadata live in the window's side arrays.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DynInst {
    pub(crate) seq: u64,
    pub(crate) pc: u32,
    pub(crate) instr: Instr,
    /// Cycle at which the instruction may dispatch (front-pipe delay).
    pub(crate) dispatch_at: u64,
    /// Fetched while fetch was known to be on the wrong path.
    pub(crate) on_wrong_path: bool,
    /// Direction chosen at fetch for conditional control.
    pub(crate) fetch_taken: Option<bool>,
    /// Predicted target for indirect jumps.
    pub(crate) fetch_target: u32,
    /// The slot's predictor-metadata entry is this instruction's (plain
    /// branches and speculative pops).
    pub(crate) has_meta: bool,
    /// This `Branch_on_BQ` was resolved speculatively (BQ miss).
    pub(crate) spec_pop: bool,
    /// Speculative pop verified by its push.
    pub(crate) verified: bool,
    /// BQ absolute index (pushes and pops).
    pub(crate) bq_abs: Option<u64>,
    /// TQ absolute index (pushes and pops).
    pub(crate) tq_abs: Option<u64>,
    /// TCR value loaded by a `Pop_TQ` at fetch.
    pub(crate) tq_loaded_tcr: u32,
    /// The slot's recovery-snapshot entry is this instruction's.
    pub(crate) has_snapshot: bool,
    pub(crate) has_checkpoint: bool,
    // Rename results.
    pub(crate) pdest: Option<PhysReg>,
    /// Previous mapping of the destination (RMT-updating instructions).
    pub(crate) prev_phys: Option<PhysReg>,
    pub(crate) psrc1: Option<PhysReg>,
    pub(crate) psrc2: Option<PhysReg>,
    /// The VQ mapping a `Pop_VQ` frees at retirement. Normally equals
    /// `psrc1`; kept separate so the free list stays consistent when
    /// fault injection corrupts the operand mapping.
    pub(crate) vq_free: Option<PhysReg>,
    /// Occupies an IQ slot until issued.
    pub(crate) in_iq: bool,
    pub(crate) in_lsq: bool,
    pub(crate) dispatched: bool,
    pub(crate) issued: bool,
    pub(crate) done: bool,
    pub(crate) ready_at: u64,
    // Memory.
    pub(crate) eff_addr: Option<u64>,
    // Stage timestamps (pipeline tracing).
    pub(crate) t_fetch: u64,
    pub(crate) t_dispatch: u64,
    pub(crate) t_issue: u64,
    pub(crate) t_complete: u64,
    // Resolution.
    pub(crate) resolved_taken: Option<bool>,
    pub(crate) mispredict: bool,
    pub(crate) recover_at_retire: bool,
    pub(crate) taint: Taint,
}

// A window slot is overwritten in place and squashed by truncation, so
// an in-flight instruction must own nothing that needs dropping.
const _: () = assert!(!std::mem::needs_drop::<DynInst>());

impl DynInst {
    pub(crate) fn new(seq: u64, pc: u32, instr: Instr, dispatch_at: u64, on_wrong_path: bool) -> DynInst {
        DynInst {
            seq,
            pc,
            instr,
            dispatch_at,
            on_wrong_path,
            fetch_taken: None,
            fetch_target: 0,
            has_meta: false,
            spec_pop: false,
            verified: true,
            bq_abs: None,
            tq_abs: None,
            tq_loaded_tcr: 0,
            has_snapshot: false,
            has_checkpoint: false,
            pdest: None,
            prev_phys: None,
            psrc1: None,
            psrc2: None,
            vq_free: None,
            in_iq: false,
            in_lsq: false,
            dispatched: false,
            issued: false,
            done: false,
            ready_at: u64::MAX,
            eff_addr: None,
            t_fetch: 0,
            t_dispatch: 0,
            t_issue: 0,
            t_complete: 0,
            resolved_taken: None,
            mispredict: false,
            recover_at_retire: false,
            taint: None,
        }
    }

    /// Executes in the backend (needs an IQ slot and a function unit).
    pub(crate) fn needs_backend(&self) -> bool {
        match self.instr {
            Instr::Alu { .. }
            | Instr::Li { .. }
            | Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::Prefetch { .. }
            | Instr::Branch { .. }
            | Instr::Jr { .. }
            | Instr::PushBq { .. }
            | Instr::PushVq { .. }
            | Instr::PopVq { .. }
            | Instr::PushTq { .. } => true,
            Instr::Jump { .. }
            | Instr::Jal { .. }
            | Instr::BranchOnBq { .. }
            | Instr::MarkBq
            | Instr::ForwardBq
            | Instr::PopTq
            | Instr::BranchOnTcr { .. }
            | Instr::PopTqBrOvf { .. }
            | Instr::Nop
            | Instr::Halt
            | Instr::SaveBq { .. }
            | Instr::RestoreBq { .. }
            | Instr::SaveVq { .. }
            | Instr::RestoreVq { .. }
            | Instr::SaveTq { .. }
            | Instr::RestoreTq { .. } => false,
        }
    }

    pub(crate) fn is_mem_op(&self) -> bool {
        matches!(self.instr, Instr::Load { .. } | Instr::Store { .. } | Instr::Prefetch { .. })
    }

    /// The instruction's stage timestamps as it leaves the pipeline:
    /// retired at `retire`, or squashed when `None`.
    pub(crate) fn pipe_event(&self, retire: Option<u64>) -> PipeEvent {
        PipeEvent {
            seq: self.seq,
            pc: self.pc,
            instr: self.instr,
            fetch: self.t_fetch,
            dispatch: self.dispatched.then_some(self.t_dispatch),
            issue: self.issued.then_some(self.t_issue),
            complete: self.done.then_some(self.t_complete),
            retire,
        }
    }
}

/// All simulated state, shared by the stage modules.
///
/// `Clone` is the checkpoint mechanism (see [`crate::checkpoint`]): every
/// field is simulated state that deep-copies, except the
/// [`CancelToken`], whose clone intentionally *shares* the supervisor's
/// token.
#[derive(Clone)]
pub(crate) struct Pipeline {
    pub(crate) cfg: CoreConfig,
    pub(crate) program: Program,
    /// Retire-side oracle; its memory is the committed data memory.
    pub(crate) oracle: Machine,
    /// Fetch-side oracle (perfect prediction + divergence detection).
    pub(crate) fetch_oracle: Machine,
    /// Sequence number of the instruction where fetch diverged.
    pub(crate) diverged_at: Option<u64>,
    // Front end.
    pub(crate) fetch_pc: u32,
    pub(crate) fetch_resume_at: u64,
    pub(crate) fetch_halted: bool,
    pub(crate) btb: Btb,
    pub(crate) ras: Ras,
    pub(crate) predictor: Box<dyn DirectionPredictor>,
    pub(crate) confidence: ConfidenceEstimator,
    pub(crate) bq: FetchBq,
    pub(crate) tq: FetchTq,
    pub(crate) vq: VqRenamer,
    /// Every in-flight instruction: the ROB and, behind it, the front
    /// pipe, in one ring of slots.
    pub(crate) win: Window,
    // Back end.
    pub(crate) rename: RenameState,
    /// ROB ordinals of dispatched instructions whose sources are all
    /// computed, in age order (the scheduler's ready queue). Entries are
    /// re-validated at issue; stale ordinals (squashed or re-blocked by a
    /// corrupted remap) are dropped or re-registered there.
    pub(crate) ready_list: ReadyList,
    /// Wakeup wheel: cycle -> ROB ordinals whose blocking source becomes
    /// ready that cycle. Drained into `ready_list` at the head of `issue`.
    pub(crate) wakeup_wheel: Wheel,
    /// Completion wheel: cycle -> ROB ordinals of issued instructions whose
    /// `ready_at` lands there. Replaces an every-cycle `exec_list` rescan.
    pub(crate) completion_wheel: Wheel,
    /// The scheduler's reusable scratch buffer: drained wakeups, then
    /// re-registrations, then completions. Empty between stages.
    pub(crate) sched_scratch: Vec<u64>,
    /// Sequence numbers of in-flight stores, in age order.
    pub(crate) store_list: VecDeque<u64>,
    pub(crate) iq_count: usize,
    pub(crate) lsq_count: usize,
    pub(crate) checkpoints_free: usize,
    /// The three-level data hierarchy.
    pub(crate) hier: Hierarchy,
    /// L1 instruction cache (tags only; see [`l1i`]).
    pub(crate) icache: Cache,
    pub(crate) now: u64,
    pub(crate) next_seq: u64,
    pub(crate) halted: bool,
    pub(crate) stats: CoreStats,
    pub(crate) events: EventCounts,
    /// The deterministic fault injector, when one is armed (see
    /// [`crate::fault`]).
    pub(crate) fault: Option<FaultState>,
    /// Progress heartbeat + cooperative cancellation, when engaged;
    /// polled once per cycle by the step loop.
    pub(crate) cancel: Option<CancelToken>,
    /// Why fetch most recently failed to supply instructions: CPI-stack
    /// attribution for empty-ROB cycles outside misprediction refill.
    pub(crate) front_block: CpiComponent,
    /// A recovery squashed the ROB and the corrected path has not reached
    /// dispatch yet: empty-ROB cycles are misprediction penalty.
    pub(crate) refill_after_recovery: bool,
    /// Retirement-watchdog state: cycle and count of the last observed
    /// forward progress. Lives on the pipeline rather than in a loop
    /// frame so a run is resumable mid-flight.
    pub(crate) last_retired: (u64, u64),
    /// The stages' retire/squash/recovery/fault events of the current
    /// cycle, when the driving observer asked for them (`None` otherwise,
    /// so an unobserved event site costs one test). [`Core::drive`]
    /// drains it every cycle: it is empty between drives.
    ///
    /// [`Core::drive`]: crate::Core::drive
    pub(crate) outbox: Option<Vec<KernelEvent>>,
}

impl Pipeline {
    /// Builds an empty pipeline over `program` and `mem` whose data
    /// accesses go to `hier`, a hierarchy for `cfg.hierarchy`:
    /// [`Core::new`](crate::Core::new) passes a fresh one, sampled
    /// simulation a copy of its warm one.
    pub(crate) fn new(
        cfg: CoreConfig,
        program: Program,
        mem: MemImage,
        hier: Hierarchy,
    ) -> Result<Pipeline, CoreError> {
        if cfg.bq_size == 0 || cfg.vq_size == 0 || cfg.tq_size == 0 {
            return Err(CoreError::Config("queue sizes must be non-zero".into()));
        }
        let qc = QueueConfig {
            bq_size: cfg.bq_size,
            vq_size: cfg.vq_size,
            tq_size: cfg.tq_size,
            tq_trip_bits: cfg.tq_trip_bits,
        };
        let oracle = Machine::with_queues(program.clone(), mem, qc);
        let fetch_oracle = oracle.clone();
        let predictor = predictor_by_name(&cfg.predictor)
            .ok_or_else(|| CoreError::Config(format!("unknown predictor `{}`", cfg.predictor)))?;
        let bq = FetchBq::new(cfg.bq_size);
        let tq = FetchTq::new(cfg.tq_size, cfg.tq_trip_bits);
        let ras = Ras::new(16);
        let win = Window::for_config(&cfg, Snapshot { bq: bq.snapshot(), tq: tq.snapshot(), ras: ras.snapshot() });
        Ok(Pipeline {
            program,
            oracle,
            fetch_oracle,
            diverged_at: None,
            fetch_pc: 0,
            fetch_resume_at: 0,
            fetch_halted: false,
            btb: Btb::new(10, 4),
            ras,
            predictor,
            confidence: ConfidenceEstimator::new(12, 15),
            bq,
            tq,
            vq: VqRenamer::new(cfg.vq_size),
            win,
            rename: RenameState::new(cfg.prf_size),
            ready_list: ReadyList::default(),
            wakeup_wheel: Wheel::new(),
            completion_wheel: Wheel::new(),
            sched_scratch: Vec::new(),
            store_list: VecDeque::new(),
            iq_count: 0,
            lsq_count: 0,
            checkpoints_free: cfg.n_checkpoints,
            hier,
            icache: l1i(),
            now: 0,
            next_seq: 0,
            halted: false,
            stats: CoreStats::default(),
            events: EventCounts::default(),
            fault: None,
            cancel: None,
            front_block: CpiComponent::Frontend,
            refill_after_recovery: false,
            last_retired: (0, 0),
            outbox: None,
            cfg,
        })
    }

    // ------------------------------------------------------------------
    // CPI-stack accounting
    // ------------------------------------------------------------------

    /// Attributes this cycle's `width` retire slots: one Base slot per
    /// instruction retired this cycle, all remaining slots to the single
    /// blocking cause [`Pipeline::idle_cause`] identifies. Runs at the end
    /// of every counted cycle (the halting cycle is neither counted in
    /// `cycles` nor accounted here), so the components sum to exactly
    /// `cycles × width`.
    pub(crate) fn account_cycle(&mut self, retired_before: u64) {
        let width = self.cfg.width as u64;
        let r = (self.stats.retired - retired_before).min(width);
        self.stats.cpi_slots[CpiComponent::Base.index()] += r;
        let idle = width - r;
        if idle > 0 {
            let cause = self.idle_cause();
            self.stats.cpi_slots[cause.index()] += idle;
        }
    }

    /// The single component charged for this cycle's idle retire slots,
    /// classified from the end-of-cycle ROB head (or its absence).
    fn idle_cause(&self) -> CpiComponent {
        if let Some(head) = self.win.rob_head() {
            // A resolved speculative BQ pop waiting for its late push.
            if head.done && !head.verified {
                return CpiComponent::CfdStall;
            }
            // A load in (or just out of) flight: charge the furthest
            // memory level feeding it.
            if matches!(head.instr, Instr::Load { .. }) && head.issued {
                match head.taint {
                    Some(MemLevel::L1) => return CpiComponent::MemL1,
                    Some(MemLevel::L2) => return CpiComponent::MemL2,
                    Some(MemLevel::L3) => return CpiComponent::MemL3,
                    Some(MemLevel::Mem) => return CpiComponent::MemDram,
                    None => {}
                }
            }
            CpiComponent::Backend
        } else if self.refill_after_recovery {
            CpiComponent::Mispredict
        } else {
            // Pipeline fill: whatever last blocked fetch (a CFD queue
            // stall or a plain front-end bubble).
            self.front_block
        }
    }

    // ------------------------------------------------------------------
    // Shared plumbing
    // ------------------------------------------------------------------

    /// The pipeline's occupancy and cumulative counters right now.
    pub(crate) fn snap(&self) -> CycleSnap {
        CycleSnap {
            cycle: self.now,
            fetch_pc: self.fetch_pc,
            retired: self.stats.retired,
            fetched: self.stats.fetched,
            mispredictions: self.stats.mispredictions,
            retired_branches: self.stats.retired_branches,
            rob: self.win.rob_len(),
            iq: self.iq_count,
            lsq: self.lsq_count,
            front_q: self.win.front_len(),
            bq_len: self.bq.length(),
            vq_len: self.vq.length(),
            tq_len: self.tq.length(),
            tcr: self.tq.tcr,
            free_regs: self.rename.free_regs(),
            ckpt_free: self.checkpoints_free,
            caches: self.hier.cache_stats(),
            cpi_slots: self.stats.cpi_slots,
        }
    }

    /// Visits a fault-injection site: returns the armed fault's kind when
    /// it fires at this visit (see [`crate::fault`]).
    pub(crate) fn fault_at(&mut self, site: FaultSite) -> Option<FaultKind> {
        let fired = self.fault.as_mut()?.visit(site, self.now)?;
        self.stats.faults_injected += 1;
        let record = self.injection();
        if let (Some(out), Some(record)) = (&mut self.outbox, record) {
            out.push(KernelEvent::FaultFired(record));
        }
        Some(fired)
    }

    /// Whether the armed fault has fired by now (recovery attribution).
    pub(crate) fn fault_has_fired(&self) -> bool {
        self.fault.as_ref().is_some_and(|f| f.fired().is_some())
    }

    /// The armed fault's injection record, once it fired.
    pub(crate) fn injection(&self) -> Option<InjectionRecord> {
        self.fault.as_ref()?.fired().cloned()
    }

    /// Branch PC as presented to predictor structures: instruction indices
    /// are word-granular, but the predictor/confidence hash functions expect
    /// byte-granular PCs (`pc >> 2` etc.), so scale by 4 to avoid aliasing
    /// adjacent branches.
    #[inline]
    pub(crate) fn bpc(pc: u32) -> u64 {
        (pc as u64) << 2
    }

    /// Writes a physical register and moves its waiters to the wakeup
    /// wheel at the value's ready cycle. Every producer-side PRF write goes
    /// through here so no registered consumer can miss its wakeup.
    pub(crate) fn prf_write(&mut self, p: PhysReg, value: i64, ready_at: u64, taint: Taint) {
        self.rename.write(p, value, ready_at, taint);
        let waiters = self.rename.drain_waiters(p);
        if !waiters.as_slice().is_empty() {
            self.wakeup_wheel.extend(ready_at, waiters);
        }
    }

    /// One-line pipeline state summary for deadlock diagnostics:
    /// occupancy, fetch and queue pointers, then the ROB head and the
    /// front-pipe head (`none` when empty).
    pub(crate) fn dump_state(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "rob={} iq={} lsq={} front_q={} fetch_pc={} fetch_halted={} resume_at={} diverged={:?} \
             bq[h={} t={} net={} pend={} len={}] tq[h={} t={} tcr={}] vq[h={} t={} net={} pend={}] \
             free_regs={} ckpt_free={}",
            self.win.rob_len(),
            self.iq_count,
            self.lsq_count,
            self.win.front_len(),
            self.fetch_pc,
            self.fetch_halted,
            self.fetch_resume_at,
            self.diverged_at,
            self.bq.head,
            self.bq.tail,
            self.bq.net_push_ctr,
            self.bq.pending_push_ctr,
            self.bq.length(),
            self.tq.head,
            self.tq.tail,
            self.tq.tcr,
            self.vq.head,
            self.vq.tail,
            self.vq.net_ctr,
            self.vq.pending_ctr,
            self.rename.free_regs(),
            self.checkpoints_free
        );
        match self.win.rob_head() {
            Some(e) => {
                let _ = write!(
                    s,
                    " | head: seq={} pc={} `{}` disp={} issued={} done={} verified={} spec_pop={} bq_abs={:?}",
                    e.seq, e.pc, e.instr, e.dispatched, e.issued, e.done, e.verified, e.spec_pop, e.bq_abs
                );
            }
            None => s.push_str(" | head: none"),
        }
        match self.win.front_head() {
            Some(e) => {
                let _ = write!(s, " | front_head: seq={} pc={} `{}` disp_at={}", e.seq, e.pc, e.instr, e.dispatch_at);
            }
            None => s.push_str(" | front_head: none"),
        }
        s
    }
}

/// Inverse of [`level_index`](crate::stats::level_index): reconstructs a
/// taint from its code.
pub(crate) fn taint_from_index(code: u8) -> Taint {
    match code {
        1 => Some(MemLevel::L1),
        2 => Some(MemLevel::L2),
        3 => Some(MemLevel::L3),
        4 => Some(MemLevel::Mem),
        _ => None,
    }
}

/// Narrows a stored 64-bit value to `width` with sign/zero extension.
pub(crate) fn extract(stored: i64, width: MemWidth, signed: bool) -> i64 {
    let n = width.bytes() as u32;
    if n == 8 {
        return stored;
    }
    let shift = 64 - 8 * n;
    if signed {
        (stored << shift) >> shift
    } else {
        ((stored as u64) << shift >> shift) as i64
    }
}
