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
//! one stage touches: the `DynInst` in-flight record, ROB indexing, the
//! PRF-write wakeup hook, fault-site visiting, CPI-stack accounting, the
//! per-cycle snapshot, and the post-mortem renderer.

use crate::cfd_queues::{BqSnapshot, FetchBq, FetchTq, TqSnapshot};
use crate::config::CoreConfig;
use crate::core::CoreError;
use crate::fault::{FaultKind, FaultSite};
use crate::host::{ControlPort, FaultHost, FaultPort, MemoryHost, MemoryPort};
use crate::kernel::KernelEvent;
use crate::rename::{PhysReg, RenameState, Taint, VqRenamer};
use crate::stats::CoreStats;
use crate::trace::{CycleSnap, PipeEvent};
use cfd_energy::EventCounts;
use cfd_isa::{Instr, Machine, MemImage, MemWidth, Program, QueueConfig};
use cfd_mem::MemLevel;
use cfd_obs::CpiComponent;
use cfd_predictor::{predictor_by_name, Btb, ConfidenceEstimator, DirectionPredictor, PredMeta, Ras, RasSnapshot};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Recovery snapshot attached to instructions that can mispredict.
/// (The VQ renamer is a rename-stage structure repaired by the squash walk,
/// so no VQ pointers are snapshotted here.)
#[derive(Debug, Clone)]
pub(crate) struct Snapshot {
    pub(crate) bq: BqSnapshot,
    pub(crate) tq: TqSnapshot,
    pub(crate) ras: RasSnapshot,
}

/// One in-flight instruction.
#[derive(Debug, Clone)]
pub(crate) struct DynInst {
    pub(crate) seq: u64,
    /// Dense ROB ordinal assigned at dispatch (fetch seqs have gaps when
    /// the front pipe is squashed; ROB indexing needs contiguity).
    pub(crate) rob_seq: u64,
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
    /// Predictor metadata (plain branches and speculative pops).
    pub(crate) pred_meta: Option<PredMeta>,
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
    /// Recovery snapshot.
    pub(crate) snapshot: Option<Box<Snapshot>>,
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

impl DynInst {
    pub(crate) fn new(seq: u64, pc: u32, instr: Instr, dispatch_at: u64, on_wrong_path: bool) -> DynInst {
        DynInst {
            seq,
            rob_seq: 0,
            pc,
            instr,
            dispatch_at,
            on_wrong_path,
            fetch_taken: None,
            fetch_target: 0,
            pred_meta: None,
            spec_pop: false,
            verified: true,
            bq_abs: None,
            tq_abs: None,
            tq_loaded_tcr: 0,
            snapshot: None,
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
/// field is either simulated state that deep-copies, or a host port whose
/// clone semantics are documented on the port (the control port's
/// [`CancelToken`](crate::CancelToken) clone intentionally *shares* the
/// supervisor's token).
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
    pub(crate) front_q: VecDeque<DynInst>,
    // Back end.
    pub(crate) rename: RenameState,
    pub(crate) rob: VecDeque<DynInst>,
    /// ROB ordinals of dispatched instructions whose sources are all
    /// computed, in age order (the scheduler's ready queue). Entries are
    /// re-validated at issue; stale ordinals (squashed or re-blocked by a
    /// corrupted remap) are dropped or re-registered there.
    pub(crate) ready_list: BTreeSet<u64>,
    /// Wakeup wheel: cycle -> ROB ordinals whose blocking source becomes
    /// ready that cycle. Drained into `ready_list` at the head of `issue`.
    pub(crate) wakeup_wheel: BTreeMap<u64, Vec<u64>>,
    /// Completion wheel: cycle -> ROB ordinals of issued instructions whose
    /// `ready_at` lands there. Replaces an every-cycle `exec_list` rescan.
    pub(crate) completion_wheel: BTreeMap<u64, Vec<u64>>,
    /// Sequence numbers of in-flight stores, in age order.
    pub(crate) store_list: VecDeque<u64>,
    pub(crate) iq_count: usize,
    pub(crate) lsq_count: usize,
    pub(crate) checkpoints_free: usize,
    /// Memory host: the data hierarchy and L1I tags, behind
    /// [`MemoryHost`].
    pub(crate) mem: MemoryPort,
    pub(crate) now: u64,
    pub(crate) next_seq: u64,
    pub(crate) next_rob_seq: u64,
    pub(crate) halted: bool,
    pub(crate) stats: CoreStats,
    pub(crate) events: EventCounts,
    /// Fault host: the deterministic injector, behind [`FaultHost`]; null
    /// unless armed (see [`crate::fault`]).
    pub(crate) fault: FaultPort,
    /// Control host: progress heartbeat + cooperative cancellation, behind
    /// [`ControlHost`](crate::host::ControlHost); polled once per cycle by
    /// the step loop.
    pub(crate) control: ControlPort,
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
    pub(crate) fn new(cfg: CoreConfig, program: Program, mem: MemImage) -> Result<Pipeline, CoreError> {
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
        Ok(Pipeline {
            program,
            oracle,
            fetch_oracle,
            diverged_at: None,
            fetch_pc: 0,
            fetch_resume_at: 0,
            fetch_halted: false,
            btb: Btb::new(10, 4),
            ras: Ras::new(16),
            predictor,
            confidence: ConfidenceEstimator::new(12, 15),
            bq: FetchBq::new(cfg.bq_size),
            tq: FetchTq::new(cfg.tq_size, cfg.tq_trip_bits),
            vq: VqRenamer::new(cfg.vq_size),
            front_q: VecDeque::new(),
            rename: RenameState::new(cfg.prf_size),
            rob: VecDeque::new(),
            ready_list: BTreeSet::new(),
            wakeup_wheel: BTreeMap::new(),
            completion_wheel: BTreeMap::new(),
            store_list: VecDeque::new(),
            iq_count: 0,
            lsq_count: 0,
            checkpoints_free: cfg.n_checkpoints,
            mem: MemoryPort::new(cfg.hierarchy.clone()),
            now: 0,
            next_seq: 0,
            next_rob_seq: 0,
            halted: false,
            stats: CoreStats::default(),
            events: EventCounts::default(),
            fault: FaultPort::unarmed(),
            control: ControlPort::disengaged(),
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
        if let Some(head) = self.rob.front() {
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
            rob: self.rob.len(),
            iq: self.iq_count,
            lsq: self.lsq_count,
            front_q: self.front_q.len(),
            bq_len: self.bq.length(),
            vq_len: self.vq.length(),
            tq_len: self.tq.length(),
            tcr: self.tq.tcr,
            free_regs: self.rename.free_regs(),
            ckpt_free: self.checkpoints_free,
            caches: self.mem.cache_stats(),
            cpi_slots: self.stats.cpi_slots,
        }
    }

    /// Visits a fault-injection site: returns the armed fault's kind when
    /// it fires at this visit (see [`crate::fault`]).
    pub(crate) fn fault_at(&mut self, site: FaultSite) -> Option<FaultKind> {
        if !self.fault.armed() {
            return None;
        }
        let fired = self.fault.visit(site, self.now);
        if fired.is_some() {
            self.stats.faults_injected += 1;
            if let (Some(out), Some(record)) = (&mut self.outbox, self.fault.fired_record()) {
                out.push(KernelEvent::FaultFired(record));
            }
        }
        fired
    }

    /// Whether the armed fault has fired by now (recovery attribution).
    pub(crate) fn fault_has_fired(&self) -> bool {
        self.fault.has_fired()
    }

    /// Branch PC as presented to predictor structures: instruction indices
    /// are word-granular, but the predictor/confidence hash functions expect
    /// byte-granular PCs (`pc >> 2` etc.), so scale by 4 to avoid aliasing
    /// adjacent branches.
    #[inline]
    pub(crate) fn bpc(pc: u32) -> u64 {
        (pc as u64) << 2
    }

    /// ROB index of the instruction with dense ordinal `rob_seq`.
    #[inline]
    pub(crate) fn rob_idx(&self, rob_seq: u64) -> Option<usize> {
        let front = self.rob.front()?.rob_seq;
        let idx = rob_seq.checked_sub(front)? as usize;
        (idx < self.rob.len()).then_some(idx)
    }

    /// Writes a physical register and moves its waiters to the wakeup
    /// wheel at the value's ready cycle. Every producer-side PRF write goes
    /// through here so no registered consumer can miss its wakeup.
    pub(crate) fn prf_write(&mut self, p: PhysReg, value: i64, ready_at: u64, taint: Taint) {
        self.rename.write(p, value, ready_at, taint);
        let waiters = self.rename.take_waiters(p);
        if !waiters.is_empty() {
            self.wakeup_wheel.entry(ready_at).or_default().extend(waiters);
        }
    }

    /// One-line pipeline state summary for deadlock diagnostics.
    pub(crate) fn dump_state(&self) -> String {
        let head = self.rob.front().map(|e| {
            format!(
                "head seq={} pc={} `{}` disp={} issued={} done={} verified={} spec_pop={} bq_abs={:?}",
                e.seq, e.pc, e.instr, e.dispatched, e.issued, e.done, e.verified, e.spec_pop, e.bq_abs
            )
        });
        format!(
            "rob={} iq={} lsq={} front_q={} fetch_pc={} fetch_halted={} resume_at={} diverged={:?}              bq[h={} t={} net={} pend={}] tq[h={} t={} tcr={}] vq[h={} t={}] free_regs={} | {:?}",
            self.rob.len(),
            self.iq_count,
            self.lsq_count,
            self.front_q.len(),
            self.fetch_pc,
            self.fetch_halted,
            self.fetch_resume_at,
            self.diverged_at,
            self.bq.head,
            self.bq.tail,
            self.bq.net_push_ctr,
            self.bq.pending_push_ctr,
            self.tq.head,
            self.tq.tail,
            self.tq.tcr,
            self.vq.head,
            self.vq.tail,
            self.rename.free_regs(),
            head
        ) + &format!(
            " | front_head: {:?} vq_net={} vq_pend={} bq_len={} ckpt_free={}",
            self.front_q.front().map(|e| format!("seq={} pc={} `{}` disp_at={}", e.seq, e.pc, e.instr, e.dispatch_at)),
            self.vq.net_ctr,
            self.vq.pending_ctr,
            self.bq.length(),
            self.checkpoints_free
        )
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
