//! The public core API and the per-cycle conductor.
//!
//! A faithful-but-compact execute-at-execute pipeline:
//!
//! * **Fetch** ([`crate::frontend`]) — BTB + direction predictor; the BQ,
//!   TQ and TCR live here and resolve `Branch_on_BQ` / `Branch_on_TCR`
//!   non-speculatively when their producers have executed (the paper's
//!   central mechanism). BQ misses either speculate (verified by the late
//!   push) or stall.
//! * **Front pipe** — `front_depth` cycles of decode/rename delay, giving
//!   the configured minimum fetch-to-execute latency.
//! * **Rename/Dispatch** ([`crate::dispatch`]) — RMT + freelist + VQ
//!   renamer; ROB/IQ/LSQ allocation; branch snapshots and
//!   (confidence-guided) checkpoints.
//! * **Issue/Execute** ([`crate::scheduler`], [`crate::lsq`]) —
//!   oldest-first select over FU classes, driven by event-driven wakeup
//!   (no per-cycle IQ polling); values are computed at issue and become
//!   visible at `ready_at`; loads access the cache hierarchy with
//!   store-to-load forwarding.
//! * **Commit** ([`crate::commit`]) — in-order retirement verified against
//!   a functional oracle; predictor training; committed CFD-queue state.
//!
//! Two functional `Machine`s accompany the pipeline: one steps at *fetch*
//! (providing perfect predictions where configured and detecting the exact
//! instruction where fetch diverges onto the wrong path) and one at
//! *retire* (its memory image is the committed memory the backend loads
//! from; it also cross-checks the retired stream instruction by
//! instruction).
//!
//! The stage logic lives in the modules above, each an `impl` block on the
//! shared [`Pipeline`](crate::pipeline::Pipeline) state struct; the step
//! loop that sequences the stages (commit → complete → issue → dispatch →
//! fetch) is [`Core::drive`] in [`crate::kernel`]. This module owns the
//! public [`Core`] wrapper — whose run methods are all `drive` with some
//! observer — and report finalization.

use crate::config::CoreConfig;
use crate::fault::{FailureReport, FaultSpec};
use crate::host::{ControlPort, FaultHost, FaultPort, MemoryHost};
use crate::kernel::Observer;
use crate::pipeline::Pipeline;
use crate::stage_profile::{StageProfile, StageProfiler};
use crate::stats::RunReport;
use crate::trace::SnapRing;
use cfd_isa::{MemImage, Program};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Cooperative cancellation handle for a running simulation.
///
/// A campaign supervisor holds one clone of the token while the
/// simulation thread holds another; the step loop checks it every cycle,
/// so even a pathological simulation that never retires (or a buggy stage
/// that stops making architectural progress) can be stopped without
/// killing the host thread. Two trip conditions:
///
/// * a **cycle budget** ([`CancelToken::with_budget`]) — deterministic:
///   the run fails with [`CoreError::Cancelled`] at exactly the first
///   cycle `>= budget`, independent of host timing or worker count;
/// * an **external cancel** ([`CancelToken::cancel`]) — a wall-clock
///   watchdog's last resort for a truly hung job; inherently
///   host-timing-dependent, so campaign verdicts must not depend on the
///   cycle it fires at.
///
/// The sim loop also publishes its current cycle through the token
/// ([`CancelToken::progress`]), which is what lets a supervisor
/// distinguish "slow but advancing" from "hung".
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelShared>,
}

#[derive(Debug, Default)]
struct CancelShared {
    cancelled: AtomicBool,
    /// Cycle budget; 0 means unlimited.
    budget: AtomicU64,
    /// Last cycle the sim loop reported.
    progress: AtomicU64,
}

impl CancelToken {
    /// A token with no budget: only [`CancelToken::cancel`] can trip it.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that deterministically cancels the run at the first cycle
    /// `>= budget` (0 means unlimited).
    pub fn with_budget(budget: u64) -> CancelToken {
        let t = CancelToken::default();
        t.inner.budget.store(budget, Ordering::Relaxed);
        t
    }

    /// Requests cancellation; the sim loop honours it within a bounded
    /// number of cycles.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// The configured cycle budget, if any.
    pub fn budget(&self) -> Option<u64> {
        match self.inner.budget.load(Ordering::Relaxed) {
            0 => None,
            b => Some(b),
        }
    }

    /// The simulated cycle the sim loop most recently reported — the
    /// heartbeat a wall-clock watchdog monitors for forward progress.
    pub fn progress(&self) -> u64 {
        self.inner.progress.load(Ordering::Relaxed)
    }

    pub(crate) fn note(&self, cycle: u64) {
        self.inner.progress.store(cycle, Ordering::Relaxed);
    }
}

/// A simulation failure (simulator bug or runaway program).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The core configuration is invalid (e.g. an unknown predictor name).
    Config(String),
    /// The cycle limit was reached before `Halt` retired.
    CycleLimit(u64),
    /// The run was stopped through a [`CancelToken`]: deterministically
    /// by its cycle budget (`budget` is `Some`), or cooperatively by an
    /// external [`CancelToken::cancel`] call (`budget` is `None`).
    Cancelled {
        /// Cycle at which the cancellation was honoured.
        cycle: u64,
        /// The exhausted cycle budget, when the budget tripped it.
        budget: Option<u64>,
    },
    /// The retired stream diverged from the functional oracle.
    OracleMismatch {
        /// Retired sequence number.
        seq: u64,
        /// PC the core retired.
        core_pc: u32,
        /// PC the oracle expected.
        oracle_pc: u32,
    },
    /// The functional oracle itself faulted (program bug).
    Program(String),
    /// No instruction retired for a long interval (simulator deadlock).
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
        /// Human-readable pipeline state dump.
        state: String,
    },
    /// A checkpoint failed validation on restore (version mismatch or
    /// state-digest mismatch; see [`Checkpoint`](crate::Checkpoint)).
    Checkpoint(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Config(e) => write!(f, "invalid core configuration: {e}"),
            CoreError::CycleLimit(n) => write!(f, "cycle limit {n} reached before halt"),
            CoreError::Cancelled { cycle, budget: Some(b) } => {
                write!(f, "cycle budget {b} exhausted at cycle {cycle}")
            }
            CoreError::Cancelled { cycle, budget: None } => write!(f, "cancelled externally at cycle {cycle}"),
            CoreError::OracleMismatch { seq, core_pc, oracle_pc } => {
                write!(f, "retired pc {core_pc} at seq {seq}, oracle expected {oracle_pc}")
            }
            CoreError::Program(e) => write!(f, "program error: {e}"),
            CoreError::Deadlock { cycle, state } => write!(f, "deadlock at cycle {cycle}: {state}"),
            CoreError::Checkpoint(e) => write!(f, "invalid checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// The out-of-order core.
pub struct Core {
    pub(crate) p: Pipeline,
}

impl Core {
    /// Builds a core over `program` and an initial memory image.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] if the configured predictor name is unknown
    /// or a structural parameter is out of range.
    pub fn new(cfg: CoreConfig, program: Program, mem: MemImage) -> Result<Core, CoreError> {
        Ok(Core { p: Pipeline::new(cfg, program, mem)? })
    }

    /// Arms one deterministic fault injection (see [`crate::fault`]).
    #[must_use]
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        self.p.fault = FaultPort::armed_with(spec);
        self
    }

    /// Arms cooperative cancellation: the step loop checks `token` every
    /// cycle and fails with [`CoreError::Cancelled`] when its budget is
    /// exhausted or [`CancelToken::cancel`] was called. With no token (the
    /// default) the loop pays nothing.
    #[must_use]
    pub fn with_cancellation(mut self, token: CancelToken) -> Self {
        self.p.control = ControlPort::engaged(token);
        self
    }

    /// Runs until `Halt` retires or `cycle_limit` elapses: [`Core::drive`]
    /// with the null observer, then the report. After an observed
    /// `drive` reached the halt, this only packages the report.
    ///
    /// # Errors
    ///
    /// [`CoreError::CycleLimit`] on a runaway simulation,
    /// [`CoreError::OracleMismatch`]/[`CoreError::Program`] on internal
    /// verification failures (these indicate simulator or program bugs).
    pub fn run(mut self, cycle_limit: u64) -> Result<RunReport, CoreError> {
        self.drive(cycle_limit, &mut ())?;
        Ok(self.into_report())
    }

    /// Like [`Core::run`] with `obs` watching (until it pauses, if it
    /// does), but a failure carries post-mortem diagnostics: the typed
    /// error, the final pipeline state, the last cycles' snapshots (a
    /// [`SnapRing`]), and the injected fault's record when one fired.
    ///
    /// # Errors
    ///
    /// A boxed [`FailureReport`] wrapping the same [`CoreError`]s as
    /// [`Core::run`].
    pub fn run_diag<O: Observer>(mut self, cycle_limit: u64, obs: &mut O) -> Result<RunReport, Box<FailureReport>> {
        let mut ring = SnapRing::default();
        let observed = self.drive(cycle_limit, &mut (&mut ring, obs));
        let outcome = observed.and_then(|_| self.drive(cycle_limit, &mut ring));
        if let Err(error) = outcome {
            let mut post_mortem =
                format!("final state: {}\nlast {} cycles:\n", self.p.dump_state(), ring.snaps().count());
            post_mortem.push_str(&ring.render());
            let injection = self.p.fault.fired_record();
            return Err(Box::new(FailureReport { error, post_mortem, injection }));
        }
        Ok(self.into_report())
    }

    /// Like [`Core::run`], but attributes host wall time to the five
    /// stage groups and returns the [`StageProfile`] next to the report:
    /// [`Core::drive`] with the [`StageProfiler`]. Timing is host-side
    /// observability only: the report is byte-identical to what
    /// [`Core::run`] produces for the same inputs.
    ///
    /// # Errors
    ///
    /// The same [`CoreError`]s as [`Core::run`].
    pub fn run_profiled(mut self, cycle_limit: u64) -> Result<(RunReport, StageProfile), CoreError> {
        let mut profiler = StageProfiler::default();
        self.drive(cycle_limit, &mut profiler)?;
        Ok((self.run(cycle_limit)?, profiler.profile))
    }

    /// Finalizes counters and packages the report (successful runs only).
    pub(crate) fn into_report(self) -> RunReport {
        let mut p = self.p;
        p.mem.advance(p.now);
        p.stats.cycles = p.now;
        p.events.cycles = p.now;
        debug_assert!(
            p.stats.cpi_stack().check(p.stats.cycles, p.cfg.width as u64).is_ok(),
            "{}",
            p.stats.cpi_stack().check(p.stats.cycles, p.cfg.width as u64).err().unwrap_or_default()
        );
        let (l1, l2, l3) = p.mem.cache_stats();
        p.events.l1d_accesses = l1.accesses;
        p.events.l2_accesses = l2.accesses;
        p.events.l3_accesses = l3.accesses;
        p.events.dram_accesses = p.mem.level_counts()[3];
        p.events.btb_ops = p.btb.lookups;
        RunReport {
            stats: p.stats,
            events: p.events,
            cache_stats: (l1, l2, l3),
            mshr_histogram: p.mem.mshr_histogram().to_vec(),
            level_counts: p.mem.level_counts(),
            injection: p.fault.fired_record(),
        }
    }
}
