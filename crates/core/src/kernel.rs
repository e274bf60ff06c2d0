//! The stepping kernel and its one way out: [`Core::drive`] and the
//! [`Observer`] it reports to.
//!
//! [`Core::drive`] is the only loop that advances the pipeline. Each cycle
//! runs the guard gate ([`Pipeline::cycle_gate`]), then the stages in
//! reverse pipeline order. Everything that leaves the kernel on the way is
//! one [`KernelEvent`] handed to the caller's [`Observer`]: retirements,
//! squashes, recoveries, a fired fault, the per-cycle occupancy snapshot
//! and the per-stage laps. The observer can also pause the loop at a cycle
//! boundary; the core is then resumable (drive again) and checkpointable.
//! [`Core::run`](crate::Core::run) is `drive` with the null observer `()`,
//! and every other driver — profiled, post-mortem, checkpointed, sampled,
//! the cfd-exec engine — is `drive` with a different observer.
//!
//! Observers are plain host-side values outside the pipeline (pipe trace,
//! post-mortem ring, telemetry, stage profiler, [`PauseAt`]), so a
//! [`Checkpoint`](crate::Checkpoint) copies simulated state only.
//!
//! What an observer pays for is fixed at compile time by its three
//! associated constants. The null observer asks for nothing: the per-cycle
//! hooks compile away and each event site in the stages costs one `Option`
//! test. That keeps the plain-`run` KIPS floor intact (`scripts/verify.sh`
//! gates on it).

use crate::core::{Core, CoreError};
use crate::fault::InjectionRecord;
use crate::pipeline::Pipeline;
use crate::stage_profile::Stage;
use crate::trace::{CycleSnap, PipeEvent};

/// Work the scheduler did in one cycle's issue stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedWork {
    /// Ready-queue entries `issue` examined.
    pub ready_checks: u64,
    /// Wakeup-wheel events it drained.
    pub wakeup_events: u64,
    /// IQ entries a per-cycle polling scheduler would have scanned.
    pub poll_equiv: u64,
}

/// An observation leaving the kernel.
///
/// Events observe; they never change simulated state, so a run's
/// [`RunReport`](crate::RunReport) is the same whoever watches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelEvent {
    /// An instruction retired. `bq`, `vq` and `tq` are the committed
    /// (architectural) queue occupancies right after it.
    Retire {
        /// The instruction's trip through the pipeline.
        inst: PipeEvent,
        /// Committed BQ occupancy.
        bq: u64,
        /// Committed VQ occupancy.
        vq: u64,
        /// Committed TQ occupancy.
        tq: u64,
    },
    /// A wrong-path instruction left the ROB in a recovery squash.
    Squash(PipeEvent),
    /// A misprediction recovery squashed the pipeline.
    Recovery {
        /// Cycle the recovery ran.
        cycle: u64,
        /// PC of the recovering instruction.
        pc: u32,
        /// Fetch sequence number of the recovering instruction.
        seq: u64,
        /// Corrected fetch target.
        target: u32,
        /// Instructions squashed (ROB + front pipe).
        squashed: u64,
    },
    /// The armed fault fired.
    FaultFired(InjectionRecord),
    /// A cycle passed the guard gate: the pipeline as the previous cycle
    /// left it, stamped with the cycle about to run.
    Cycle(CycleSnap),
    /// A stage group finished its share of the cycle. Only the scheduler's
    /// lap reports work; the other stages' `sched` is zero.
    StageLap {
        /// The stage group.
        stage: Stage,
        /// The scheduler's work this cycle.
        sched: SchedWork,
    },
    /// `Halt` retired: the run is architecturally complete, and the
    /// snapshot is the pipeline's final state. Delivered once.
    Halted(CycleSnap),
}

/// A consumer of [`KernelEvent`]s, driven by [`Core::drive`].
///
/// The constants choose which events the kernel builds at all; the
/// defaults ask for none, and `()` is the null observer. `Halted` is
/// always delivered. Pair observers with a tuple `(a, b)` (nest tuples
/// for more); each half then also sees the kinds the other asked for and
/// ignores what it does not read. `&mut O` observes on behalf of `O`.
pub trait Observer {
    /// Deliver [`KernelEvent::Retire`], `Squash`, `Recovery` and
    /// `FaultFired`. The stages buffer them, and `drive` hands them over
    /// at the end of each cycle.
    const STAGE_EVENTS: bool = false;
    /// Deliver a [`KernelEvent::Cycle`] snapshot at the start of every
    /// cycle.
    const CYCLES: bool = false;
    /// Deliver a [`KernelEvent::StageLap`] after every stage group.
    const LAPS: bool = false;

    /// Receives one event.
    #[inline]
    fn observe(&mut self, _ev: &KernelEvent) {}

    /// Asked at every cycle boundary, before the cycle runs; `true` makes
    /// [`Core::drive`] return [`Stop::Paused`] there, `cycle` cycles and
    /// `retired` retirements into the run.
    #[inline]
    fn pause(&mut self, _cycle: u64, _retired: u64) -> bool {
        false
    }
}

impl Observer for () {}

impl<O: Observer> Observer for &mut O {
    const STAGE_EVENTS: bool = O::STAGE_EVENTS;
    const CYCLES: bool = O::CYCLES;
    const LAPS: bool = O::LAPS;

    #[inline]
    fn observe(&mut self, ev: &KernelEvent) {
        (**self).observe(ev);
    }

    #[inline]
    fn pause(&mut self, cycle: u64, retired: u64) -> bool {
        (**self).pause(cycle, retired)
    }
}

impl<A: Observer, B: Observer> Observer for (A, B) {
    const STAGE_EVENTS: bool = A::STAGE_EVENTS || B::STAGE_EVENTS;
    const CYCLES: bool = A::CYCLES || B::CYCLES;
    const LAPS: bool = A::LAPS || B::LAPS;

    #[inline]
    fn observe(&mut self, ev: &KernelEvent) {
        self.0.observe(ev);
        self.1.observe(ev);
    }

    #[inline]
    fn pause(&mut self, cycle: u64, retired: u64) -> bool {
        self.0.pause(cycle, retired) | self.1.pause(cycle, retired)
    }
}

/// Pauses [`Core::drive`] at the first cycle boundary that reaches a
/// target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PauseAt {
    /// The core has run this many cycles.
    Cycle(u64),
    /// This many instructions have retired.
    Retired(u64),
}

impl Observer for PauseAt {
    #[inline]
    fn pause(&mut self, cycle: u64, retired: u64) -> bool {
        match *self {
            PauseAt::Cycle(target) => cycle >= target,
            PauseAt::Retired(target) => retired >= target,
        }
    }
}

/// Why [`Core::drive`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// `Halt` retired; [`Core::run`](crate::Core::run) packages the report.
    Halted,
    /// The observer paused the core at a cycle boundary.
    Paused,
}

impl Pipeline {
    /// Per-cycle guards, in one place: cycle limit, the cancel token
    /// (budget/cancel/heartbeat) and the retirement watchdog.
    fn cycle_gate(&mut self, cycle_limit: u64) -> Result<(), CoreError> {
        if self.now >= cycle_limit {
            return Err(CoreError::CycleLimit(cycle_limit));
        }
        if let Some(token) = &self.cancel {
            token.poll(self.now)?;
        }
        if self.stats.retired != self.last_retired.1 {
            self.last_retired = (self.now, self.stats.retired);
        } else if self.now - self.last_retired.0 > self.cfg.watchdog_cycles {
            return Err(CoreError::Deadlock { cycle: self.now, state: self.dump_state() });
        }
        Ok(())
    }

    /// Advances the pipeline by one cycle: the guard gate, then the stages
    /// in reverse pipeline order so each stage observes the state the
    /// younger stages left at the end of the previous cycle. On the
    /// halting cycle, commit runs alone and the cycle is neither counted
    /// nor accounted (matching the architectural definition of `cycles`).
    fn step_cycle<O: Observer>(&mut self, cycle_limit: u64, obs: &mut O) -> Result<(), CoreError> {
        self.cycle_gate(cycle_limit)?;
        if O::CYCLES {
            obs.observe(&KernelEvent::Cycle(self.snap()));
        }
        let retired_before = self.stats.retired;
        let idle = SchedWork::default();
        self.commit()?;
        lap(obs, Stage::Commit, idle);
        if self.halted {
            return Ok(());
        }
        self.complete();
        lap(obs, Stage::Lsq, idle);
        let sched = self.issue();
        lap(obs, Stage::Scheduler, sched);
        self.dispatch();
        lap(obs, Stage::Dispatch, idle);
        self.fetch()?;
        lap(obs, Stage::Frontend, idle);
        self.account_cycle(retired_before);
        self.now += 1;
        Ok(())
    }
}

#[inline]
fn lap<O: Observer>(obs: &mut O, stage: Stage, sched: SchedWork) {
    if O::LAPS {
        obs.observe(&KernelEvent::StageLap { stage, sched });
    }
}

impl Core {
    /// Steps the kernel until `Halt` retires or `obs` pauses it, handing
    /// `obs` every event it asked for. Resumable: drive again to continue
    /// from exactly where it paused; once halted, `drive` returns
    /// [`Stop::Halted`] at once and [`Core::run`](crate::Core::run)
    /// packages the report.
    ///
    /// # Errors
    ///
    /// The same [`CoreError`]s as [`Core::run`](crate::Core::run); the
    /// kernel is dead after an error.
    pub fn drive<O: Observer>(&mut self, cycle_limit: u64, obs: &mut O) -> Result<Stop, CoreError> {
        let p = &mut self.p;
        if O::STAGE_EVENTS {
            p.outbox.get_or_insert_with(Vec::new);
        } else {
            p.outbox = None;
        }
        loop {
            if p.halted {
                return Ok(Stop::Halted);
            }
            if obs.pause(p.now, p.stats.retired) {
                return Ok(Stop::Paused);
            }
            let stepped = p.step_cycle(cycle_limit, obs);
            if O::STAGE_EVENTS {
                for ev in p.outbox.iter_mut().flat_map(|out| out.drain(..)) {
                    obs.observe(&ev);
                }
            }
            stepped?;
            if p.halted {
                obs.observe(&KernelEvent::Halted(p.snap()));
            }
        }
    }
}
