//! Host-side stage self-profiler.
//!
//! Attributes host wall time and invocation counts to the five stage
//! groups the step loop sequences every cycle. [`StageProfiler`] is an
//! [`Observer`]: it reads the host clock at each cycle's start and at
//! every [`KernelEvent::StageLap`], so the kernel itself never reads a
//! clock and an unprofiled run pays nothing.
//! [`Core::run_profiled`](crate::Core::run_profiled) returns its
//! [`StageProfile`] next to the ordinary [`RunReport`](crate::RunReport),
//! and the report is byte-identical to an unprofiled run — timing is
//! observability only and never feeds back into simulated state.
//!
//! Shares are computed in **basis points** with largest-remainder
//! rounding so they always sum to exactly 10 000 (100.00%) whenever any
//! time was recorded — the invariant the `simperf --profile` CI gate
//! asserts.

use crate::kernel::{KernelEvent, Observer};
use std::fmt::Write as _;
use std::time::Instant;

/// Number of profiled stage buckets.
pub const STAGE_COUNT: usize = 5;

/// Bucket names, in pipeline order from the front end down to commit.
pub const STAGE_NAMES: [&str; STAGE_COUNT] = ["frontend", "dispatch", "scheduler", "lsq", "commit"];

/// A profiled stage bucket; the discriminant indexes [`STAGE_NAMES`]
/// and the arrays in [`StageProfile`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Fetch/decode/rename delivery, BTB + direction prediction, and
    /// the fetch-resident BQ/TQ machinery (`fetch`).
    Frontend = 0,
    /// Rename, ROB/IQ/LSQ allocation, checkpoints (`dispatch`).
    Dispatch = 1,
    /// Event-driven wakeup + oldest-first select + execute (`issue`).
    Scheduler = 2,
    /// Load/store completion, forwarding, cache hierarchy (`complete`).
    Lsq = 3,
    /// In-order retirement, oracle check, predictor training (`commit`).
    Commit = 4,
}

/// Host wall-time attribution for one run (or several merged runs).
///
/// All fields are plain integers so merged profiles aggregate exactly;
/// only the `ns` column is host-dependent — `calls`, `cycles` and the
/// scheduler counters are deterministic simulation facts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// Accumulated host nanoseconds per bucket.
    pub ns: [u64; STAGE_COUNT],
    /// Stage invocations per bucket (commit also runs on the halting
    /// cycle, so its count can exceed `cycles` by one per run).
    pub calls: [u64; STAGE_COUNT],
    /// Simulated cycles covered by this profile.
    pub cycles: u64,
    /// Readiness checks the event-driven scheduler performed.
    pub sched_ready_checks: u64,
    /// Wakeup events the scheduler processed.
    pub sched_wakeup_events: u64,
    /// Readiness checks a per-cycle polling scheduler would have done.
    pub sched_poll_equiv: u64,
}

impl StageProfile {
    /// Folds `other` into `self` (per-bucket and counter sums).
    pub fn merge(&mut self, other: &StageProfile) {
        for i in 0..STAGE_COUNT {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
        self.cycles += other.cycles;
        self.sched_ready_checks += other.sched_ready_checks;
        self.sched_wakeup_events += other.sched_wakeup_events;
        self.sched_poll_equiv += other.sched_poll_equiv;
    }

    /// Total profiled nanoseconds across all buckets.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Per-bucket share of total time in basis points (1/100 of a
    /// percent), largest-remainder rounded so the shares sum to exactly
    /// 10 000 whenever `total_ns() > 0` (all zeros otherwise). Ties go
    /// to the earlier bucket, keeping the rounding deterministic.
    pub fn shares_bp(&self) -> [u64; STAGE_COUNT] {
        let total: u128 = self.ns.iter().map(|&n| u128::from(n)).sum();
        if total == 0 {
            return [0; STAGE_COUNT];
        }
        let mut bp = [0u64; STAGE_COUNT];
        let mut assigned = 0u64;
        let mut remainders = [(0u128, 0usize); STAGE_COUNT];
        for i in 0..STAGE_COUNT {
            let scaled = u128::from(self.ns[i]) * 10_000;
            bp[i] = (scaled / total) as u64;
            assigned += bp[i];
            remainders[i] = (scaled % total, i);
        }
        remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, i) in remainders.iter().take((10_000 - assigned) as usize) {
            bp[i] += 1;
        }
        bp
    }

    /// Plain-text per-stage table (name, ns, calls, share) plus a
    /// totals row. Shares render as `DD.DD%` from [`shares_bp`](Self::shares_bp),
    /// so the printed column sums to exactly 100.00%.
    pub fn table(&self) -> String {
        let bp = self.shares_bp();
        let mut out = format!("{:<10} {:>14} {:>12} {:>8}\n", "stage", "ns", "calls", "share");
        for i in 0..STAGE_COUNT {
            let share = format!("{}.{:02}%", bp[i] / 100, bp[i] % 100);
            let _ = writeln!(out, "{:<10} {:>14} {:>12} {share:>8}", STAGE_NAMES[i], self.ns[i], self.calls[i]);
        }
        let total_bp: u64 = bp.iter().sum();
        let share = format!("{}.{:02}%", total_bp / 100, total_bp % 100);
        let calls: u64 = self.calls.iter().sum();
        let _ = writeln!(out, "{:<10} {:>14} {:>12} {share:>8}", "TOTAL", self.total_ns(), calls);
        out
    }
}

/// The stage profiler: an [`Observer`] filling a [`StageProfile`] from
/// the host clock and the kernel's stage laps.
#[derive(Debug, Clone)]
pub struct StageProfiler {
    /// The profile collected so far.
    pub profile: StageProfile,
    /// Host time of the previous cycle start or lap.
    mark: Instant,
}

impl Default for StageProfiler {
    fn default() -> StageProfiler {
        StageProfiler { profile: StageProfile::default(), mark: Instant::now() }
    }
}

impl Observer for StageProfiler {
    const CYCLES: bool = true;
    const LAPS: bool = true;

    #[inline]
    fn observe(&mut self, ev: &KernelEvent) {
        match ev {
            KernelEvent::Cycle(_) => self.mark = Instant::now(),
            KernelEvent::StageLap { stage, sched } => {
                let now = Instant::now();
                let (p, i) = (&mut self.profile, *stage as usize);
                p.ns[i] += u64::try_from((now - self.mark).as_nanos()).unwrap_or(u64::MAX);
                p.calls[i] += 1;
                p.sched_ready_checks += sched.ready_checks;
                p.sched_wakeup_events += sched.wakeup_events;
                p.sched_poll_equiv += sched.poll_equiv;
                self.mark = now;
            }
            KernelEvent::Halted(snap) => self.profile.cycles = snap.cycle,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_exactly_ten_thousand() {
        // Awkward splits that plain floor-division would round to 9998.
        let shares = |ns| StageProfile { ns, ..Default::default() }.shares_bp();
        assert_eq!(shares([1, 1, 1, 3, 1]).iter().sum::<u64>(), 10_000);
        assert_eq!(shares([333, 333, 333, 1, 0]).iter().sum::<u64>(), 10_000);
        assert_eq!(shares([u64::MAX / 7; STAGE_COUNT]).iter().sum::<u64>(), 10_000);
        assert_eq!(shares([0; STAGE_COUNT]), [0; STAGE_COUNT], "no time recorded means no shares");
    }

    #[test]
    fn merge_is_per_bucket_addition() {
        let mut a = StageProfile { ns: [1, 2, 3, 4, 5], calls: [10, 10, 10, 10, 11], cycles: 10, ..Default::default() };
        let b = StageProfile {
            ns: [5, 4, 3, 2, 1],
            calls: [7, 7, 7, 7, 8],
            cycles: 7,
            sched_ready_checks: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.ns, [6; STAGE_COUNT]);
        assert_eq!(a.calls, [17, 17, 17, 17, 19]);
        assert_eq!(a.cycles, 17);
        assert_eq!(a.sched_ready_checks, 3);
        assert_eq!(a.total_ns(), 30);
    }

    #[test]
    fn table_is_deterministic_given_the_profile() {
        let p = StageProfile { ns: [10, 20, 30, 25, 15], calls: [4, 4, 4, 4, 5], cycles: 4, ..Default::default() };
        let table = p.table();
        assert!(table.contains("frontend"), "{table}");
        assert!(table.contains("100.00%"), "{table}");
        assert_eq!(p.table(), table);
    }

    #[test]
    fn profiled_run_report_matches_plain_run() {
        use cfd_isa::{Assembler, MemImage, Reg};
        let program = || {
            let (i, n, acc) = (Reg::new(1), Reg::new(2), Reg::new(3));
            let mut a = Assembler::new();
            a.li(n, 64);
            a.label("top");
            a.addi(acc, acc, 1);
            a.addi(i, i, 1);
            a.blt(i, n, "top");
            a.halt();
            a.finish().unwrap()
        };
        let plain =
            crate::Core::new(crate::CoreConfig::default(), program(), MemImage::new()).unwrap().run(100_000).unwrap();
        let (report, profile) = crate::Core::new(crate::CoreConfig::default(), program(), MemImage::new())
            .unwrap()
            .run_profiled(100_000)
            .unwrap();
        assert_eq!(report.stats.cycles, plain.stats.cycles, "profiling must not perturb simulated time");
        assert_eq!(report.stats.retired, plain.stats.retired);
        assert_eq!(report.stats.mispredictions, plain.stats.mispredictions);
        assert_eq!(profile.cycles, report.stats.cycles);
        assert!(profile.calls.iter().all(|&c| c > 0), "every stage ran: {profile:?}");
        assert!(profile.calls[Stage::Commit as usize] >= profile.cycles);
        assert_eq!(profile.shares_bp().iter().sum::<u64>(), 10_000);
    }
}
