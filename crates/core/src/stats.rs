//! Simulation statistics and the run report.

use crate::fault::InjectionRecord;
use cfd_energy::{EnergyBreakdown, EnergyModel, EventCounts};
use cfd_mem::{CacheStats, MemLevel};
use cfd_obs::{CpiStack, CPI_COMPONENTS};
use std::collections::BTreeMap;

/// Per-static-branch statistics (retired instances only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStat {
    /// Retired executions.
    pub executed: u64,
    /// Retired taken outcomes.
    pub taken: u64,
    /// Mispredictions (counted at resolution of retired branches).
    pub mispredicted: u64,
    /// Mispredictions by the furthest memory level feeding the branch:
    /// index 0 = no memory dependence ("NoData"), 1..=4 = L1/L2/L3/MEM.
    pub mispredicted_by_level: [u64; 5],
}

/// Index into [`BranchStat::mispredicted_by_level`] for a taint.
pub fn level_index(taint: Option<MemLevel>) -> usize {
    match taint {
        None => 0,
        Some(MemLevel::L1) => 1,
        Some(MemLevel::L2) => 2,
        Some(MemLevel::L3) => 3,
        Some(MemLevel::Mem) => 4,
    }
}

/// Aggregate core statistics.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Cycles elapsed.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Instructions fetched (correct + wrong path).
    pub fetched: u64,
    /// Instructions fetched on the wrong path (later squashed).
    pub wrong_path_fetched: u64,
    /// Instructions issued to function units.
    pub issued: u64,
    /// Wrong-path instructions issued.
    pub wrong_path_issued: u64,
    /// Conditional control instructions retired (plain + CFD pops).
    pub retired_branches: u64,
    /// Retired branches that had mispredicted.
    pub mispredictions: u64,
    /// `Branch_on_BQ` pops resolved non-speculatively at fetch.
    pub bq_hits: u64,
    /// `Branch_on_BQ` pops that missed (late push).
    pub bq_misses: u64,
    /// Late-push verifications that failed (speculative pop recovery).
    pub bq_spec_recoveries: u64,
    /// Cycles fetch stalled on a full BQ (push side).
    pub bq_push_stall_cycles: u64,
    /// Cycles fetch stalled on a BQ miss under the stall policy.
    pub bq_miss_stall_cycles: u64,
    /// `Pop_TQ`s that hit at fetch.
    pub tq_hits: u64,
    /// Cycles fetch stalled on a TQ miss.
    pub tq_miss_stall_cycles: u64,
    /// Cycles fetch stalled on a full TQ (push side).
    pub tq_push_stall_cycles: u64,
    /// Recoveries performed immediately (checkpointed branches).
    pub immediate_recoveries: u64,
    /// Recoveries deferred to retirement (no checkpoint available).
    pub retire_recoveries: u64,
    /// Checkpoints allocated.
    pub checkpoints_allocated: u64,
    /// Checkpoint wanted but none free.
    pub checkpoints_denied: u64,
    /// Checkpoint not wanted (confident branch).
    pub checkpoints_unwanted: u64,
    /// BTB misfetch bubbles (taken control instruction missing in BTB).
    pub btb_misfetches: u64,
    /// L1 instruction-cache misses (fetch bubbles).
    pub icache_misses: u64,
    /// Store-to-load forwards in the LSQ.
    pub lsq_forwards: u64,
    /// Maximum architectural BQ occupancy observed at retirement.
    pub max_bq_occupancy: u64,
    /// Maximum architectural VQ occupancy observed at retirement.
    pub max_vq_occupancy: u64,
    /// Maximum architectural TQ occupancy observed at retirement.
    pub max_tq_occupancy: u64,
    /// Faults injected by the fault-injection harness (0 in normal runs).
    pub faults_injected: u64,
    /// Recoveries attributable to an injected fault: recovery events
    /// (immediate, retire-time or BQ-speculation) observed after the
    /// injection cycle. Bounds the fault's recovery latency in events.
    pub post_fault_recoveries: u64,
    /// CPI-stack slot attribution, indexed by
    /// [`cfd_obs::CpiComponent::index`]. Every retire-width slot of every
    /// counted cycle lands in exactly one component, so the array sums to
    /// exactly `cycles × width` (see [`CoreStats::cpi_stack`]).
    pub cpi_slots: [u64; CPI_COMPONENTS],
    /// Per-PC branch statistics.
    pub branches: BTreeMap<u32, BranchStat>,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Mispredictions per 1000 retired instructions.
    pub fn mpki(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            1000.0 * self.mispredictions as f64 / self.retired as f64
        }
    }

    /// The CPI stack over this run's slot attribution.
    ///
    /// Invariant (enforced by a `debug_assert` when the report is built
    /// and by a tier-1 test): `cpi_stack().check(cycles, width)` holds
    /// with **zero slack**. The core attributes each of the `width` retire
    /// slots of every counted cycle to exactly one component; the final
    /// (halting) cycle is excluded from `cycles` and from the attribution
    /// alike, so the sum is exact.
    pub fn cpi_stack(&self) -> CpiStack {
        CpiStack::from_slots(self.cpi_slots)
    }

    /// Misprediction breakdown by feeding memory level, summed over all
    /// branches: `[NoData, L1, L2, L3, MEM]`.
    pub fn mispredictions_by_level(&self) -> [u64; 5] {
        let mut out = [0u64; 5];
        for b in self.branches.values() {
            for (o, v) in out.iter_mut().zip(b.mispredicted_by_level) {
                *o += v;
            }
        }
        out
    }
}

/// Everything a finished simulation reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Core statistics.
    pub stats: CoreStats,
    /// Energy event counters.
    pub events: EventCounts,
    /// (L1D, L2, L3) cache statistics.
    pub cache_stats: (CacheStats, CacheStats, CacheStats),
    /// L1 MSHR occupancy histogram (cycles at each occupancy).
    pub mshr_histogram: Vec<u64>,
    /// Demand accesses serviced per level `[L1, L2, L3, MEM]`.
    pub level_counts: [u64; 4],
    /// The injected fault that fired during this run, if any. A completed
    /// run with a fired injection means the fault was architecturally
    /// masked (the retirement oracle verified every instruction).
    pub injection: Option<InjectionRecord>,
}

impl RunReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Total energy under `model`.
    pub fn energy(&self, model: &EnergyModel) -> EnergyBreakdown {
        model.breakdown(&self.events)
    }

    /// Speedup of this run over `baseline` for the *same work*
    /// (cycles_baseline / cycles_self), the paper's §VII definition.
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.stats.cycles as f64 / self.stats.cycles.max(1) as f64
    }

    /// Effective IPC against a reference instruction count
    /// (`instructions_baseline / cycles_self`, §VII).
    pub fn effective_ipc(&self, baseline_instructions: u64) -> f64 {
        baseline_instructions as f64 / self.stats.cycles.max(1) as f64
    }

    /// Instruction overhead factor versus a baseline run of the same
    /// region (Table III).
    pub fn overhead_over(&self, baseline: &RunReport) -> f64 {
        self.stats.retired as f64 / baseline.stats.retired.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_mpki() {
        let s = CoreStats { cycles: 100, retired: 250, mispredictions: 5, ..Default::default() };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.mpki() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_safe() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mpki(), 0.0);
    }

    #[test]
    fn level_breakdown_sums_branches() {
        let mut s = CoreStats::default();
        let b1 = BranchStat { mispredicted_by_level: [1, 0, 2, 0, 3], ..Default::default() };
        let b2 = BranchStat { mispredicted_by_level: [0, 1, 0, 0, 1], ..Default::default() };
        s.branches.insert(4, b1);
        s.branches.insert(9, b2);
        assert_eq!(s.mispredictions_by_level(), [1, 1, 2, 0, 4]);
    }

    #[test]
    fn cpi_stack_wraps_slot_array() {
        let mut s = CoreStats::default();
        s.cpi_slots[0] = 10; // base
        s.cpi_slots[8] = 2; // backend
        assert_eq!(s.cpi_stack().total(), 12);
        assert!(s.cpi_stack().check(3, 4).is_ok());
        assert!(s.cpi_stack().check(3, 5).is_err());
    }

    #[test]
    fn level_index_mapping() {
        assert_eq!(level_index(None), 0);
        assert_eq!(level_index(Some(MemLevel::L1)), 1);
        assert_eq!(level_index(Some(MemLevel::Mem)), 4);
    }
}
