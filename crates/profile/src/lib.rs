//! # cfd-profile — branch profiling and misprediction characterization
//!
//! The paper's §II methodology: run every benchmark to completion under a
//! PIN tool that feeds each conditional branch to a state-of-the-art
//! predictor and records per-static-branch misprediction statistics, then
//! classify the hard branches' control-dependent regions. This crate is
//! that tool for `cfd-isa` programs:
//!
//! * [`profile`] — replay a workload's retirement stream through any
//!   `cfd-predictor` predictor (immediate update, like the pintool),
//! * [`ProfileReport`] — per-branch and aggregate MPKI,
//! * [`classified_mpki`] — joins the profile with `cfd-analysis`'s static
//!   classification to produce the paper's Fig. 6c class breakdown.
//!
//! # Example
//!
//! ```
//! use cfd_profile::profile;
//! use cfd_workloads::{by_name, Scale, Variant};
//!
//! let w = by_name("soplex_ref_like").unwrap().build(Variant::Base, Scale { n: 500, seed: 1 });
//! let rep = profile(&w, "isl-tage", 10_000_000).unwrap();
//! assert!(rep.mpki() > 10.0, "a hard separable branch dominates");
//! ```

use cfd_analysis::{classify_program, BranchClass};
use cfd_isa::{Instr, Machine, RetireEvent, SimError, TraceSink};
use cfd_predictor::{predictor_by_name, DirectionPredictor};
use cfd_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt;

/// Per-static-branch profile counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BranchProfile {
    /// Dynamic executions.
    pub executed: u64,
    /// Taken outcomes.
    pub taken: u64,
    /// Mispredictions under the profiled predictor.
    pub mispredicted: u64,
}

impl BranchProfile {
    /// Misprediction rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.executed as f64
        }
    }
}

/// A completed profile of one workload run.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Workload name.
    pub name: &'static str,
    /// Predictor used.
    pub predictor: &'static str,
    /// Total retired instructions.
    pub instructions: u64,
    /// Total conditional branches.
    pub branches: u64,
    /// Total mispredictions.
    pub mispredictions: u64,
    /// Per-PC counters (plain conditional branches only).
    pub per_branch: BTreeMap<u32, BranchProfile>,
}

impl ProfileReport {
    /// Mispredictions per 1000 instructions — the paper's headline metric.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * self.mispredictions as f64 / self.instructions as f64
        }
    }

    /// Overall misprediction rate over conditional branches.
    pub fn miss_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.branches as f64
        }
    }

    /// The top contributors, sorted by misprediction count, descending.
    pub fn top_branches(&self, k: usize) -> Vec<(u32, &BranchProfile)> {
        let mut v: Vec<(u32, &BranchProfile)> = self.per_branch.iter().map(|(pc, b)| (*pc, b)).collect();
        v.sort_by_key(|(_, b)| std::cmp::Reverse(b.mispredicted));
        v.truncate(k);
        v
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} instrs, {} branches, {} mispredicts, MPKI {:.2} ({}):",
            self.name,
            self.instructions,
            self.branches,
            self.mispredictions,
            self.mpki(),
            self.predictor
        )?;
        for (pc, b) in self.top_branches(5) {
            writeln!(f, "  pc {pc:5}  exec {:9}  miss {:8}  rate {:.3}", b.executed, b.mispredicted, b.miss_rate())?;
        }
        Ok(())
    }
}

/// Replays conditional branches into the predictor and counts them per PC
/// in a table as long as the program, so a branch costs one indexed
/// update; [`profile`] folds the table into `per_branch` once at the end.
struct ProfileSink<'a> {
    predictor: &'a mut dyn DirectionPredictor,
    per_pc: Vec<BranchProfile>,
}

impl TraceSink for ProfileSink<'_> {
    fn retire(&mut self, ev: &RetireEvent) {
        if let (Instr::Branch { .. }, Some(taken)) = (&ev.instr, ev.taken) {
            let miss = self.predictor.observe(ev.pc as u64 * 4, taken);
            let b = &mut self.per_pc[ev.pc as usize];
            b.executed += 1;
            b.taken += taken as u64;
            b.mispredicted += miss as u64;
        }
    }
}

/// Profiles a workload under the named predictor, running it functionally
/// to completion (bounded by `instruction_limit`).
///
/// # Errors
///
/// Returns [`SimError`] if the workload misbehaves or exceeds the limit.
///
/// # Panics
///
/// Panics on an unknown predictor name.
pub fn profile(workload: &Workload, predictor_name: &str, instruction_limit: u64) -> Result<ProfileReport, SimError> {
    let mut predictor =
        predictor_by_name(predictor_name).unwrap_or_else(|| panic!("unknown predictor `{predictor_name}`"));
    let mut machine = Machine::new(workload.program.clone(), workload.mem.clone());
    let mut sink =
        ProfileSink { predictor: predictor.as_mut(), per_pc: vec![BranchProfile::default(); workload.program.len()] };
    let stats = machine.run(instruction_limit, &mut sink)?;
    let per_branch: BTreeMap<u32, BranchProfile> = (0u32..).zip(sink.per_pc).filter(|(_, b)| b.executed > 0).collect();
    Ok(ProfileReport {
        name: workload.name,
        predictor: predictor.name(),
        instructions: stats.retired,
        branches: per_branch.values().map(|b| b.executed).sum(),
        mispredictions: per_branch.values().map(|b| b.mispredicted).sum(),
        per_branch,
    })
}

/// MPKI attributed to each control-flow class (the paper's Fig. 6c): joins
/// the dynamic profile with the static classifier. Branch classes come
/// from `cfd-analysis`; PCs the classifier cannot place fall into
/// `NotAnalyzed`.
pub fn classified_mpki(workload: &Workload, report: &ProfileReport) -> BTreeMap<BranchClass, f64> {
    let classes: BTreeMap<u32, BranchClass> =
        classify_program(&workload.program).into_iter().map(|r| (r.pc, r.class)).collect();
    let mut out: BTreeMap<BranchClass, f64> = BTreeMap::new();
    if report.instructions == 0 {
        return out;
    }
    for (pc, b) in &report.per_branch {
        let class = classes.get(pc).copied().unwrap_or(BranchClass::NotAnalyzed);
        *out.entry(class).or_insert(0.0) += 1000.0 * b.mispredicted as f64 / report.instructions as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_workloads::{by_name, Scale, Variant};

    fn small(name: &str) -> Workload {
        by_name(name).unwrap().build(Variant::Base, Scale { n: 1_000, seed: 13 })
    }

    #[test]
    fn hard_branch_dominates_soplex_profile() {
        let w = small("soplex_ref_like");
        let rep = profile(&w, "isl-tage", 50_000_000).unwrap();
        let (top_pc, top) = rep.top_branches(1)[0];
        assert_eq!(top_pc, w.interest[0].pc, "the annotated branch is the top contributor");
        assert!(top.miss_rate() > 0.2, "rate {}", top.miss_rate());
    }

    #[test]
    fn loop_branches_are_easy() {
        let w = small("hammock_like");
        let rep = profile(&w, "isl-tage", 50_000_000).unwrap();
        // The hammock branch is hard; the loop back-edge is easy.
        let hammock_pc = w.interest[0].pc;
        for (pc, b) in &rep.per_branch {
            if *pc != hammock_pc {
                assert!(b.miss_rate() < 0.05, "loop branch at {pc} should be easy: {}", b.miss_rate());
            }
        }
    }

    #[test]
    fn classified_mpki_places_separable_class() {
        let w = small("soplex_ref_like");
        let rep = profile(&w, "isl-tage", 50_000_000).unwrap();
        let classes = classified_mpki(&w, &rep);
        let separable = classes.get(&BranchClass::SeparableTotal).copied().unwrap_or(0.0);
        let total: f64 = classes.values().sum();
        assert!(separable > 0.5 * total, "separable dominates: {classes:?}");
    }

    #[test]
    fn weaker_predictors_miss_more() {
        let w = small("gromacs_like");
        let tage = profile(&w, "isl-tage", 50_000_000).unwrap();
        let bimodal = profile(&w, "bimodal", 50_000_000).unwrap();
        assert!(bimodal.mispredictions >= tage.mispredictions);
    }

    #[test]
    fn display_formats() {
        let w = small("gromacs_like");
        let rep = profile(&w, "bimodal", 50_000_000).unwrap();
        let s = rep.to_string();
        assert!(s.contains("MPKI"));
    }
}
