//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultSpec`] names one fault class and the dynamic occurrence of its
//! injection site at which it fires. The core threads injection points
//! through the pipeline (predictor lookup, BQ/TQ execute-side pushes, the
//! VQ renamer's pop mapping, load latency); when the armed site is reached
//! for the `nth` time, the fault fires exactly once and is tagged with the
//! cycle and site in an [`InjectionRecord`].
//!
//! The detection contract (exercised by `cfd-harden`): every injected
//! fault must end in one of
//!
//! * an architecturally identical result (the fault was masked),
//! * a typed [`CoreError`] naming the faulting structure
//!   (oracle mismatch, program error), or
//! * a bounded-latency watchdog trip
//!   ([`CoreError::Deadlock`](crate::CoreError)).
//!
//! Silent divergence — a run that completes with wrong architectural
//! state — is a harness failure, not an acceptable outcome.

use crate::core::CoreError;

/// The class of fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Invert the direction predictor's prediction at a predict site
    /// (plain branch or speculative BQ pop). Must be masked: a flipped
    /// prediction is indistinguishable from a misprediction and recovers
    /// through the normal checkpoint/retire machinery.
    PredictorFlip,
    /// Invert the predicate value the executing `Push_BQ` writes into its
    /// BQ entry. The fetch-resident pop steers the wrong way, so the
    /// retired path diverges from the functional oracle.
    BqCorrupt,
    /// Drop the `Push_BQ` execute-side write: the BQ entry never fills,
    /// its pop is never verified, and commit stalls until the watchdog
    /// trips.
    BqDrop,
    /// Corrupt the trip count the executing `Push_TQ` writes (off by one).
    /// `Branch_on_TCR` runs the loop a wrong number of times and the
    /// retired path diverges from the oracle.
    TqCorrupt,
    /// Corrupt the VQ renamer's pop mapping at dispatch: the `Pop_VQ`
    /// reads a different physical register than the one its push wrote.
    VqRemapCorrupt,
    /// Delay one load's memory response by this many cycles. Timing-only:
    /// must be architecturally masked.
    MemDelay(u64),
}

/// A pipeline location where faults can be injected.
///
/// Each site is threaded through exactly one stage module (DESIGN.md
/// §12), so a fault's blast radius is bounded by that stage's writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Direction-predictor lookup at fetch (`frontend.rs`).
    PredictorPredict,
    /// `Push_BQ` writing its predicate at execute (`commit.rs`,
    /// `execute_push_bq` — BQ pushes resolve on the retire/verify side).
    BqExecutePush,
    /// `Push_TQ` writing its trip count at execute (`scheduler.rs`,
    /// `execute_at`).
    TqExecutePush,
    /// `Pop_VQ` reading the renamer mapping at dispatch (`dispatch.rs`).
    VqRenamePop,
    /// Load accessing the data-cache hierarchy at execute
    /// (`scheduler.rs`, `execute_at`).
    LoadAccess,
}

impl FaultSite {
    /// Stable, machine-readable site name (used in verdict tables).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::PredictorPredict => "fetch.predictor",
            FaultSite::BqExecutePush => "execute.push_bq",
            FaultSite::TqExecutePush => "execute.push_tq",
            FaultSite::VqRenamePop => "dispatch.pop_vq",
            FaultSite::LoadAccess => "execute.load",
        }
    }
}

impl FaultKind {
    /// The pipeline site this fault class targets.
    pub fn site(self) -> FaultSite {
        match self {
            FaultKind::PredictorFlip => FaultSite::PredictorPredict,
            FaultKind::BqCorrupt | FaultKind::BqDrop => FaultSite::BqExecutePush,
            FaultKind::TqCorrupt => FaultSite::TqExecutePush,
            FaultKind::VqRemapCorrupt => FaultSite::VqRenamePop,
            FaultKind::MemDelay(_) => FaultSite::LoadAccess,
        }
    }

    /// Stable, machine-readable class name (used in verdict tables).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::PredictorFlip => "predictor_flip",
            FaultKind::BqCorrupt => "bq_corrupt",
            FaultKind::BqDrop => "bq_drop",
            FaultKind::TqCorrupt => "tq_corrupt",
            FaultKind::VqRemapCorrupt => "vq_remap_corrupt",
            FaultKind::MemDelay(_) => "mem_delay",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::MemDelay(n) => write!(f, "mem_delay({n})"),
            k => f.write_str(k.name()),
        }
    }
}

/// One fault to inject: a class and the dynamic occurrence (0-based) of
/// its site at which it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Fire at the `nth` dynamic visit of the targeted site (0-based).
    pub nth: u64,
}

/// Proof that a fault actually fired: the class, the cycle, and the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionRecord {
    /// The injected fault class.
    pub kind: FaultKind,
    /// Cycle at which it fired.
    pub cycle: u64,
    /// Stable site name (see [`FaultSite::name`]).
    pub site: &'static str,
}

/// Runtime state of a configured fault: occurrence counting plus the
/// injection record once fired.
#[derive(Debug, Clone)]
pub struct FaultState {
    spec: FaultSpec,
    seen: u64,
    fired: Option<InjectionRecord>,
}

impl FaultState {
    /// Arms `spec`; nothing fires until the site's `nth` visit.
    pub fn new(spec: FaultSpec) -> FaultState {
        FaultState { spec, seen: 0, fired: None }
    }

    /// The configured fault.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// The injection record, once the fault has fired.
    pub fn fired(&self) -> Option<&InjectionRecord> {
        self.fired.as_ref()
    }

    /// Called by the core at each visit of `site` on cycle `now`; returns
    /// the fault kind exactly once, at the armed occurrence.
    pub(crate) fn visit(&mut self, site: FaultSite, now: u64) -> Option<FaultKind> {
        if self.fired.is_some() || self.spec.kind.site() != site {
            return None;
        }
        let n = self.seen;
        self.seen += 1;
        if n == self.spec.nth {
            self.fired = Some(InjectionRecord { kind: self.spec.kind, cycle: now, site: site.name() });
            Some(self.spec.kind)
        } else {
            None
        }
    }
}

/// Everything [`Core::run_diag`](crate::Core::run_diag) returns on a
/// failed run: the typed error plus post-mortem diagnostics.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// The failure, naming the faulting structure.
    pub error: CoreError,
    /// Rendered post-mortem: the final pipeline state line plus the
    /// per-cycle snapshot ring.
    pub post_mortem: String,
    /// The injected fault, when one was configured and actually fired.
    pub injection: Option<InjectionRecord>,
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "core failure: {}", self.error)?;
        if let Some(inj) = &self.injection {
            writeln!(f, "injected fault: {} at cycle {} site {}", inj.kind, inj.cycle, inj.site)?;
        }
        f.write_str(&self.post_mortem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_once_at_nth_visit() {
        let mut s = FaultState::new(FaultSpec { kind: FaultKind::BqCorrupt, nth: 2 });
        assert_eq!(s.visit(FaultSite::BqExecutePush, 10), None);
        assert_eq!(s.visit(FaultSite::BqExecutePush, 11), None);
        assert_eq!(s.visit(FaultSite::BqExecutePush, 12), Some(FaultKind::BqCorrupt));
        assert_eq!(s.visit(FaultSite::BqExecutePush, 13), None);
        let rec = s.fired().unwrap();
        assert_eq!(rec.cycle, 12);
        assert_eq!(rec.site, "execute.push_bq");
    }

    #[test]
    fn other_sites_do_not_count() {
        let mut s = FaultState::new(FaultSpec { kind: FaultKind::TqCorrupt, nth: 0 });
        assert_eq!(s.visit(FaultSite::BqExecutePush, 1), None);
        assert_eq!(s.visit(FaultSite::LoadAccess, 2), None);
        assert_eq!(s.visit(FaultSite::TqExecutePush, 3), Some(FaultKind::TqCorrupt));
    }

    #[test]
    fn site_names_are_stable() {
        assert_eq!(FaultKind::PredictorFlip.site().name(), "fetch.predictor");
        assert_eq!(FaultKind::MemDelay(7).site().name(), "execute.load");
        assert_eq!(FaultKind::MemDelay(7).to_string(), "mem_delay(7)");
        assert_eq!(FaultKind::BqDrop.site(), FaultKind::BqCorrupt.site());
    }
}
