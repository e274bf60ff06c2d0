//! Diagnostics for the static CFD queue-discipline verifier.
//!
//! [`lint_program`](crate::lint_program) reports its findings as a
//! [`LintReport`]: a list of [`Diagnostic`]s (each carrying the violated
//! [`Rule`], a [`Severity`], the program counter, the nearest enclosing
//! label and any source annotation at that pc) plus the proved static
//! occupancy bounds per queue, and renders as a fixed-width table for
//! humans (`cfd-bench` owns its JSON form, next to the reader).

use cfd_isa::{Program, QueueKind};
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: nothing wrong, but worth knowing (e.g. dead code).
    Info,
    /// Suspicious but not provably unsafe.
    Warning,
    /// A proven or unprovable-safe queue-discipline violation.
    Error,
}

impl Severity {
    /// Lower-case name used in JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The queue-discipline rules the verifier checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// A push can exceed the configured queue size (strip mining with a
    /// chunk that fits would remove this).
    Overflow,
    /// Queue occupancy grows without any static bound at all — the
    /// leading loop is not strip-mined.
    UnboundedOccupancy,
    /// A pop can execute on an empty queue.
    Underflow,
    /// The program can reach its exit with entries still queued: the
    /// leading and trailing loops do not push/pop in balance.
    UnbalancedAtExit,
    /// A `Forward_BQ` executes with no `Mark_BQ` active on some path.
    ForwardWithoutMark,
    /// A `Branch_on_TCR` executes before any `Pop_TQ` loaded the
    /// trip-count register on some path.
    BranchTcrWithoutTrip,
    /// A `Push_TQ` sits inside the TCR-driven decoupled inner loop it
    /// feeds — trip counts must be generated outside that loop.
    PushTqInTcrLoop,
    /// A queue restore executes with no matching save on some path.
    RestoreWithoutSave,
    /// The control-flow graph has an irreducible cycle; the verifier
    /// cannot reason about it and gives up on the whole program.
    IrreducibleCfg,
    /// Code that can never execute (analysis skips it).
    UnreachableCode,
    /// The analysis hit an internal complexity limit and degraded; any
    /// check that then fails is reported by its own rule, so this alone
    /// is informational.
    AnalysisDegraded,
    /// A store sits in the leading (speculative) loop of a CFD-spec
    /// output — stores must never be hoisted past later iterations.
    HoistedStore,
    /// A load sits in the leading loop of a CFD-spec output without a
    /// speculation-safety proof (unknown or store-conflicting address).
    HoistedUnsafeLoad,
}

impl Rule {
    /// Stable kebab-case name used in JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::Overflow => "overflow",
            Rule::UnboundedOccupancy => "unbounded-occupancy",
            Rule::Underflow => "underflow",
            Rule::UnbalancedAtExit => "unbalanced-at-exit",
            Rule::ForwardWithoutMark => "forward-without-mark",
            Rule::BranchTcrWithoutTrip => "branch-tcr-without-trip",
            Rule::PushTqInTcrLoop => "push-tq-in-tcr-loop",
            Rule::RestoreWithoutSave => "restore-without-save",
            Rule::IrreducibleCfg => "irreducible-cfg",
            Rule::UnreachableCode => "unreachable-code",
            Rule::AnalysisDegraded => "analysis-degraded",
            Rule::HoistedStore => "hoisted-store",
            Rule::HoistedUnsafeLoad => "hoisted-unsafe-load",
        }
    }
}

/// One finding, anchored to a program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: Rule,
    /// Severity of this instance.
    pub severity: Severity,
    /// The queue involved, when the rule concerns one.
    pub queue: Option<QueueKind>,
    /// The instruction the finding anchors to, when it has one.
    pub pc: Option<u32>,
    /// The nearest label at or before `pc`.
    pub label: Option<String>,
    /// The source annotation attached at `pc`, if any.
    pub annotation: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic and resolves its label/annotation spans
    /// against `program`.
    pub fn new(
        rule: Rule,
        severity: Severity,
        queue: Option<QueueKind>,
        pc: Option<u32>,
        message: String,
        program: &Program,
    ) -> Diagnostic {
        let label = pc.and_then(|pc| {
            program
                .labels()
                .filter(|&(_, at)| at <= pc)
                .max_by_key(|&(name, at)| (at, std::cmp::Reverse(name.to_string())))
                .map(|(name, _)| name.to_string())
        });
        let annotation = pc.and_then(|pc| program.annotation(pc).map(str::to_string));
        Diagnostic { rule, severity, queue, pc, label, annotation, message }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.severity.name(), self.rule.name())?;
        if let Some(q) = self.queue {
            write!(f, " [{}]", q.name())?;
        }
        match (self.pc, &self.label) {
            (Some(pc), Some(l)) => write!(f, " at pc {pc} ({l})")?,
            (Some(pc), None) => write!(f, " at pc {pc}")?,
            _ => {}
        }
        write!(f, ": {}", self.message)
    }
}

/// The proved static occupancy bound per queue: `Some(n)` means the
/// verifier proved occupancy never exceeds `n`; `None` means it found no
/// finite bound (an [`Rule::UnboundedOccupancy`] error accompanies it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueBounds {
    /// Branch-queue bound.
    pub bq: Option<u64>,
    /// Value-queue bound.
    pub vq: Option<u64>,
    /// Trip-count-queue bound.
    pub tq: Option<u64>,
}

impl QueueBounds {
    /// The bound for a queue.
    pub fn get(&self, q: QueueKind) -> Option<u64> {
        match q {
            QueueKind::Bq => self.bq,
            QueueKind::Vq => self.vq,
            QueueKind::Tq => self.tq,
        }
    }
}

/// Everything [`lint_program`](crate::lint_program) found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// All findings, in program order (pc-less findings first).
    pub diagnostics: Vec<Diagnostic>,
    /// Proved per-queue static occupancy bounds.
    pub bounds: QueueBounds,
}

impl LintReport {
    /// `true` when no error-severity finding exists — the program's
    /// queue discipline is proved safe under the lint configuration.
    pub fn clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Renders the findings as a human-readable listing.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let b = |x: Option<u64>| x.map_or("unbounded".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "verdict: {}  (static bounds: bq<={}, vq<={}, tq<={})\n",
            if self.clean() { "clean" } else { "VIOLATIONS" },
            b(self.bounds.bq),
            b(self.bounds.vq),
            b(self.bounds.tq)
        ));
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_isa::Assembler;

    fn program_with_labels() -> Program {
        let mut a = Assembler::new();
        let r = cfd_isa::Reg::new(1);
        a.label("start");
        a.li(r, 1);
        a.label("body");
        a.annotate("the annotated op");
        a.addi(r, r, 1);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn spans_resolve_to_nearest_label_and_annotation() {
        let p = program_with_labels();
        let d = Diagnostic::new(Rule::Underflow, Severity::Error, Some(QueueKind::Bq), Some(1), "m".into(), &p);
        assert_eq!(d.label.as_deref(), Some("body"));
        assert_eq!(d.annotation.as_deref(), Some("the annotated op"));
        let d0 = Diagnostic::new(Rule::Underflow, Severity::Error, None, Some(0), "m".into(), &p);
        assert_eq!(d0.label.as_deref(), Some("start"));
    }

    #[test]
    fn clean_report_renders() {
        let r = LintReport { diagnostics: vec![], bounds: QueueBounds { bq: Some(1), vq: Some(0), tq: Some(0) } };
        assert!(r.clean());
        assert!(r.table().contains("clean"));
    }
}
