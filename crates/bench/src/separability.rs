//! The `experiments separability` backend: the catalog-wide separability
//! table — every analyzed branch of every base kernel, its heuristic and
//! precise class, the rewrite the automatic selector
//! ([`cfd_analysis::apply_cfd_spec`]) picks, and, for each branch of
//! interest the selector accepts, the differential gates on the result:
//!
//! * the rewrite's lint verdict (queue discipline + speculation contract),
//! * functional-simulation equivalence of the rewritten program against
//!   the original on the kernel's own observables and checked ranges,
//! * a dynamic cross-check ([`cfd_harden::check_disjoint_claims`]) that
//!   no static disjointness claim backing a speculative decision is ever
//!   contradicted by an actual execution.
//!
//! The table is byte-deterministic and locked by a checked-in fixture;
//! [`gate_ok`] is the pass/fail summary `experiments separability` turns
//! into its exit status.

use cfd_analysis::{apply_cfd_spec, classify_program, BranchClass};
use cfd_harden::check_disjoint_claims;
use cfd_isa::Reg;
use cfd_obs::json::quote;
use cfd_workloads::{catalog, Scale, Variant, Workload};

/// Functional-simulation step budget for the equivalence and claim
/// cross-check runs (matches [`cfd_workloads::Workload::observe`]).
const RUN_LIMIT: u64 = 4_000_000_000;

/// The gates applied to one accepted rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedOutcome {
    /// The rewrite the selector actually chose (its
    /// [`cfd_analysis::SpecDecision`] display form).
    pub decision: String,
    /// Loads the leading loop executes ahead of the trailing loop's
    /// stores (each proven safe for a speculative decision).
    pub hoisted_loads: usize,
    /// Error-severity lint findings on the rewritten program.
    pub lint_errors: usize,
    /// Whether the rewritten program reproduces the original's
    /// observables and checked-range checksums exactly.
    pub equivalent: bool,
}

/// One analyzed branch of one catalog base kernel.
#[derive(Debug, Clone)]
pub struct SeparabilityRow {
    /// Catalog kernel name.
    pub kernel: String,
    /// Branch PC in the base program.
    pub pc: u32,
    /// Final class (precise tier included).
    pub class: String,
    /// Class the same-base-register heuristic alone assigns.
    pub heuristic_class: String,
    /// What the automatic selector does with this class.
    pub decision: String,
    /// Loads in the branch's predicate slice (upgraded branches report
    /// the hoist-candidate set instead).
    pub slice_loads: usize,
    /// Hoist candidates proven safe by the value-range/alias tier.
    pub proven_safe_loads: usize,
    /// Hoist candidates the tier could not prove safe.
    pub unsafe_loads: usize,
    /// Static load/store disjointness claims backing the class.
    pub claims: usize,
    /// Claims contradicted by the dynamic footprint cross-check.
    pub contradicted: usize,
    /// Gates on the accepted rewrite (branches of interest only).
    pub applied: Option<AppliedOutcome>,
    /// The selector's rejection, when it refused a branch of interest.
    pub error: Option<String>,
}

/// The rewrite [`apply_cfd_spec`] selects for a class, as the table's
/// decision column.
fn decision_for(class: BranchClass) -> &'static str {
    match class {
        BranchClass::Hammock => "if-convert",
        BranchClass::SeparableTotal => "cfd",
        BranchClass::SeparablePartial => "cfd-partial",
        BranchClass::SeparableLoopBranch => "cfd-tq",
        BranchClass::SpeculativelySeparable => "cfd-spec",
        _ => "none",
    }
}

/// Scratch registers handed to the rewrite passes (matches the lint
/// sweep's transform jobs).
fn transform_scratch() -> Vec<Reg> {
    (28..32).map(Reg::new).collect()
}

/// Runs `w` rebuilt around `program` and compares observables against
/// the original's. Both runs are functional simulations on the kernel's
/// own data image.
fn equivalent_to_base(w: &Workload, program: &cfd_isa::Program) -> bool {
    let rewritten = Workload { program: program.clone(), ..w.clone() };
    match (w.observe(), rewritten.observe()) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    }
}

/// Builds the full separability table over every catalog base kernel.
///
/// The scale only affects constants baked into the programs; the
/// classification, selection, and gates are static apart from the two
/// bounded functional runs per accepted rewrite.
pub fn run_separability(scale: Scale) -> Vec<SeparabilityRow> {
    let scratch = transform_scratch();
    let mut rows = Vec::new();
    for entry in catalog() {
        let w = entry.build(Variant::Base, scale);
        for report in classify_program(&w.program) {
            if report.class == BranchClass::NotAnalyzed {
                continue;
            }
            let (claims, contradicted) = if report.disjoint_claims.is_empty() {
                (0, 0)
            } else {
                match check_disjoint_claims(&w.program, &w.mem, &report.disjoint_claims, RUN_LIMIT) {
                    Ok(obs) => (obs.len(), obs.iter().filter(|o| o.contradicted).count()),
                    // An original kernel that cannot run is itself a
                    // contradiction of the catalog contract.
                    Err(_) => (report.disjoint_claims.len(), report.disjoint_claims.len()),
                }
            };
            let mut row = SeparabilityRow {
                kernel: entry.name.to_string(),
                pc: report.pc,
                class: report.class.to_string(),
                heuristic_class: report.heuristic_class.to_string(),
                decision: decision_for(report.class).to_string(),
                slice_loads: report.slice_loads,
                proven_safe_loads: report.proven_safe_loads,
                unsafe_loads: report.unsafe_loads,
                claims,
                contradicted,
                applied: None,
                error: None,
            };
            // Apply the selector on the branches of interest (the PCs the
            // catalog designates), where an accepted rewrite is expected
            // to survive every gate.
            let of_interest = w.interest.iter().any(|ib| ib.pc == report.pc);
            if of_interest && !matches!(row.decision.as_str(), "if-convert" | "none") {
                match apply_cfd_spec(&w.program, report.pc, 128, 256, &scratch) {
                    Ok(s) => {
                        row.applied = Some(AppliedOutcome {
                            decision: s.decision.to_string(),
                            hoisted_loads: s.hoisted_loads,
                            lint_errors: s.report.lint.error_count(),
                            equivalent: equivalent_to_base(&w, &s.report.program),
                        });
                    }
                    Err(e) => row.error = Some(e.to_string()),
                }
            }
            rows.push(row);
        }
    }
    rows
}

/// Renders separability rows as a fixed-width table.
pub fn table(rows: &[SeparabilityRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>4} {:<24} {:<24} {:<11} {:>5} {:>4} {:>6} {:>6}  applied\n",
        "kernel", "pc", "class", "heuristic", "decision", "loads", "safe", "claims", "contra"
    ));
    for r in rows {
        let applied = match (&r.applied, &r.error) {
            (Some(a), _) => format!(
                "{} hoisted={} lint={} equiv={}",
                a.decision,
                a.hoisted_loads,
                a.lint_errors,
                if a.equivalent { "yes" } else { "NO" }
            ),
            (None, Some(e)) => format!("rejected: {e}"),
            (None, None) => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<18} {:>4} {:<24} {:<24} {:<11} {:>5} {:>4} {:>6} {:>6}  {}\n",
            r.kernel,
            r.pc,
            r.class,
            r.heuristic_class,
            r.decision,
            r.slice_loads,
            r.proven_safe_loads,
            r.claims,
            r.contradicted,
            applied,
        ));
    }
    out
}

/// Deterministic JSON rendering of separability rows.
pub fn to_json(rows: &[SeparabilityRow]) -> String {
    let mut s = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let applied = match &r.applied {
            None => "null".to_string(),
            Some(a) => format!(
                "{{\"decision\":{},\"hoisted_loads\":{},\"lint_errors\":{},\"equivalent\":{}}}",
                quote(&a.decision),
                a.hoisted_loads,
                a.lint_errors,
                a.equivalent
            ),
        };
        let error = match &r.error {
            None => "null".to_string(),
            Some(e) => quote(e),
        };
        s.push_str(&format!(
            "{{\"kernel\":{},\"pc\":{},\"class\":{},\"heuristic_class\":{},\"decision\":{},\
             \"slice_loads\":{},\"proven_safe_loads\":{},\"unsafe_loads\":{},\"claims\":{},\
             \"contradicted\":{},\"applied\":{},\"error\":{}}}",
            quote(&r.kernel),
            r.pc,
            quote(&r.class),
            quote(&r.heuristic_class),
            quote(&r.decision),
            r.slice_loads,
            r.proven_safe_loads,
            r.unsafe_loads,
            r.claims,
            r.contradicted,
            applied,
            error,
        ));
    }
    s.push(']');
    s
}

/// The pass/fail summary of a separability sweep:
///
/// * no static disjointness claim may be contradicted dynamically,
/// * every accepted rewrite must lint clean and reproduce the original's
///   observables, and
/// * at least one branch must be upgraded from heuristic-inseparable to
///   speculatively separable and survive all gates — the speculative
///   tier has to earn its keep, not merely not regress.
pub fn gate_ok(rows: &[SeparabilityRow]) -> bool {
    let sound = rows
        .iter()
        .all(|r| r.contradicted == 0 && r.applied.as_ref().is_none_or(|a| a.lint_errors == 0 && a.equivalent));
    let upgraded = rows.iter().any(|r| {
        r.class == BranchClass::SpeculativelySeparable.to_string()
            && r.heuristic_class == BranchClass::Inseparable.to_string()
            && r.applied.as_ref().is_some_and(|a| a.lint_errors == 0 && a.equivalent && r.contradicted == 0)
    });
    sound && upgraded
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_obs::json::Json;

    #[test]
    fn json_escapes_control_characters_in_row_strings() {
        let row = SeparabilityRow {
            kernel: "k".to_string(),
            pc: 3,
            class: "inseparable".to_string(),
            heuristic_class: "inseparable".to_string(),
            decision: "none".to_string(),
            slice_loads: 0,
            proven_safe_loads: 0,
            unsafe_loads: 0,
            claims: 0,
            contradicted: 0,
            applied: None,
            error: Some("a\nb\tc".to_string()),
        };
        let json = to_json(&[row]);
        assert!(json.contains("\"error\":\"a\\nb\\tc\""), "{json}");
        let parsed = Json::parse(&json).expect("valid JSON");
        assert_eq!(parsed.as_arr().unwrap()[0].get("error").unwrap().as_str(), Some("a\nb\tc"));
    }
}
