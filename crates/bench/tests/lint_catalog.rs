//! Regression lock on the static verifier's catalog sweep: the full
//! `experiments lint` row set (every catalog variant plus the transform
//! outputs) must stay clean, deterministic, and honest about degraded
//! analyses.

use cfd_bench::lint::{error_count, lint_all_on, to_json, LintRow};
use cfd_exec::Engine;

fn sweep() -> Vec<LintRow> {
    lint_all_on(&Engine::serial())
}

/// Zero false positives across the whole catalog + transform sweep —
/// the ISSUE acceptance bar. Any error finding on a shipped kernel is
/// either a verifier regression or a genuine kernel bug; both must stop
/// the build.
#[test]
fn catalog_sweep_is_error_free() {
    let rows = sweep();
    assert!(rows.len() >= 80, "sweep shrank to {} rows", rows.len());
    for r in &rows {
        assert!(r.report.clean(), "{} / {} regressed:\n{}", r.kernel, r.variant, r.report.table());
    }
    assert_eq!(error_count(&rows), 0);
}

/// A degraded analysis must not publish bounds it never finished
/// proving: every row carrying an `analysis-degraded` diagnostic has to
/// report all queue bounds as unknown. (The astar_r1 CFD variants hit
/// this path — their mark/forward mid-loop defeats loop summarization.)
#[test]
fn degraded_rows_claim_no_bounds() {
    let rows = sweep();
    let mut degraded = 0;
    for r in &rows {
        if r.report.diagnostics.iter().any(|d| d.rule.name() == "analysis-degraded") {
            degraded += 1;
            assert!(
                r.report.bounds.bq.is_none() && r.report.bounds.vq.is_none() && r.report.bounds.tq.is_none(),
                "{} / {} degraded but claims bounds: {}",
                r.kernel,
                r.variant,
                r.report.table()
            );
        }
    }
    // The contract must actually be exercised by the catalog.
    assert!(degraded >= 1, "no degraded rows left in the catalog");
}

/// The checked-in fixture is the byte-exact JSON of a clean sweep; a
/// diff means either nondeterminism or a verdict change, and both need
/// a deliberate fixture update alongside the code change.
#[test]
fn sweep_matches_checked_in_fixture() {
    let expected = include_str!("fixtures/lint_catalog.json");
    let actual = to_json(&sweep());
    assert_eq!(actual.trim(), expected.trim(), "lint sweep diverged from fixture");
}
