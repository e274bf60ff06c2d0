//! The determinism and caching contracts of the lint sweep when it runs
//! through the campaign engine: worker count never changes a byte of
//! output, and a warm cache replays the sweep without executing anything.

use cfd_bench::lint::{lint_all_on, table, to_json};
use cfd_exec::{Engine, ExecConfig};
use std::path::PathBuf;

fn engine(jobs: usize, cache_dir: Option<PathBuf>) -> Engine {
    match cache_dir {
        Some(dir) => Engine::new(ExecConfig { jobs, use_cache: true, cache_dir: dir, ..ExecConfig::default() }),
        None => Engine::new(ExecConfig { jobs, use_cache: false, ..ExecConfig::default() }),
    }
}

/// The sweep at any worker count reproduces the checked-in fixture
/// byte-for-byte, and its table does not depend on the worker count.
#[test]
fn lint_sweep_is_worker_count_invariant() {
    let one = lint_all_on(&engine(1, None));
    let four = lint_all_on(&engine(4, None));
    assert_eq!(to_json(&one).trim(), include_str!("fixtures/lint_catalog.json").trim());
    assert_eq!(table(&one), table(&four));
    assert_eq!(to_json(&one), to_json(&four));
}

/// A second sweep against a warm cache performs zero lint executions and
/// still emits identical bytes.
#[test]
fn warm_cache_lint_sweep_executes_nothing() {
    let dir = std::env::temp_dir().join(format!("cfd-bench-lint-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = engine(2, Some(dir.clone()));
    let cold_rows = lint_all_on(&cold);
    assert!(cold.stats().executed > 0);
    assert_eq!(cold.stats().cache_hits, 0);

    let warm = engine(2, Some(dir.clone()));
    let warm_rows = lint_all_on(&warm);
    assert_eq!(warm.stats().executed, 0, "warm cache must re-run nothing");
    assert_eq!(warm.stats().cache_hits, cold.stats().executed);
    assert_eq!(to_json(&cold_rows), to_json(&warm_rows));
    assert_eq!(table(&cold_rows), table(&warm_rows));

    let _ = std::fs::remove_dir_all(&dir);
}
