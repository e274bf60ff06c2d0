//! `experiments ckpt`: full-scale checkpoint-determinism sweep.
//!
//! For every catalog workload this runs the simulation twice: once
//! uninterrupted, and once interrupted at each quarter of the
//! uninterrupted cycle count — checkpointed, restored into a fresh
//! [`Core`], and driven to completion. The restored run's [`RunReport`]
//! must serialize byte-for-byte identically to the straight run's; any
//! divergence means checkpoint/restore is not capturing the full
//! microarchitectural state.
//!
//! The straight and restored JSON lines are the gate artifact: verify.sh
//! `cmp`s `artifacts/ckpt_straight.json` against
//! `artifacts/ckpt_restored.json`, so the determinism contract is checked
//! both in-process (exit code) and as a byte-level file diff.

use crate::runner::CYCLE_LIMIT;
use cfd_core::{Core, CoreConfig, CoreError, PauseAt, RunReport, Stop};
use cfd_exec::run_report_to_json;
use cfd_workloads::{catalog, Scale, Variant, Workload};

/// Outcome of one workload's straight-vs-restored comparison.
pub struct CkptRow {
    /// Kernel name.
    pub name: &'static str,
    /// Variant exercised (base when supported, as in simperf).
    pub variant: Variant,
    /// Uninterrupted run length in cycles.
    pub cycles: u64,
    /// Cycles at which the run was checkpointed and restored.
    pub restore_points: Vec<u64>,
    /// Straight run serialized as one JSON line.
    pub straight_json: String,
    /// The quarter-point restored run serialized the same way (the last
    /// quarter's line; all quarters are compared).
    pub restored_json: String,
    /// Quarter points whose restored run diverged from the straight run.
    pub mismatched_at: Vec<u64>,
}

impl CkptRow {
    /// True when every quarter-point round trip reproduced the straight run.
    pub fn ok(&self) -> bool {
        self.mismatched_at.is_empty()
    }
}

fn run_straight(wl: &Workload) -> RunReport {
    Core::new(CoreConfig::default(), wl.program.clone(), wl.mem.clone())
        .unwrap_or_else(|e| panic!("{} [{}]: {e}", wl.name, wl.variant))
        .run(CYCLE_LIMIT)
        .unwrap_or_else(|e| panic!("{} [{}]: {e}", wl.name, wl.variant))
}

/// Runs `wl` to cycle `at`, checkpoints, restores into a fresh core, and
/// runs the restored core to completion.
fn run_restored(wl: &Workload, at: u64) -> RunReport {
    let mut core = Core::new(CoreConfig::default(), wl.program.clone(), wl.mem.clone())
        .unwrap_or_else(|e| panic!("{} [{}]: {e}", wl.name, wl.variant));
    match core.drive(CYCLE_LIMIT, &mut PauseAt::Cycle(at)) {
        Ok(Stop::Paused) => {}
        Ok(Stop::Halted) => panic!("{} [{}]: halted before checkpoint point {at}", wl.name, wl.variant),
        Err(e) => panic!("{} [{}]: {e}", wl.name, wl.variant),
    }
    let ckpt = core.checkpoint();
    drop(core);
    Core::restore(ckpt)
        .and_then(|restored| restored.run(CYCLE_LIMIT))
        .unwrap_or_else(|e: CoreError| panic!("{} [{}] restore at {at}: {e}", wl.name, wl.variant))
}

/// Runs the straight-vs-quarter-point-restored comparison over the whole
/// catalog at `scale`.
pub fn run_catalog_ckpt(scale: Scale) -> Vec<CkptRow> {
    catalog()
        .iter()
        .map(|entry| {
            let variant = if entry.variants.contains(&Variant::Base) { Variant::Base } else { entry.variants[0] };
            let wl = entry.build(variant, scale);
            let straight = run_straight(&wl);
            let straight_json = run_report_to_json(&straight);
            let cycles = straight.stats.cycles;
            let restore_points: Vec<u64> = (1..=3u64)
                .map(|q| (cycles * q / 4).max(1))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let mut mismatched_at = Vec::new();
            let mut restored_json = String::new();
            for &at in &restore_points {
                restored_json = run_report_to_json(&run_restored(&wl, at));
                if restored_json != straight_json {
                    mismatched_at.push(at);
                }
            }
            CkptRow { name: entry.name, variant, cycles, restore_points, straight_json, restored_json, mismatched_at }
        })
        .collect()
}

/// One JSON line per workload: the straight runs.
pub fn straight_lines(rows: &[CkptRow]) -> String {
    rows.iter().map(|r| format!("{}\n", r.straight_json)).collect()
}

/// One JSON line per workload: the restored runs. Byte-identical to
/// [`straight_lines`] exactly when every round trip was deterministic.
pub fn restored_lines(rows: &[CkptRow]) -> String {
    rows.iter().map(|r| format!("{}\n", r.restored_json)).collect()
}

/// Human-readable summary table.
pub fn table(rows: &[CkptRow]) -> String {
    let mut out = String::from(
        "workload             variant       cycles  restore points               verdict\n\
         -------------------- ---------- --------- ---------------------------- --------\n",
    );
    for r in rows {
        let points = r.restore_points.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(",");
        out.push_str(&format!(
            "{:20} {:10} {:>9} {:28} {}\n",
            r.name,
            r.variant.to_string(),
            r.cycles,
            points,
            if r.ok() { "ok" } else { "MISMATCH" }
        ));
    }
    let bad = rows.iter().filter(|r| !r.ok()).count();
    out.push_str(&format!(
        "[ckpt] {} workloads, {} restore round-trips, {} mismatched\n",
        rows.len(),
        rows.iter().map(|r| r.restore_points.len()).sum::<usize>(),
        bad
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale { n: 120, ..Scale::default() }
    }

    #[test]
    fn quarter_point_restores_reproduce_straight_runs() {
        let rows = run_catalog_ckpt(tiny());
        assert_eq!(rows.len(), catalog().len());
        for r in &rows {
            assert!(r.ok(), "{} [{}] diverged at {:?}", r.name, r.variant, r.mismatched_at);
            assert!(!r.straight_json.is_empty() && r.straight_json == r.restored_json);
        }
        assert_eq!(straight_lines(&rows), restored_lines(&rows));
    }

    #[test]
    fn table_flags_mismatches() {
        let mut rows = run_catalog_ckpt(Scale { n: 60, ..Scale::default() });
        assert!(table(&rows).contains("0 mismatched"));
        rows[0].mismatched_at.push(42);
        let t = table(&rows);
        assert!(t.contains("MISMATCH") && t.contains("1 mismatched"));
    }
}
