//! `experiments simperf`: host-side simulator throughput over the catalog.
//!
//! Times one telemetry-free run of every catalog workload and reports
//! simulation speed in KIPS (thousands of retired instructions per
//! wall-clock second) and KCPS (thousands of simulated cycles per second).
//! Wall-clock time is deliberately *outside* the deterministic surface:
//! the simulated results (retired, cycles) are byte-stable run to run, the
//! timings are whatever the host delivers, and nothing here is cached —
//! a cached timing would measure the cache, not the simulator. This is the
//! regression harness for scheduler-efficiency work (e.g. the event-driven
//! wakeup rework): compare `kips` columns across commits on the same host.

use crate::runner::CYCLE_LIMIT;
use cfd_core::{run_sampled, Core, CoreConfig, SampleConfig, StageProfile};
use cfd_workloads::{catalog, Scale, Variant};
use std::time::Instant;

/// One timed workload run.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Workload name.
    pub name: &'static str,
    /// Variant run (the kernel's preferred CFD form when available).
    pub variant: Variant,
    /// Instructions retired (simulated, deterministic).
    pub retired: u64,
    /// Cycles simulated (deterministic).
    pub cycles: u64,
    /// Host wall-clock for the run, in milliseconds.
    pub wall_ms: f64,
    /// Thousands of retired instructions simulated per wall second.
    pub kips: f64,
    /// Thousands of cycles simulated per wall second.
    pub kcps: f64,
}

/// Times one run of every catalog workload at `scale`.
///
/// Each entry runs its base variant when supported (the heaviest IQ
/// pressure, hence the most scheduler work), else its first listed
/// variant. Simulation failures panic: every catalog workload is expected
/// to complete (the same contract as the figure experiments).
///
/// With `profile`, every run goes through [`Core::run_profiled`] and its
/// stage profile is merged into `profile`. The profiler reads `Instant`
/// around every stage group, so those KIPS columns carry that overhead —
/// still useful for relative comparison, but the unprofiled run stays
/// the canonical throughput number.
pub fn run_catalog(scale: Scale, mut profile: Option<&mut StageProfile>) -> Vec<PerfRow> {
    catalog()
        .iter()
        .map(|entry| {
            let variant = if entry.variants.contains(&Variant::Base) { Variant::Base } else { entry.variants[0] };
            let wl = entry.build(variant, scale);
            let t0 = Instant::now();
            let core = Core::new(CoreConfig::default(), wl.program, wl.mem)
                .unwrap_or_else(|e| panic!("{} [{variant}]: {e}", entry.name));
            let report = match profile.as_deref_mut() {
                Some(merged) => core.run_profiled(CYCLE_LIMIT).map(|(report, p)| {
                    merged.merge(&p);
                    report
                }),
                None => core.run(CYCLE_LIMIT),
            }
            .unwrap_or_else(|e| panic!("{} [{variant}]: {e}", entry.name));
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            PerfRow {
                name: entry.name,
                variant,
                retired: report.stats.retired,
                cycles: report.stats.cycles,
                wall_ms: secs * 1e3,
                kips: report.stats.retired as f64 / 1e3 / secs,
                kcps: report.stats.cycles as f64 / 1e3 / secs,
            }
        })
        .collect()
}

/// Renders the merged stage profile: header, the per-stage share table,
/// scheduler-efficiency context, and the exact shares-sum line the CI
/// gate greps (`stage shares sum to 100.00%` whenever time was
/// recorded).
pub fn profile_table(p: &StageProfile) -> String {
    let mut out = String::from("\n[simperf] per-stage host wall-time attribution (catalog-wide)\n");
    out.push_str(&p.table());
    let checks_per_kcycle = (p.sched_ready_checks * 1000).checked_div(p.cycles).unwrap_or(0);
    out.push_str(&format!(
        "scheduler: ready_checks={} wakeup_events={} poll_equiv={} ({} checks/kcycle)\n",
        p.sched_ready_checks, p.sched_wakeup_events, p.sched_poll_equiv, checks_per_kcycle
    ));
    let bp: u64 = p.shares_bp().iter().sum();
    out.push_str(&format!("[simperf] stage shares sum to {}.{:02}%\n", bp / 100, bp % 100));
    out
}

/// One timestamped trajectory record (a single JSON line): the timing
/// rows plus the merged stage profile when one was collected.
///
/// `experiments simperf` overwrites `BENCH_simperf.json` with one such
/// record by default and appends under `--append`, which turns the
/// artifact into a JSONL throughput history across commits.
pub fn history_record(rows: &[PerfRow], profile: Option<&StageProfile>, ts_epoch_s: u64, scale_n: usize) -> String {
    let profile_json = profile.map_or_else(|| "null".to_string(), StageProfile::to_json);
    format!("{{\"ts\":{ts_epoch_s},\"scale\":{scale_n},\"rows\":{},\"profile\":{}}}", to_json(rows), profile_json)
}

/// One full-detail vs sampled cross-check.
#[derive(Debug, Clone)]
pub struct SampledRow {
    /// Workload name.
    pub name: &'static str,
    /// Variant run.
    pub variant: Variant,
    /// Full-detail IPC (ground truth).
    pub ipc_full: f64,
    /// Sampled-mode IPC estimate.
    pub ipc_sampled: f64,
    /// `|sampled - full| / full`, in percent.
    pub err_percent: f64,
    /// Wall-clock of the full-detail run, milliseconds.
    pub wall_full_ms: f64,
    /// Wall-clock of the sampled run, milliseconds.
    pub wall_sampled_ms: f64,
    /// `wall_full / wall_sampled`.
    pub speedup: f64,
    /// Measured detail intervals contributing to the estimate.
    pub intervals: u64,
}

/// Cross-checks sampled simulation against full detail over the catalog:
/// each workload runs once in full detail (IPC ground truth) and once in
/// sampled mode ([`cfd_core::run_sampled`]), timing both. The IPC error
/// column is deterministic (both IPCs are ratios of simulated counters);
/// the wall-clock columns are host-dependent, like everything simperf
/// times.
pub fn run_catalog_sampled(scale: Scale, sample: SampleConfig) -> Vec<SampledRow> {
    catalog()
        .iter()
        .map(|entry| {
            let variant = if entry.variants.contains(&Variant::Base) { Variant::Base } else { entry.variants[0] };
            let wl = entry.build(variant, scale);
            let t0 = Instant::now();
            let report = Core::new(CoreConfig::default(), wl.program.clone(), wl.mem.clone())
                .unwrap_or_else(|e| panic!("{} [{variant}]: {e}", entry.name))
                .run(CYCLE_LIMIT)
                .unwrap_or_else(|e| panic!("{} [{variant}]: {e}", entry.name));
            let wall_full_ms = t0.elapsed().as_secs_f64().max(1e-9) * 1e3;
            let t1 = Instant::now();
            let sampled = run_sampled(CoreConfig::default(), wl.program, wl.mem, sample, CYCLE_LIMIT)
                .unwrap_or_else(|e| panic!("{} [{variant}] sampled: {e}", entry.name));
            let wall_sampled_ms = t1.elapsed().as_secs_f64().max(1e-9) * 1e3;
            let ipc_full = report.ipc();
            let ipc_sampled = sampled.ipc_estimate();
            SampledRow {
                name: entry.name,
                variant,
                ipc_full,
                ipc_sampled,
                err_percent: ((ipc_sampled - ipc_full) / ipc_full.max(1e-12)).abs() * 100.0,
                wall_full_ms,
                wall_sampled_ms,
                speedup: wall_full_ms / wall_sampled_ms.max(1e-9),
                intervals: sampled.intervals,
            }
        })
        .collect()
}

/// Rows whose sampled IPC estimate missed full detail by more than
/// `bound_percent`. Unlike the KIPS floors this check *is* deterministic,
/// so callers may gate hard on it.
pub fn sampled_over_bound(rows: &[SampledRow], bound_percent: f64) -> Vec<&SampledRow> {
    rows.iter().filter(|r| r.err_percent > bound_percent).collect()
}

/// Plain-text table of the sampled cross-check plus a summary line with
/// the maximum error and aggregate speedup.
pub fn sampled_table(rows: &[SampledRow]) -> String {
    let mut out = format!(
        "{:<22} {:>9} {:>9} {:>9} {:>7} {:>10} {:>9} {:>8} {:>6}\n",
        "workload", "variant", "ipc_full", "ipc_samp", "err%", "full_ms", "samp_ms", "speedup", "ivals"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>9} {:>9.4} {:>9.4} {:>7.2} {:>10.1} {:>9.1} {:>8.2} {:>6}\n",
            r.name,
            r.variant.label(),
            r.ipc_full,
            r.ipc_sampled,
            r.err_percent,
            r.wall_full_ms,
            r.wall_sampled_ms,
            r.speedup,
            r.intervals
        ));
    }
    let max_err = rows.iter().map(|r| r.err_percent).fold(0.0f64, f64::max);
    let full_ms: f64 = rows.iter().map(|r| r.wall_full_ms).sum();
    let samp_ms: f64 = rows.iter().map(|r| r.wall_sampled_ms).sum();
    out.push_str(&format!(
        "[simperf] sampled max IPC error {max_err:.2}%, catalog wall {full_ms:.0} ms full vs {samp_ms:.0} ms sampled ({:.2}x)\n",
        full_ms / samp_ms.max(1e-9)
    ));
    out
}

/// Rows whose simulation speed fell below `floor` KIPS.
///
/// This feeds the *soft* throughput gate: timings are host-dependent, so
/// a slow row is a warning for a human (or CI log reader), never a hard
/// failure. Callers print one warning line per returned row.
pub fn below_floor(rows: &[PerfRow], floor: f64) -> Vec<&PerfRow> {
    rows.iter().filter(|r| r.kips < floor).collect()
}

/// Plain-text table of the timed runs plus a totals row.
pub fn table(rows: &[PerfRow]) -> String {
    let mut out = format!(
        "{:<22} {:>9} {:>12} {:>12} {:>9} {:>9} {:>9}\n",
        "workload", "variant", "retired", "cycles", "ms", "KIPS", "KCPS"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>9} {:>12} {:>12} {:>9.1} {:>9.0} {:>9.0}\n",
            r.name,
            r.variant.label(),
            r.retired,
            r.cycles,
            r.wall_ms,
            r.kips,
            r.kcps
        ));
    }
    let (retired, cycles): (u64, u64) = rows.iter().fold((0, 0), |(a, b), r| (a + r.retired, b + r.cycles));
    let ms: f64 = rows.iter().map(|r| r.wall_ms).sum();
    out.push_str(&format!(
        "{:<22} {:>9} {:>12} {:>12} {:>9.1} {:>9.0} {:>9.0}\n",
        "TOTAL",
        "",
        retired,
        cycles,
        ms,
        retired as f64 / ms.max(1e-9),
        cycles as f64 / ms.max(1e-9)
    ));
    out
}

/// JSON rendering (one object per row; timings are host-dependent).
pub fn to_json(rows: &[PerfRow]) -> String {
    let mut s = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"workload\":\"{}\",\"variant\":\"{}\",\"retired\":{},\"cycles\":{},\"wall_ms\":{:.3},\"kips\":{:.1},\"kcps\":{:.1}}}",
            r.name,
            r.variant.label(),
            r.retired,
            r.cycles,
            r.wall_ms,
            r.kips,
            r.kcps
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_columns_are_deterministic() {
        let scale = Scale { n: 60, ..Scale::default() };
        let a = run_catalog(scale, None);
        let b = run_catalog(scale, None);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.name, x.retired, x.cycles), (y.name, y.retired, y.cycles));
            assert!(x.kips > 0.0);
        }
    }

    #[test]
    fn floor_flags_only_slow_rows() {
        let mut rows = run_catalog(Scale { n: 40, ..Scale::default() }, None);
        assert!(below_floor(&rows, 0.0).is_empty(), "a zero floor flags nothing");
        assert_eq!(below_floor(&rows, f64::INFINITY).len(), rows.len(), "an infinite floor flags everything");
        rows[0].kips = 1.0;
        let slow = below_floor(&rows, 2.0);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].name, rows[0].name);
    }

    #[test]
    fn profiled_catalog_matches_plain_simulated_columns() {
        let scale = Scale { n: 40, ..Scale::default() };
        let plain = run_catalog(scale, None);
        let mut profile = StageProfile::default();
        let rows = run_catalog(scale, Some(&mut profile));
        assert_eq!(plain.len(), rows.len());
        for (x, y) in plain.iter().zip(&rows) {
            assert_eq!(
                (x.name, x.retired, x.cycles),
                (y.name, y.retired, y.cycles),
                "profiling must not perturb simulation"
            );
        }
        let total_cycles: u64 = rows.iter().map(|r| r.cycles).sum();
        assert_eq!(profile.cycles, total_cycles, "merged profile covers every catalog cycle");
        assert_eq!(profile.shares_bp().iter().sum::<u64>(), 10_000);
        let rendered = profile_table(&profile);
        assert!(rendered.contains("stage shares sum to 100.00%"), "{rendered}");
        assert!(rendered.contains("scheduler"), "{rendered}");
    }

    #[test]
    fn history_record_is_one_json_line_with_optional_profile() {
        let rows = run_catalog(Scale { n: 40, ..Scale::default() }, None);
        let bare = history_record(&rows, None, 1_700_000_000, 40);
        assert!(bare.starts_with("{\"ts\":1700000000,\"scale\":40,\"rows\":["), "{bare}");
        assert!(bare.ends_with(",\"profile\":null}"), "{bare}");
        assert!(!bare.contains('\n'));
        let mut profile = StageProfile::default();
        let rows = run_catalog(Scale { n: 40, ..Scale::default() }, Some(&mut profile));
        let with = history_record(&rows, Some(&profile), 1, 40);
        assert!(with.contains("\"profile\":{\"ns\":{\"frontend\":"), "{with}");
    }

    #[test]
    fn json_has_one_object_per_row() {
        let rows = run_catalog(Scale { n: 40, ..Scale::default() }, None);
        let json = to_json(&rows);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"workload\"").count(), rows.len());
    }
}
