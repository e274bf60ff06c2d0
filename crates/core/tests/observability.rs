//! Observability-layer guarantees on the live core:
//!
//! * CPI-stack exactness: components sum to `cycles × width` on every
//!   catalog workload, base and CFD variants alike;
//! * telemetry neutrality: a telemetry observer changes no simulated
//!   number;
//! * sampling determinism: two armed runs produce byte-identical CSV and
//!   Perfetto JSON;
//! * gauge high-water marks equal the retirement-sampled
//!   `max_{bq,vq,tq}_occupancy` counters.

use cfd_core::{Core, CoreConfig, RunReport, Telemetry, TelemetryConfig, TelemetryReport};
use cfd_isa::{Assembler, MemImage, Reg};

const CYCLE_LIMIT: u64 = 50_000_000;

fn r(i: usize) -> Reg {
    Reg::new(i)
}

/// A small CFD kernel: push/pop over a data-dependent predicate, enough
/// to exercise BQ occupancy, recoveries and memory traffic.
fn cfd_kernel(n: i64) -> Assembler {
    let (i, nn, p, acc, base, x) = (r(1), r(2), r(3), r(4), r(5), r(6));
    let mut a = Assembler::new();
    a.li(nn, n);
    a.li(base, 4096);
    a.label("lead");
    a.lw(x, 0, base);
    a.xor(p, i, 17i64);
    a.and(p, p, 1i64);
    a.push_bq(p);
    a.addi(i, i, 1);
    a.blt(i, nn, "lead");
    a.li(i, 0);
    a.label("trail");
    a.branch_on_bq("skip");
    a.addi(acc, acc, 3);
    a.label("skip");
    a.addi(i, i, 1);
    a.blt(i, nn, "trail");
    a.halt();
    a
}

/// Runs `core` to completion under a telemetry observer.
fn observed(mut core: Core, cfg: TelemetryConfig) -> (RunReport, TelemetryReport) {
    let mut telemetry = Telemetry::new(cfg);
    core.drive(CYCLE_LIMIT, &mut telemetry).unwrap();
    (core.run(CYCLE_LIMIT).unwrap(), telemetry.report())
}

fn kernel_core() -> Core {
    Core::new(CoreConfig::default(), cfd_kernel(60).finish().unwrap(), MemImage::new()).unwrap()
}

#[test]
fn cpi_stack_sums_exactly_on_catalog_workloads() {
    let cfg = CoreConfig::default();
    let width = cfg.width as u64;
    let scale = cfd_workloads::Scale { n: 120, seed: 0x5eed_cafe };
    for entry in cfd_workloads::catalog() {
        for &variant in entry.variants {
            let wl = entry.build(variant, scale);
            let report = Core::new(cfg.clone(), wl.program, wl.mem).unwrap().run(CYCLE_LIMIT).unwrap();
            let stack = report.stats.cpi_stack();
            assert_eq!(
                stack.check(report.stats.cycles, width),
                Ok(()),
                "{}/{}: {:?}",
                entry.name,
                variant.label(),
                stack.slots
            );
            // Base component is exactly the retirements inside counted
            // cycles: never more than retired, and the halting cycle
            // retires at most `width`.
            let base = stack.slots[0];
            assert!(base <= report.stats.retired);
            assert!(report.stats.retired - base <= width);
        }
    }
}

#[test]
fn telemetry_is_neutral() {
    let plain = kernel_core().run(CYCLE_LIMIT).unwrap();
    let (armed, _) = observed(kernel_core(), TelemetryConfig::default());
    assert_eq!(format!("{plain:?}"), format!("{armed:?}"));
}

#[test]
fn sampling_is_byte_deterministic() {
    let cfg = TelemetryConfig { sample_interval: 50, trace: true };
    let (run, a) = observed(kernel_core(), cfg);
    let (_, b) = observed(kernel_core(), cfg);
    assert!(!a.series.is_empty(), "interval 50 must produce samples");
    assert_eq!(a.series.to_csv(), b.series.to_csv());
    assert_eq!(a.trace.to_json(), b.trace.to_json());
    assert_eq!(a.registry.render(), b.registry.render());
    // The final row lands at end-of-run and carries the full retirement
    // count (halting-cycle retirements included).
    let last = a.series.rows.last().unwrap();
    assert_eq!(last[0], run.stats.cycles);
    assert_eq!(last[1], run.stats.retired);
}

#[test]
fn gauge_high_water_matches_max_occupancy_stats() {
    let (report, t) = observed(kernel_core(), TelemetryConfig::default());
    let gauge_max = |name: &str| t.registry.gauge(name).map(|g| g.max).unwrap_or(0);
    assert!(report.stats.max_bq_occupancy > 0, "kernel must occupy the BQ");
    assert_eq!(gauge_max("core.bq_occupancy"), report.stats.max_bq_occupancy);
    assert_eq!(gauge_max("core.vq_occupancy"), report.stats.max_vq_occupancy);
    assert_eq!(gauge_max("core.tq_occupancy"), report.stats.max_tq_occupancy);
}

#[test]
fn trace_records_recoveries_on_mispredicting_kernel() {
    // A hard-to-predict plain branch (no CFD): recoveries must appear as
    // instants in the trace.
    let (i, n, p, acc) = (r(1), r(2), r(3), r(4));
    let mut a = Assembler::new();
    a.li(n, 400);
    a.label("top");
    a.xor(p, i, 3i64);
    a.mul(p, p, 2654435761i64);
    a.and(p, p, 64i64);
    a.beqz(p, "skip");
    a.addi(acc, acc, 1);
    a.label("skip");
    a.addi(i, i, 1);
    a.blt(i, n, "top");
    a.halt();
    let core = Core::new(CoreConfig::default(), a.finish().unwrap(), MemImage::new()).unwrap();
    let (report, t) = observed(core, TelemetryConfig::default());
    assert!(report.stats.mispredictions > 0);
    let recoveries = t.trace.events().iter().filter(|e| e.name == "recovery").count() as u64;
    assert!(recoveries > 0, "mispredictions must leave recovery instants");
    assert_eq!(t.registry.counter("core.recoveries"), recoveries);
    let squash = t.registry.histogram("core.squash_depth").expect("every recovery records its squash depth");
    assert_eq!(squash.n, recoveries);
    // Perfetto JSON must contain them and parse-shape correctly.
    let json = t.trace.to_json();
    assert!(json.contains("\"name\":\"recovery\""));
    assert!(json.starts_with("{\"traceEvents\":["));
}
