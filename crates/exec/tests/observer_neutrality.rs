//! Observer neutrality: the pipe trace, the post-mortem ring, telemetry
//! and the stage profiler, all watching one run at once, change nothing
//! that run reports — byte for byte, in the cache codec and in `Debug`.

use cfd_core::{Core, CoreConfig, PipeTrace, SnapRing, StageProfiler, Telemetry, TelemetryConfig, SNAP_RING_DEPTH};
use cfd_exec::run_report_to_json;
use cfd_workloads::{catalog, Scale};

const LIMIT: u64 = 50_000_000;

#[test]
fn every_observer_at_once_leaves_the_report_unchanged() {
    let scale = Scale { n: 60, ..Scale::default() };
    for entry in catalog() {
        for &variant in entry.variants {
            let w = entry.build(variant, scale);
            let core = || Core::new(CoreConfig::default(), w.program.clone(), w.mem.clone()).unwrap();
            let plain = core().run(LIMIT).unwrap();

            let mut trace = PipeTrace::new(1000);
            let mut ring = SnapRing::default();
            let mut telemetry = Telemetry::new(TelemetryConfig { sample_interval: 100, trace: true });
            let mut profiler = StageProfiler::default();
            let mut observed = core();
            let mut all = ((&mut trace, &mut ring), (&mut telemetry, &mut profiler));
            observed.drive(LIMIT, &mut all).unwrap();
            let report = observed.run(LIMIT).unwrap();

            let what = format!("{} [{variant}]", entry.name);
            assert_eq!(run_report_to_json(&report), run_report_to_json(&plain), "{what}: codec bytes differ");
            assert_eq!(format!("{report:?}"), format!("{plain:?}"), "{what}: report differs");
            // Each observer did watch the run.
            assert!(!trace.events().is_empty(), "{what}: empty pipe trace");
            assert_eq!(ring.snaps().count(), SNAP_RING_DEPTH.min(plain.stats.cycles as usize + 1), "{what}");
            assert_eq!(profiler.profile.cycles, plain.stats.cycles, "{what}: profile cycles");
            let registry = telemetry.report().registry;
            assert_eq!(registry.counter("core.retired"), plain.stats.retired, "{what}: telemetry retired");
        }
    }
}
