//! Regression lock on the telemetry bytes: one telemetry-armed run of
//! `soplex_ref_like [cfd]` (scale 200, a sample every 200 cycles) must
//! reproduce the checked-in fixture exactly — the rendered report, the
//! time-series CSV, the Perfetto trace JSON and the registry rendering.
//! The run has nonzero BQ occupancy and several recoveries, so every
//! telemetry channel carries data.

use cfd_bench::observe::{observe, ObserveOptions};
use cfd_workloads::{Scale, Variant};

fn observed() -> String {
    let opts = ObserveOptions { variant: Variant::Cfd, scale: Scale { n: 200, ..Scale::default() }, interval: 200 };
    let obs = observe("soplex_ref_like", &opts).expect("catalog workload observes cleanly");
    format!(
        "#### report\n{}#### csv\n{}#### trace\n{}\n#### registry\n{}",
        obs.render(),
        obs.csv(),
        obs.trace_json(),
        obs.registry().render()
    )
}

/// A diff means the telemetry a run hands back changed: a deliberate
/// change updates the fixture alongside the code.
#[test]
fn observation_matches_checked_in_fixture() {
    let expected = include_str!("fixtures/observe_soplex_cfd.txt");
    assert_eq!(observed(), expected, "observe output diverged from fixture");
}
