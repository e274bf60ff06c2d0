//! Sampled simulation's output, locked exactly: all six `SampledReport`
//! counters of every catalog kernel (default variant) under a short
//! sampling period. The period gives every kernel 5–89 detailed slices,
//! so each kernel also runs slices on a data hierarchy reused from the
//! previous slice. The fixture was recorded when every slice built a
//! fresh hierarchy, so it pins that the reuse changes no counter.

use cfd_core::{run_sampled, CoreConfig, SampleConfig};
use cfd_workloads::{catalog, Scale, Variant};
use std::fmt::Write as _;

const LIMIT: u64 = 50_000_000;
const SHAPE: SampleConfig = SampleConfig { ff_instructions: 1_000, warmup_instructions: 200, detail_instructions: 300 };

/// One line per kernel: its variant and the report's counters.
fn render() -> String {
    let mut out = String::new();
    for entry in catalog() {
        let variant = if entry.variants.contains(&Variant::Base) { Variant::Base } else { entry.variants[0] };
        let w = entry.build(variant, Scale { n: 1000, seed: 7 });
        let r = run_sampled(CoreConfig::default(), w.program, w.mem, SHAPE, LIMIT)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        writeln!(
            out,
            "{} {variant:?} measured_instructions={} measured_cycles={} ff_instructions={} \
             warmup_instructions={} total_instructions={} intervals={}",
            entry.name,
            r.measured_instructions,
            r.measured_cycles,
            r.ff_instructions,
            r.warmup_instructions,
            r.total_instructions,
            r.intervals
        )
        .unwrap();
    }
    out
}

#[test]
fn sampled_reports_match_the_recorded_fixture() {
    assert_eq!(render(), include_str!("fixtures/sampled.txt"));
}
