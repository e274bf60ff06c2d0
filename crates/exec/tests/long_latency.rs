//! Long-latency lock: with a 1000-cycle memory and shrunken caches (L1
//! 4 KB, L2 16 KB, L3 64 KB) every DRAM wakeup and completion lands past
//! the scheduler wheels' ring horizon, so it goes through their overflow.
//! Three kernels must reproduce their checked-in reports byte for byte.

use cfd_core::{Core, CoreConfig};
use cfd_exec::run_report_to_json;
use cfd_workloads::{by_name, Scale, Variant};

const KERNELS: [(&str, Variant); 3] =
    [("mcf_like", Variant::Base), ("soplex_ref_like", Variant::Cfd), ("astar_tq_like", Variant::Base)];

fn long_latency_config() -> CoreConfig {
    let mut cfg = CoreConfig::default();
    cfg.hierarchy.mem_latency = 1000;
    cfg.hierarchy.l1.size_bytes = 4 * 1024;
    cfg.hierarchy.l2.size_bytes = 16 * 1024;
    cfg.hierarchy.l3.size_bytes = 64 * 1024;
    cfg
}

#[test]
fn overflowing_latencies_match_checked_in_reports() {
    let mut actual = String::new();
    for (name, variant) in KERNELS {
        let w = by_name(name).expect("catalog kernel").build(variant, Scale { n: 300, seed: 7 });
        let report = Core::new(long_latency_config(), w.program, w.mem).unwrap().run(50_000_000).unwrap();
        actual.push_str(&run_report_to_json(&report));
        actual.push('\n');
    }
    let expected = include_str!("fixtures/long_latency.jsonl");
    for (k, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "{} [{}] diverged from its fixture report", KERNELS[k].0, KERNELS[k].1);
    }
    assert_eq!(actual, expected);
}
