//! The in-flight window's slot ordinals are the dense ROB ordinals the
//! core has always assigned at dispatch. `Core::fingerprint` hashes every
//! ROB ordinal, the next one to be assigned and the store list, so these
//! fingerprints, recorded before the window replaced the front-pipe and
//! ROB queues, lock that equality mid-run on four kernels.

use cfd_core::{Core, CoreConfig, PauseAt};
use cfd_workloads::{by_name, Scale, Variant};
use std::fmt::Write as _;

const LIMIT: u64 = 50_000_000;
const CYCLES: [u64; 4] = [500, 2000, 8000, 20_000];
const KERNELS: [(&str, Variant); 4] = [
    ("soplex_ref_like", Variant::Cfd),
    ("astar_tq_like", Variant::Base),
    ("mcf_like", Variant::Base),
    ("bzip2_tq_like", Variant::CfdTq),
];

/// One line per (kernel, cycle): where the drive stopped and the
/// fingerprint there.
fn render() -> String {
    let mut out = String::new();
    for (name, variant) in KERNELS {
        let w = by_name(name).expect("catalog kernel").build(variant, Scale { n: 300, seed: 7 });
        let mut core = Core::new(CoreConfig::default(), w.program, w.mem).unwrap();
        for at in CYCLES {
            let stop = core.drive(LIMIT, &mut PauseAt::Cycle(at)).unwrap();
            writeln!(out, "{name} {variant:?} {at} {stop:?} {:#018x}", core.fingerprint()).unwrap();
        }
    }
    out
}

#[test]
fn fingerprints_match_the_recorded_fixture() {
    assert_eq!(render(), include_str!("fixtures/fingerprints.txt"));
}
