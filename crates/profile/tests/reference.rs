//! `profile`'s per-PC table against a reference built from scratch: every
//! catalog kernel × variant at a small scale, under each predictor the
//! benchmark profiles with, must give the same per-branch counters,
//! branch count and misprediction count as a `BTreeMap` filled from
//! `Machine::run` with a fresh predictor's `observe`.

use cfd_isa::{Instr, Machine, RetireEvent, TraceSink};
use cfd_predictor::{predictor_by_name, DirectionPredictor};
use cfd_profile::{profile, BranchProfile};
use cfd_workloads::{catalog, Scale};
use std::collections::BTreeMap;

const LIMIT: u64 = 50_000_000;

struct Reference {
    predictor: Box<dyn DirectionPredictor>,
    per_branch: BTreeMap<u32, BranchProfile>,
}

impl TraceSink for Reference {
    fn retire(&mut self, ev: &RetireEvent) {
        if let (Instr::Branch { .. }, Some(taken)) = (&ev.instr, ev.taken) {
            let miss = self.predictor.observe(ev.pc as u64 * 4, taken);
            let b = self.per_branch.entry(ev.pc).or_default();
            b.executed += 1;
            b.taken += taken as u64;
            b.mispredicted += miss as u64;
        }
    }
}

#[test]
fn profile_matches_a_btreemap_reference_on_the_catalog() {
    let scale = Scale { n: 300, seed: 5 };
    let mut profiles = 0;
    for e in catalog() {
        for &v in e.variants {
            let w = e.build(v, scale);
            for name in ["isl-tage", "gshare", "perceptron", "bimodal"] {
                let rep = profile(&w, name, LIMIT).unwrap();
                let mut reference =
                    Reference { predictor: predictor_by_name(name).unwrap(), per_branch: BTreeMap::new() };
                let stats = Machine::new(w.program.clone(), w.mem.clone()).run(LIMIT, &mut reference).unwrap();
                let what = format!("{} [{v}] {name}", w.name);
                assert_eq!(rep.instructions, stats.retired, "{what}");
                assert_eq!(rep.per_branch, reference.per_branch, "{what}");
                assert_eq!(rep.branches, reference.per_branch.values().map(|b| b.executed).sum::<u64>(), "{what}");
                assert_eq!(
                    rep.mispredictions,
                    reference.per_branch.values().map(|b| b.mispredicted).sum::<u64>(),
                    "{what}"
                );
                assert!(rep.branches > 0, "{what}: no branches profiled");
                profiles += 1;
            }
        }
    }
    assert!(profiles >= 4 * 60, "{profiles} profiles: the catalog shrank");
}
