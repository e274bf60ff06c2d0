//! Every direction predictor's predictions, pinned.
//!
//! A fixed seeded stream of branches (loops, correlated pairs, short
//! patterns, biased noise) runs through each predictor three ways:
//! `observe`, `predict` into fresh metadata, and `predict_into` slots that
//! another prediction or another predictor wrote last, each followed by
//! `recover` on a miss and `train`. The miss count and an FNV-1a hash of
//! the predicted directions were recorded before metadata was filled in
//! place, snapshots shrank to the live folds and ISL-TAGE began inserting
//! its final direction once; all three paths must still give them. A
//! changed history insert or a stale field read back from a reused slot
//! moves a prediction here.

use cfd_predictor::{predictor_by_name, DirectionPredictor, IslTage, PredMeta, TageConfig};

const NAMES: [&str; 5] = ["always-taken", "bimodal", "gshare", "perceptron", "isl-tage"];

/// `(predictor, misses, FNV-1a of the predicted directions)` over [`stream`].
const PINNED: [(&str, u64, u64); 5] = [
    ("always-taken", 7730, 0xb54f_c59f_8c98_e3a7),
    ("bimodal", 6623, 0x0064_6df5_9ee7_69d2),
    ("gshare", 3784, 0x614a_7ba5_4093_e8ad),
    ("perceptron", 3204, 0x1020_5622_105a_6bc5),
    ("isl-tage", 3382, 0xe105_a62d_f3a8_be19),
];

/// About 31k `(pc, taken)` pairs from a program-like seeded mix: per outer
/// iteration, a random branch and a branch that repeats it, a loop with a
/// fixed or varying trip count, a period-3 pattern, and 25%-taken noise on
/// one of eight PCs.
fn stream() -> Vec<(u64, bool)> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut out = Vec::new();
    for i in 0..2_500u64 {
        let a = next() >> 63 == 1;
        out.push((0x200, a));
        out.push((0x210, a));
        let trip = if i % 4 == 0 { 3 + next() % 5 } else { 9 };
        for k in 0..=trip {
            out.push((0x100, k < trip));
        }
        out.push((0x300, i % 3 != 0));
        let r = next();
        out.push((0x400 + (r % 8) * 4, r >> 62 == 0));
    }
    out
}

/// Misses and the FNV-1a hash of the predicted directions, folded one
/// branch at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tally(u64, u64);

impl Tally {
    const NEW: Tally = Tally(0, 0xcbf2_9ce4_8422_2325);

    fn add(&mut self, pred: bool, taken: bool) {
        self.0 += (pred != taken) as u64;
        self.1 = (self.1 ^ pred as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn pinned(name: &str) -> Tally {
    let &(_, miss, hash) = PINNED.iter().find(|p| p.0 == name).unwrap();
    Tally(miss, hash)
}

/// `observe`, the profiler's and the sampled warmer's path.
#[test]
fn observe_predictions_are_pinned() {
    let branches = stream();
    assert!(branches.len() >= 20_000, "{} branches", branches.len());
    for (name, _, _) in PINNED {
        let mut p = predictor_by_name(name).unwrap();
        let mut tally = Tally::NEW;
        for &(pc, taken) in &branches {
            tally.add(taken ^ p.observe(pc, taken), taken);
        }
        assert_eq!(tally, pinned(name), "{name}");
    }
}

/// A predictor that writes into the slots the predictor under test reads:
/// one of another kind, and one of the same kind whose tables, history and
/// metadata differ (more TAGE tables and folds, a longer gshare history, a
/// shorter perceptron table).
fn strangers(name: &str) -> [Box<dyn DirectionPredictor>; 2] {
    let other = if name == "isl-tage" { "gshare" } else { "isl-tage" };
    let twin: Box<dyn DirectionPredictor> = match name {
        "isl-tage" => Box::new(IslTage::with_config(
            TageConfig {
                history_lengths: vec![3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1500, 1900, 2000],
                ..TageConfig::default()
            },
            5,
        )),
        "gshare" => Box::new(cfd_predictor::Gshare::new(18)),
        "perceptron" => Box::new(cfd_predictor::Perceptron::new(4)),
        _ => predictor_by_name(name).unwrap(),
    };
    [predictor_by_name(other).unwrap(), twin]
}

/// The timing core's path: `predict_into` a ring of slots, each of which
/// last held another prediction's metadata or, every third branch, a
/// stranger's, then `recover` on a miss and `train` from the slot. The
/// same predictions as `predict` into fresh metadata, and as `observe`.
#[test]
fn predict_into_predictions_are_pinned_whatever_the_slot_held() {
    let branches = stream();
    for name in NAMES {
        let mut fresh = predictor_by_name(name).unwrap();
        let mut slotted = predictor_by_name(name).unwrap();
        let mut strangers = strangers(name);
        let mut slots: [Option<PredMeta>; 4] = Default::default();
        let (mut fresh_tally, mut slot_tally) = (Tally::NEW, Tally::NEW);
        for (i, &(pc, taken)) in branches.iter().enumerate() {
            let (pred, meta) = fresh.predict(pc);
            if pred != taken {
                fresh.recover(pc, taken, &meta);
            }
            fresh.train(pc, taken, &meta);
            fresh_tally.add(pred, taken);

            let slot = &mut slots[i % 4];
            if i % 3 == 0 {
                // A stranger predicts into the slot first, then drops it.
                let s = &mut strangers[i / 3 % 2];
                s.predict_into(pc ^ 0x1c, slot);
                s.squash(slot.as_ref().unwrap());
            }
            let slot_pred = slotted.predict_into(pc, slot);
            let meta = slot.as_ref().expect("predict_into writes the slot");
            if slot_pred != taken {
                slotted.recover(pc, taken, meta);
            }
            slotted.train(pc, taken, meta);
            slot_tally.add(slot_pred, taken);
            assert_eq!(slot_pred, pred, "{name}: branch {i}");
        }
        assert_eq!(fresh_tally, pinned(name), "{name}: predict");
        assert_eq!(slot_tally, pinned(name), "{name}: predict_into");
    }
}
