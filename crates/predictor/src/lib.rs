//! # cfd-predictor — branch prediction structures
//!
//! Front-end prediction machinery for the CFD reproduction:
//!
//! * [`IslTage`] — TAGE + loop predictor + UAONA, our stand-in for the
//!   CBP3-winning 64 KB ISL-TAGE the paper's baseline uses,
//! * [`Gshare`], [`Bimodal`] — ablation baselines,
//! * [`Btb`] — set-associative branch target buffer (caches CFD pops too),
//! * [`Ras`] — return address stack with snapshot repair,
//! * [`ConfidenceEstimator`] — JRS resetting counters, used by the core to
//!   guide checkpoint allocation,
//! * [`DirectionPredictor`] — the object-safe interface the timing core
//!   drives, with speculative-history recovery metadata in [`PredMeta`].
//!
//! All predictors are speculatively updated at predict time and carry
//! snapshot metadata for squash/misprediction repair, mirroring real
//! front ends.
//!
//! # Example
//!
//! ```
//! use cfd_predictor::{DirectionPredictor, predictor_by_name};
//! let mut p = predictor_by_name("isl-tage").unwrap();
//! // Immediate-update profiling loop (as in the paper's pintool):
//! let mut miss = 0;
//! for i in 0..1000u64 {
//!     miss += p.observe(0x40, i % 2 == 0) as u64;
//! }
//! assert!(miss < 100); // alternation is easy
//! ```

mod btb;
mod conf;
mod corrector;
mod history;
mod isl_tage;
mod loop_pred;
mod perceptron;
mod ras;
mod simple;
mod tage;

pub use btb::{BranchKind, Btb, BtbEntry};
pub use conf::ConfidenceEstimator;
pub use corrector::{CorrectorMeta, StatisticalCorrector};
pub use history::{GlobalHistory, HistorySnapshot};
pub use isl_tage::{IslTage, IslTageMeta};
pub use loop_pred::{LoopMeta, LoopPredictor};
pub use perceptron::{Perceptron, PerceptronMeta};
pub use ras::{Ras, RasSnapshot};
pub use simple::{Bimodal, Gshare, GshareMeta};
pub use tage::{Tage, TageConfig, TageMeta};

/// Per-prediction recovery/training metadata, one variant per predictor.
#[derive(Debug, Clone)]
pub enum PredMeta {
    /// Static predictors carry no state.
    Static,
    /// Bimodal carries no speculative state.
    Bimodal,
    /// Gshare metadata.
    Gshare(Box<GshareMeta>),
    /// Perceptron metadata.
    Perceptron(Box<PerceptronMeta>),
    /// ISL-TAGE metadata.
    IslTage(Box<IslTageMeta>),
}

/// The uniform, object-safe interface the timing core drives.
///
/// Contract: `predict_into` (or its wrapper `predict`) speculatively
/// updates internal history and produces metadata; exactly one of
/// `recover` (branch resolved, mispredicted), `squash` (branch discarded
/// entirely), or nothing (correct prediction) repairs that speculation;
/// `train` is called at retirement for every resolved branch, in program
/// order.
pub trait DirectionPredictor {
    /// Predicts the branch at `pc`, updating speculative state, and writes
    /// this prediction's metadata into `meta`, whatever it held before.
    ///
    /// The one prediction path every implementor provides. When `meta`
    /// already holds this predictor's boxed variant, the box is
    /// overwritten in place, so a caller that keeps one slot per in-flight
    /// branch (as `cfd-core`'s window does) allocates only while its slots
    /// first fill.
    fn predict_into(&mut self, pc: u64, meta: &mut Option<PredMeta>) -> bool;
    /// Predicts the branch at `pc`, updating speculative state, and
    /// returns fresh metadata ([`predict_into`](Self::predict_into) into
    /// an empty slot).
    fn predict(&mut self, pc: u64) -> (bool, PredMeta) {
        let mut meta = None;
        let pred = self.predict_into(pc, &mut meta);
        (pred, meta.expect("predict_into writes the metadata"))
    }
    /// Repairs speculative state after this branch resolved `taken` against
    /// a wrong prediction.
    fn recover(&mut self, pc: u64, taken: bool, meta: &PredMeta);
    /// Discards this branch's speculative state (it was on the wrong path).
    ///
    /// A core that restores predictor state wholesale from a checkpoint
    /// (snapshot-restore recovery, as `cfd-core` does for global history)
    /// subsumes per-branch squash for the snapshot-covered state; `squash`
    /// still repairs state outside any snapshot, such as the loop
    /// predictor's speculative iteration counters.
    fn squash(&mut self, meta: &PredMeta);
    /// Trains tables at retirement.
    fn train(&mut self, pc: u64, taken: bool, meta: &PredMeta);
    /// Short predictor name for reports.
    fn name(&self) -> &'static str;
    /// Deep-copies the predictor behind the trait object. This is what
    /// makes a core checkpoint self-contained: tables, histories and
    /// speculative counters all travel with the clone.
    fn clone_box(&self) -> Box<dyn DirectionPredictor>;

    /// Immediate-update convenience for trace-driven profiling: predict,
    /// repair, train, and report whether the prediction was wrong.
    ///
    /// The history predictors override it with the same effect and no
    /// metadata snapshot: the resolved direction is known up front, so it
    /// is the one inserted into the history, once.
    fn observe(&mut self, pc: u64, taken: bool) -> bool {
        let (pred, meta) = self.predict(pc);
        if pred != taken {
            self.recover(pc, taken, &meta);
        }
        self.train(pc, taken, &meta);
        pred != taken
    }
}

impl Clone for Box<dyn DirectionPredictor> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Always-taken static predictor (the weakest baseline).
#[derive(Debug, Default, Clone)]
pub struct AlwaysTaken;

impl DirectionPredictor for AlwaysTaken {
    fn predict_into(&mut self, _pc: u64, meta: &mut Option<PredMeta>) -> bool {
        *meta = Some(PredMeta::Static);
        true
    }
    fn recover(&mut self, _pc: u64, _taken: bool, _meta: &PredMeta) {}
    fn squash(&mut self, _meta: &PredMeta) {}
    fn train(&mut self, _pc: u64, _taken: bool, _meta: &PredMeta) {}
    fn name(&self) -> &'static str {
        "always-taken"
    }
    fn clone_box(&self) -> Box<dyn DirectionPredictor> {
        Box::new(self.clone())
    }
}

impl DirectionPredictor for Bimodal {
    fn predict_into(&mut self, pc: u64, meta: &mut Option<PredMeta>) -> bool {
        *meta = Some(PredMeta::Bimodal);
        Bimodal::predict(self, pc)
    }
    fn recover(&mut self, _pc: u64, _taken: bool, _meta: &PredMeta) {}
    fn squash(&mut self, _meta: &PredMeta) {}
    fn train(&mut self, pc: u64, taken: bool, _meta: &PredMeta) {
        Bimodal::train(self, pc, taken);
    }
    fn name(&self) -> &'static str {
        "bimodal"
    }
    fn clone_box(&self) -> Box<dyn DirectionPredictor> {
        Box::new(self.clone())
    }
    fn observe(&mut self, pc: u64, taken: bool) -> bool {
        let pred = Bimodal::predict(self, pc);
        Bimodal::train(self, pc, taken);
        pred != taken
    }
}

impl DirectionPredictor for Gshare {
    fn predict_into(&mut self, pc: u64, meta: &mut Option<PredMeta>) -> bool {
        match meta {
            Some(PredMeta::Gshare(b)) => Gshare::predict_into(self, pc, b),
            _ => {
                let (p, m) = Gshare::predict(self, pc);
                *meta = Some(PredMeta::Gshare(Box::new(m)));
                p
            }
        }
    }
    fn recover(&mut self, pc: u64, taken: bool, meta: &PredMeta) {
        if let PredMeta::Gshare(m) = meta {
            Gshare::recover(self, m, taken, pc);
        }
    }
    fn squash(&mut self, meta: &PredMeta) {
        if let PredMeta::Gshare(m) = meta {
            Gshare::squash(self, m);
        }
    }
    fn train(&mut self, _pc: u64, taken: bool, meta: &PredMeta) {
        if let PredMeta::Gshare(m) = meta {
            Gshare::train(self, taken, m);
        }
    }
    fn name(&self) -> &'static str {
        "gshare"
    }
    fn clone_box(&self) -> Box<dyn DirectionPredictor> {
        Box::new(self.clone())
    }
    fn observe(&mut self, pc: u64, taken: bool) -> bool {
        Gshare::observe(self, pc, taken)
    }
}

impl DirectionPredictor for Perceptron {
    fn predict_into(&mut self, pc: u64, meta: &mut Option<PredMeta>) -> bool {
        match meta {
            Some(PredMeta::Perceptron(b)) => Perceptron::predict_into(self, pc, b),
            _ => {
                let (p, m) = Perceptron::predict(self, pc);
                *meta = Some(PredMeta::Perceptron(Box::new(m)));
                p
            }
        }
    }
    fn recover(&mut self, pc: u64, taken: bool, meta: &PredMeta) {
        if let PredMeta::Perceptron(m) = meta {
            Perceptron::recover(self, m, taken, pc);
        }
    }
    fn squash(&mut self, meta: &PredMeta) {
        if let PredMeta::Perceptron(m) = meta {
            Perceptron::squash(self, m);
        }
    }
    fn train(&mut self, _pc: u64, taken: bool, meta: &PredMeta) {
        if let PredMeta::Perceptron(m) = meta {
            Perceptron::train(self, taken, m);
        }
    }
    fn name(&self) -> &'static str {
        "perceptron"
    }
    fn clone_box(&self) -> Box<dyn DirectionPredictor> {
        Box::new(self.clone())
    }
    fn observe(&mut self, pc: u64, taken: bool) -> bool {
        Perceptron::observe(self, pc, taken)
    }
}

impl DirectionPredictor for IslTage {
    fn predict_into(&mut self, pc: u64, meta: &mut Option<PredMeta>) -> bool {
        match meta {
            Some(PredMeta::IslTage(b)) => IslTage::predict_into(self, pc, b),
            _ => {
                let (p, m) = IslTage::predict(self, pc);
                *meta = Some(PredMeta::IslTage(Box::new(m)));
                p
            }
        }
    }
    fn recover(&mut self, pc: u64, taken: bool, meta: &PredMeta) {
        if let PredMeta::IslTage(m) = meta {
            IslTage::recover(self, pc, taken, m);
        }
    }
    fn squash(&mut self, meta: &PredMeta) {
        if let PredMeta::IslTage(m) = meta {
            IslTage::squash(self, m);
        }
    }
    fn train(&mut self, pc: u64, taken: bool, meta: &PredMeta) {
        if let PredMeta::IslTage(m) = meta {
            IslTage::train(self, pc, taken, m);
        }
    }
    fn name(&self) -> &'static str {
        "isl-tage"
    }
    fn clone_box(&self) -> Box<dyn DirectionPredictor> {
        Box::new(self.clone())
    }
    fn observe(&mut self, pc: u64, taken: bool) -> bool {
        IslTage::observe(self, pc, taken)
    }
}

/// Constructs a predictor by name: `"always-taken"`, `"bimodal"`,
/// `"gshare"`, `"perceptron"`, or `"isl-tage"`. Returns `None` for unknown
/// names.
pub fn predictor_by_name(name: &str) -> Option<Box<dyn DirectionPredictor>> {
    match name {
        "always-taken" => Some(Box::new(AlwaysTaken)),
        "bimodal" => Some(Box::new(Bimodal::new(14))),
        "gshare" => Some(Box::new(Gshare::new(14))),
        "perceptron" => Some(Box::new(Perceptron::new(10))),
        "isl-tage" => Some(Box::new(IslTage::new())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 5] = ["always-taken", "bimodal", "gshare", "perceptron", "isl-tage"];

    #[test]
    fn factory_knows_all_names() {
        for n in NAMES {
            assert_eq!(predictor_by_name(n).unwrap().name(), n);
        }
        assert!(predictor_by_name("oracle").is_none());
    }

    #[test]
    fn accuracy_ordering_on_history_pattern() {
        // A history-correlated pattern: isl-tage <= gshare <= bimodal misses.
        let pattern = [true, false, false, true, false, true, true, false];
        let mut rates = Vec::new();
        for name in ["bimodal", "gshare", "isl-tage"] {
            let mut p = predictor_by_name(name).unwrap();
            let mut miss = 0u64;
            for i in 0..30_000 {
                miss += p.observe(0x40, pattern[i % pattern.len()]) as u64;
            }
            rates.push(miss);
        }
        // Both history predictors learn this pattern nearly perfectly; the
        // ordering holds up to noise, and both crush bimodal.
        assert!(rates[2] <= rates[1] + 30, "isl-tage ({}) should match gshare ({})", rates[2], rates[1]);
        assert!(rates[1] * 10 < rates[0], "gshare ({}) should crush bimodal ({})", rates[1], rates[0]);
    }

    /// `observe` (box-free where overridden), explicit predict/recover/
    /// train, and `predict_into` over a ring of reused metadata slots are
    /// one prediction path: three twins agree on every prediction.
    #[test]
    fn observe_matches_explicit_predict_recover_train() {
        for name in NAMES {
            let mut observed = predictor_by_name(name).unwrap();
            let mut explicit = predictor_by_name(name).unwrap();
            let mut slotted = predictor_by_name(name).unwrap();
            let mut slots: [Option<PredMeta>; 4] = Default::default();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..20_000usize {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let pc = 0x40 + (x % 24) * 4;
                // Half the branches follow a short pattern, half are noise.
                let taken = if pc < 0x70 { i % 3 != 0 } else { (x >> 40) & 1 == 1 };

                let missed = observed.observe(pc, taken);

                let (pred, meta) = explicit.predict(pc);
                if pred != taken {
                    explicit.recover(pc, taken, &meta);
                }
                explicit.train(pc, taken, &meta);

                let slot = &mut slots[i % 4];
                let slot_pred = slotted.predict_into(pc, slot);
                let meta = slot.as_ref().expect("predict_into writes the slot");
                if slot_pred != taken {
                    slotted.recover(pc, taken, meta);
                }
                slotted.train(pc, taken, meta);

                assert_eq!(missed, pred != taken, "{name}: observe vs predict at branch {i}");
                assert_eq!(slot_pred, pred, "{name}: predict_into vs predict at branch {i}");
            }
        }
    }

    #[test]
    fn observe_reports_mispredictions() {
        let mut p = AlwaysTaken;
        assert!(!p.observe(0, true));
        assert!(p.observe(0, false));
    }
}
