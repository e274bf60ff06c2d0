//! ISL-TAGE-lite: TAGE + loop predictor + use-alt-on-newly-allocated.
//!
//! This is our stand-in for the CBP3-winning 64 KB ISL-TAGE the paper uses
//! (Seznec 2011). It combines:
//!
//! * the [`Tage`] predictor (geometric history lengths, u-bit aging), which
//!   internally implements the *Statistical-corrector-flavored* UAONA
//!   heuristic,
//! * the [`LoopPredictor`] ("L"), which overrides TAGE on branches with
//!   stable trip counts once confident.
//!
//! The combination reproduces the qualitative property the paper relies on:
//! state-of-the-art accuracy on correlated branches, while data-dependent
//! branches (the CFD targets) remain hard.

use crate::corrector::{CorrectorMeta, StatisticalCorrector};
use crate::loop_pred::{LoopMeta, LoopPredictor};
use crate::tage::{Tage, TageConfig, TageMeta};

/// Per-prediction metadata for [`IslTage`].
#[derive(Debug, Clone, Default)]
pub struct IslTageMeta {
    tage: TageMeta,
    loop_meta: LoopMeta,
    corrector: CorrectorMeta,
    /// Final prediction (after corrector and loop-predictor overrides).
    pub pred: bool,
    /// Whether the loop predictor supplied the prediction.
    pub from_loop: bool,
}

/// The combined predictor.
#[derive(Debug, Clone)]
pub struct IslTage {
    tage: Tage,
    loop_pred: LoopPredictor,
    corrector: StatisticalCorrector,
}

impl IslTage {
    /// Creates the predictor with the default (~64 KB-class) configuration.
    pub fn new() -> IslTage {
        IslTage::with_config(TageConfig::default(), 7)
    }

    /// Creates the predictor with an explicit TAGE configuration and
    /// `2^loop_bits` loop-predictor entries.
    pub fn with_config(cfg: TageConfig, loop_bits: u32) -> IslTage {
        IslTage {
            tage: Tage::new(cfg),
            loop_pred: LoopPredictor::new(loop_bits),
            corrector: StatisticalCorrector::new(12),
        }
    }

    /// Predicts the branch at `pc`, speculatively updating internal history.
    pub fn predict(&mut self, pc: u64) -> (bool, IslTageMeta) {
        let mut meta = IslTageMeta::default();
        let pred = self.predict_into(pc, &mut meta);
        (pred, meta)
    }

    /// Predicts the branch at `pc`, speculatively updating internal
    /// history, and fills `meta` in place, whatever it held before.
    ///
    /// The history snapshot is taken first; the speculative history then
    /// gets the *final* direction, inserted once.
    #[inline]
    pub fn predict_into(&mut self, pc: u64, meta: &mut IslTageMeta) -> bool {
        self.tage.hist.snapshot_into(&mut meta.tage.snapshot);
        let pred = self.settle(pc, meta);
        self.tage.hist.insert(pred, pc);
        pred
    }

    /// The final direction for `pc`, with every field of `meta` but the
    /// history snapshot filled; advances the loop predictor's speculative
    /// counter and leaves the history alone.
    #[inline]
    fn settle(&mut self, pc: u64, meta: &mut IslTageMeta) -> bool {
        meta.loop_meta = self.loop_pred.predict(pc);
        let tage_pred = self.tage.lookup(pc, &mut meta.tage);
        // The statistical corrector may invert unconfident TAGE output.
        let (sc_pred, corrector) = self.corrector.filter(pc, tage_pred, meta.tage.provider_confident());
        meta.corrector = corrector;
        // Priority: loop predictor (when confident) > corrector > TAGE.
        (meta.pred, meta.from_loop) = match meta.loop_meta.pred {
            Some(p) => (p, true),
            None => (sc_pred, false),
        };
        meta.pred
    }

    /// Immediate-update predict, repair and train (the profiler's replay):
    /// what [`predict`](Self::predict), [`recover`](Self::recover) on a
    /// miss and [`train`](Self::train) do, without the history snapshot.
    /// The resolved direction is already known, so it is the one inserted.
    /// Returns whether the prediction was wrong.
    pub fn observe(&mut self, pc: u64, taken: bool) -> bool {
        let mut meta = IslTageMeta::default();
        let pred = self.settle(pc, &mut meta);
        self.tage.hist.insert(taken, pc);
        if pred != taken {
            self.loop_pred.recover(&meta.loop_meta, taken);
        }
        self.train(pc, taken, &meta);
        pred != taken
    }

    /// Repairs speculative state after this branch mispredicted and
    /// resolved with direction `taken`.
    pub fn recover(&mut self, pc: u64, taken: bool, meta: &IslTageMeta) {
        self.tage.recover(&meta.tage, taken, pc);
        self.loop_pred.recover(&meta.loop_meta, taken);
    }

    /// Discards this branch's speculative state (wrong-path squash).
    pub fn squash(&mut self, meta: &IslTageMeta) {
        self.tage.squash(&meta.tage);
        self.loop_pred.squash(&meta.loop_meta);
    }

    /// Trains both components at retirement.
    pub fn train(&mut self, pc: u64, taken: bool, meta: &IslTageMeta) {
        self.tage.train(pc, taken, &meta.tage);
        self.corrector.train(taken, &meta.corrector);
        let tage_was_wrong = meta.tage.pred != taken;
        self.loop_pred.train(pc, taken, &meta.loop_meta, tage_was_wrong);
    }

    /// Total table storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.tage.storage_bytes() + (1 << 7) * 8 + (1 << 12)
    }
}

impl Default for IslTage {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe(p: &mut IslTage, pc: u64, taken: bool) -> bool {
        let (pred, meta) = p.predict(pc);
        if pred != taken {
            p.recover(pc, taken, &meta);
        }
        p.train(pc, taken, &meta);
        pred != taken
    }

    #[test]
    fn loop_override_beats_tage_on_long_fixed_loops() {
        // A 33-iteration loop: TAGE's short tables struggle, the loop
        // predictor nails it after warmup.
        let mut p = IslTage::new();
        let mut warm = 0u64;
        for _ in 0..50 {
            for i in 0..=33 {
                warm += observe(&mut p, 0x1000, i < 33) as u64;
            }
        }
        let mut miss = 0u64;
        let mut total = 0u64;
        for _ in 0..100 {
            for i in 0..=33 {
                miss += observe(&mut p, 0x1000, i < 33) as u64;
                total += 1;
            }
        }
        assert!(miss * 100 < total, "steady-state miss {miss}/{total} (warmup {warm})");
    }

    #[test]
    fn random_branches_stay_hard() {
        // The CFD premise: data-dependent branches defeat even ISL-TAGE.
        let mut p = IslTage::new();
        let mut x = 42u64;
        let mut miss = 0u64;
        let n = 20_000;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            miss += observe(&mut p, 0x2000, (x >> 62) == 0) as u64; // ~25% taken
        }
        let rate = miss as f64 / n as f64;
        assert!(rate > 0.15, "a random 25%-biased stream must stay hard, rate={rate}");
        assert!(rate < 0.40, "but not worse than the bias, rate={rate}");
    }

    #[test]
    fn correlated_branches_are_easy() {
        // Branch B repeats branch A's outcome: global history captures it.
        let mut p = IslTage::new();
        let mut x = 17u64;
        let mut miss_b = 0u64;
        let n = 30_000;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(3);
            let a = (x >> 63) != 0;
            observe(&mut p, 0x3000, a);
            miss_b += observe(&mut p, 0x3010, a) as u64;
        }
        let rate = miss_b as f64 / n as f64;
        assert!(rate < 0.08, "correlated branch should be easy, rate={rate}");
    }

    #[test]
    fn squash_then_repredict_consistent() {
        let mut p = IslTage::new();
        for i in 0..50 {
            observe(&mut p, 0x40, i % 2 == 0);
        }
        let (pred1, meta1) = p.predict(0x99);
        p.squash(&meta1);
        let (pred2, meta2) = p.predict(0x99);
        p.squash(&meta2);
        assert_eq!(pred1, pred2);
    }
}
