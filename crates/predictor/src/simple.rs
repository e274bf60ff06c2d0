//! Baseline direction predictors: bimodal, gshare, static.
//!
//! These serve as ablation baselines for the ISL-TAGE-lite predictor and as
//! cheap predictors for unit tests.

use crate::history::{GlobalHistory, HistorySnapshot};

/// A bimodal predictor: a table of 2-bit saturating counters indexed by PC.
#[derive(Debug, Clone)]
pub struct Bimodal {
    ctrs: Vec<i8>,
    index_bits: u32,
}

impl Bimodal {
    /// Creates a bimodal predictor with `2^index_bits` counters.
    pub fn new(index_bits: u32) -> Bimodal {
        Bimodal { ctrs: vec![0; 1 << index_bits], index_bits }
    }

    fn index(&self, pc: u64) -> usize {
        (pc as usize ^ (pc as usize >> 13)) & ((1 << self.index_bits) - 1)
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.ctrs[self.index(pc)] >= 0
    }

    /// Trains with the resolved direction.
    pub fn train(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        let c = &mut self.ctrs[idx];
        if taken {
            *c = (*c + 1).min(1);
        } else {
            *c = (*c - 1).max(-2);
        }
    }
}

/// Per-prediction metadata of [`Gshare`].
#[derive(Debug, Clone, Default)]
pub struct GshareMeta {
    snapshot: HistorySnapshot,
    index: usize,
    /// Predicted direction.
    pub pred: bool,
}

/// A gshare predictor: PC xor folded-global-history indexed 2-bit counters,
/// with speculative history and snapshot-based recovery.
#[derive(Debug, Clone)]
pub struct Gshare {
    ctrs: Vec<i8>,
    index_bits: u32,
    hist: GlobalHistory,
    fold: usize,
}

impl Gshare {
    /// Creates a gshare predictor with `2^index_bits` counters and an
    /// `index_bits`-long global history.
    pub fn new(index_bits: u32) -> Gshare {
        let mut hist = GlobalHistory::new();
        let fold = hist.add_fold(index_bits as usize, index_bits);
        Gshare { ctrs: vec![0; 1 << index_bits], index_bits, hist, fold }
    }

    /// Predicts the branch at `pc`, speculatively updating the history.
    pub fn predict(&mut self, pc: u64) -> (bool, GshareMeta) {
        let mut meta = GshareMeta::default();
        let pred = self.predict_into(pc, &mut meta);
        (pred, meta)
    }

    /// Predicts the branch at `pc`, speculatively updating the history,
    /// and fills `meta` in place, whatever it held before.
    #[inline]
    pub fn predict_into(&mut self, pc: u64, meta: &mut GshareMeta) -> bool {
        self.hist.snapshot_into(&mut meta.snapshot);
        meta.index = self.index(pc);
        meta.pred = self.ctrs[meta.index] >= 0;
        self.hist.insert(meta.pred, pc);
        meta.pred
    }

    fn index(&self, pc: u64) -> usize {
        ((pc as usize >> 2) ^ self.hist.folded(self.fold) as usize) & ((1 << self.index_bits) - 1)
    }

    /// Immediate-update predict, repair and train: what
    /// [`predict`](Self::predict), [`recover`](Self::recover) on a miss and
    /// [`train`](Self::train) do, without the history snapshot. Returns
    /// whether the prediction was wrong.
    pub fn observe(&mut self, pc: u64, taken: bool) -> bool {
        let index = self.index(pc);
        let pred = self.ctrs[index] >= 0;
        self.hist.insert(taken, pc);
        Self::bump(&mut self.ctrs[index], taken);
        pred != taken
    }

    /// Repairs the history after a misprediction.
    pub fn recover(&mut self, meta: &GshareMeta, taken: bool, pc: u64) {
        self.hist.recover(&meta.snapshot, taken, pc);
    }

    /// Discards this branch's speculative history (wrong-path squash).
    pub fn squash(&mut self, meta: &GshareMeta) {
        self.hist.restore(&meta.snapshot);
    }

    /// Trains with the resolved direction.
    pub fn train(&mut self, taken: bool, meta: &GshareMeta) {
        Self::bump(&mut self.ctrs[meta.index], taken);
    }

    fn bump(c: &mut i8, taken: bool) {
        if taken {
            *c = (*c + 1).min(1);
        } else {
            *c = (*c - 1).max(-2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_bias() {
        let mut b = Bimodal::new(10);
        for _ in 0..10 {
            b.train(0x40, true);
        }
        assert!(b.predict(0x40));
        for _ in 0..10 {
            b.train(0x40, false);
        }
        assert!(!b.predict(0x40));
    }

    #[test]
    fn bimodal_hysteresis() {
        let mut b = Bimodal::new(10);
        b.train(0x40, true);
        b.train(0x40, true);
        b.train(0x40, false); // one anomaly
        assert!(b.predict(0x40), "2-bit counter should tolerate one anomaly");
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        let mut g = Gshare::new(12);
        let mut miss = 0;
        for i in 0..4000 {
            let taken = i % 2 == 0;
            let (p, meta) = g.predict(0x80);
            if p != taken {
                miss += 1;
                g.recover(&meta, taken, 0x80);
            }
            g.train(taken, &meta);
        }
        assert!(miss < 200, "gshare should learn T/NT alternation, miss={miss}");
    }

    #[test]
    fn gshare_squash_restores_history() {
        let mut g = Gshare::new(10);
        let (_, m1) = g.predict(0x10);
        g.train(true, &m1);
        let before = g.hist.snapshot();
        let (_, m2) = g.predict(0x20);
        g.squash(&m2);
        assert_eq!(g.hist.snapshot(), before);
    }
}
