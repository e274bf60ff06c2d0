//! Perceptron branch predictor (Jiménez & Lin, HPCA 2001).
//!
//! Included as an ablation point between gshare and TAGE: linear in the
//! global history, so it captures long correlations that gshare's XOR
//! folding destroys, but — like every history-based predictor — it cannot
//! learn the data-dependent predicates CFD targets. The predictor ablation
//! experiment uses it to show CFD's gains are predictor-independent.

use crate::history::{GlobalHistory, HistorySnapshot};

/// History length (number of weights per entry, minus the bias): one
/// [`GlobalHistory::recent32`] word.
const HIST_LEN: usize = 32;
/// Weight saturation bound.
const WMAX: i16 = 127;
/// Training threshold θ ≈ 1.93·h + 14 (the paper's tuned value).
const THETA: i32 = (1.93 * HIST_LEN as f64 + 14.0) as i32;

/// Per-prediction metadata.
#[derive(Debug, Clone, Default)]
pub struct PerceptronMeta {
    snapshot: HistorySnapshot,
    /// Dot-product output at predict time.
    pub output: i32,
    /// Predicted direction.
    pub pred: bool,
    index: usize,
    /// History bits used, bit `i` being the outcome `i` branches back.
    bits: u32,
}

/// A global-history perceptron predictor.
#[derive(Debug, Clone)]
pub struct Perceptron {
    /// weights[i][0] is the bias; [1..] pair with history bits.
    weights: Vec<[i16; HIST_LEN + 1]>,
    index_bits: u32,
    hist: GlobalHistory,
}

impl Perceptron {
    /// Creates a perceptron predictor with `2^index_bits` entries
    /// (10 bits ≈ 33 KB of weights at h=32).
    pub fn new(index_bits: u32) -> Perceptron {
        Perceptron { weights: vec![[0; HIST_LEN + 1]; 1 << index_bits], index_bits, hist: GlobalHistory::new() }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize ^ (pc >> 12) as usize) & ((1 << self.index_bits) - 1)
    }

    /// Predicts the branch at `pc`, speculatively updating the history.
    pub fn predict(&mut self, pc: u64) -> (bool, PerceptronMeta) {
        let mut meta = PerceptronMeta::default();
        let pred = self.predict_into(pc, &mut meta);
        (pred, meta)
    }

    /// Predicts the branch at `pc`, speculatively updating the history,
    /// and fills `meta` in place, whatever it held before.
    #[inline]
    pub fn predict_into(&mut self, pc: u64, meta: &mut PerceptronMeta) -> bool {
        self.hist.snapshot_into(&mut meta.snapshot);
        let pred = self.lookup(pc, meta);
        self.hist.insert(pred, pc);
        pred
    }

    /// The prediction for `pc` from the current history, written into
    /// every field of `meta` except its snapshot.
    #[inline]
    fn lookup(&self, pc: u64, meta: &mut PerceptronMeta) -> bool {
        meta.index = self.index(pc);
        meta.bits = self.hist.recent32();
        let w = &self.weights[meta.index];
        let mut output = w[0] as i32;
        for (i, &wi) in w[1..].iter().enumerate() {
            output += if (meta.bits >> i) & 1 == 1 { wi as i32 } else { -(wi as i32) };
        }
        meta.output = output;
        meta.pred = output >= 0;
        meta.pred
    }

    /// Immediate-update predict, repair and train: what
    /// [`predict`](Self::predict), [`recover`](Self::recover) on a miss and
    /// [`train`](Self::train) do, without the history snapshot. Returns
    /// whether the prediction was wrong.
    pub fn observe(&mut self, pc: u64, taken: bool) -> bool {
        let mut meta = PerceptronMeta::default();
        let pred = self.lookup(pc, &mut meta);
        self.hist.insert(taken, pc);
        self.train(taken, &meta);
        pred != taken
    }

    /// Repairs the speculative history after a misprediction.
    pub fn recover(&mut self, meta: &PerceptronMeta, taken: bool, pc: u64) {
        self.hist.recover(&meta.snapshot, taken, pc);
    }

    /// Discards this branch's speculative history.
    pub fn squash(&mut self, meta: &PerceptronMeta) {
        self.hist.restore(&meta.snapshot);
    }

    /// Trains at retirement: on a misprediction or a low-confidence output,
    /// nudge the weights toward the outcome.
    pub fn train(&mut self, taken: bool, meta: &PerceptronMeta) {
        let mispredicted = meta.pred != taken;
        if !mispredicted && meta.output.abs() > THETA {
            return;
        }
        let t = if taken { 1i16 } else { -1i16 };
        let w = &mut self.weights[meta.index];
        w[0] = (w[0] + t).clamp(-WMAX, WMAX);
        for (i, wi) in w[1..].iter_mut().enumerate() {
            let x = if (meta.bits >> i) & 1 == 1 { 1i16 } else { -1i16 };
            *wi = (*wi + t * x).clamp(-WMAX, WMAX);
        }
    }

    /// Table storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.weights.len() * (HIST_LEN + 1) * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe(p: &mut Perceptron, pc: u64, taken: bool) -> bool {
        let (pred, meta) = p.predict(pc);
        if pred != taken {
            p.recover(&meta, taken, pc);
        }
        p.train(taken, &meta);
        pred != taken
    }

    #[test]
    fn learns_bias() {
        let mut p = Perceptron::new(8);
        let miss: u64 = (0..2000).map(|_| observe(&mut p, 0x40, true) as u64).sum();
        assert!(miss < 50, "always-taken must converge, miss={miss}");
    }

    #[test]
    fn learns_linearly_separable_correlation() {
        // outcome = previous outcome (trivially linear in history bit 0).
        let mut p = Perceptron::new(8);
        let mut prev = true;
        let mut x = 0x1234u64;
        let mut miss = 0u64;
        for i in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
            let cur = if i % 2 == 0 { (x >> 63) != 0 } else { prev };
            if i % 2 == 0 {
                observe(&mut p, 0x10, cur);
                prev = cur;
            } else {
                miss += observe(&mut p, 0x20, cur) as u64;
            }
        }
        assert!(miss < 1500, "correlated branch should be learned, miss={miss}");
    }

    #[test]
    fn cannot_learn_random_data_dependence() {
        let mut p = Perceptron::new(8);
        let mut x = 99u64;
        let n = 10_000;
        let mut miss = 0u64;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            miss += observe(&mut p, 0x30, (x >> 62) == 0) as u64;
        }
        let rate = miss as f64 / n as f64;
        assert!(rate > 0.15, "random 25%-biased stream stays hard, rate={rate}");
    }

    #[test]
    fn storage_is_reported() {
        let p = Perceptron::new(10);
        assert_eq!(p.storage_bytes(), 1024 * 33 * 2);
    }

    #[test]
    fn squash_restores_history() {
        let mut p = Perceptron::new(8);
        observe(&mut p, 0x40, true);
        let (_, m) = p.predict(0x50);
        let out_before = m.output;
        p.squash(&m);
        let (_, m2) = p.predict(0x50);
        assert_eq!(m2.output, out_before);
    }
}
