//! Loop termination predictor (the "L" of ISL-TAGE).
//!
//! Detects branches that behave as loop back-edges with a constant trip
//! count: taken `N-1` times, then not-taken once (or the converse). Once a
//! stable count is confirmed several times, the predictor overrides TAGE
//! with full confidence.
//!
//! The per-entry speculative iteration counter advances at predict time and
//! is restored from the per-branch [`LoopMeta`] on a squash or misprediction.

/// Per-prediction metadata for recovery and training.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopMeta {
    /// Index of the entry used, if the branch hit in the table.
    entry: Option<usize>,
    /// Speculative iteration count before this prediction.
    spec_iter_before: u32,
    /// The loop predictor's prediction, if confident.
    pub pred: Option<bool>,
}

#[derive(Debug, Clone, Copy, Default)]
struct LoopEntry {
    tag: u16,
    /// Confirmed trip count (number of `dir` outcomes before the inverse one).
    trip: u32,
    /// Non-speculative iteration counter (retire time).
    retire_iter: u32,
    /// Speculative iteration counter (predict time).
    spec_iter: u32,
    /// Confidence: number of consecutive confirmations (saturates at 7).
    conf: u8,
    /// Direction of the "body" outcomes (true = taken back-edge).
    dir: bool,
    /// Age for replacement.
    age: u8,
    valid: bool,
}

/// The loop predictor table.
#[derive(Debug, Clone)]
pub struct LoopPredictor {
    entries: Vec<LoopEntry>,
    index_bits: u32,
}

impl LoopPredictor {
    /// Confidence needed before the predictor overrides TAGE.
    const CONF_THRESHOLD: u8 = 3;

    /// Creates a loop predictor with `2^index_bits` direct-mapped entries.
    pub fn new(index_bits: u32) -> LoopPredictor {
        LoopPredictor { entries: vec![LoopEntry::default(); 1 << index_bits], index_bits }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize ^ (pc >> 12) as usize) & ((1 << self.index_bits) - 1)
    }

    fn tag(pc: u64) -> u16 {
        ((pc >> 2) ^ (pc >> 9) ^ (pc >> 17)) as u16 & 0x3ff
    }

    /// Looks up `pc`, advancing the speculative iteration counter.
    pub fn predict(&mut self, pc: u64) -> LoopMeta {
        let idx = self.index(pc);
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != Self::tag(pc) {
            return LoopMeta { entry: None, spec_iter_before: 0, pred: None };
        }
        let before = e.spec_iter;
        let pred = if e.conf >= Self::CONF_THRESHOLD && e.trip > 0 {
            // Iterations 0..trip-1 follow `dir`; iteration `trip` inverts.
            Some(if e.spec_iter < e.trip { e.dir } else { !e.dir })
        } else {
            None
        };
        // Advance the speculative counter along the predicted (or assumed)
        // path: wrap after the exit iteration.
        if e.spec_iter >= e.trip {
            e.spec_iter = 0;
        } else {
            e.spec_iter += 1;
        }
        LoopMeta { entry: Some(idx), spec_iter_before: before, pred }
    }

    /// Restores the speculative counter after a squash of this branch.
    pub fn squash(&mut self, meta: &LoopMeta) {
        if let Some(idx) = meta.entry {
            self.entries[idx].spec_iter = meta.spec_iter_before;
        }
    }

    /// Resynchronizes the speculative counter after a misprediction at this
    /// branch resolved with direction `taken`.
    pub fn recover(&mut self, meta: &LoopMeta, taken: bool) {
        if let Some(idx) = meta.entry {
            let e = &mut self.entries[idx];
            // Recompute from the retire-time counter, which trails the
            // resolved branch by the in-flight ones; approximating with the
            // resolved outcome keeps the counter sane.
            e.spec_iter = if taken == e.dir { meta.spec_iter_before.saturating_add(1) } else { 0 };
        }
    }

    /// Trains at retirement. Allocates on a miss when `alloc` is set
    /// (typically on a TAGE misprediction).
    pub fn train(&mut self, pc: u64, taken: bool, meta: &LoopMeta, alloc: bool) {
        let tag = Self::tag(pc);
        match meta.entry {
            Some(idx) => {
                let e = &mut self.entries[idx];
                if !e.valid || e.tag != tag {
                    return;
                }
                if taken == e.dir {
                    e.retire_iter = e.retire_iter.saturating_add(1);
                    if e.trip > 0 && e.retire_iter > e.trip {
                        // Ran past the recorded trip count: not a fixed loop.
                        e.conf = 0;
                        e.trip = 0;
                        e.retire_iter = 0;
                        e.valid = alloc;
                    }
                } else {
                    // Exit observed. An entry allocated on the exit outcome
                    // itself recorded the *inverse* direction (allocation
                    // typically fires on the mispredicted exit): an
                    // immediate "exit" with no body iterations is the
                    // telltale — flip the direction instead of learning a
                    // zero trip count.
                    if e.retire_iter == 0 && e.trip == 0 && e.conf == 0 {
                        e.dir = taken;
                        e.retire_iter = 1;
                        return;
                    }
                    // Confirm or relearn the trip count.
                    if e.trip == e.retire_iter && e.trip > 0 {
                        e.conf = (e.conf + 1).min(7);
                    } else {
                        e.trip = e.retire_iter;
                        e.conf = if e.trip > 0 { 1 } else { 0 };
                    }
                    e.retire_iter = 0;
                    // The speculative counter belongs to the predict-time
                    // stream (it may already be counting the next loop
                    // instance); recovery resynchronizes it on mispredicts,
                    // so do not clobber it here.
                    e.age = e.age.saturating_add(1).min(7);
                }
            }
            None => {
                if !alloc {
                    return;
                }
                let idx = self.index(pc);
                let e = &mut self.entries[idx];
                if e.valid && e.conf >= Self::CONF_THRESHOLD && e.age > 0 {
                    e.age -= 1; // protect confident entries
                    return;
                }
                *e = LoopEntry {
                    tag,
                    trip: 0,
                    retire_iter: u32::from(taken),
                    spec_iter: 0,
                    conf: 0,
                    dir: taken,
                    age: 0,
                    valid: true,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a fixed-trip loop stream: `trip` taken outcomes then one
    /// not-taken, repeated; returns (total, mispredicted-with-override).
    fn run_loop(lp: &mut LoopPredictor, pc: u64, trip: u32, reps: usize) -> (u64, u64, u64) {
        let (mut total, mut overridden, mut wrong) = (0u64, 0u64, 0u64);
        for _ in 0..reps {
            for i in 0..=trip {
                let taken = i < trip;
                let meta = lp.predict(pc);
                if let Some(p) = meta.pred {
                    overridden += 1;
                    if p != taken {
                        wrong += 1;
                        lp.recover(&meta, taken);
                    }
                }
                lp.train(pc, taken, &meta, true);
                total += 1;
            }
        }
        (total, overridden, wrong)
    }

    #[test]
    fn learns_fixed_trip_count() {
        let mut lp = LoopPredictor::new(7);
        let (_, _, _) = run_loop(&mut lp, 0x400, 9, 10); // warmup
        let (total, overridden, wrong) = run_loop(&mut lp, 0x400, 9, 50);
        assert!(overridden > total / 2, "override coverage {overridden}/{total}");
        assert_eq!(wrong, 0, "confident overrides must be perfect on a fixed loop");
    }

    #[test]
    fn varying_trip_count_stays_unconfident() {
        let mut lp = LoopPredictor::new(7);
        let mut overridden_wrong = 0u64;
        let mut x = 7u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
            let trip = (x >> 60) as u32 % 10;
            for i in 0..=trip {
                let taken = i < trip;
                let meta = lp.predict(0x500);
                if let Some(p) = meta.pred {
                    if p != taken {
                        overridden_wrong += 1;
                        lp.recover(&meta, taken);
                    }
                }
                lp.train(0x500, taken, &meta, true);
            }
        }
        // It may occasionally gain confidence then lose it; it must not be
        // systematically wrong.
        assert!(overridden_wrong < 100, "wrong overrides: {overridden_wrong}");
    }

    #[test]
    fn squash_restores_spec_counter() {
        let mut lp = LoopPredictor::new(6);
        // Allocate an entry.
        let meta0 = lp.predict(0x40);
        lp.train(0x40, true, &meta0, true);
        let m1 = lp.predict(0x40);
        let m2 = lp.predict(0x40);
        lp.squash(&m2);
        lp.squash(&m1);
        let m3 = lp.predict(0x40);
        assert_eq!(m3.spec_iter_before, m1.spec_iter_before);
    }

    #[test]
    fn no_alloc_without_flag() {
        let mut lp = LoopPredictor::new(6);
        let meta = lp.predict(0x80);
        lp.train(0x80, true, &meta, false);
        let meta2 = lp.predict(0x80);
        assert!(meta2.entry.is_none());
    }
}
