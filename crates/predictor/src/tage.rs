//! A TAGE conditional branch predictor.
//!
//! Follows Seznec's TAGE design: a bimodal base table plus `N` tagged
//! tables indexed with geometrically increasing global-history lengths.
//! The provider is the hitting table with the longest history; `u` (useful)
//! counters arbitrate allocation on mispredictions; a "use alt on newly
//! allocated" (UAONA) counter — one of the ISL-TAGE refinements — decides
//! whether to trust weak newly-allocated entries.
//!
//! The predictor is *speculatively updated*: `predict` inserts the predicted
//! direction into the global history, and the returned [`TageMeta`] carries
//! the [`HistorySnapshot`] needed to repair the history on a misprediction.

use crate::history::{GlobalHistory, HistorySnapshot};

/// Configuration of a [`Tage`] predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageConfig {
    /// log2 entries of the bimodal base table.
    pub base_bits: u32,
    /// log2 entries of each tagged table.
    pub tagged_bits: u32,
    /// Tag width of each tagged table.
    pub tag_bits: u32,
    /// History lengths of the tagged tables, shortest first.
    pub history_lengths: Vec<usize>,
    /// Period (in branches) of the graceful `u`-bit reset.
    pub u_reset_period: u64,
}

impl Default for TageConfig {
    fn default() -> Self {
        // ~64 KB class budget, comparable to the paper's CBP3 ISL-TAGE.
        TageConfig {
            base_bits: 14,
            tagged_bits: 10,
            tag_bits: 11,
            history_lengths: vec![4, 7, 12, 21, 36, 62, 107, 185, 319, 550],
            u_reset_period: 256 * 1024,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    /// 3-bit signed counter, taken when >= 0.
    ctr: i8,
    /// 2-bit useful counter.
    u: u8,
}

/// Upper bound on tagged tables (fixed arrays keep metadata heap-free).
pub const MAX_TABLES: usize = 16;

/// Per-prediction metadata carried by an in-flight branch.
#[derive(Debug, Clone, Default)]
pub struct TageMeta {
    /// History state before this branch (for recovery).
    pub snapshot: HistorySnapshot,
    /// Predicted direction.
    pub pred: bool,
    provider: Option<usize>,
    provider_idx: usize,
    /// The provider entry's own direction at predict time (pre-UAONA).
    provider_dir: bool,
    alt_pred: bool,
    base_idx: usize,
    /// Whether the provider entry was "newly allocated" (weak and not useful).
    provider_new: bool,
    /// Per-table indices/tags computed at predict time.
    indices: [u16; MAX_TABLES],
    tags: [u16; MAX_TABLES],
}

impl TageMeta {
    /// Whether the providing entry was confident (present, not newly
    /// allocated, and with a non-weak counter). The statistical corrector
    /// only considers inverting unconfident predictions.
    pub fn provider_confident(&self) -> bool {
        self.provider.is_some() && !self.provider_new
    }
}

/// The TAGE predictor.
#[derive(Debug, Clone)]
pub struct Tage {
    cfg: TageConfig,
    base: Vec<i8>,
    tables: Vec<Vec<TaggedEntry>>,
    /// The speculative history; [`IslTage`](crate::IslTage) snapshots and
    /// inserts into it around its own direction.
    pub(crate) hist: GlobalHistory,
    idx_folds: Vec<usize>,
    tag_folds1: Vec<usize>,
    tag_folds2: Vec<usize>,
    /// Use-alt-on-newly-allocated counter (4 bits, signed around 0).
    uaona: i8,
    branches_seen: u64,
    alloc_seed: u32,
}

impl Tage {
    /// Creates a TAGE predictor from a configuration.
    pub fn new(cfg: TageConfig) -> Tage {
        assert!(cfg.history_lengths.len() <= MAX_TABLES, "too many tagged tables");
        let mut hist = GlobalHistory::new();
        let mut idx_folds = Vec::new();
        let mut tag_folds1 = Vec::new();
        let mut tag_folds2 = Vec::new();
        for &hl in &cfg.history_lengths {
            idx_folds.push(hist.add_fold(hl, cfg.tagged_bits));
            tag_folds1.push(hist.add_fold(hl, cfg.tag_bits));
            tag_folds2.push(hist.add_fold(hl, cfg.tag_bits - 1));
        }
        let tables = cfg.history_lengths.iter().map(|_| vec![TaggedEntry::default(); 1 << cfg.tagged_bits]).collect();
        Tage {
            base: vec![0; 1 << cfg.base_bits],
            tables,
            hist,
            idx_folds,
            tag_folds1,
            tag_folds2,
            uaona: 0,
            branches_seen: 0,
            alloc_seed: 0x9e3779b9,
            cfg,
        }
    }

    fn base_index(&self, pc: u64) -> usize {
        (pc as usize ^ (pc as usize >> 2)) & ((1 << self.cfg.base_bits) - 1)
    }

    fn table_index(&self, pc: u64, t: usize) -> usize {
        let mask = (1usize << self.cfg.tagged_bits) - 1;
        let f = self.hist.folded(self.idx_folds[t]) as usize;
        let p = (self.hist.path() as usize) & mask;
        (pc as usize ^ (pc as usize >> (self.cfg.tagged_bits as usize - t % 4)) ^ f ^ (p >> (t & 3))) & mask
    }

    fn table_tag(&self, pc: u64, t: usize) -> u16 {
        let mask = (1u32 << self.cfg.tag_bits) - 1;
        ((pc as u32 ^ self.hist.folded(self.tag_folds1[t]) ^ (self.hist.folded(self.tag_folds2[t]) << 1)) & mask) as u16
    }

    /// Predicts the branch at `pc`, speculatively updating the history.
    pub fn predict(&mut self, pc: u64) -> (bool, TageMeta) {
        let mut meta = TageMeta::default();
        let pred = self.predict_into(pc, &mut meta);
        (pred, meta)
    }

    /// Predicts the branch at `pc`, speculatively updating the history,
    /// and fills `meta` in place, whatever it held before.
    #[inline]
    pub fn predict_into(&mut self, pc: u64, meta: &mut TageMeta) -> bool {
        self.hist.snapshot_into(&mut meta.snapshot);
        let pred = self.lookup(pc, meta);
        self.hist.insert(pred, pc);
        pred
    }

    /// TAGE's prediction for `pc` from the current history. Writes every
    /// field of `meta` but its snapshot; of `indices` and `tags` it writes
    /// one entry per table, all that [`train`](Self::train) reads.
    #[inline]
    pub(crate) fn lookup(&self, pc: u64, meta: &mut TageMeta) -> bool {
        let n = self.tables.len();
        let (indices, tags) = (&mut meta.indices, &mut meta.tags);
        for t in 0..n {
            indices[t] = self.table_index(pc, t) as u16;
            tags[t] = self.table_tag(pc, t);
        }
        let base_idx = self.base_index(pc);
        let base_pred = self.base[base_idx] >= 0;

        let mut provider = None;
        let mut alt_provider = None;
        for t in (0..n).rev() {
            let e = &self.tables[t][indices[t] as usize];
            if e.tag == tags[t] {
                if provider.is_none() {
                    provider = Some(t);
                } else {
                    alt_provider = Some(t);
                    break;
                }
            }
        }

        let alt_pred = match alt_provider {
            Some(t) => self.tables[t][indices[t] as usize].ctr >= 0,
            None => base_pred,
        };
        let (pred, provider_idx, provider_new, provider_dir) = match provider {
            Some(t) => {
                let e = &self.tables[t][indices[t] as usize];
                let newly = e.u == 0 && (e.ctr == 0 || e.ctr == -1);
                let use_alt = newly && self.uaona >= 0;
                let dir = e.ctr >= 0;
                let p = if use_alt { alt_pred } else { dir };
                (p, indices[t] as usize, newly, dir)
            }
            None => (base_pred, base_idx, false, base_pred),
        };

        meta.pred = pred;
        meta.provider = provider;
        meta.provider_idx = provider_idx;
        meta.provider_dir = provider_dir;
        meta.alt_pred = alt_pred;
        meta.base_idx = base_idx;
        meta.provider_new = provider_new;
        pred
    }

    /// Repairs the speculative history after `pc` resolved `taken` against a
    /// mispredicted `meta`.
    pub fn recover(&mut self, meta: &TageMeta, taken: bool, pc: u64) {
        self.hist.recover(&meta.snapshot, taken, pc);
    }

    /// Restores the history to just before this branch (squash without
    /// re-execution, e.g. a wrong-path branch being discarded).
    pub fn squash(&mut self, meta: &TageMeta) {
        self.hist.restore(&meta.snapshot);
    }

    fn bump(ctr: &mut i8, up: bool, lo: i8, hi: i8) {
        if up {
            if *ctr < hi {
                *ctr += 1;
            }
        } else if *ctr > lo {
            *ctr -= 1;
        }
    }

    /// Trains the predictor at retirement with the resolved direction.
    pub fn train(&mut self, pc: u64, taken: bool, meta: &TageMeta) {
        let _ = pc;
        self.branches_seen += 1;
        // Graceful u-bit aging.
        if self.branches_seen.is_multiple_of(self.cfg.u_reset_period) {
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.u >>= 1;
                }
            }
        }

        let mispredicted = meta.pred != taken;

        // UAONA bookkeeping: when the provider was newly allocated and its
        // own prediction differed from the alternate, learn which to trust.
        if meta.provider.is_some() && meta.provider_new && meta.provider_dir != meta.alt_pred {
            Self::bump(&mut self.uaona, meta.alt_pred == taken, -8, 7);
        }

        // Update provider (or base) counter.
        match meta.provider {
            Some(t) => {
                let e = &mut self.tables[t][meta.provider_idx];
                Self::bump(&mut e.ctr, taken, -4, 3);
                // Useful-bit update uses the provider's *predict-time*
                // direction: a provider that mispredicted must not be
                // credited just because the bump moved its counter.
                if meta.provider_dir == taken && meta.alt_pred != taken && e.u < 3 {
                    e.u += 1;
                } else if meta.provider_dir != taken && meta.alt_pred == taken && e.u > 0 {
                    e.u -= 1;
                }
                // Also train the base table when the provider is weak.
                if meta.provider_new {
                    Self::bump(&mut self.base[meta.base_idx], taken, -2, 1);
                }
            }
            None => {
                Self::bump(&mut self.base[meta.base_idx], taken, -2, 1);
            }
        }

        // Allocate on misprediction in a longer-history table.
        if mispredicted {
            let start = meta.provider.map_or(0, |t| t + 1);
            if start < self.tables.len() {
                // Pseudo-random start offset reduces ping-ponging.
                self.alloc_seed = self.alloc_seed.wrapping_mul(1664525).wrapping_add(1013904223);
                let skip = (self.alloc_seed >> 16) as usize % 2;
                let mut allocated = false;
                for t in (start + skip.min(self.tables.len() - 1 - start))..self.tables.len() {
                    let idx = meta.indices[t] as usize;
                    let e = &mut self.tables[t][idx];
                    if e.u == 0 {
                        e.tag = meta.tags[t];
                        e.ctr = if taken { 0 } else { -1 };
                        allocated = true;
                        break;
                    }
                }
                if !allocated {
                    // Decay u over the candidate range to make room next time.
                    for t in start..self.tables.len() {
                        let idx = meta.indices[t] as usize;
                        let e = &mut self.tables[t][idx];
                        if e.u > 0 {
                            e.u -= 1;
                        }
                    }
                }
            }
        }
    }

    /// Storage budget of the tables in bytes (excluding history registers).
    pub fn storage_bytes(&self) -> usize {
        let base = (1usize << self.cfg.base_bits) * 2 / 8;
        let per_entry_bits = self.cfg.tag_bits as usize + 3 + 2;
        base + self.tables.len() * (1usize << self.cfg.tagged_bits) * per_entry_bits / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_stream(t: &mut Tage, stream: impl Iterator<Item = (u64, bool)>) -> (u64, u64) {
        let (mut total, mut miss) = (0u64, 0u64);
        for (pc, taken) in stream {
            let (pred, meta) = t.predict(pc);
            if pred != taken {
                miss += 1;
                t.recover(&meta, taken, pc);
            }
            t.train(pc, taken, &meta);
            total += 1;
        }
        (total, miss)
    }

    #[test]
    fn learns_always_taken() {
        let mut t = Tage::new(TageConfig::default());
        let (total, miss) = run_stream(&mut t, (0..2000).map(|_| (0x40, true)));
        assert!(miss * 20 < total, "miss={miss}/{total}");
    }

    #[test]
    fn learns_short_pattern_via_history() {
        // Period-7 pattern: bimodal alone cannot learn it, TAGE must.
        let pattern = [true, true, false, true, false, false, true];
        let mut t = Tage::new(TageConfig::default());
        let stream = (0..30_000).map(|i| (0x80u64, pattern[i % pattern.len()]));
        let (_, warm_miss) = run_stream(&mut t, stream);
        // After warmup the steady-state misses should be a tiny fraction.
        let (total, miss) = run_stream(&mut t, (0..5000).map(|i| (0x80u64, pattern[i % pattern.len()])));
        assert!(miss * 50 < total, "steady miss={miss}/{total} (warm={warm_miss})");
    }

    #[test]
    fn random_stream_mispredicts_half() {
        let mut t = Tage::new(TageConfig::default());
        let mut x = 0xdeadbeefu64;
        let stream = (0..20_000).map(move |_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (0x100u64, (x >> 63) != 0)
        });
        // Reconstruct the same stream (same closure semantics need care; use a vec)
        let mut y = 0xdeadbeefu64;
        let v: Vec<(u64, bool)> = (0..20_000)
            .map(|_| {
                y = y.wrapping_mul(6364136223846793005).wrapping_add(1);
                (0x100u64, (y >> 63) != 0)
            })
            .collect();
        drop(stream);
        let (total, miss) = run_stream(&mut t, v.into_iter());
        let rate = miss as f64 / total as f64;
        assert!(rate > 0.35 && rate < 0.65, "rate={rate}");
    }

    #[test]
    fn distinguishes_pcs() {
        let mut t = Tage::new(TageConfig::default());
        let v: Vec<(u64, bool)> = (0..4000).flat_map(|_| [(0x10u64, true), (0x20u64, false)]).collect();
        let (total, miss) = run_stream(&mut t, v.into_iter());
        assert!(miss * 20 < total, "miss={miss}/{total}");
    }

    #[test]
    fn recovery_keeps_history_consistent() {
        // Predict with deliberate wrong-path inserts: outcome correctness of
        // the *final* accuracy implies recovery works; here we check a
        // mechanical invariant instead: recover + same-pc repredict is stable.
        let mut t = Tage::new(TageConfig::default());
        for i in 0..100 {
            let (p, meta) = t.predict(0x40 + (i % 3) * 8);
            if p != (i % 2 == 0) {
                t.recover(&meta, i % 2 == 0, 0x40 + (i % 3) * 8);
            }
            t.train(0x40 + (i % 3) * 8, i % 2 == 0, &meta);
        }
        let snap_before = t.hist.snapshot();
        let (_, meta) = t.predict(0x99);
        t.squash(&meta);
        assert_eq!(t.hist.snapshot(), snap_before);
    }

    #[test]
    fn storage_budget_is_reported() {
        let t = Tage::new(TageConfig::default());
        let kb = t.storage_bytes() / 1024;
        assert!((20..=128).contains(&kb), "storage {kb} KB");
    }
}
