//! Speculative global branch history with O(1) folded views.
//!
//! TAGE-style predictors index their tables with very long global histories
//! (hundreds of bits) folded down to table-index width. We keep the history
//! in a large circular bit buffer with an *insertion position* and maintain
//! folded CSRs incrementally. Recovery from a misprediction restores the
//! position and the folded values from a per-branch [`HistorySnapshot`];
//! the bits behind the restored position are still intact in the buffer
//! (wrong-path bits ahead of it are overwritten before they can ever be
//! read), so rewinding is O(#folds), not O(history length).
//!
//! A fold's shape (lengths and rotation) never changes after
//! [`GlobalHistory::add_fold`], so it lives apart from the fold values and
//! a snapshot carries only the values.

/// Size of the circular history buffer in bits. Must exceed the longest
/// history length plus the maximum number of in-flight branches.
const BUF_BITS: usize = 4096;
const BUF_WORDS: usize = BUF_BITS / 64;

/// The fixed shape of a folded view: the last `hist_len` history bits
/// compressed to `out_bits` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FoldShape {
    hist_len: u16,
    out_bits: u8,
    /// `hist_len % out_bits`, the rotation applied to the outgoing bit.
    out_pos: u8,
}

impl FoldShape {
    /// An inert placeholder (pre-fills the fixed-size array).
    const EMPTY: FoldShape = FoldShape { hist_len: 0, out_bits: 1, out_pos: 0 };

    fn new(hist_len: usize, out_bits: u32) -> FoldShape {
        assert!(out_bits > 0 && out_bits <= 31);
        assert!(hist_len <= u16::MAX as usize);
        FoldShape { hist_len: hist_len as u16, out_bits: out_bits as u8, out_pos: (hist_len % out_bits as usize) as u8 }
    }

    /// The fold `value` after shifting in `new_bit` and shifting out
    /// `old_bit` (the bit leaving the `hist_len` window).
    #[inline]
    fn update(self, value: u32, new_bit: u32, old_bit: u32) -> u32 {
        let mask = (1u32 << self.out_bits) - 1;
        // Rotate-insert the new bit.
        let mut v = (value << 1) | new_bit;
        v ^= v >> self.out_bits;
        v &= mask;
        // Remove the outgoing bit at its rotated position (out_pos <
        // out_bits by construction, so the xor-fold has not touched it).
        v ^ (old_bit << self.out_pos)
    }
}

/// Maximum number of folded views a [`GlobalHistory`] may carry.
pub const MAX_FOLDS: usize = 48;

/// Snapshot of the history state at a branch, for misprediction recovery.
///
/// Fixed-size (no heap) because one is taken per predicted branch; it
/// holds the fold values only, not their shapes. Only the first
/// `n` slots are live, `n` being the number of folds of the history it
/// was taken from: [`GlobalHistory::snapshot_into`] writes and
/// [`GlobalHistory::restore`] reads just those, so a snapshot refilled in
/// place may keep stale values past them, and they are never read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistorySnapshot {
    pos: u64,
    phist: u32,
    values: [u32; MAX_FOLDS],
}

impl Default for HistorySnapshot {
    /// The state of a fresh history: nothing inserted, every fold zero.
    fn default() -> Self {
        HistorySnapshot { pos: 0, phist: 0, values: [0; MAX_FOLDS] }
    }
}

/// The speculative global history: a circular bit buffer plus a set of
/// registered folded views and a short path history.
#[derive(Debug, Clone)]
pub struct GlobalHistory {
    buf: [u64; BUF_WORDS],
    /// Total bits ever inserted (insertion position).
    pos: u64,
    /// 16-bit path history (low bits of branch PCs).
    phist: u32,
    n_folds: usize,
    shapes: [FoldShape; MAX_FOLDS],
    values: [u32; MAX_FOLDS],
}

impl GlobalHistory {
    /// Creates an empty history with no folded views.
    pub fn new() -> GlobalHistory {
        GlobalHistory {
            buf: [0; BUF_WORDS],
            pos: 0,
            phist: 0,
            n_folds: 0,
            shapes: [FoldShape::EMPTY; MAX_FOLDS],
            values: [0; MAX_FOLDS],
        }
    }

    /// Registers a folded view of the last `hist_len` bits compressed to
    /// `out_bits`; returns its handle for [`folded`](Self::folded).
    ///
    /// A fold's value depends only on its shape and the history, so a
    /// shape that is already registered returns the existing handle: each
    /// [`insert`](Self::insert) then updates it once, not once per
    /// caller. (TAGE asks for the same shape twice per table whenever its
    /// index width equals its tag width minus one.)
    pub fn add_fold(&mut self, hist_len: usize, out_bits: u32) -> usize {
        assert!(hist_len < BUF_BITS / 2, "history length too large for the buffer");
        let shape = FoldShape::new(hist_len, out_bits);
        if let Some(existing) = self.shapes[..self.n_folds].iter().position(|&s| s == shape) {
            return existing;
        }
        assert!(self.n_folds < MAX_FOLDS, "too many folded views");
        self.shapes[self.n_folds] = shape;
        self.values[self.n_folds] = 0;
        self.n_folds += 1;
        self.n_folds - 1
    }

    /// The current value of a registered folded view.
    #[inline]
    pub fn folded(&self, handle: usize) -> u32 {
        self.values[handle]
    }

    /// The 16-bit path history.
    #[inline]
    pub fn path(&self) -> u32 {
        self.phist
    }

    /// The buffered bit at absolute position `abs` (as 0 or 1).
    #[inline]
    fn bit(&self, abs: u64) -> u64 {
        let idx = abs as usize % BUF_BITS;
        (self.buf[idx / 64] >> (idx % 64)) & 1
    }

    #[inline]
    fn set_bit(&mut self, abs: u64, v: bool) {
        let idx = abs as usize % BUF_BITS;
        let (w, b) = (idx / 64, idx % 64);
        self.buf[w] = (self.buf[w] & !(1 << b)) | ((v as u64) << b);
    }

    /// Raw history bit `n` positions back (0 = most recent).
    #[inline]
    pub fn recent(&self, n: usize) -> bool {
        (n as u64) < self.pos && self.bit(self.pos - 1 - n as u64) != 0
    }

    /// The 32 most recent history bits, bit `i` being
    /// [`recent(i)`](Self::recent), read with two word loads.
    #[inline]
    pub fn recent32(&self) -> u32 {
        // The window of absolute positions pos-32 .. pos-1, oldest in bit 0;
        // BUF_BITS is a multiple of 64, so the window's words wrap whole.
        let start = self.pos.wrapping_sub(32) as usize % BUF_BITS;
        let (w, b) = (start / 64, start % 64);
        let lo = self.buf[w] >> b;
        let hi = if b == 0 { 0 } else { self.buf[(w + 1) % BUF_WORDS] << (64 - b) };
        let born = if self.pos >= 32 { u32::MAX } else { (1u32 << self.pos) - 1 };
        ((lo | hi) as u32).reverse_bits() & born
    }

    /// Inserts a branch outcome (speculatively, at predict time).
    pub fn insert(&mut self, taken: bool, pc: u64) {
        let pos = self.pos;
        self.set_bit(pos, taken);
        self.pos += 1;
        let n = self.n_folds;
        for (value, shape) in self.values[..n].iter_mut().zip(&self.shapes[..n]) {
            // The outgoing bit sits `hist_len` behind the insertion point,
            // which survives any later rewind (see module docs); before
            // that many bits exist it is 0. Read branch-free: the wrapped
            // position is in range, and the mask zeroes it when unborn.
            let back = pos.wrapping_sub(shape.hist_len as u64);
            let idx = back as usize % BUF_BITS;
            let old = (self.buf[idx / 64] >> (idx % 64)) & (pos >= shape.hist_len as u64) as u64;
            *value = shape.update(*value, taken as u32, old as u32);
        }
        self.phist = ((self.phist << 1) | ((pc >> 2) & 1) as u32) & 0xffff;
    }

    /// Captures the state for later recovery.
    pub fn snapshot(&self) -> HistorySnapshot {
        let mut snap = HistorySnapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Captures the state into `snap`, writing only the live folds (see
    /// [`HistorySnapshot`]).
    #[inline]
    pub fn snapshot_into(&self, snap: &mut HistorySnapshot) {
        let n = self.n_folds;
        snap.pos = self.pos;
        snap.phist = self.phist;
        snap.values[..n].copy_from_slice(&self.values[..n]);
    }

    /// Restores a snapshot (the state *before* the mispredicted branch was
    /// inserted), then re-inserts the resolved outcome.
    pub fn recover(&mut self, snap: &HistorySnapshot, resolved_taken: bool, pc: u64) {
        self.restore(snap);
        self.insert(resolved_taken, pc);
    }

    /// Restores a snapshot exactly (no re-insert). Used when squashing a
    /// wrong-path branch entirely. Reads only the live folds.
    #[inline]
    pub fn restore(&mut self, snap: &HistorySnapshot) {
        let n = self.n_folds;
        self.pos = snap.pos;
        self.phist = snap.phist;
        self.values[..n].copy_from_slice(&snap.values[..n]);
    }
}

impl Default for GlobalHistory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference fold: xor together hist_len bits in out_bits chunks.
    fn reference_fold(bits: &[bool], hist_len: usize, out_bits: u32) -> u32 {
        let mut v: u32 = 0;
        // bits[0] is oldest; fold so that the most recent bit lands in bit 0
        // of the first chunk, matching the incremental scheme.
        for (age, b) in bits.iter().rev().take(hist_len).enumerate() {
            let pos = age as u32 % out_bits;
            // Incremental scheme effectively xors bit at (age % out_bits)
            // but with chunks laid out from the recent end.
            if *b {
                v ^= 1 << pos;
            }
        }
        v
    }

    #[test]
    fn folded_matches_reference_after_random_stream() {
        let mut gh = GlobalHistory::new();
        let h = gh.add_fold(13, 7);
        let mut bits = Vec::new();
        let mut x: u64 = 0x12345;
        for i in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let b = x >> 63 != 0;
            bits.push(b);
            gh.insert(b, i);
        }
        assert_eq!(gh.folded(h), reference_fold(&bits, 13, 7));
    }

    #[test]
    fn snapshot_recover_roundtrip() {
        let mut gh = GlobalHistory::new();
        let h = gh.add_fold(20, 9);
        for i in 0..100 {
            gh.insert(i % 3 == 0, i);
        }
        let snap = gh.snapshot();
        let correct_value_after = {
            let mut copy = gh.clone();
            copy.insert(true, 999);
            copy.folded(h)
        };
        // Wrong path: insert garbage, then recover with the actual outcome.
        gh.insert(false, 999);
        for i in 0..50 {
            gh.insert(i % 2 == 0, 5000 + i);
        }
        gh.recover(&snap, true, 999);
        assert_eq!(gh.folded(h), correct_value_after);
    }

    #[test]
    fn restore_is_exact() {
        let mut gh = GlobalHistory::new();
        gh.add_fold(8, 5);
        for i in 0..10 {
            gh.insert(true, i);
        }
        let snap = gh.snapshot();
        gh.insert(false, 11);
        gh.restore(&snap);
        assert_eq!(gh.snapshot(), snap);
    }

    #[test]
    fn identical_fold_shapes_share_a_handle() {
        let mut gh = GlobalHistory::new();
        let a = gh.add_fold(21, 10);
        let b = gh.add_fold(21, 11);
        assert_ne!(a, b, "a different width is a different fold");
        assert_eq!(gh.add_fold(21, 10), a, "the same shape gets the same handle");
        let c = gh.add_fold(36, 10);
        assert_ne!(c, a, "a different length is a different fold");
        assert_eq!(gh.n_folds, 3);
        for i in 0..200 {
            gh.insert(i % 7 < 3, i);
        }
        let mut twin = GlobalHistory::new();
        let t = twin.add_fold(21, 10);
        for i in 0..200 {
            twin.insert(i % 7 < 3, i);
        }
        assert_eq!(gh.folded(a), twin.folded(t));
    }

    #[test]
    fn recent_reads_latest_bits() {
        let mut gh = GlobalHistory::new();
        gh.insert(true, 0);
        gh.insert(false, 4);
        assert!(!gh.recent(0));
        assert!(gh.recent(1));
        assert!(!gh.recent(2)); // beyond inserted history
    }

    #[test]
    fn recent32_matches_recent_across_rewinds_and_wraps() {
        let mut gh = GlobalHistory::new();
        gh.add_fold(12, 6);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut snaps = Vec::new();
        for i in 0..3 * BUF_BITS as u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(5) {
                snaps.push(gh.snapshot());
            }
            if x.is_multiple_of(11) {
                if let Some(s) = snaps.pop() {
                    gh.restore(&s);
                }
            }
            let want = (0..32).fold(0u32, |acc, k| acc | (gh.recent(k) as u32) << k);
            assert_eq!(gh.recent32(), want, "at insert {i}, pos {}", gh.pos);
            gh.insert(x >> 63 == 1, i);
        }
    }

    #[test]
    fn snapshot_into_and_restore_touch_only_live_folds() {
        let mut gh = GlobalHistory::new();
        let h = gh.add_fold(9, 4);
        for i in 0..40 {
            gh.insert(i % 3 == 0, i);
        }
        let mut snap = HistorySnapshot { values: [0xdead_beef; MAX_FOLDS], ..HistorySnapshot::default() };
        gh.snapshot_into(&mut snap);
        assert_eq!(snap.values[0], gh.folded(h));
        assert!(snap.values[1..].iter().all(|&v| v == 0xdead_beef), "slots past the live folds are left alone");
        let before = gh.snapshot();
        gh.insert(true, 99);
        gh.restore(&snap);
        assert_eq!(gh.snapshot(), before, "stale slots are never read back");
    }

    #[test]
    fn path_history_tracks_pc_bits() {
        let mut gh = GlobalHistory::new();
        gh.insert(true, 0b100); // pc bit (pc>>2)&1 = 1
        gh.insert(true, 0b000); // 0
        assert_eq!(gh.path() & 0b11, 0b10);
    }
}
