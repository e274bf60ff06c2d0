//! The in-flight window: one preallocated ring that holds every fetched
//! instruction from fetch to retirement or squash.
//!
//! Three ordinals `head ≤ mid ≤ tail` split the ring: the ROB is
//! `[head, mid)` and the front pipe behind it is `[mid, tail)`. An
//! instruction's slot is `ordinal & mask`, so it is written once, at
//! fetch, and never moves: dispatch renames it in place and bumps `mid`,
//! commit reads the head in place and bumps `head`, and recovery walks
//! its victims in place and truncates `mid` and `tail` together (the
//! only way the front pipe ever empties). A ROB ordinal is therefore the
//! dense number dispatch has always assigned, and the scheduler's wheels,
//! ready list and store list keep using it.
//!
//! Recovery snapshots and predictor metadata live in side arrays indexed
//! by the same slot. The occupant's `has_snapshot`/`has_meta` flags say
//! whether a side entry is its own, so a slot's next occupant never reads
//! its predecessor's. A metadata box stays in its slot for the predictor
//! to overwrite ([`DirectionPredictor::predict_into`]), so after warm-up
//! no branch allocates.
//!
//! [`DirectionPredictor::predict_into`]: cfd_predictor::DirectionPredictor::predict_into

use crate::config::CoreConfig;
use crate::pipeline::{DynInst, Snapshot};
use cfd_isa::Instr;
use cfd_predictor::PredMeta;
use std::ops::{Index, IndexMut};

/// The most instructions the front pipe holds: `width` for each cycle of
/// the `front_depth + 2`-cycle minimum fetch-to-execute latency.
pub(crate) fn front_capacity(cfg: &CoreConfig) -> usize {
    (cfg.front_depth as usize + 2) * cfg.width
}

/// The ROB and the front pipe in one ring (see the module docs).
#[derive(Clone)]
pub(crate) struct Window {
    slots: Vec<DynInst>,
    snapshots: Vec<Snapshot>,
    metas: Vec<Option<PredMeta>>,
    mask: u64,
    head: u64,
    mid: u64,
    tail: u64,
}

impl Window {
    /// A window sized for `cfg`: the ROB plus the front pipe, rounded up
    /// to a power of two (256 at the default configuration).
    pub(crate) fn for_config(cfg: &CoreConfig, snapshot: Snapshot) -> Window {
        Window::with_capacity(cfg.rob_size + front_capacity(cfg), snapshot)
    }

    /// A window of at least `capacity` slots; `snapshot` fills the
    /// snapshot side array (no slot reads it before writing its own).
    pub(crate) fn with_capacity(capacity: usize, snapshot: Snapshot) -> Window {
        let n = capacity.max(1).next_power_of_two();
        Window {
            slots: vec![DynInst::new(0, 0, Instr::Nop, 0, false); n],
            snapshots: vec![snapshot; n],
            metas: vec![None; n],
            mask: n as u64 - 1,
            head: 0,
            mid: 0,
            tail: 0,
        }
    }

    #[inline]
    fn slot(&self, ordinal: u64) -> usize {
        (ordinal & self.mask) as usize
    }

    /// The ordinal the next dispatched instruction takes.
    #[inline]
    pub(crate) fn mid(&self) -> u64 {
        self.mid
    }

    /// The ordinal the next fetched instruction takes.
    #[inline]
    pub(crate) fn tail(&self) -> u64 {
        self.tail
    }

    #[inline]
    pub(crate) fn rob_len(&self) -> usize {
        (self.mid - self.head) as usize
    }

    #[inline]
    pub(crate) fn front_len(&self) -> usize {
        (self.tail - self.mid) as usize
    }

    /// Nothing in flight: the ROB and the front pipe are both empty.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.tail == self.head
    }

    /// ROB index of the instruction with ordinal `ordinal`, or `None`
    /// when it is not in the ROB (retired, squashed or not dispatched).
    #[inline]
    pub(crate) fn rob_idx(&self, ordinal: u64) -> Option<usize> {
        let idx = ordinal.wrapping_sub(self.head);
        (idx < self.mid - self.head).then_some(idx as usize)
    }

    /// Ordinal of the instruction at ROB index `idx`.
    #[inline]
    pub(crate) fn ordinal(&self, idx: usize) -> u64 {
        self.head + idx as u64
    }

    /// The instruction in ordinal `ordinal`'s slot. A retired or squashed
    /// occupant stays readable until a later fetch reuses the slot.
    #[inline]
    pub(crate) fn at(&self, ordinal: u64) -> &DynInst {
        &self.slots[self.slot(ordinal)]
    }

    #[inline]
    pub(crate) fn at_mut(&mut self, ordinal: u64) -> &mut DynInst {
        let s = self.slot(ordinal);
        &mut self.slots[s]
    }

    pub(crate) fn rob_head(&self) -> Option<&DynInst> {
        (self.mid > self.head).then(|| self.at(self.head))
    }

    pub(crate) fn front_head(&self) -> Option<&DynInst> {
        (self.tail > self.mid).then(|| self.at(self.mid))
    }

    /// The ROB, oldest first, with each instruction's ordinal.
    pub(crate) fn rob(&self) -> impl Iterator<Item = (u64, &DynInst)> {
        (self.head..self.mid).map(|o| (o, self.at(o)))
    }

    /// The front pipe, oldest first.
    pub(crate) fn front(&self) -> impl Iterator<Item = &DynInst> {
        (self.mid..self.tail).map(|o| self.at(o))
    }

    /// The slot the next [`push`](Self::push) fills.
    ///
    /// # Panics
    ///
    /// When the window is full.
    #[inline]
    fn free_slot(&self) -> usize {
        assert!(self.tail - self.head <= self.mask, "in-flight window overflow");
        self.slot(self.tail)
    }

    /// The snapshot entry of the slot the next push fills: fetch writes it
    /// before pushing an instruction with `has_snapshot` set.
    #[inline]
    pub(crate) fn tail_snapshot_mut(&mut self) -> &mut Snapshot {
        let s = self.free_slot();
        &mut self.snapshots[s]
    }

    /// The metadata entry of the slot the next push fills, for the
    /// predictor to overwrite in place.
    #[inline]
    pub(crate) fn tail_meta_mut(&mut self) -> &mut Option<PredMeta> {
        let s = self.free_slot();
        &mut self.metas[s]
    }

    /// Appends a fetched instruction to the front pipe; returns its
    /// ordinal.
    ///
    /// # Panics
    ///
    /// When the window is full.
    #[inline]
    pub(crate) fn push(&mut self, inst: DynInst) -> u64 {
        let s = self.free_slot();
        self.slots[s] = inst;
        self.tail += 1;
        self.tail - 1
    }

    /// Moves the front-pipe head into the ROB; returns its ordinal.
    #[inline]
    pub(crate) fn dispatch(&mut self) -> u64 {
        assert!(self.mid < self.tail, "dispatch from an empty front pipe");
        self.mid += 1;
        self.mid - 1
    }

    /// Retires the ROB head; returns its ordinal. The slot stays readable
    /// through [`at`](Self::at) until a later fetch reuses it.
    #[inline]
    pub(crate) fn retire(&mut self) -> u64 {
        assert!(self.head < self.mid, "retire from an empty ROB");
        self.head += 1;
        self.head - 1
    }

    /// Squashes every ROB instruction from ordinal `first` on, and the
    /// whole front pipe.
    pub(crate) fn truncate(&mut self, first: u64) {
        assert!(self.head <= first && first <= self.mid, "truncation point outside the ROB");
        self.mid = first;
        self.tail = first;
    }

    /// The recovery snapshot of ordinal `ordinal`'s instruction, if it
    /// took one.
    #[inline]
    pub(crate) fn snapshot(&self, ordinal: u64) -> Option<&Snapshot> {
        let s = self.slot(ordinal);
        self.slots[s].has_snapshot.then(|| &self.snapshots[s])
    }

    /// The predictor metadata of ordinal `ordinal`'s instruction, if it
    /// was predicted.
    #[inline]
    pub(crate) fn meta(&self, ordinal: u64) -> Option<&PredMeta> {
        let s = self.slot(ordinal);
        if self.slots[s].has_meta {
            self.metas[s].as_ref()
        } else {
            None
        }
    }
}

impl Index<usize> for Window {
    type Output = DynInst;

    /// The instruction at ROB index `idx` (0 is the head).
    #[inline]
    fn index(&self, idx: usize) -> &DynInst {
        assert!(idx < self.rob_len(), "ROB index {idx} out of range");
        self.at(self.ordinal(idx))
    }
}

impl IndexMut<usize> for Window {
    #[inline]
    fn index_mut(&mut self, idx: usize) -> &mut DynInst {
        assert!(idx < self.rob_len(), "ROB index {idx} out of range");
        self.at_mut(self.ordinal(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd_queues::{FetchBq, FetchTq};
    use cfd_predictor::Ras;

    fn snapshot(tag: u32) -> Snapshot {
        let mut ras = Ras::new(4);
        ras.push(tag);
        Snapshot { bq: FetchBq::new(4).snapshot(), tq: FetchTq::new(4, 8).snapshot(), ras: ras.snapshot() }
    }

    fn inst(seq: u64) -> DynInst {
        DynInst::new(seq, seq as u32, Instr::Nop, 0, false)
    }

    #[test]
    fn capacity_covers_rob_and_front_pipe() {
        let cfg = CoreConfig::default();
        let w = Window::for_config(&cfg, snapshot(0));
        assert_eq!(w.slots.len(), 256);
        assert!(w.slots.len() >= cfg.rob_size + front_capacity(&cfg));
    }

    #[test]
    fn ordinals_wrap_the_ring_several_times() {
        let mut w = Window::with_capacity(8, snapshot(0));
        for seq in 0..100u64 {
            assert_eq!(w.push(inst(seq)), seq);
            if seq >= 3 {
                assert_eq!(w.dispatch(), seq - 3);
            }
            if seq >= 6 {
                let o = w.retire();
                assert_eq!(o, seq - 6);
                assert_eq!(w.at(o).seq, o, "a retired slot stays readable until reused");
            }
            assert!(w.rob_len() <= 3 && w.front_len() <= 3);
            for (o, e) in w.rob() {
                assert_eq!(e.seq, o);
                assert_eq!(w[w.rob_idx(o).unwrap()].seq, o);
            }
            for e in w.front() {
                assert_eq!(w.rob_idx(e.seq), None, "front-pipe ordinals are not in the ROB");
            }
        }
        assert_eq!((w.head, w.mid, w.tail), (94, 97, 100));
        assert_eq!(w.rob_idx(93), None);
        assert_eq!(w.rob_idx(96), Some(2));
        assert_eq!(w.rob_idx(97), None);
    }

    #[test]
    fn truncate_drops_the_rob_tail_and_the_whole_front_pipe() {
        let mut w = Window::with_capacity(16, snapshot(0));
        for seq in 0..10 {
            w.push(inst(seq));
        }
        for _ in 0..6 {
            w.dispatch();
        }
        w.retire();
        w.truncate(4);
        assert_eq!((w.head, w.mid, w.tail), (1, 4, 4));
        assert_eq!(w.rob().map(|(o, _)| o).collect::<Vec<_>>(), [1, 2, 3]);
        assert!(w.front_head().is_none());
        assert_eq!(w.rob_idx(4), None);
        // The next fetch reuses the first squashed ordinal.
        assert_eq!(w.push(inst(50)), 4);
        assert_eq!(w.front_head().unwrap().seq, 50);
        w.truncate(1);
        assert!(w.rob_head().is_none() && w.front_head().is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn next_occupant_never_sees_stale_side_entries() {
        let mut w = Window::with_capacity(2, snapshot(0));
        // A predicted branch with a snapshot, in ordinal 0's slot.
        *w.tail_snapshot_mut() = snapshot(7);
        *w.tail_meta_mut() = Some(PredMeta::Bimodal);
        let mut branch = inst(0);
        branch.has_snapshot = true;
        branch.has_meta = true;
        let o = w.push(branch);
        assert_eq!(w.snapshot(o).map(|s| s.ras), Some(snapshot(7).ras));
        assert!(matches!(w.meta(o), Some(PredMeta::Bimodal)));
        w.dispatch();
        w.retire();
        w.push(inst(1));
        // Ordinal 2 reuses the branch's slot; a plain instruction there
        // must not inherit its entries, though the metadata box stays for
        // reuse.
        let o2 = w.push(inst(2));
        assert_eq!(w.slot(o2), w.slot(o));
        assert!(w.snapshot(o2).is_none());
        assert!(w.meta(o2).is_none());
        assert!(w.metas[w.slot(o2)].is_some());
    }

    #[test]
    #[should_panic(expected = "in-flight window overflow")]
    fn a_push_past_capacity_panics() {
        let mut w = Window::with_capacity(4, snapshot(0));
        for seq in 0..5 {
            w.push(inst(seq));
        }
    }

    #[test]
    #[should_panic(expected = "ROB index 2 out of range")]
    fn a_rob_index_past_the_rob_panics() {
        let mut w = Window::with_capacity(8, snapshot(0));
        for seq in 0..4 {
            w.push(inst(seq));
        }
        w.dispatch();
        w.dispatch();
        // Index 2 is ordinal 2, which is still in the front pipe.
        let _ = &w[2];
    }
}
