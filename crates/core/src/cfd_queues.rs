//! Fetch-resident CFD queues: the microarchitectural BQ and TQ.
//!
//! These implement §III-C and §IV-C of the paper. Each BQ entry carries,
//! beyond the software-visible predicate, a *pushed* bit, a *popped* bit
//! and the speculative predicate/pop-identity used to verify a late push.
//! Occupancy is `net_push_ctr + pending_push_ctr` and the fetch unit stalls
//! a push when it equals the BQ size. Head/tail/mark pointers are absolute
//! (monotonic) counters; recovery restores them from per-branch snapshots
//! and clears popped bits between head and tail.

/// One microarchitectural BQ entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct BqSlot {
    /// Absolute index this slot currently holds (guards stale writes from
    /// pushes squashed logically but still in flight).
    pub abs: u64,
    /// The predicate, valid once `pushed`.
    pub predicate: bool,
    /// Memory-level taint code of the predicate (0 = none, 1..=4 = L1..MEM);
    /// microarchitectural bookkeeping for the misprediction breakdowns.
    pub taint_code: u8,
    /// Set when the push executed.
    pub pushed: bool,
    /// Set when a speculative pop consumed this entry before the push.
    pub popped: bool,
    /// The speculative pop's predicted predicate.
    pub spec_predicate: bool,
    /// Sequence number of the speculative pop (for late-push recovery).
    pub pop_seq: u64,
}

/// Snapshot of BQ pointers for branch recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BqSnapshot {
    /// Head pointer (next pop position).
    pub head: u64,
    /// Tail pointer (next push position).
    pub tail: u64,
    /// Mark pointer.
    pub mark: Option<u64>,
    /// In-flight (fetched, unretired) pushes.
    pub pending_push_ctr: u64,
}

/// The fetch-resident Branch Queue.
#[derive(Debug, Clone)]
pub struct FetchBq {
    slots: Vec<BqSlot>,
    size: usize,
    /// Next pop position (absolute).
    pub head: u64,
    /// Next push position (absolute).
    pub tail: u64,
    /// Speculative mark (absolute), §IV-A.
    pub mark: Option<u64>,
    /// Retired pushes minus retired pops.
    pub net_push_ctr: u64,
    /// Fetched but unretired pushes.
    pub pending_push_ctr: u64,
    /// Committed pointers for exception-style recovery.
    pub committed_head: u64,
    /// Committed tail.
    pub committed_tail: u64,
    /// Committed mark.
    pub committed_mark: Option<u64>,
}

impl FetchBq {
    /// Creates a BQ of `size` entries.
    pub fn new(size: usize) -> FetchBq {
        assert!(size > 0);
        FetchBq {
            slots: vec![BqSlot::default(); size],
            size,
            head: 0,
            tail: 0,
            mark: None,
            net_push_ctr: 0,
            pending_push_ctr: 0,
            committed_head: 0,
            committed_tail: 0,
            committed_mark: None,
        }
    }

    /// Architected size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Occupancy per §III-C3: `net_push_ctr + pending_push_ctr`.
    pub fn length(&self) -> u64 {
        self.net_push_ctr + self.pending_push_ctr
    }

    /// Whether a push fetched now must stall.
    pub fn push_would_stall(&self) -> bool {
        self.length() >= self.size as u64
    }

    fn slot_mut(&mut self, abs: u64) -> &mut BqSlot {
        let idx = (abs % self.size as u64) as usize;
        &mut self.slots[idx]
    }

    fn slot(&self, abs: u64) -> &BqSlot {
        &self.slots[(abs % self.size as u64) as usize]
    }

    /// Fetch of a `Push_BQ`: allocates the tail entry (clearing its pushed
    /// and popped bits) and returns its absolute index.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (callers must check
    /// [`push_would_stall`](Self::push_would_stall)).
    pub fn fetch_push(&mut self) -> u64 {
        assert!(!self.push_would_stall(), "push fetched into a full BQ");
        let abs = self.tail;
        *self.slot_mut(abs) = BqSlot { abs, ..BqSlot::default() };
        self.tail += 1;
        self.pending_push_ctr += 1;
        abs
    }

    /// Whether a `Branch_on_BQ` fetched now would miss (its push has not
    /// executed yet). Read-only counterpart of [`fetch_pop`](Self::fetch_pop)
    /// for the stall-policy pre-check.
    pub fn pop_would_miss(&self) -> bool {
        let s = self.slot(self.head);
        !(s.pushed && s.abs == self.head)
    }

    /// Fetch of a `Branch_on_BQ`: reads the head entry. Returns
    /// `(abs_index, Some(predicate))` when the push has already executed
    /// (early push — non-speculative resolution), `(abs_index, None)` on a
    /// BQ miss. Advances the head either way; on a miss the caller
    /// speculates (then calls [`record_spec_pop`](Self::record_spec_pop)).
    /// The stall policy never gets here on a miss: it checks
    /// [`pop_would_miss`](Self::pop_would_miss) first.
    pub fn fetch_pop(&mut self) -> (u64, Option<bool>) {
        let abs = self.head;
        self.head += 1;
        let s = self.slot(abs);
        if s.pushed && s.abs == abs {
            (abs, Some(s.predicate))
        } else {
            (abs, None)
        }
    }

    /// Records a speculative pop (BQ miss + speculate policy): stores the
    /// predicted predicate and the pop's sequence number in the entry.
    pub fn record_spec_pop(&mut self, abs: u64, predicted: bool, pop_seq: u64) {
        let s = self.slot_mut(abs);
        s.abs = abs;
        s.popped = true;
        s.spec_predicate = predicted;
        s.pop_seq = pop_seq;
    }

    /// Execution of a `Push_BQ` with the computed predicate.
    ///
    /// Returns `Some((pop_seq, spec_predicate))` when the entry was already
    /// speculatively popped (late push): the caller must verify the
    /// speculation and recover when `spec_predicate != predicate`.
    /// A stale write (the entry was reallocated or bulk-popped past) is
    /// dropped and returns `None`.
    pub fn execute_push(&mut self, abs: u64, predicate: bool) -> Option<(u64, bool)> {
        self.execute_push_tainted(abs, predicate, 0)
    }

    /// [`execute_push`](Self::execute_push) carrying the predicate's
    /// memory-level taint code for misprediction attribution.
    pub fn execute_push_tainted(&mut self, abs: u64, predicate: bool, taint_code: u8) -> Option<(u64, bool)> {
        let size = self.size as u64;
        // Stale if the slot has been reallocated to a newer absolute index.
        if self.slot(abs).abs != abs || abs + size < self.tail {
            return None;
        }
        let s = self.slot_mut(abs);
        let was_popped = s.popped;
        let spec = s.spec_predicate;
        let pop_seq = s.pop_seq;
        s.predicate = predicate;
        s.taint_code = taint_code;
        s.pushed = true;
        if was_popped {
            Some((pop_seq, spec))
        } else {
            None
        }
    }

    /// Observes the entry at `abs`: `Some((predicate, taint_code))` when
    /// its push has executed. Used to verify a speculative pop that was
    /// still in the front pipe when its late push executed.
    pub fn peek_entry_tainted(&self, abs: u64) -> Option<(bool, u8)> {
        let s = self.slot(abs);
        (s.pushed && s.abs == abs).then_some((s.predicate, s.taint_code))
    }

    /// Fetch of a `Mark`: marks the current tail.
    pub fn fetch_mark(&mut self) {
        self.mark = Some(self.tail);
    }

    /// Fetch of a `Forward`: advances the head to the most recent mark.
    /// Returns the number of skipped entries, or `None` without a mark.
    pub fn fetch_forward(&mut self) -> Option<u64> {
        let m = self.mark?;
        let skipped = m.saturating_sub(self.head);
        self.head = self.head.max(m);
        Some(skipped)
    }

    /// Takes a recovery snapshot (augments each branch checkpoint, §III-C4).
    pub fn snapshot(&self) -> BqSnapshot {
        BqSnapshot { head: self.head, tail: self.tail, mark: self.mark, pending_push_ctr: self.pending_push_ctr }
    }

    /// Restores a snapshot on misprediction recovery: pointers come back,
    /// popped bits between head and tail are cleared, and the pending-push
    /// counter drops by the number of squashed pushes.
    pub fn recover(&mut self, snap: &BqSnapshot) {
        let squashed_pushes = self.tail.saturating_sub(snap.tail);
        self.head = snap.head;
        self.tail = snap.tail;
        self.mark = snap.mark;
        self.pending_push_ctr = self.pending_push_ctr.saturating_sub(squashed_pushes);
        let mut a = self.head;
        while a < self.tail {
            let s = self.slot_mut(a);
            if s.abs == a {
                s.popped = false;
            }
            a += 1;
        }
    }

    /// Retirement of a push.
    pub fn retire_push(&mut self) {
        debug_assert!(self.pending_push_ctr > 0);
        self.pending_push_ctr -= 1;
        self.net_push_ctr += 1;
        self.committed_tail += 1;
    }

    /// Retirement of a pop.
    pub fn retire_pop(&mut self) {
        debug_assert!(self.net_push_ctr > 0, "pop retired before its push");
        self.net_push_ctr -= 1;
        self.committed_head += 1;
    }

    /// Retirement of a `Mark`.
    pub fn retire_mark(&mut self) {
        self.committed_mark = Some(self.committed_tail);
    }

    /// Retirement of a `Forward`: bulk-pop at the committed level.
    pub fn retire_forward(&mut self) {
        if let Some(m) = self.committed_mark {
            let skipped = m.saturating_sub(self.committed_head);
            self.committed_head = self.committed_head.max(m);
            self.net_push_ctr = self.net_push_ctr.saturating_sub(skipped);
        }
    }
}

/// Snapshot of TQ pointers + TCR for branch recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TqSnapshot {
    /// Head pointer.
    pub head: u64,
    /// Tail pointer.
    pub tail: u64,
    /// Trip-count register value.
    pub tcr: u32,
    /// In-flight pushes.
    pub pending_push_ctr: u64,
}

/// One microarchitectural TQ entry (trip count + pushed + overflow bits).
#[derive(Debug, Clone, Copy, Default)]
pub struct TqSlot {
    abs: u64,
    trip: u32,
    overflow: bool,
    pushed: bool,
}

/// The fetch-resident Trip-count Queue and Trip-Count Register.
///
/// The paper stalls fetch on a TQ miss (§IV-C3): speculating through an
/// unknown trip count would need per-iteration recovery state.
#[derive(Debug, Clone)]
pub struct FetchTq {
    slots: Vec<TqSlot>,
    size: usize,
    max_trip: u32,
    /// Next pop position.
    pub head: u64,
    /// Next push position.
    pub tail: u64,
    /// The TCR (speculative, fetch-side).
    pub tcr: u32,
    /// Retired pushes minus retired pops.
    pub net_push_ctr: u64,
    /// Fetched but unretired pushes.
    pub pending_push_ctr: u64,
    /// Committed TCR (for exception recovery).
    pub committed_tcr: u32,
}

impl FetchTq {
    /// Creates a TQ of `size` entries with `trip_bits`-wide counts.
    pub fn new(size: usize, trip_bits: u32) -> FetchTq {
        assert!(size > 0 && (1..=32).contains(&trip_bits));
        let max_trip = if trip_bits == 32 { u32::MAX } else { (1 << trip_bits) - 1 };
        FetchTq {
            slots: vec![TqSlot::default(); size],
            size,
            max_trip,
            head: 0,
            tail: 0,
            tcr: 0,
            net_push_ctr: 0,
            pending_push_ctr: 0,
            committed_tcr: 0,
        }
    }

    /// Architected size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Occupancy.
    pub fn length(&self) -> u64 {
        self.net_push_ctr + self.pending_push_ctr
    }

    /// Whether a push fetched now must stall.
    pub fn push_would_stall(&self) -> bool {
        self.length() >= self.size as u64
    }

    /// Fetch of a `Push_TQ`: allocates the tail entry.
    ///
    /// # Panics
    ///
    /// Panics when full; check [`push_would_stall`](Self::push_would_stall).
    pub fn fetch_push(&mut self) -> u64 {
        assert!(!self.push_would_stall(), "push fetched into a full TQ");
        let abs = self.tail;
        let idx = (abs % self.size as u64) as usize;
        self.slots[idx] = TqSlot { abs, ..TqSlot::default() };
        self.tail += 1;
        self.pending_push_ctr += 1;
        abs
    }

    /// Execution of a `Push_TQ`: writes the (clamped) trip count and the
    /// overflow bit. Stale writes are dropped.
    pub fn execute_push(&mut self, abs: u64, count: i64) {
        let idx = (abs % self.size as u64) as usize;
        if self.slots[idx].abs != abs {
            return;
        }
        let clamped = count.max(0) as u64;
        if clamped > self.max_trip as u64 {
            self.slots[idx].trip = 0;
            self.slots[idx].overflow = true;
        } else {
            self.slots[idx].trip = clamped as u32;
            self.slots[idx].overflow = false;
        }
        self.slots[idx].pushed = true;
    }

    /// Whether a `Pop_TQ` fetched now would miss (stalling fetch, §IV-C3).
    pub fn pop_would_miss(&self) -> bool {
        let idx = (self.head % self.size as u64) as usize;
        let s = self.slots[idx];
        !(s.pushed && s.abs == self.head)
    }

    /// Fetch of a `Pop_TQ`: on a hit, loads the TCR and returns
    /// `(abs, Some(overflow_bit))`; on a TQ miss returns `(abs, None)`
    /// *without* advancing the head (the fetch unit stalls and retries).
    pub fn fetch_pop(&mut self) -> (u64, Option<bool>) {
        let abs = self.head;
        let idx = (abs % self.size as u64) as usize;
        let s = self.slots[idx];
        if s.pushed && s.abs == abs {
            self.head += 1;
            self.tcr = s.trip;
            (abs, Some(s.overflow))
        } else {
            (abs, None)
        }
    }

    /// Fetch of a `Branch_on_TCR`: non-zero TCR decrements and continues
    /// the loop (returns `true`); zero exits (returns `false`).
    pub fn fetch_branch_on_tcr(&mut self) -> bool {
        if self.tcr != 0 {
            self.tcr -= 1;
            true
        } else {
            false
        }
    }

    /// Takes a recovery snapshot (pointers + TCR, §IV-C3).
    pub fn snapshot(&self) -> TqSnapshot {
        TqSnapshot { head: self.head, tail: self.tail, tcr: self.tcr, pending_push_ctr: self.pending_push_ctr }
    }

    /// Restores a snapshot on misprediction recovery.
    pub fn recover(&mut self, snap: &TqSnapshot) {
        let squashed = self.tail.saturating_sub(snap.tail);
        self.head = snap.head;
        self.tail = snap.tail;
        self.tcr = snap.tcr;
        self.pending_push_ctr = self.pending_push_ctr.saturating_sub(squashed);
    }

    /// Retirement of a push.
    pub fn retire_push(&mut self) {
        debug_assert!(self.pending_push_ctr > 0);
        self.pending_push_ctr -= 1;
        self.net_push_ctr += 1;
    }

    /// Retirement of a pop (also commits the TCR load).
    pub fn retire_pop(&mut self, loaded_tcr: u32) {
        debug_assert!(self.net_push_ctr > 0, "pop retired before its push");
        self.net_push_ctr -= 1;
        self.committed_tcr = loaded_tcr;
    }

    /// Retirement of a `Branch_on_TCR` that continued the loop.
    pub fn retire_tcr_decrement(&mut self) {
        self.committed_tcr = self.committed_tcr.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn early_push_resolves_pop_at_fetch() {
        let mut bq = FetchBq::new(8);
        let p = bq.fetch_push();
        assert_eq!(bq.execute_push(p, true), None);
        let (abs, pred) = bq.fetch_pop();
        assert_eq!(abs, p);
        assert_eq!(pred, Some(true));
    }

    #[test]
    fn late_push_sees_spec_pop_and_returns_verification() {
        let mut bq = FetchBq::new(8);
        let p = bq.fetch_push();
        let (abs, pred) = bq.fetch_pop();
        assert_eq!(pred, None, "BQ miss");
        bq.record_spec_pop(abs, true, 42);
        // Push executes later and must verify the speculation.
        assert_eq!(bq.execute_push(p, false), Some((42, true)));
        // Matching speculation:
        let p2 = bq.fetch_push();
        let (abs2, _) = bq.fetch_pop();
        bq.record_spec_pop(abs2, true, 43);
        assert_eq!(bq.execute_push(p2, true), Some((43, true)));
    }

    #[test]
    fn length_counts_pending_and_net() {
        let mut bq = FetchBq::new(4);
        let a = bq.fetch_push();
        let b = bq.fetch_push();
        assert_eq!(bq.length(), 2);
        bq.execute_push(a, true);
        bq.execute_push(b, false);
        bq.retire_push();
        assert_eq!(bq.length(), 2); // one net + one pending
        bq.fetch_pop();
        bq.retire_push();
        bq.retire_pop();
        assert_eq!(bq.length(), 1);
    }

    #[test]
    fn push_stalls_at_capacity() {
        let mut bq = FetchBq::new(2);
        bq.fetch_push();
        bq.fetch_push();
        assert!(bq.push_would_stall());
    }

    #[test]
    fn recovery_restores_pointers_and_clears_popped() {
        let mut bq = FetchBq::new(8);
        let p = bq.fetch_push();
        bq.execute_push(p, true);
        let snap = bq.snapshot();
        // Wrong path: two pushes and a speculative pop.
        bq.fetch_push();
        let (abs, _) = bq.fetch_pop();
        bq.record_spec_pop(abs, false, 9);
        bq.fetch_push();
        bq.recover(&snap);
        assert_eq!(bq.head, snap.head);
        assert_eq!(bq.tail, snap.tail);
        assert_eq!(bq.pending_push_ctr, 1);
        // The surviving entry's popped bit is cleared; a real pop still works.
        let (_, pred) = bq.fetch_pop();
        assert_eq!(pred, Some(true));
    }

    #[test]
    fn mark_forward_skips_unpopped() {
        let mut bq = FetchBq::new(8);
        for _ in 0..3 {
            let a = bq.fetch_push();
            bq.execute_push(a, true);
        }
        bq.fetch_mark();
        bq.fetch_pop();
        assert_eq!(bq.fetch_forward(), Some(2));
        assert_eq!(bq.head, bq.tail);
    }

    #[test]
    fn stale_push_write_after_forward_is_dropped() {
        // A Forward skips an entry whose push is still in flight; the slot
        // is then reallocated by a newer push. The in-flight push's write
        // must not corrupt the new entry (§IV-A interaction).
        let mut bq = FetchBq::new(2);
        let a = bq.fetch_push(); // abs 0, never executes before being skipped
        let b = bq.fetch_push(); // abs 1
        bq.execute_push(b, true);
        bq.fetch_mark(); // mark at tail = 2
        bq.fetch_forward(); // head -> 2, both entries skipped
                            // Retire the skipped pushes so new pushes may allocate.
        bq.retire_push();
        bq.retire_push();
        bq.retire_mark();
        bq.retire_forward();
        let c = bq.fetch_push(); // abs 2, reuses slot 0
        assert_eq!(c % 2, a % 2, "slot reused");
        // The old push finally executes: stale, dropped.
        assert_eq!(bq.execute_push(a, true), None);
        bq.execute_push(c, false);
        let (_, pred) = bq.fetch_pop();
        assert_eq!(pred, Some(false), "new entry unharmed");
    }

    #[test]
    fn tq_pop_hits_only_after_push_executes() {
        let mut tq = FetchTq::new(4, 16);
        let a = tq.fetch_push();
        assert_eq!(tq.fetch_pop().1, None, "TQ miss stalls");
        tq.execute_push(a, 3);
        let (_, ovf) = tq.fetch_pop();
        assert_eq!(ovf, Some(false));
        assert_eq!(tq.tcr, 3);
    }

    #[test]
    fn tcr_drives_loop_iterations() {
        let mut tq = FetchTq::new(4, 16);
        let a = tq.fetch_push();
        tq.execute_push(a, 2);
        tq.fetch_pop();
        assert!(tq.fetch_branch_on_tcr());
        assert!(tq.fetch_branch_on_tcr());
        assert!(!tq.fetch_branch_on_tcr());
    }

    #[test]
    fn tq_overflow_bit_set_on_big_count() {
        let mut tq = FetchTq::new(4, 4);
        let a = tq.fetch_push();
        tq.execute_push(a, 100);
        let (_, ovf) = tq.fetch_pop();
        assert_eq!(ovf, Some(true));
        assert_eq!(tq.tcr, 0);
    }

    #[test]
    fn tq_recovery_restores_tcr() {
        let mut tq = FetchTq::new(4, 16);
        let a = tq.fetch_push();
        tq.execute_push(a, 5);
        tq.fetch_pop();
        tq.fetch_branch_on_tcr();
        let snap = tq.snapshot();
        tq.fetch_branch_on_tcr();
        tq.fetch_branch_on_tcr();
        tq.recover(&snap);
        assert_eq!(tq.tcr, 4);
    }
}
