//! The scheduler's two allocation-free structures: the [`Wheel`] that
//! holds ROB ordinals until a cycle arrives (wakeups and completions), and
//! the [`ReadyList`] of ordinals believed ready to issue.
//!
//! Both keep ordered maps off the per-cycle path: a wheel is a ring of
//! reusable buckets over a fixed horizon plus an ordered overflow for the
//! rare entry beyond it; the ready list is a sorted, duplicate-free `Vec`.
//! After warm-up neither allocates.

use std::collections::BTreeMap;

/// Cycles the ring covers. A power of two above the longest latency the
/// default configuration schedules (L1 + DRAM = 204 cycles); anything
/// further out (an injected memory delay, a long `mem_latency`) goes to
/// the overflow.
const HORIZON: u64 = 256;
const MASK: u64 = HORIZON - 1;

/// ROB ordinals keyed by the cycle they come due.
///
/// Entries due at one cycle come out together; entries pushed for a
/// cycle that has already been drained come out at the next drain.
#[derive(Debug, Clone)]
pub(crate) struct Wheel {
    /// `ring[c & MASK]` holds the entries due at cycle `c`, for every
    /// `c` in `next..next + HORIZON` (one cycle per bucket).
    ring: Vec<Vec<u64>>,
    /// Entries pushed at least `HORIZON` cycles ahead of the cursor.
    overflow: BTreeMap<u64, Vec<u64>>,
    /// First cycle not drained yet.
    next: u64,
}

impl Wheel {
    pub(crate) fn new() -> Wheel {
        Wheel { ring: vec![Vec::new(); HORIZON as usize], overflow: BTreeMap::new(), next: 0 }
    }

    /// The bucket for cycle `at`: an already-drained cycle maps to the
    /// next one to drain.
    fn bucket(&mut self, at: u64) -> &mut Vec<u64> {
        let at = at.max(self.next);
        if at - self.next < HORIZON {
            &mut self.ring[(at & MASK) as usize]
        } else {
            self.overflow.entry(at).or_default()
        }
    }

    /// Schedules `seq` for cycle `at`.
    pub(crate) fn push(&mut self, at: u64, seq: u64) {
        self.bucket(at).push(seq);
    }

    /// Schedules every ordinal of `seqs` for cycle `at`.
    pub(crate) fn extend(&mut self, at: u64, seqs: impl IntoIterator<Item = u64>) {
        self.bucket(at).extend(seqs);
    }

    /// Appends every entry due at or before `now` to `out` and marks
    /// those cycles drained. Ring buckets keep their capacity.
    pub(crate) fn drain_due(&mut self, now: u64, out: &mut Vec<u64>) {
        if now < self.next {
            return;
        }
        let span = (now - self.next + 1).min(HORIZON);
        for c in self.next..self.next + span {
            out.append(&mut self.ring[(c & MASK) as usize]);
        }
        while let Some(entry) = self.overflow.first_entry() {
            if *entry.key() > now {
                break;
            }
            out.append(&mut entry.remove());
        }
        self.next = now + 1;
    }
}

/// Verdict of [`ReadyList::walk`]'s visitor on one ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Walk {
    /// Leave it in the list and go on.
    Keep,
    /// Take it out of the list and go on.
    Remove,
    /// Stop here; this and every later ordinal stay.
    Stop,
}

/// ROB ordinals believed ready, ascending (oldest first), without
/// duplicates.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReadyList {
    seqs: Vec<u64>,
}

impl ReadyList {
    /// Adds `seq` at its sorted position; a duplicate is ignored.
    pub(crate) fn insert(&mut self, seq: u64) {
        // Newly dispatched instructions are the youngest: append.
        if self.seqs.last().is_none_or(|&last| last < seq) {
            self.seqs.push(seq);
        } else if let Err(pos) = self.seqs.binary_search(&seq) {
            self.seqs.insert(pos, seq);
        }
    }

    /// Drops every ordinal above `max` (recovery squashed them).
    pub(crate) fn truncate_after(&mut self, max: u64) {
        let keep = self.seqs.partition_point(|&s| s <= max);
        self.seqs.truncate(keep);
    }

    /// Offers each ordinal to `visit` oldest first and applies its
    /// verdicts in one compaction pass.
    pub(crate) fn walk(&mut self, mut visit: impl FnMut(u64) -> Walk) {
        let n = self.seqs.len();
        let (mut kept, mut k) = (0, 0);
        while k < n {
            let seq = self.seqs[k];
            match visit(seq) {
                Walk::Stop => break,
                Walk::Keep => {
                    self.seqs[kept] = seq;
                    kept += 1;
                }
                Walk::Remove => {}
            }
            k += 1;
        }
        self.seqs.copy_within(k..n, kept);
        self.seqs.truncate(kept + (n - k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut Wheel, now: u64) -> Vec<u64> {
        let mut out = Vec::new();
        w.drain_due(now, &mut out);
        out
    }

    #[test]
    fn entries_come_out_at_their_cycle() {
        let mut w = Wheel::new();
        w.push(3, 30);
        w.push(1, 10);
        w.extend(3, [31, 32]);
        assert!(drain(&mut w, 0).is_empty());
        assert_eq!(drain(&mut w, 1), vec![10]);
        assert!(drain(&mut w, 2).is_empty());
        assert_eq!(drain(&mut w, 3), vec![30, 31, 32]);
        assert!(drain(&mut w, 4).is_empty());
    }

    #[test]
    fn push_for_a_drained_cycle_comes_out_at_the_next_drain() {
        let mut w = Wheel::new();
        assert!(drain(&mut w, 5).is_empty());
        // Cycle 5 (and everything before it) has been drained.
        w.push(5, 50);
        w.push(0, 7);
        w.push(6, 60);
        assert_eq!(drain(&mut w, 6), vec![50, 7, 60]);
        assert!(drain(&mut w, 7).is_empty());
    }

    #[test]
    fn push_past_the_horizon_goes_through_the_overflow() {
        let mut w = Wheel::new();
        let far = HORIZON + 44;
        w.push(far, 1);
        w.push(HORIZON - 1, 2);
        // Same ring slot as `far`, one lap earlier.
        w.push(44, 3);
        w.push(10 * HORIZON, 4);
        assert_eq!(w.overflow.len(), 2);
        assert_eq!(drain(&mut w, 44), vec![3]);
        assert_eq!(drain(&mut w, HORIZON - 1), vec![2]);
        // Once the cursor has moved, a push for `far` lands in the ring
        // beside the overflowed entry; both come out at `far`.
        w.push(far, 5);
        assert!(drain(&mut w, far - 1).is_empty());
        assert_eq!(drain(&mut w, far), vec![5, 1]);
        assert_eq!(w.overflow.len(), 1);
        assert_eq!(drain(&mut w, 10 * HORIZON), vec![4]);
        assert!(w.overflow.is_empty());
    }

    #[test]
    fn a_drain_may_skip_cycles() {
        let mut w = Wheel::new();
        for c in 0..3 * HORIZON {
            w.push(c, c);
        }
        let mut out = drain(&mut w, 3 * HORIZON + 5);
        out.sort_unstable();
        assert_eq!(out, (0..3 * HORIZON).collect::<Vec<_>>());
        assert!(drain(&mut w, 3 * HORIZON + 6).is_empty());
    }

    #[test]
    fn duplicate_ordinals_are_delivered_as_pushed() {
        // Wheel entries are hints: the consumer re-validates each one, so
        // the wheel must not collapse duplicates (the drained count is a
        // reported statistic).
        let mut w = Wheel::new();
        w.push(2, 9);
        w.push(2, 9);
        w.push(HORIZON * 2, 9);
        w.push(HORIZON * 2, 9);
        assert_eq!(drain(&mut w, 2), vec![9, 9]);
        assert_eq!(drain(&mut w, HORIZON * 2), vec![9, 9]);
    }

    #[test]
    fn ready_list_stays_sorted_without_duplicates() {
        let mut r = ReadyList::default();
        for seq in [5, 1, 9, 5, 3, 9, 12, 1] {
            r.insert(seq);
        }
        assert_eq!(r.seqs, [1, 3, 5, 9, 12]);
    }

    #[test]
    fn ready_list_truncates_on_recovery() {
        let mut r = ReadyList::default();
        for seq in [2, 4, 6, 8] {
            r.insert(seq);
        }
        r.truncate_after(5);
        assert_eq!(r.seqs, [2, 4]);
        // A reused ordinal above the squash point goes back in order.
        r.insert(6);
        r.insert(3);
        assert_eq!(r.seqs, [2, 3, 4, 6]);
        r.truncate_after(1);
        assert!(r.seqs.is_empty());
    }

    #[test]
    fn walk_applies_verdicts_and_keeps_the_unvisited_tail() {
        let mut r = ReadyList::default();
        for seq in 1..=8 {
            r.insert(seq);
        }
        let mut seen = Vec::new();
        r.walk(|seq| {
            seen.push(seq);
            match seq {
                2 | 4 => Walk::Remove,
                6 => Walk::Stop,
                _ => Walk::Keep,
            }
        });
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(r.seqs, [1, 3, 5, 6, 7, 8]);
        r.walk(|_| Walk::Remove);
        assert!(r.seqs.is_empty());
    }
}
