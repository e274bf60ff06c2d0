//! Miss Status Holding Registers.
//!
//! MSHRs track outstanding cache misses: a demand access to a block already
//! in flight merges into the existing entry instead of issuing a second
//! request; a full MSHR file stalls further misses. Occupancy over time is
//! tracked in a histogram — the paper's Fig. 25a plots exactly this for the
//! L1 data cache (32 MSHRs) to show DFD's denser miss clusters.

/// A pending miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MshrEntry {
    block_addr: u64,
    /// Cycle at which the fill completes.
    done_at: u64,
}

/// An MSHR file with an occupancy histogram.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<MshrEntry>,
    capacity: usize,
    /// histogram[k] = number of cycles during which exactly k entries were live.
    histogram: Vec<u64>,
    last_update: u64,
    /// Demand misses merged into an in-flight entry.
    pub merges: u64,
    /// Accesses rejected because the file was full.
    pub full_stalls: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` registers (paper: 32 for the L1D).
    pub fn new(capacity: usize) -> MshrFile {
        assert!(capacity > 0);
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            histogram: vec![0; capacity + 1],
            last_update: 0,
            merges: 0,
            full_stalls: 0,
        }
    }

    /// Number of registers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy (after retiring completed entries at `now`).
    pub fn occupancy(&mut self, now: u64) -> usize {
        self.advance(now);
        self.entries.len()
    }

    /// Advances time to `now`, accumulating the occupancy histogram and
    /// retiring completed entries.
    pub fn advance(&mut self, now: u64) {
        if now <= self.last_update {
            return;
        }
        // Account occupancy across completion boundaries between
        // last_update and now.
        let mut t = self.last_update;
        loop {
            let occ = self.entries.len().min(self.capacity);
            let next_done = self.entries.iter().map(|e| e.done_at).filter(|&d| d > t).min().unwrap_or(u64::MAX);
            let seg_end = next_done.min(now);
            self.histogram[occ] += seg_end - t;
            self.entries.retain(|e| e.done_at > seg_end);
            t = seg_end;
            if t >= now {
                break;
            }
        }
        self.last_update = now;
    }

    /// Result of presenting a miss to the file.
    ///
    /// `Merged(done_at)` — an in-flight entry covers this block;
    /// `Allocated` — a new entry was created;
    /// `Full` — no register free, the access must retry.
    pub fn request(&mut self, block_addr: u64, now: u64, done_at: u64) -> MshrOutcome {
        match self.probe(block_addr, now) {
            MshrProbe::Merged { done_at } => MshrOutcome::Merged { done_at },
            MshrProbe::Full => MshrOutcome::Full,
            MshrProbe::Ready => {
                self.allocate(block_addr, done_at);
                MshrOutcome::Allocated
            }
        }
    }

    /// Checks whether a miss to `block_addr` merges, stalls, or may
    /// allocate — without allocating. Pair with [`allocate`](Self::allocate)
    /// once the miss latency is known.
    pub fn probe(&mut self, block_addr: u64, now: u64) -> MshrProbe {
        self.advance(now);
        if let Some(e) = self.entries.iter().find(|e| e.block_addr == block_addr) {
            self.merges += 1;
            return MshrProbe::Merged { done_at: e.done_at };
        }
        if self.entries.len() >= self.capacity {
            self.full_stalls += 1;
            return MshrProbe::Full;
        }
        MshrProbe::Ready
    }

    /// Whether a new allocation would currently be refused, without
    /// counting statistics (for pre-checks whose rejection is reported via
    /// [`note_full_stall`](Self::note_full_stall)).
    pub fn probe_peek(&self) -> MshrProbe {
        if self.entries.len() >= self.capacity {
            MshrProbe::Full
        } else {
            MshrProbe::Ready
        }
    }

    /// Counts one full-stall (used with [`probe_peek`](Self::probe_peek)).
    pub fn note_full_stall(&mut self) {
        self.full_stalls += 1;
    }

    /// Completion cycle of an in-flight miss covering `block_addr`, if any.
    /// A hit counts as a merge. Caches fill their tags eagerly in this
    /// simulator, so callers consult this *before* probing tags to observe
    /// the fill-in-progress window.
    pub fn pending(&mut self, block_addr: u64, now: u64) -> Option<u64> {
        self.advance(now);
        let e = self.entries.iter().find(|e| e.block_addr == block_addr)?;
        self.merges += 1;
        Some(e.done_at)
    }

    /// Allocates an entry after a [`probe`](Self::probe) returned `Ready`.
    ///
    /// # Panics
    ///
    /// Panics if the file is full (the probe contract was violated).
    pub fn allocate(&mut self, block_addr: u64, done_at: u64) {
        assert!(self.entries.len() < self.capacity, "allocate without a successful probe");
        self.entries.push(MshrEntry { block_addr, done_at });
    }

    /// The occupancy histogram: `histogram()[k]` is the number of cycles
    /// during which exactly `k` entries were live.
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }
}

/// Outcome of an MSHR request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// Covered by an in-flight miss completing at `done_at`.
    Merged {
        /// Completion cycle of the covering entry.
        done_at: u64,
    },
    /// New entry allocated.
    Allocated,
    /// File full; retry later.
    Full,
}

/// Outcome of an MSHR probe (allocation deferred).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrProbe {
    /// Covered by an in-flight miss completing at `done_at`.
    Merged {
        /// Completion cycle of the covering entry.
        done_at: u64,
    },
    /// A register is free; call [`MshrFile::allocate`].
    Ready,
    /// File full; retry later.
    Full,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_complete() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.request(0x100, 0, 50), MshrOutcome::Allocated);
        assert_eq!(m.request(0x100, 10, 60), MshrOutcome::Merged { done_at: 50 });
        assert_eq!(m.merges, 1);
        // After cycle 50 the entry completes; a new request allocates.
        assert_eq!(m.request(0x100, 51, 90), MshrOutcome::Allocated);
    }

    #[test]
    fn full_rejects() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.request(0x100, 0, 100), MshrOutcome::Allocated);
        assert_eq!(m.request(0x200, 0, 100), MshrOutcome::Full);
        assert_eq!(m.full_stalls, 1);
    }

    #[test]
    fn histogram_accumulates_occupancy() {
        let mut m = MshrFile::new(4);
        m.request(0x100, 0, 10); // occupancy 1 from cycle 0..10
        m.advance(10); // ...entry completes at 10
        m.advance(20); // occupancy 0 from 10..20
        let h = m.histogram();
        assert_eq!(h[1], 10);
        assert_eq!(h[0], 10);
    }

    #[test]
    fn histogram_handles_overlapping_misses() {
        let mut m = MshrFile::new(4);
        m.request(0x100, 0, 20);
        m.request(0x200, 5, 25);
        m.advance(30);
        let h = m.histogram();
        assert_eq!(h[1], 5 + 5); // 0..5 and 20..25
        assert_eq!(h[2], 15); // 5..20
        assert_eq!(h[0], 5); // 25..30
    }

    #[test]
    fn occupancy_retires_done_entries() {
        let mut m = MshrFile::new(4);
        m.request(0x100, 0, 5);
        assert_eq!(m.occupancy(3), 1);
        assert_eq!(m.occupancy(6), 0);
    }
}
