//! The three-level cache hierarchy + DRAM, with non-blocking L1 misses.
//!
//! Sandy-Bridge-like defaults: 32 KB L1D, 256 KB L2, 8 MB L3, 64-byte
//! blocks, write-back/write-allocate everywhere, 32 L1 MSHRs. The timing
//! model is "latency-back": a demand access probes the levels outward and
//! immediately returns its total latency and the *furthest level* that
//! serviced it ([`MemLevel`]); fills update all traversed tags atomically.
//! The MSHR file provides miss merging, back-pressure, and the occupancy
//! histogram of the paper's Fig. 25a.
//!
//! The furthest-level result is what the paper uses to classify
//! mispredictions as "fed by L1/L2/L3/MEM" (Fig. 2a, Fig. 25b): `cfd-core`
//! propagates it through the dataflow as a taint.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::mshr::{MshrFile, MshrOutcome, MshrProbe};
use crate::prefetch::{NextLinePrefetcher, StridePrefetcher};
use std::fmt;

/// The furthest memory level that serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemLevel {
    /// Serviced by the L1 data cache.
    L1,
    /// Serviced by the L2.
    L2,
    /// Serviced by the L3.
    L3,
    /// Serviced by main memory.
    Mem,
}

impl fmt::Display for MemLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemLevel::L1 => write!(f, "L1"),
            MemLevel::L2 => write!(f, "L2"),
            MemLevel::L3 => write!(f, "L3"),
            MemLevel::Mem => write!(f, "MEM"),
        }
    }
}

/// Hierarchy configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// L3 geometry.
    pub l3: CacheConfig,
    /// L1 hit latency (cycles, load-to-use).
    pub l1_latency: u32,
    /// L2 hit latency.
    pub l2_latency: u32,
    /// L3 hit latency.
    pub l3_latency: u32,
    /// Main memory latency.
    pub mem_latency: u32,
    /// Number of L1 MSHRs.
    pub l1_mshrs: usize,
    /// Enable the L1 next-line prefetcher.
    pub next_line_prefetch: bool,
    /// Enable the PC-indexed stride prefetcher (degree 2).
    pub stride_prefetch: bool,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1: CacheConfig { size_bytes: 32 * 1024, ways: 8, block_bits: 6 },
            l2: CacheConfig { size_bytes: 256 * 1024, ways: 8, block_bits: 6 },
            l3: CacheConfig { size_bytes: 8 * 1024 * 1024, ways: 16, block_bits: 6 },
            l1_latency: 4,
            l2_latency: 12,
            l3_latency: 35,
            mem_latency: 200,
            l1_mshrs: 32,
            next_line_prefetch: false,
            stride_prefetch: false,
        }
    }
}

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency in cycles until the data is available.
    pub latency: u32,
    /// The furthest level that serviced the access.
    pub level: MemLevel,
    /// The access could not even allocate an MSHR; retry next cycle.
    pub mshr_full: bool,
}

/// The cache hierarchy.
#[derive(Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    mshr: MshrFile,
    next_line: NextLinePrefetcher,
    stride: StridePrefetcher,
    /// Demand accesses serviced per level.
    pub level_counts: [u64; 4],
    /// Prefetch fills performed.
    pub prefetch_fills: u64,
}

impl Hierarchy {
    /// Creates a hierarchy from a configuration.
    pub fn new(cfg: HierarchyConfig) -> Hierarchy {
        Hierarchy {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            mshr: MshrFile::new(cfg.l1_mshrs),
            next_line: NextLinePrefetcher::new(),
            stride: StridePrefetcher::new(8, 2),
            level_counts: [0; 4],
            prefetch_fills: 0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Walks the levels for a block already missing in L1; fills tags and
    /// returns (extra latency beyond L1, furthest level).
    fn fetch_block(&mut self, addr: u64, write: bool) -> (u32, MemLevel) {
        let (extra, level) = if self.l2.access(addr, false) {
            (self.cfg.l2_latency, MemLevel::L2)
        } else if self.l3.access(addr, false) {
            (self.cfg.l3_latency, MemLevel::L3)
        } else {
            (self.cfg.mem_latency, MemLevel::Mem)
        };
        // Fill inward (inclusive hierarchy; victims just drop — their
        // write-back traffic is counted by the cache stats).
        if level >= MemLevel::L3 {
            self.l3.fill(addr, false);
        }
        if level >= MemLevel::L2 {
            self.l2.fill(addr, false);
        }
        self.l1.fill(addr, write);
        (extra, level)
    }

    /// A demand access from the core at cycle `now`.
    ///
    /// `pc` is the accessing instruction's PC (for the stride prefetcher).
    pub fn access(&mut self, pc: u64, addr: u64, write: bool, now: u64) -> AccessResult {
        let block = self.l1.block_addr(addr);
        // A full MSHR file rejects the access before any state or statistic
        // changes: the core retries the same access next cycle, and retries
        // must not inflate L1 stats or retrain the prefetcher.
        if self.mshr.pending(block, now).is_none()
            && !self.l1.probe_peek(addr)
            && matches!(self.mshr.probe_peek(), MshrProbe::Full)
        {
            self.mshr.note_full_stall();
            return AccessResult { latency: self.cfg.l1_latency, level: MemLevel::L1, mshr_full: true };
        }
        if self.cfg.stride_prefetch && !write {
            for req in self.stride.on_access(pc, addr) {
                self.prefetch_fill(req.addr, now);
            }
        }
        // Tags fill eagerly, so an in-flight fill must be observed *before*
        // the L1 probe: same-block accesses during the miss window pay the
        // remaining fill latency (MSHR merge), not a fake L1 hit.
        if let Some(done_at) = self.mshr.pending(block, now) {
            let remaining = done_at.saturating_sub(now) as u32;
            let latency = remaining.max(self.cfg.l1_latency);
            // Classify the merged access by its effective latency, for the
            // "fed by which level" taint.
            let level = self.classify_latency(latency);
            self.l1.access(addr, write); // keep LRU/dirty state and stats honest
            self.level_counts[level as usize] += 1;
            return AccessResult { latency, level, mshr_full: false };
        }
        if self.l1.access(addr, write) {
            self.level_counts[0] += 1;
            return AccessResult { latency: self.cfg.l1_latency, level: MemLevel::L1, mshr_full: false };
        }
        // L1 miss: consult the MSHR file.
        match self.mshr.probe(block, now) {
            MshrProbe::Merged { done_at } => {
                // Unreachable in practice (pending() above catches merges);
                // kept for MshrProbe completeness.
                let remaining = done_at.saturating_sub(now) as u32;
                let latency = remaining.max(self.cfg.l1_latency);
                let level = self.classify_latency(latency);
                self.level_counts[level as usize] += 1;
                AccessResult { latency, level, mshr_full: false }
            }
            MshrProbe::Full => AccessResult { latency: self.cfg.l1_latency, level: MemLevel::L1, mshr_full: true },
            MshrProbe::Ready => {
                let (extra, level) = self.fetch_block(addr, write);
                let latency = self.cfg.l1_latency + extra;
                self.mshr.allocate(block, now + latency as u64);
                if self.cfg.next_line_prefetch {
                    let next = self.next_line.on_miss(block, 1 << self.cfg.l1.block_bits);
                    self.prefetch_fill(next.addr, now);
                }
                self.level_counts[level as usize] += 1;
                AccessResult { latency, level, mshr_full: false }
            }
        }
    }

    fn classify_latency(&self, latency: u32) -> MemLevel {
        if latency <= self.cfg.l1_latency + self.cfg.l2_latency {
            MemLevel::L2
        } else if latency <= self.cfg.l1_latency + self.cfg.l3_latency {
            MemLevel::L3
        } else {
            MemLevel::Mem
        }
    }

    /// A prefetch: fills tags without demand statistics or latency.
    pub fn prefetch_fill(&mut self, addr: u64, now: u64) {
        let block = self.l1.block_addr(addr);
        if self.l1.probe_silent(block) {
            return;
        }
        // The in-flight window reflects where the block actually is: a
        // demand access merging into this prefetch pays the remaining L2/L3
        // /memory latency, not always the full memory latency.
        let in_l2 = self.l2.probe_silent(block);
        let in_l3 = in_l2 || self.l3.probe_silent(block);
        let latency = if in_l2 {
            self.cfg.l2_latency
        } else if in_l3 {
            self.cfg.l3_latency
        } else {
            self.cfg.mem_latency
        };
        // Prefetches use a free MSHR if available; otherwise they are dropped.
        if let MshrOutcome::Allocated = self.mshr.request(block, now, now + latency as u64) {
            if !in_l3 {
                self.l3.fill(block, false);
            }
            self.l2.fill(block, false);
            self.l1.fill(block, false);
            self.prefetch_fills += 1;
        }
    }

    /// Advances MSHR accounting to `now` (call at end of simulation).
    pub fn advance(&mut self, now: u64) {
        self.mshr.advance(now);
    }

    /// Per-level cache statistics: (L1, L2, L3).
    pub fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (self.l1.stats, self.l2.stats, self.l3.stats)
    }

    /// The L1 MSHR occupancy histogram (Fig. 25a).
    pub fn mshr_histogram(&self) -> &[u64] {
        self.mshr.histogram()
    }
}

impl Clone for Hierarchy {
    fn clone(&self) -> Hierarchy {
        let Hierarchy { cfg, l1, l2, l3, mshr, next_line, stride, level_counts, prefetch_fills } = self;
        Hierarchy {
            cfg: cfg.clone(),
            l1: l1.clone(),
            l2: l2.clone(),
            l3: l3.clone(),
            mshr: mshr.clone(),
            next_line: next_line.clone(),
            stride: stride.clone(),
            level_counts: *level_counts,
            prefetch_fills: *prefetch_fills,
        }
    }

    /// Copies `source` level by level into this hierarchy's existing tag
    /// arrays (as `Cache::clone_from` does): with equal geometry the three
    /// caches allocate nothing.
    fn clone_from(&mut self, source: &Hierarchy) {
        let Hierarchy { cfg, l1, l2, l3, mshr, next_line, stride, level_counts, prefetch_fills } = self;
        cfg.clone_from(&source.cfg);
        l1.clone_from(&source.l1);
        l2.clone_from(&source.l2);
        l3.clone_from(&source.l3);
        mshr.clone_from(&source.mshr);
        next_line.clone_from(&source.next_line);
        stride.clone_from(&source.stride);
        *level_counts = source.level_counts;
        *prefetch_fills = source.prefetch_fills;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::default())
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let mut hi = h();
        let r = hi.access(0x40, 0x1_0000, false, 0);
        assert_eq!(r.level, MemLevel::Mem);
        assert_eq!(r.latency, 4 + 200);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut hi = h();
        hi.access(0x40, 0x1_0000, false, 0);
        let r = hi.access(0x40, 0x1_0000, false, 300);
        assert_eq!(r.level, MemLevel::L1);
        assert_eq!(r.latency, 4);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut hi = h();
        // Fill a block, then evict it from L1 by filling 9 conflicting ways
        // (L1: 32KB/8way/64B = 64 sets; same set every 64*64 = 4096 bytes).
        hi.access(0x40, 0x10_0000, false, 0);
        for i in 1..=8u64 {
            hi.access(0x40, 0x10_0000 + i * 4096, false, i * 300);
        }
        let r = hi.access(0x40, 0x10_0000, false, 10_000);
        assert_eq!(r.level, MemLevel::L2);
        assert_eq!(r.latency, 4 + 12);
    }

    #[test]
    fn mshr_merge_shares_latency() {
        let mut hi = h();
        let a = hi.access(0x40, 0x2_0000, false, 0);
        assert_eq!(a.level, MemLevel::Mem);
        // Another access to the same block 100 cycles later merges and
        // waits only the remainder.
        let b = hi.access(0x44, 0x2_0010, false, 100);
        assert!(!b.mshr_full);
        assert_eq!(b.latency, 104); // 204 - 100
    }

    #[test]
    fn mshr_full_reports_stall() {
        let cfg = HierarchyConfig { l1_mshrs: 1, ..Default::default() };
        let mut hi = Hierarchy::new(cfg);
        hi.access(0x40, 0x2_0000, false, 0);
        let r = hi.access(0x40, 0x9_0000, false, 1);
        assert!(r.mshr_full);
    }

    #[test]
    fn prefetch_fill_avoids_demand_miss() {
        let mut hi = h();
        hi.prefetch_fill(0x5_0000, 0);
        let r = hi.access(0x40, 0x5_0000, false, 300);
        assert_eq!(r.level, MemLevel::L1);
        assert_eq!(hi.prefetch_fills, 1);
    }

    #[test]
    fn next_line_prefetcher_covers_streaming() {
        let cfg = HierarchyConfig { next_line_prefetch: true, ..Default::default() };
        let mut hi = Hierarchy::new(cfg);
        hi.access(0x40, 0x8_0000, false, 0);
        // The next block was prefetched.
        let r = hi.access(0x40, 0x8_0040, false, 300);
        assert_eq!(r.level, MemLevel::L1);
    }

    #[test]
    fn level_counts_accumulate() {
        let mut hi = h();
        hi.access(0x40, 0x3_0000, false, 0);
        hi.access(0x40, 0x3_0000, false, 300);
        assert_eq!(hi.level_counts[MemLevel::Mem as usize], 1);
        assert_eq!(hi.level_counts[MemLevel::L1 as usize], 1);
    }

    #[test]
    fn write_allocates_dirty() {
        let mut hi = h();
        hi.access(0x40, 0x6_0000, true, 0);
        let (l1, _, _) = hi.cache_stats();
        assert_eq!(l1.misses(), 1);
        // A read now hits.
        let r = hi.access(0x40, 0x6_0000, false, 300);
        assert_eq!(r.level, MemLevel::L1);
    }

    #[test]
    fn clone_from_matches_clone() {
        let cfg = HierarchyConfig { next_line_prefetch: true, stride_prefetch: true, ..Default::default() };
        // Sixteen PCs: even ones load with a per-PC stride (training the
        // stride prefetcher), odd ones load or store random blocks.
        let mut rng = cfd_isa::Rng::new(7);
        let mut next = [0u64; 16];
        let stream: Vec<(u64, u64, bool)> = (0..6000)
            .map(|_| {
                let k = rng.below(16) as usize;
                next[k] += 64 * (k as u64 + 1);
                if k.is_multiple_of(2) {
                    (k as u64 * 4, (k as u64) << 24 | next[k], false)
                } else {
                    (k as u64 * 4, rng.below(1 << 22), rng.chance(30))
                }
            })
            .collect();
        // One access every 32 cycles keeps the MSHR file mostly below full,
        // so prefetches and merges shape the results.
        let run = |hi: &mut Hierarchy, s: &[(u64, u64, bool)], t0: u64| -> Vec<AccessResult> {
            let out = s.iter().zip(t0..).map(|(&(pc, addr, write), t)| hi.access(pc, addr, write, t * 32)).collect();
            hi.advance((t0 + s.len() as u64) * 32);
            out
        };
        // The copy takes the source's prefetchers along with its state.
        let mut src = Hierarchy::new(cfg);
        run(&mut src, &stream[..3000], 0);
        let mut dst = h();
        run(&mut dst, &stream[3000..3500], 0);
        dst.clone_from(&src);
        assert_eq!(dst.config(), src.config());
        let mut fresh = src.clone();
        assert_eq!(run(&mut dst, &stream[3000..], 3000), run(&mut fresh, &stream[3000..], 3000));
        assert_eq!(dst.cache_stats(), fresh.cache_stats());
        assert_eq!(dst.level_counts, fresh.level_counts);
        assert_eq!(dst.prefetch_fills, fresh.prefetch_fills);
        assert_eq!(dst.mshr_histogram(), fresh.mshr_histogram());
    }

    #[test]
    fn mem_level_ordering() {
        assert!(MemLevel::L1 < MemLevel::L2);
        assert!(MemLevel::L3 < MemLevel::Mem);
        assert_eq!(MemLevel::Mem.to_string(), "MEM");
    }
}
