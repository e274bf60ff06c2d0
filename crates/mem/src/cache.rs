//! A set-associative cache model (tags + LRU only).
//!
//! Timing simulators need hit/miss decisions and replacement behaviour, not
//! data: data lives in the `cfd-isa` memory image. This keeps caches cheap
//! and makes wrong-path pollution effects come out naturally.

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// log2 of the block size in bytes (6 = 64-byte blocks).
    pub block_bits: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible into
    /// power-of-two sets).
    pub fn sets(&self) -> usize {
        let block = 1usize << self.block_bits;
        let sets = self.size_bytes / (block * self.ways);
        assert!(sets.is_power_of_two() && sets > 0, "cache sets must be a positive power of two");
        sets
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    lru: u8,
    valid: bool,
    dirty: bool,
}

/// An eviction produced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Block-aligned address of the victim.
    pub addr: u64,
    /// Whether the victim was dirty (needs write-back).
    pub dirty: bool,
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Demand misses.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }
}

/// A set-associative, true-LRU, write-back cache (tags only).
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    lines: Vec<Line>,
    /// Statistics.
    pub stats: CacheStats,
}

impl Cache {
    /// Creates a cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        Cache { cfg, sets, lines: vec![Line::default(); sets * cfg.ways], stats: CacheStats::default() }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Block-aligns an address.
    #[inline]
    pub fn block_addr(&self, addr: u64) -> u64 {
        addr >> self.cfg.block_bits << self.cfg.block_bits
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.cfg.block_bits) as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.cfg.block_bits >> self.sets.trailing_zeros()
    }

    fn set_slice(&mut self, set: usize) -> &mut [Line] {
        let w = self.cfg.ways;
        &mut self.lines[set * w..(set + 1) * w]
    }

    /// Probes for `addr`; a hit refreshes LRU and optionally marks dirty.
    /// Counts toward demand statistics.
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.stats.accesses += 1;
        let hit = self.touch(addr, write);
        if hit {
            self.stats.hits += 1;
        }
        hit
    }

    /// Like [`access`](Self::access) but does not count statistics
    /// (used for prefetch probes).
    pub fn probe_silent(&mut self, addr: u64) -> bool {
        self.touch(addr, false)
    }

    /// Pure hit test: no statistics, no LRU update (for pre-checks that
    /// may be retried).
    pub fn probe_peek(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let w = self.cfg.ways;
        self.lines[set * w..(set + 1) * w].iter().any(|l| l.valid && l.tag == tag)
    }

    fn touch(&mut self, addr: u64, write: bool) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let ways = self.cfg.ways as u8;
        let lines = self.set_slice(set);
        if let Some(pos) = lines.iter().position(|l| l.valid && l.tag == tag) {
            let old = lines[pos].lru;
            for l in lines.iter_mut() {
                if l.valid && l.lru > old {
                    l.lru -= 1;
                }
            }
            lines[pos].lru = ways - 1;
            if write {
                lines[pos].dirty = true;
            }
            true
        } else {
            false
        }
    }

    /// Fills the block containing `addr`, evicting LRU if needed. Returns
    /// the eviction, if any. `write` installs the block dirty
    /// (write-allocate).
    pub fn fill(&mut self, addr: u64, write: bool) -> Option<Eviction> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let ways = self.cfg.ways as u8;
        let block_bits = self.cfg.block_bits;
        let set_bits = self.sets.trailing_zeros();
        let lines = self.set_slice(set);
        if let Some(pos) = lines.iter().position(|l| l.valid && l.tag == tag) {
            // Already present (e.g. a racing fill): just refresh.
            let old = lines[pos].lru;
            for l in lines.iter_mut() {
                if l.valid && l.lru > old {
                    l.lru -= 1;
                }
            }
            lines[pos].lru = ways - 1;
            if write {
                lines[pos].dirty = true;
            }
            return None;
        }
        let pos = lines
            .iter()
            .position(|l| !l.valid)
            .unwrap_or_else(|| lines.iter().enumerate().min_by_key(|(_, l)| l.lru).map(|(i, _)| i).unwrap());
        let evict = if lines[pos].valid {
            let victim_addr = ((lines[pos].tag << set_bits) | set as u64) << block_bits;
            Some(Eviction { addr: victim_addr, dirty: lines[pos].dirty })
        } else {
            None
        };
        let old = if lines[pos].valid { lines[pos].lru } else { 0 };
        for l in lines.iter_mut() {
            if l.valid && l.lru > old {
                l.lru -= 1;
            }
        }
        lines[pos] = Line { tag, lru: ways - 1, valid: true, dirty: write };
        if let Some(e) = &evict {
            if e.dirty {
                self.stats.writebacks += 1;
            }
        }
        evict
    }

    /// Invalidates everything (e.g. between experiment phases).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
    }
}

impl Clone for Cache {
    fn clone(&self) -> Cache {
        let Cache { cfg, sets, lines, stats } = self;
        Cache { cfg: *cfg, sets: *sets, lines: lines.clone(), stats: *stats }
    }

    /// Copies `source` into this cache's line buffer, which is reused
    /// (not reallocated) when it already holds enough lines: sampled
    /// simulation refreshes one slice hierarchy from the warm one this way
    /// instead of allocating a fresh multi-MiB L3 per slice.
    fn clone_from(&mut self, source: &Cache) {
        let Cache { cfg, sets, lines, stats } = self;
        *cfg = source.cfg;
        *sets = source.sets;
        lines.clone_from(&source.lines);
        *stats = source.stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets x 2 ways x 64B blocks = 256 B
        Cache::new(CacheConfig { size_bytes: 256, ways: 2, block_bits: 6 })
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().sets(), 2);
        assert_eq!(c.block_addr(0x7f), 0x40);
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = small();
        assert!(!c.access(0x100, false));
        c.fill(0x100, false);
        assert!(c.access(0x100, false));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses(), 1);
    }

    #[test]
    fn same_block_hits() {
        let mut c = small();
        c.fill(0x100, false);
        assert!(c.access(0x13f, false)); // same 64B block
        assert!(!c.access(0x140, false)); // next block
    }

    #[test]
    fn lru_replacement() {
        let mut c = small();
        // Set 0 gets blocks 0x000, 0x080, 0x100 (all map to set 0: block/64 % 2 == 0)
        c.fill(0x000, false);
        c.fill(0x080, false);
        c.access(0x000, false); // refresh 0x000
        let ev = c.fill(0x100, false).expect("must evict");
        assert_eq!(ev.addr, 0x080);
        assert!(c.probe_silent(0x000));
        assert!(!c.probe_silent(0x080));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = small();
        c.fill(0x000, true); // dirty install
        c.fill(0x080, false);
        let ev = c.fill(0x100, false).unwrap();
        assert!(ev.dirty);
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.fill(0x000, false);
        c.access(0x000, true);
        c.fill(0x080, false);
        let ev = c.fill(0x100, false).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.fill(0x000, false);
        c.flush();
        assert!(!c.probe_silent(0x000));
    }

    #[test]
    fn refill_existing_block_is_no_eviction() {
        let mut c = small();
        c.fill(0x000, false);
        assert_eq!(c.fill(0x000, false), None);
    }

    /// A seeded stream of (address, write) over a 128 KiB footprint.
    fn stream(seed: u64, len: usize) -> Vec<(u64, bool)> {
        let mut rng = cfd_isa::Rng::new(seed);
        (0..len).map(|_| (rng.below(1 << 17), rng.chance(30))).collect()
    }

    /// Replays `s` through `c`, filling on every miss: each access's hit
    /// and the eviction its fill caused.
    fn replay(c: &mut Cache, s: &[(u64, bool)]) -> Vec<(bool, Option<Eviction>)> {
        s.iter()
            .map(|&(addr, write)| {
                let hit = c.access(addr, write);
                (hit, if hit { None } else { c.fill(addr, write) })
            })
            .collect()
    }

    #[test]
    fn clone_from_matches_clone_and_reuses_equal_geometry() {
        let l1 = |kb: usize| CacheConfig { size_bytes: kb * 1024, ways: 8, block_bits: 6 };
        // Equal geometry, then the 8 KB / 32 KB L1 pair a DSE sweep varies.
        for (from, to) in [(32, 32), (8, 32), (32, 8)] {
            let mut src = Cache::new(l1(from));
            replay(&mut src, &stream(1, 4000));
            let mut dst = Cache::new(l1(to));
            replay(&mut dst, &stream(2, 500));
            let buf = dst.lines.as_ptr();
            dst.clone_from(&src);
            if from == to {
                assert_eq!(dst.lines.as_ptr(), buf, "equal geometry must reuse the line buffer");
            }
            assert_eq!(dst.config(), src.config());
            let mut fresh = src.clone();
            let tail = stream(3, 4000);
            assert_eq!(replay(&mut dst, &tail), replay(&mut fresh, &tail), "{from} KB into {to} KB");
            assert_eq!(dst.stats, fresh.stats);
        }
    }

    #[test]
    fn victim_address_reconstruction() {
        let mut c = small();
        c.fill(0xabc0, false);
        c.fill(0xbbc0, false); // hmm, may map to a different set; force set 0 blocks
        let mut c = small();
        c.fill(0x0000, false);
        c.fill(0x0100, false);
        let ev = c.fill(0x0200, false).unwrap();
        assert_eq!(ev.addr, 0x0000);
    }
}
