//! The kernel/host boundary: every doorway from the pure execution kernel
//! to the outside world.
//!
//! The pipeline stages ([`frontend`](crate::frontend),
//! [`dispatch`](crate::dispatch), [`scheduler`](crate::scheduler),
//! [`lsq`](crate::lsq), [`commit`](crate::commit)) never touch the cache
//! hierarchy, fault injection, or cancellation tokens directly. Each
//! capability sits behind a narrow trait — [`MemoryHost`], [`FaultHost`],
//! [`ControlHost`] — implemented by a *port* struct whose internals are
//! private to this module, so the only operations a stage can perform are
//! the trait methods. Observations leave by one other door, the
//! [`Observer`](crate::Observer) that [`Core::drive`](crate::Core::drive)
//! reports to. That makes the kernel's external surface auditable by
//! reading four trait definitions, and it is what lets the kernel be
//! checkpointed, resumed, and re-hosted (sampled simulation, future
//! multi-core) without touching stage code.
//!
//! Every port has a **null state** (no fault armed, no cancel token) whose
//! trait methods reduce to an `Option` check — the same cost the
//! pre-refactor field tests paid, so a run with null hosts is as fast as
//! the old direct-field code. `scripts/verify.sh` holds this to a hard
//! simperf KIPS floor.

use crate::core::{CancelToken, CoreError};
use crate::fault::{FaultKind, FaultSite, FaultSpec, FaultState, InjectionRecord};
use cfd_mem::{AccessResult, Cache, CacheConfig, CacheStats, Hierarchy, HierarchyConfig};

// ----------------------------------------------------------------------
// Memory
// ----------------------------------------------------------------------

/// The kernel's only route to the cache hierarchy and the L1I tags.
///
/// Simulated data and instruction accesses, end-of-run drain, and the
/// read-only statistics views the report builder needs.
pub trait MemoryHost {
    /// Data-side access (loads, prefetches, retiring stores) at `addr`,
    /// attributed to the instruction at byte-PC `pc`.
    fn data_access(&mut self, pc: u64, addr: u64, write: bool, now: u64) -> AccessResult;
    /// Instruction-side probe at byte-PC `pc`: true on an L1I hit. A miss
    /// fills the line (the bubble cost is the caller's to model).
    fn fetch_probe(&mut self, pc: u64) -> bool;
    /// Drains in-flight miss state up to `now` (end of run).
    fn advance(&mut self, now: u64);
    /// Per-level (L1D, L2, L3) access/hit counters.
    fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats);
    /// MSHR occupancy histogram (index = occupancy at allocation time).
    fn mshr_histogram(&self) -> &[u64];
    /// Demand accesses that reached each level (L1, L2, L3, DRAM).
    fn level_counts(&self) -> [u64; 4];
}

/// The built-in memory port: a three-level data hierarchy plus L1I tags.
#[derive(Debug, Clone)]
pub(crate) struct MemoryPort {
    hier: Hierarchy,
    /// L1 instruction cache (tags only; instruction "addresses" are
    /// `pc * 4`).
    icache: Cache,
}

impl MemoryPort {
    pub(crate) fn new(cfg: HierarchyConfig) -> MemoryPort {
        MemoryPort {
            hier: Hierarchy::new(cfg),
            icache: Cache::new(CacheConfig { size_bytes: 32 * 1024, ways: 8, block_bits: 6 }),
        }
    }
}

impl MemoryHost for MemoryPort {
    #[inline]
    fn data_access(&mut self, pc: u64, addr: u64, write: bool, now: u64) -> AccessResult {
        self.hier.access(pc, addr, write, now)
    }

    #[inline]
    fn fetch_probe(&mut self, pc: u64) -> bool {
        if self.icache.access(pc, false) {
            true
        } else {
            self.icache.fill(pc, false);
            false
        }
    }

    fn advance(&mut self, now: u64) {
        self.hier.advance(now);
    }

    fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        self.hier.cache_stats()
    }

    fn mshr_histogram(&self) -> &[u64] {
        self.hier.mshr_histogram()
    }

    fn level_counts(&self) -> [u64; 4] {
        self.hier.level_counts
    }
}

// ----------------------------------------------------------------------
// Fault injection
// ----------------------------------------------------------------------

/// The kernel's only route to the deterministic fault injector
/// (see [`crate::fault`]).
pub trait FaultHost {
    /// Visits an injection site on cycle `now`; returns the armed fault's
    /// kind exactly once, at its `nth` visit.
    fn visit(&mut self, site: FaultSite, now: u64) -> Option<FaultKind>;
    /// Whether the armed fault has fired by now (recovery attribution).
    fn has_fired(&self) -> bool;
    /// The injection record, once fired.
    fn fired_record(&self) -> Option<InjectionRecord>;
    /// Whether a fault is armed at all (the null port answers false).
    fn armed(&self) -> bool;
}

/// The built-in fault port; null until armed.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultPort {
    state: Option<FaultState>,
}

impl FaultPort {
    pub(crate) fn unarmed() -> FaultPort {
        FaultPort::default()
    }

    pub(crate) fn armed_with(spec: FaultSpec) -> FaultPort {
        FaultPort { state: Some(FaultState::new(spec)) }
    }
}

impl FaultHost for FaultPort {
    #[inline]
    fn visit(&mut self, site: FaultSite, now: u64) -> Option<FaultKind> {
        self.state.as_mut()?.visit(site, now)
    }

    fn has_fired(&self) -> bool {
        self.state.as_ref().is_some_and(|f| f.fired().is_some())
    }

    fn fired_record(&self) -> Option<InjectionRecord> {
        self.state.as_ref().and_then(|f| f.fired().cloned())
    }

    #[inline]
    fn armed(&self) -> bool {
        self.state.is_some()
    }
}

// ----------------------------------------------------------------------
// Control
// ----------------------------------------------------------------------

/// The kernel's only route to its supervisor: the per-cycle progress
/// heartbeat and cooperative cancellation.
pub trait ControlHost {
    /// Called once per cycle before the stages run: publishes `cycle` as
    /// the progress heartbeat, then trips [`CoreError::Cancelled`] when
    /// the cycle budget is exhausted or an external cancel was requested.
    fn poll(&mut self, cycle: u64) -> Result<(), CoreError>;
}

/// The built-in control port; null (free) until a token is engaged.
#[derive(Debug, Clone, Default)]
pub(crate) struct ControlPort {
    token: Option<CancelToken>,
}

impl ControlPort {
    pub(crate) fn disengaged() -> ControlPort {
        ControlPort::default()
    }

    pub(crate) fn engaged(token: CancelToken) -> ControlPort {
        ControlPort { token: Some(token) }
    }
}

impl ControlHost for ControlPort {
    #[inline]
    fn poll(&mut self, cycle: u64) -> Result<(), CoreError> {
        let Some(tok) = &self.token else { return Ok(()) };
        // Publish progress before checking: a supervisor that sees a stale
        // heartbeat knows the loop itself stopped turning.
        tok.note(cycle);
        if let Some(b) = tok.budget() {
            if cycle >= b {
                return Err(CoreError::Cancelled { cycle, budget: Some(b) });
            }
        }
        if tok.is_cancelled() {
            return Err(CoreError::Cancelled { cycle, budget: None });
        }
        Ok(())
    }
}
