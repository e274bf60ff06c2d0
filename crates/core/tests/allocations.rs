//! After warm-up the detailed kernel makes almost no heap allocation: no
//! in-flight instruction is boxed or moved between queues, and each
//! predicted branch reuses the metadata box its window slot already holds.
//!
//! A counting global allocator, armed on the test thread only, counts the
//! allocations made from warm cycle 20 000 to cycle 60 000 (or the halt,
//! when that comes first) of three kernels. What remains is growth, not
//! per-instruction work: a scheduler wheel bucket or PRF waiter list
//! reaching a new high-water mark, or the oracles mapping a newly touched
//! memory page.

use cfd_core::{Core, CoreConfig, PauseAt, Stop};
use cfd_workloads::{by_name, Scale, Variant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a relaxed atomic and the armed flag a const-initialised
// thread local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LIMIT: u64 = 50_000_000;
const WARM: u64 = 20_000;
const END: u64 = 60_000;
/// Generous against the ~300 a warm window makes; a boxed snapshot or
/// metadata per branch would make tens of thousands.
const MAX_ALLOCATIONS: u64 = 800;

/// Allocations the detailed run of `name` makes from cycle `WARM` to
/// cycle `END` or its halt.
fn warm_allocations(name: &str) -> u64 {
    let w = by_name(name).expect("catalog kernel").build(Variant::Base, Scale { n: 2000, seed: 7 });
    let mut core = Core::new(CoreConfig::default(), w.program, w.mem).unwrap();
    assert_eq!(core.drive(LIMIT, &mut PauseAt::Cycle(WARM)).unwrap(), Stop::Paused, "{name} ended before warm-up");
    ALLOCATIONS.store(0, Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    let stop = core.drive(LIMIT, &mut PauseAt::Cycle(END));
    ARMED.with(|a| a.set(false));
    stop.unwrap_or_else(|e| panic!("{name}: {e}"));
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_detailed_cycles_barely_allocate() {
    for name in ["soplex_ref_like", "astar_r1_like", "mcf_like"] {
        let n = warm_allocations(name);
        println!("{name}: {n} allocations over cycles {WARM}..{END}");
        assert!(n < MAX_ALLOCATIONS, "{name}: {n} allocations over cycles {WARM}..{END} (limit {MAX_ALLOCATIONS})");
    }
}
