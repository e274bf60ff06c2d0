//! After warm-up the detailed kernel makes almost no heap allocation: no
//! in-flight instruction is boxed or moved between queues, and each
//! predicted branch reuses the metadata box its window slot already holds.
//! Sampled simulation runs every detailed slice of a call on one reused
//! data hierarchy, so a slice allocates far less than one L3 tag array.
//!
//! A counting global allocator counts the allocations and requested bytes
//! of the thread that armed it, so the tests here can run in parallel.
//! The detailed test counts from warm cycle 20 000 to cycle 60 000 (or
//! the halt, when that comes first) of three kernels. What remains is
//! growth, not per-instruction work: a scheduler wheel bucket or PRF
//! waiter list reaching a new high-water mark, or the oracles mapping a
//! newly touched memory page.

use cfd_core::{run_sampled, Core, CoreConfig, PauseAt, SampleConfig, Stop};
use cfd_workloads::{by_name, Scale, Variant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations and bytes requested on this thread while armed.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    if ARMED.with(Cell::get) {
        COUNTS.with(|c| {
            let (n, b) = c.get();
            c.set((n + 1, b + bytes as u64));
        });
    }
}

/// Runs `f` with this thread's counter armed; returns its result and the
/// allocations and bytes it requested.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    COUNTS.with(|c| c.set((0, 0)));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, COUNTS.with(Cell::get))
}

// SAFETY: every call forwards unchanged to the system allocator; the
// armed flag and the counters are const-initialised thread locals without
// destructors, so counting neither allocates nor touches another thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
    let (stop, (allocations, _)) = counted(|| core.drive(LIMIT, &mut PauseAt::Cycle(END)));
    stop.unwrap_or_else(|e| panic!("{name}: {e}"));
    allocations
}

#[test]
fn warm_detailed_cycles_barely_allocate() {
    for name in ["soplex_ref_like", "astar_r1_like", "mcf_like"] {
        let n = warm_allocations(name);
        println!("{name}: {n} allocations over cycles {WARM}..{END}");
        assert!(n < MAX_ALLOCATIONS, "{name}: {n} allocations over cycles {WARM}..{END} (limit {MAX_ALLOCATIONS})");
    }
}

/// One default L3 tag array: 8 MiB of 64-byte blocks, 16 bytes of tag
/// state each. Rebuilding the slice hierarchy and copying the warm one
/// into fresh memory cost about 5 MB per slice.
const L3_TAG_BYTES: u64 = 2 * 1024 * 1024;

#[test]
fn sampled_slices_allocate_less_than_an_l3_tag_array() {
    let w = by_name("tiff2bw_like").expect("catalog kernel").build(Variant::Base, Scale { n: 2000, seed: 7 });
    let shape = SampleConfig { ff_instructions: 5000, warmup_instructions: 1000, detail_instructions: 1000 };
    let (report, (_, bytes)) = counted(|| run_sampled(CoreConfig::default(), w.program, w.mem, shape, LIMIT));
    let report = report.unwrap();
    assert_eq!(report.intervals, 38, "the run must reuse the slice hierarchy many times");
    let per_slice = bytes / report.intervals;
    println!("tiff2bw_like: {bytes} bytes over {} slices, {per_slice} per slice", report.intervals);
    assert!(per_slice < L3_TAG_BYTES, "{per_slice} bytes per sampled slice (limit {L3_TAG_BYTES})");
}
