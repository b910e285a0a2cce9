//! `StatSet` increments of existing counters must not touch the heap: they
//! sit on every simulated memory access. A counting global allocator tallies
//! the allocations made by the test thread while counting is switched on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simkit::stats::StatSet;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps a thread-local counter that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's arguments meet `GlobalAlloc`'s contract,
        // which `System` implements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's arguments meet `GlobalAlloc`'s contract,
        // which `System` implements.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's arguments meet `GlobalAlloc`'s contract,
        // which `System` implements.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's arguments meet `GlobalAlloc`'s contract,
        // which `System` implements.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made by the current thread while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get)
}

#[test]
fn incrementing_existing_counters_does_not_allocate() {
    let mut stats = StatSet::new();
    let names = ["hierarchy.l1d_hits", "muontrap.l0d_misses", "core0.loads"];
    let first_touch = allocations_in(|| {
        for name in names {
            stats.bump(name);
        }
    });
    assert!(first_touch > 0, "a new counter owns its key");

    let steady = allocations_in(|| {
        for i in 0..10_000u64 {
            let name = names[(i % 3) as usize];
            stats.bump(name);
            stats.add(name, i);
        }
    });
    assert_eq!(steady, 0, "existing counters must update in place");
    assert_eq!(
        stats.counter("core0.loads"),
        1 + 3333 + (0..10_000u64).filter(|i| i % 3 == 2).sum::<u64>()
    );
}
