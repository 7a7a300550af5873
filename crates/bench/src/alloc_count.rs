//! Optional allocation counting for the benchmark harness.
//!
//! With the `count-allocs` feature enabled, every binary and test in this
//! crate runs under a [`CountingAllocator`] — a thin wrapper over the
//! system allocator that counts allocator round-trips. The harness
//! samples [`allocations`] around an engine run to report
//! *allocations-per-event*, the metric the zero-allocation hot-path work
//! is held to.
//!
//! [`allocations`] counts the whole process; a gate measuring work on its
//! own thread reads [`thread_allocations`], which sibling threads (e.g.
//! parallel tests) cannot disturb.
//!
//! The counters exist unconditionally so code can call [`allocations`]
//! without `cfg` noise; without the feature they simply stay at zero
//! (check [`enabled`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
thread_local! {
    // Const-initialised, no destructor: the allocator may touch it.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}
static FREES: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper over the system allocator.
pub struct CountingAllocator;

#[inline]
fn count_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation to `System`, only bumping relaxed
// atomic counters and a thread-local counter on the side.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is one allocator round-trip (a grow counts against
        // the hot path exactly like a fresh allocation would).
        count_alloc();
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// True when the crate was built with `--features count-allocs` and the
/// counters below actually tick.
pub fn enabled() -> bool {
    cfg!(feature = "count-allocs")
}

/// Total allocator acquisitions (alloc + alloc_zeroed + realloc) so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocator acquisitions made by the calling thread so far.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Total deallocations so far.
pub fn deallocations() -> u64 {
    FREES.load(Ordering::Relaxed)
}

/// Total bytes requested from the allocator so far.
pub fn allocated_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}
