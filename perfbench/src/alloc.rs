//! Heap-allocation counter behind the `allocs_per_frame` layer metric.
//!
//! Counts every allocation event (`alloc`, `alloc_zeroed`, `realloc`) on
//! every thread, except on a thread inside [`uncounted`]: the networked
//! workload's completion watcher polls the cluster's telemetry, which
//! allocates, and those allocations are the benchmark's, not the system's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

/// A `GlobalAlloc` that forwards to [`System`] and counts allocation events.
pub struct CountingAllocator;

fn count() {
    if !UNCOUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards verbatim to the system allocator; the wrapper
// adds only a thread-local read and a relaxed atomic increment, neither of
// which allocates or touches the memory handed out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching call on `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from a matching call on `System`;
        // `new_size` is the caller's, forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events counted since the process started.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `f` without counting the calling thread's allocations.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    UNCOUNTED.with(|flag| flag.set(true));
    let result = f();
    UNCOUNTED.with(|flag| flag.set(false));
    result
}
