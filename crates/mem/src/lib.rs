//! Memory-reuse primitives for the streaming hot path.
//!
//! ASV's ISM algorithm wins because non-key frames are cheap; re-allocating
//! every intermediate buffer on every frame squanders that advantage on the
//! allocator.  This crate provides the two building blocks the rest of the
//! workspace uses to make steady-state frame processing allocation-free:
//!
//! * [`BufferPool`] — a size-keyed pool of `f32` plane buffers that are
//!   checked out, used as kernel scratch or frame storage, and returned.
//!   After the first frame of a stream has warmed the pool, every
//!   `take`/`put` cycle is a plain `Vec` move with no heap traffic.
//! * [`alloc_count`] — a counting wrapper around the system allocator that
//!   the allocation-regression test and the `tab_perf` benchmark install as
//!   the global allocator to *prove* the steady state performs zero heap
//!   allocations.
//!
//! Higher layers build per-session `Workspace` types on top of the pool
//! (`asv_flow::FlowWorkspace`, `asv_stereo::SgmWorkspace`,
//! `asv::Workspace`); each streaming session owns one workspace, so
//! concurrent sessions never contend on the global allocator.

/// A size-keyed pool of reusable `f32` plane buffers.
///
/// Buffers are matched by *exact length*: a checkout of `len` elements is
/// served by a retained buffer of the same length, or freshly allocated on a
/// miss.  Returned buffers are retained up to
/// [`BufferPool::capacity_limit`] per distinct length, so a pool that
/// momentarily handles an unusual frame size cannot grow without bound.
#[derive(Debug)]
pub struct BufferPool {
    free: Vec<Vec<f32>>,
    capacity_limit: usize,
    hits: u64,
    misses: u64,
}

/// Default number of buffers retained per distinct length.
pub const DEFAULT_CAPACITY_LIMIT: usize = 8;

impl BufferPool {
    /// Creates an empty pool (no heap allocation happens until the first
    /// checkout misses).
    pub fn new() -> Self {
        Self::with_capacity_limit(DEFAULT_CAPACITY_LIMIT)
    }

    /// Creates an empty pool retaining at most `limit` buffers per distinct
    /// length (clamped to at least 1).
    pub fn with_capacity_limit(limit: usize) -> Self {
        Self {
            free: Vec::new(),
            capacity_limit: limit.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// The retention limit per distinct buffer length.
    pub fn capacity_limit(&self) -> usize {
        self.capacity_limit
    }

    /// Checks out a buffer of exactly `len` elements with *unspecified*
    /// contents (stale data from a previous user on a pool hit, zeros on a
    /// miss).  Use when the caller overwrites every element.
    pub fn take_scratch(&mut self, len: usize) -> Vec<f32> {
        if let Some(pos) = self.free.iter().position(|b| b.len() == len) {
            self.hits += 1;
            self.free.swap_remove(pos)
        } else {
            self.misses += 1;
            vec![0.0; len] // lint: alloc-ok(pool miss, amortized)
        }
    }

    /// Checks out a buffer of exactly `len` elements filled with `0.0`.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_scratch(len);
        buf.fill(0.0);
        buf
    }

    /// Returns a buffer to the pool.  Buffers beyond the per-length
    /// retention limit (and zero-length buffers) are dropped.
    pub fn put(&mut self, buf: Vec<f32>) {
        if buf.is_empty() {
            return;
        }
        let same_len = self.free.iter().filter(|b| b.len() == buf.len()).count();
        if same_len < self.capacity_limit {
            self.free.push(buf);
        }
    }

    /// Number of buffers currently retained.
    pub fn retained(&self) -> usize {
        self.free.len()
    }

    /// Total bytes currently retained by the pool.
    pub fn retained_bytes(&self) -> usize {
        self.free
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Checkouts served from retained buffers.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Checkouts that had to allocate.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops every retained buffer, releasing the pool's memory (e.g. when a
    /// session goes idle).  Hit/miss statistics are preserved.
    pub fn trim(&mut self) {
        self.free.clear();
        self.free.shrink_to_fit();
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

/// A counting wrapper around the system allocator.
///
/// Install it as the global allocator in a test or benchmark binary and read
/// [`alloc_count::allocations`] before/after a region to measure its heap
/// traffic.  Counting is a relaxed atomic increment, cheap enough to leave
/// always-on in the binaries that use it.
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// A `GlobalAlloc` that forwards to [`System`] and counts every
    /// allocation event (including `realloc` growth).
    #[derive(Debug, Default)]
    pub struct CountingAllocator;

    impl CountingAllocator {
        /// Creates the allocator (const, so it can be a `static`).
        pub const fn new() -> Self {
            Self
        }
    }

    // The workspace denies `unsafe_code`; a global allocator is the one
    // place that cannot be expressed without it, so the override is scoped
    // to exactly this impl.
    #[allow(unsafe_code)]
    // SAFETY: every method forwards verbatim to the system allocator; the
    // wrapper adds only relaxed atomic counter increments, which cannot
    // violate any allocator invariant.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            // SAFETY: `layout` is the caller's layout, forwarded unchanged.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            // SAFETY: `layout` is the caller's layout, forwarded unchanged.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: `ptr`/`layout` come from a matching `alloc` on the
            // same underlying system allocator.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            // SAFETY: `ptr`/`layout` come from a matching `alloc`, and
            // `new_size` is the caller's requested size, all forwarded.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Number of allocation events (alloc, alloc_zeroed and realloc) since
    /// process start.  Monotonic; diff two reads to measure a region.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Number of deallocation events since process start.
    pub fn deallocations() -> u64 {
        DEALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Total bytes requested by allocation events since process start.
    pub fn allocated_bytes() -> u64 {
        BYTES.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pool_allocates_on_miss() {
        let mut pool = BufferPool::new();
        let buf = pool.take_scratch(16);
        assert_eq!(buf.len(), 16);
        assert!(buf.iter().all(|&v| v == 0.0));
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.hits(), 0);
    }

    #[test]
    fn take_put_cycle_reuses_the_buffer() {
        let mut pool = BufferPool::new();
        let mut buf = pool.take_scratch(8);
        buf[3] = 7.0;
        let ptr = buf.as_ptr();
        pool.put(buf);
        let again = pool.take_scratch(8);
        assert_eq!(again.as_ptr(), ptr, "same allocation must come back");
        assert_eq!(again[3], 7.0, "scratch contents are unspecified but live");
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn take_zeroed_clears_stale_contents() {
        let mut pool = BufferPool::new();
        let mut buf = pool.take_scratch(8);
        buf.fill(9.0);
        pool.put(buf);
        let clean = pool.take_zeroed(8);
        assert!(clean.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn lengths_are_matched_exactly() {
        let mut pool = BufferPool::new();
        pool.put(vec![1.0; 10]);
        let other = pool.take_scratch(12);
        assert_eq!(other.len(), 12);
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.retained(), 1, "the 10-element buffer stays pooled");
    }

    #[test]
    fn retention_limit_caps_growth() {
        let mut pool = BufferPool::with_capacity_limit(2);
        for _ in 0..5 {
            pool.put(vec![0.0; 4]);
        }
        assert_eq!(pool.retained(), 2);
        assert_eq!(pool.retained_bytes(), 2 * 4 * 4);
        pool.trim();
        assert_eq!(pool.retained(), 0);
    }

    #[test]
    fn empty_buffers_are_not_retained() {
        let mut pool = BufferPool::new();
        pool.put(Vec::new());
        assert_eq!(pool.retained(), 0);
    }

    #[test]
    fn counters_are_monotonic() {
        let before = alloc_count::allocations();
        let v: Vec<u8> = Vec::with_capacity(32);
        drop(v);
        // Without the counting allocator installed the counters stay flat;
        // either way they never decrease.
        assert!(alloc_count::allocations() >= before);
        let _ = alloc_count::deallocations();
        let _ = alloc_count::allocated_bytes();
    }
}
