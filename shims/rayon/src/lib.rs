//! Offline stand-in for `rayon`.
//!
//! The build environment has no network access, so this crate re-implements
//! the small parallel-iterator surface the workspace's kernels use. Earlier
//! revisions spawned scoped `std` threads per call, which made every parallel
//! region allocate (thread stacks, chunk vectors) and broke the workspace's
//! zero-allocation steady-state guarantee. This revision keeps a
//! **persistent worker pool**:
//!
//! * `available_parallelism() - 1` detached workers are spawned once, on the
//!   first parallel call, and then live for the process lifetime.
//! * A parallel region publishes a task — `(closure, n_indices)` — into one
//!   of a fixed set of static task slots. Workers and the calling thread
//!   *claim* indices with an atomic counter, so the caller always
//!   participates and nested parallelism (e.g. `join` inside `join` inside a
//!   `par_chunks_mut` body) can never deadlock: a region that finds no free
//!   slot simply runs inline.
//! * Publishing, claiming and completion are all lock-free atomics plus one
//!   futex-backed `Mutex`/`Condvar` pair to park idle workers — **no heap
//!   allocation per parallel region**, which is what lets the allocation
//!   regression test assert exactly zero steady-state allocations.
//! * On a one-core host the pool has no workers: every region runs inline
//!   on the calling thread.
//!
//! `par_chunks_mut` hands out disjoint sub-slices computed from a claimed
//! chunk index (no eager `Vec<&mut [T]>`), and gains a rayon-compatible
//! [`ParChunksMut::zip`] so kernels can pair a data chunk with a scratch
//! chunk. Unlike real rayon there is no work stealing; the claiming counter
//! provides the same load-balancing for the coarse row/plane chunks the
//! kernels produce. Replace the `shims/rayon` path dependency with the real
//! crate once a registry is reachable.

use std::ops::Range;

mod pool;

pub use pool::current_num_threads;

/// Runs two closures, potentially in parallel, returning both results.
///
/// The second closure is published to the worker pool while the caller runs
/// the first; if no worker picks it up by the time the first returns, the
/// caller runs it inline (so `join` never blocks on an idle pool).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    pool::join(a, b)
}

/// Parallel iterator over `0..n` index ranges.
pub struct ParRange {
    range: Range<usize>,
}

/// Parallel map adapter over an index range.
pub struct ParRangeMap<F> {
    range: Range<usize>,
    f: F,
}

impl ParRange {
    /// Maps each index through `f`.
    pub fn map<T, F: Fn(usize) -> T + Sync>(self, f: F) -> ParRangeMap<F> {
        ParRangeMap {
            range: self.range,
            f,
        }
    }

    /// Runs `f` for every index (in parallel across the pool).
    pub fn for_each<F: Fn(usize) + Sync>(self, f: F) {
        let lo = self.range.start;
        pool::run(self.range.len(), &|i| f(lo + i));
    }
}

impl<T: Send, F: Fn(usize) -> T + Sync> ParRangeMap<F> {
    /// Collects the mapped values in index order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        let lo = self.range.start;
        let f = self.f;
        pool::collect_vec(self.range.len(), &|i| f(lo + i))
            .into_iter()
            .collect()
    }

    /// Runs the map for its side effects, discarding results.
    pub fn for_each<G: Fn(T) + Sync>(self, g: G) {
        let lo = self.range.start;
        let f = self.f;
        pool::run(self.range.len(), &|i| g(f(lo + i)));
    }

    /// Sums the mapped values.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        let lo = self.range.start;
        let f = self.f;
        pool::collect_vec(self.range.len(), &|i| f(lo + i))
            .into_iter()
            .sum()
    }
}

/// Conversion into a parallel iterator (stand-in for
/// `rayon::iter::IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// The parallel-iterator type.
    type Iter;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Parallel iterator over an immutable slice.
pub struct ParSlice<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParSlice<'a, T> {
    /// Maps each element through `f`, preserving order.
    pub fn map<U, F>(self, f: F) -> ParSliceMap<'a, T, F>
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
    {
        ParSliceMap {
            slice: self.slice,
            f,
        }
    }

    /// Runs `f` on every element.
    pub fn for_each<F: Fn(&'a T) + Sync>(self, f: F) {
        let slice = self.slice;
        pool::run(slice.len(), &|i| f(&slice[i]));
    }
}

/// Parallel map adapter over an immutable slice.
pub struct ParSliceMap<'a, T, F> {
    slice: &'a [T],
    f: F,
}

impl<'a, T: Sync, U: Send, F: Fn(&'a T) -> U + Sync> ParSliceMap<'a, T, F> {
    /// Collects the mapped values in order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        let slice = self.slice;
        let f = self.f;
        pool::collect_vec(slice.len(), &|i| f(&slice[i]))
            .into_iter()
            .collect()
    }
}

/// `par_iter` on slices (stand-in for `IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'a> {
    /// Element type.
    type Item;
    /// The parallel-iterator type.
    type Iter;
    /// Borrowing parallel iterator over `self`.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { slice: self }
    }
}

/// Parallel iterator over mutable, non-overlapping chunks of a slice.
///
/// Lazy: the chunk boundaries are computed from the claimed chunk index at
/// execution time, so building and consuming the iterator allocates nothing.
pub struct ParChunksMut<'a, T: Send> {
    slice: &'a mut [T],
    chunk: usize,
}

/// Enumerated variant of [`ParChunksMut`].
pub struct ParChunksMutEnumerate<'a, T: Send> {
    inner: ParChunksMut<'a, T>,
}

/// Two [`ParChunksMut`] iterators advanced in lock step (stand-in for
/// `IndexedParallelIterator::zip`); yields paired chunks.
pub struct ParZipChunksMut<'a, 'b, T: Send, U: Send> {
    a: ParChunksMut<'a, T>,
    b: ParChunksMut<'b, U>,
}

/// Enumerated variant of [`ParZipChunksMut`].
pub struct ParZipChunksMutEnumerate<'a, 'b, T: Send, U: Send> {
    inner: ParZipChunksMut<'a, 'b, T, U>,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    fn num_chunks(&self) -> usize {
        if self.slice.is_empty() {
            0
        } else {
            self.slice.len().div_ceil(self.chunk)
        }
    }

    /// Attaches the chunk index.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate { inner: self }
    }

    /// Pairs this iterator's chunks with another's, like rayon's `zip`; the
    /// shorter side determines the number of pairs.
    pub fn zip<'b, U: Send>(self, other: ParChunksMut<'b, U>) -> ParZipChunksMut<'a, 'b, T, U> {
        ParZipChunksMut { a: self, b: other }
    }

    /// Runs `f` on every chunk.
    pub fn for_each<F: Fn(&mut [T]) + Sync>(self, f: F) {
        let n = self.num_chunks();
        let view = pool::SliceParts::new(self.slice, self.chunk);
        pool::run(n, &|i| f(view.chunk(i)));
    }
}

impl<'a, T: Send> ParChunksMutEnumerate<'a, T> {
    /// Runs `f` on every `(index, chunk)` pair.
    pub fn for_each<F: Fn((usize, &mut [T])) + Sync>(self, f: F) {
        let n = self.inner.num_chunks();
        let view = pool::SliceParts::new(self.inner.slice, self.inner.chunk);
        pool::run(n, &|i| f((i, view.chunk(i))));
    }
}

impl<'a, 'b, T: Send, U: Send> ParZipChunksMut<'a, 'b, T, U> {
    /// Attaches the pair index.
    pub fn enumerate(self) -> ParZipChunksMutEnumerate<'a, 'b, T, U> {
        ParZipChunksMutEnumerate { inner: self }
    }

    /// Runs `f` on every `(chunk_a, chunk_b)` pair.
    pub fn for_each<F: Fn((&mut [T], &mut [U])) + Sync>(self, f: F) {
        let n = self.a.num_chunks().min(self.b.num_chunks());
        let va = pool::SliceParts::new(self.a.slice, self.a.chunk);
        let vb = pool::SliceParts::new(self.b.slice, self.b.chunk);
        pool::run(n, &|i| f((va.chunk(i), vb.chunk(i))));
    }
}

impl<'a, 'b, T: Send, U: Send> ParZipChunksMutEnumerate<'a, 'b, T, U> {
    /// Runs `f` on every `(index, (chunk_a, chunk_b))` triple.
    pub fn for_each<F: Fn((usize, (&mut [T], &mut [U]))) + Sync>(self, f: F) {
        let n = self.inner.a.num_chunks().min(self.inner.b.num_chunks());
        let va = pool::SliceParts::new(self.inner.a.slice, self.inner.a.chunk);
        let vb = pool::SliceParts::new(self.inner.b.slice, self.inner.b.chunk);
        pool::run(n, &|i| f((i, (va.chunk(i), vb.chunk(i)))));
    }
}

/// `par_chunks_mut` on slices (stand-in for `ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over mutable chunks of `chunk_size` elements.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParChunksMut {
            slice: self,
            chunk: chunk_size,
        }
    }
}

/// The usual glob-import module, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn chunks_mut_writes_every_chunk() {
        let mut data = vec![0usize; 103];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for v in chunk {
                *v = i + 1;
            }
        });
        assert!(data.iter().all(|&v| v > 0));
        assert_eq!(data[0], 1);
        assert_eq!(data[102], 11);
    }

    #[test]
    fn zipped_chunks_pair_in_order() {
        let mut a = [0usize; 64];
        let mut b = [0usize; 16];
        a.par_chunks_mut(8)
            .zip(b.par_chunks_mut(2))
            .enumerate()
            .for_each(|(i, (ca, cb))| {
                for v in ca.iter_mut() {
                    *v = i + 1;
                }
                for v in cb.iter_mut() {
                    *v = (i + 1) * 100;
                }
            });
        assert_eq!(a[0], 1);
        assert_eq!(a[63], 8);
        assert_eq!(b[0], 100);
        assert_eq!(b[15], 800);
    }

    #[test]
    fn slice_par_iter_maps() {
        let data = vec![1.0f32; 64];
        let doubled: Vec<f32> = data.par_iter().map(|&v| v * 2.0).collect();
        assert!(doubled.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 1 + 1, || "x".to_owned() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
    }

    #[test]
    fn nested_joins_and_par_loops_complete() {
        // Exercises nested publication: joins inside joins inside a parallel
        // for_each, deeper than the number of task slots. Must not deadlock.
        let total: usize = (0..32usize)
            .into_par_iter()
            .map(|i| {
                let ((a, b), (c, d)) = super::join(
                    || super::join(|| i, || i * 2),
                    || super::join(|| i * 3, || i * 4),
                );
                a + b + c + d
            })
            .sum();
        assert_eq!(total, (0..32).map(|i| i * 10).sum::<usize>());
    }

    #[test]
    fn range_sum_matches_sequential() {
        let s: usize = (0..100usize).into_par_iter().map(|i| i).sum();
        assert_eq!(s, 4950);
    }

    #[test]
    fn for_each_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            (0..64usize).into_par_iter().for_each(|i| {
                assert!(i != 37, "deliberate failure");
            });
        });
        assert!(result.is_err());
        // The pool must stay usable after a panicking region.
        let v: Vec<usize> = (0..16).into_par_iter().map(|i| i).collect();
        assert_eq!(v.len(), 16);
    }

    #[test]
    fn steady_state_regions_reuse_the_pool() {
        // Warm up, then hammer the pool from repeated regions; this is the
        // shape the zero-allocation streaming test relies on.
        let mut data = vec![0u32; 4096];
        for round in 0..50u32 {
            data.par_chunks_mut(256).for_each(|chunk| {
                for v in chunk.iter_mut() {
                    *v = round;
                }
            });
            assert!(data.iter().all(|&v| v == round));
        }
    }
}
