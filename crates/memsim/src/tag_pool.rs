//! Recycling of large cache tag arrays.
//!
//! Every random bandwidth measurement builds a fresh hierarchy simulator
//! (sequential and strided ones are counted without one), and the largest
//! fleet cache has an 8 MiB tag array (2 Mi ways of 4 bytes). That array is built only when a
//! measurement's working set exceeds the cache: a level that holds the
//! whole working set is first-touch and keeps a bitmap of its lines
//! instead, taking nothing from the pool. The sharded executor
//! runs each study phase on new worker threads, so the same machine's
//! samples are built and dropped on different threads. A freed array stays
//! resident in the malloc arena of the thread that allocated it; once two
//! arenas each held one, a fleet study's peak resident set grew by the
//! array's size. So dropped caches hand large arrays to a process-wide
//! [`TagPool`], and new caches of the same size reuse one instead of
//! allocating.
//!
//! Arrays come back clean: a cache re-empties the ways it filled before it
//! gives its array back (it tracks them, so the cost follows what a run
//! touched, not the array's size), and the pool hands a spare out as it
//! was given, every way [`EMPTY`].
//!
//! What the pool keeps is bounded by what the simulators themselves once
//! needed: live arrays plus spares never exceed the most ways that were live
//! at once. A fresh allocation that would break that bound frees spares,
//! oldest first, so a size that stops recurring gives way to the sizes in
//! use. Spares are held until then, also after the last cache is dropped.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Marks an empty way. No tag equals it: a cache is built only for a span
/// whose tags lie below it ([`CacheGeometry::max_span`]).
///
/// [`CacheGeometry::max_span`]: crate::spec::CacheGeometry::max_span
pub(crate) const EMPTY: u32 = u32::MAX;

/// Arrays of at least this many 4-byte ways (1 MiB) are pooled. Smaller
/// ones come from the allocating thread's own bins, and together they are
/// a rounding error in the resident set.
const MIN_POOLED_WAYS: usize = 1 << 18;

/// Tag arrays waiting for a new cache of the same size.
#[derive(Debug)]
pub(crate) struct TagPool(Mutex<Pool>);

#[derive(Debug)]
struct Pool {
    /// Dropped arrays, oldest first.
    spares: Vec<Vec<u32>>,
    /// Ways in pooled-size arrays currently owned by caches.
    live: usize,
    /// The most ways `live` has reached.
    peak: usize,
}

impl TagPool {
    pub(crate) const fn new() -> Self {
        Self(Mutex::new(Pool {
            spares: Vec::new(),
            live: 0,
            peak: 0,
        }))
    }

    fn lock(&self) -> MutexGuard<'_, Pool> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether [`give`](Self::give) keeps an array of `len` ways, and so
    /// whether its giver must re-empty it first.
    pub(crate) fn keeps(len: usize) -> bool {
        len >= MIN_POOLED_WAYS
    }

    /// An array of `len` ways, each [`EMPTY`]: a spare of that length when
    /// there is one, a fresh allocation otherwise.
    pub(crate) fn take(&self, len: usize) -> Vec<u32> {
        if !Self::keeps(len) {
            return vec![EMPTY; len];
        }
        let mut pool = self.lock();
        pool.live += len;
        if let Some(i) = pool.spares.iter().position(|w| w.len() == len) {
            return pool.spares.remove(i);
        }
        pool.peak = pool.peak.max(pool.live);
        while pool.live + pool.spares.iter().map(Vec::len).sum::<usize>() > pool.peak {
            pool.spares.remove(0);
        }
        drop(pool);
        vec![EMPTY; len]
    }

    /// Return an array obtained from [`take`](Self::take), every way
    /// [`EMPTY`] again if the pool [`keeps`](Self::keeps) it.
    pub(crate) fn give(&self, ways: Vec<u32>) {
        if Self::keeps(ways.len()) {
            debug_assert!(
                ways.iter().all(|&w| w == EMPTY),
                "a pooled tag array must come back empty"
            );
            let mut pool = self.lock();
            pool.live -= ways.len();
            pool.spares.push(ways);
        }
    }

    #[cfg(test)]
    pub(crate) fn spare_ptrs(&self) -> Vec<*const u32> {
        self.lock().spares.iter().map(Vec::as_ptr).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIG: usize = MIN_POOLED_WAYS;

    #[test]
    fn a_returned_array_is_reused_as_given() {
        let pool = TagPool::new();
        let a = pool.take(BIG);
        assert!(a.iter().all(|&w| w == EMPTY));
        let ptr = a.as_ptr();
        pool.give(a);
        assert_eq!(pool.spare_ptrs(), [ptr]);
        let b = pool.take(BIG);
        assert_eq!(b.as_ptr(), ptr, "the spare must be reused");
        assert!(b.iter().all(|&w| w == EMPTY), "a spare comes back empty");
        assert!(pool.spare_ptrs().is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must come back empty")]
    fn a_dirty_array_is_refused() {
        let pool = TagPool::new();
        let mut a = pool.take(BIG);
        a[BIG - 1] = 3;
        pool.give(a);
    }

    #[test]
    fn small_arrays_bypass_the_pool() {
        let pool = TagPool::new();
        let a = pool.take(BIG - 1);
        pool.give(a);
        assert!(pool.spare_ptrs().is_empty());
    }

    #[test]
    fn spares_never_exceed_the_peak_of_live_ways() {
        let pool = TagPool::new();
        // Two caches of different sizes live at once: the peak is 3 * BIG.
        let (a, b) = (pool.take(2 * BIG), pool.take(BIG));
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        pool.give(a);
        pool.give(b);
        assert_eq!(pool.spare_ptrs(), [pa, pb]);
        // A third size fits next to the spares only after the oldest
        // (2 * BIG) is freed.
        let c = pool.take(BIG + 1);
        assert_eq!(pool.spare_ptrs(), [pb]);
        // A fresh size that sets a new peak of live ways keeps no spare.
        let d = pool.take(3 * BIG);
        assert!(pool.spare_ptrs().is_empty());
        let pc = c.as_ptr();
        pool.give(c);
        pool.give(d);
        assert_eq!(pool.spare_ptrs().len(), 2);
        let e = pool.take(BIG + 1);
        assert_eq!(e.as_ptr(), pc);
    }
}
