//! A fully-associative LRU TLB model.
//!
//! Large random working sets (GUPS, random-stride MAPS at big sizes) pay TLB
//! misses on top of cache misses on real machines; the timing model adds the
//! penalty so random-access curves keep degrading past the last cache level,
//! as the paper's MAPS data does.
//!
//! Every translation is O(1) whatever the TLB's size. A bucket array indexed
//! by the page number's own low bits finds a resident page, and a doubly
//! linked recency list threaded through `u32` slot indices orders the slots
//! from most to least recently used. A hit moves its slot to the front of
//! the list; a miss on a full TLB evicts the tail slot and refills it.
//!
//! The bucket array grows on demand to cover the highest page translated,
//! up to a cap of 2^16 buckets (256 KiB). Below the cap each page has a
//! bucket of its own, so a miss is one load that finds the bucket empty.
//! Above it the page's higher bits are xor-folded into the index, and
//! resident pages that share a bucket chain through their slots, so a TLB's
//! memory is bounded by a constant, never by the working set it translates.
//!
//! A fresh TLB can be *settled* (`Tlb::settle`): put directly in the state
//! a run of addresses would leave. Starting empty, true LRU leaves the last
//! `entries` distinct pages of the run resident, most recently used first,
//! so the run is read backwards, each page not yet resident is linked in at
//! the tail, and the scan stops once every slot is filled: about `entries`
//! addresses of a random run. Membership is the buckets' own lookup.

use crate::spec::TlbGeometry;

/// Slot index meaning "no slot": an empty bucket, or either end of the
/// recency list or of a bucket chain.
const NIL: u32 = u32::MAX;

/// Log2 of [`MAX_BUCKETS`]; the index folds the page number in chunks of
/// this many bits, four chunks covering all 64.
const BUCKET_BITS: u32 = 16;

/// Most buckets a TLB ever allocates: 256 KiB of `u32` heads.
const MAX_BUCKETS: usize = 1 << BUCKET_BITS;

/// One TLB entry, its links in the recency list and its bucket chain.
#[derive(Debug, Clone, Copy)]
struct Slot {
    page: u64,
    /// Next more recently used slot, `NIL` at the head.
    prev: u32,
    /// Next less recently used slot, `NIL` at the tail.
    next: u32,
    /// Next resident slot in the same bucket, `NIL` at the chain's end.
    chain: u32,
}

/// Fully-associative, true-LRU translation lookaside buffer.
///
/// Slots fill in order up to `capacity` and are then recycled, never
/// freed. Invariants: the chains hanging off
/// `buckets` hold exactly the slots in `slots`, each in the bucket
/// `bucket(page)` names; every resident page is below `grow_at`; and the
/// list from `head` (most recently used) to `tail` (least recently used)
/// visits every slot once.
#[derive(Debug)]
pub(crate) struct Tlb {
    /// First slot of each bucket's chain; the length is a power of two.
    buckets: Vec<u32>,
    /// Lowest page the buckets do not yet cover: the bucket count below the
    /// cap, `u64::MAX` once the array is at `MAX_BUCKETS`.
    grow_at: u64,
    slots: Vec<Slot>,
    head: u32,
    tail: u32,
    capacity: usize,
    page_shift: u32,
}

impl Tlb {
    /// Build a TLB of the given geometry
    /// ([`TlbSpec::geometry`](crate::spec::TlbSpec::geometry)).
    ///
    /// # Panics
    /// Panics if `entries` is zero or does not fit a `u32` slot index, or
    /// if `page_bytes` is not a power of two.
    pub(crate) fn new(spec: &TlbGeometry) -> Self {
        assert!(spec.entries > 0, "TLB needs at least one entry");
        assert!(
            spec.entries < NIL as usize,
            "TLB entries must fit a u32 slot index"
        );
        assert!(
            spec.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Self {
            buckets: Vec::new(),
            grow_at: 0,
            slots: Vec::with_capacity(spec.entries),
            head: NIL,
            tail: NIL,
            capacity: spec.entries,
            page_shift: spec.page_bytes.trailing_zeros(),
        }
    }

    /// Translate the page containing `addr`; returns `true` on TLB hit.
    #[cfg(test)]
    pub(crate) fn access(&mut self, addr: u64) -> bool {
        self.access_page(addr >> self.page_shift)
    }

    /// Translate a page number (an address shifted by
    /// [`page_shift`](Self::page_shift)); returns `true` on TLB hit.
    pub(crate) fn access_page(&mut self, page: u64) -> bool {
        // MRU fast path: a repeat of the head page needs no lookup and
        // leaves the recency order as it is.
        if self.head != NIL && self.slots[self.head as usize].page == page {
            return true;
        }
        if page >= self.grow_at {
            self.grow(page);
        }
        let bucket = self.bucket(page);
        let slot = self.find(bucket, page);
        if slot != NIL {
            self.unlink(slot);
            self.push_front(slot);
            return true;
        }
        let slot = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                page,
                prev: NIL,
                next: NIL,
                chain: NIL,
            });
            (self.slots.len() - 1) as u32
        } else {
            let victim = self.tail;
            self.unchain(victim);
            self.unlink(victim);
            self.slots[victim as usize].page = page;
            victim
        };
        // Read the head after the unchain: the victim may have been it.
        self.slots[slot as usize].chain = self.buckets[bucket];
        self.buckets[bucket] = slot;
        self.push_front(slot);
        false
    }

    /// Put this fresh TLB in the state translating every address of
    /// `addrs` in order would leave, without simulating the translations:
    /// the run's last `entries` distinct pages, most recently used at the
    /// head.
    pub(crate) fn settle(&mut self, addrs: &[u64]) {
        debug_assert!(self.slots.is_empty(), "only a fresh TLB can be settled");
        for &addr in addrs.iter().rev() {
            if self.slots.len() == self.capacity {
                return;
            }
            let page = addr >> self.page_shift;
            if page >= self.grow_at {
                self.grow(page);
            }
            let bucket = self.bucket(page);
            if self.find(bucket, page) != NIL {
                continue;
            }
            // The least recently used so far: link it in at the tail.
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                page,
                prev: self.tail,
                next: NIL,
                chain: self.buckets[bucket],
            });
            self.buckets[bucket] = slot;
            if self.tail == NIL {
                self.head = slot;
            } else {
                self.slots[self.tail as usize].next = slot;
            }
            self.tail = slot;
        }
    }

    /// The slot holding `page` in the chain of `bucket`, or `NIL`.
    #[inline]
    fn find(&self, bucket: usize, page: u64) -> u32 {
        let mut slot = self.buckets[bucket];
        let mut walked = 0;
        while slot != NIL {
            debug_assert!(walked < self.slots.len(), "bucket chain cycles");
            walked += 1;
            let s = self.slots[slot as usize];
            if s.page == page {
                return slot;
            }
            slot = s.chain;
        }
        NIL
    }

    /// The bucket of `page`: its low bits, with every higher chunk of
    /// `BUCKET_BITS` xor-folded in so that pages a multiple of the bucket
    /// count apart spread out. Below the cap a resident page has no bits
    /// above the bucket count, so its bucket is the page itself.
    fn bucket(&self, page: u64) -> usize {
        let folded = page
            ^ (page >> BUCKET_BITS)
            ^ (page >> (2 * BUCKET_BITS))
            ^ (page >> (3 * BUCKET_BITS));
        folded as usize & (self.buckets.len() - 1)
    }

    /// Extend the buckets to cover `page`, doubling at least, up to
    /// `MAX_BUCKETS`. No resident slot moves: each page below the old
    /// length is its own bucket at the new length too, so the added buckets
    /// start empty.
    #[cold]
    fn grow(&mut self, page: u64) {
        let len = if page < MAX_BUCKETS as u64 {
            (page as usize + 1).next_power_of_two()
        } else {
            MAX_BUCKETS
        };
        self.buckets.resize(len, NIL);
        self.grow_at = if len == MAX_BUCKETS {
            u64::MAX
        } else {
            len as u64
        };
    }

    /// Detach `slot` from its bucket's chain.
    fn unchain(&mut self, slot: u32) {
        let bucket = self.bucket(self.slots[slot as usize].page);
        let after = self.slots[slot as usize].chain;
        let mut link = self.buckets[bucket];
        if link == slot {
            self.buckets[bucket] = after;
            return;
        }
        let mut walked = 0;
        while self.slots[link as usize].chain != slot {
            debug_assert!(walked < self.slots.len(), "bucket chain cycles");
            walked += 1;
            link = self.slots[link as usize].chain;
        }
        self.slots[link as usize].chain = after;
    }

    /// Detach `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Link a detached `slot` in as the most recently used.
    fn push_front(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.prev = NIL;
        s.next = self.head;
        if self.head == NIL {
            self.tail = slot;
        } else {
            self.slots[self.head as usize].prev = slot;
        }
        self.head = slot;
    }

    /// Log2 of the page size.
    pub(crate) fn page_shift(&self) -> u32 {
        self.page_shift
    }

    /// The resident pages, most recently used first.
    #[cfg(test)]
    pub(crate) fn recency(&self) -> Vec<u64> {
        let mut pages = Vec::with_capacity(self.slots.len());
        let mut slot = self.head;
        while slot != NIL {
            pages.push(self.slots[slot as usize].page);
            slot = self.slots[slot as usize].next;
        }
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec(entries: usize) -> TlbGeometry {
        TlbGeometry {
            entries,
            page_bytes: 4096,
        }
    }

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(&spec(4));
        assert!(!t.access(0));
        assert!(t.access(100));
        assert!(t.access(4095));
        assert!(!t.access(4096));
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = Tlb::new(&spec(2));
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(0); // page 0 hit -> MRU
        t.access(8192); // page 2 evicts page 1
        assert!(t.access(0), "page 0 retained");
        assert!(!t.access(4096), "page 1 evicted");
    }

    #[test]
    fn within_reach_working_set_hits_after_warmup() {
        let mut t = Tlb::new(&spec(8));
        for _ in 0..2 {
            for p in 0..8u64 {
                t.access(p * 4096);
            }
        }
        for p in 0..8u64 {
            assert!(t.access(p * 4096));
        }
    }

    #[test]
    fn reach_and_reset() {
        let mut t = Tlb::new(&spec(128));
        // The reach is 128 pages: a first sweep misses on every page and a
        // second one hits on every page.
        for pass in 0..2 {
            for p in 0..128u64 {
                assert_eq!(t.access(p * 4096), pass == 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        let _ = Tlb::new(&spec(0));
    }

    #[test]
    fn mru_fast_path_survives_capacity_one_eviction() {
        let mut t = Tlb::new(&spec(1));
        assert!(!t.access(0));
        assert!(t.access(8), "same page via fast path");
        assert!(!t.access(4096), "replaces the only entry");
        assert!(!t.access(0), "evicted page must miss");
    }

    /// The linear-scan true-LRU TLB this module's O(1) model replaced,
    /// kept as the reference it must match access for access: a
    /// `(page, stamp)` vector searched on every translation, evicting the
    /// first entry with the minimum stamp.
    struct ReferenceTlb {
        entries: Vec<(u64, u64)>, // (page, stamp)
        capacity: usize,
        clock: u64,
        /// Page most recently touched, valid when `last_idx != usize::MAX`.
        /// Invariant: `entries[last_idx].0 == last_page`.
        last_page: u64,
        last_idx: usize,
    }

    impl ReferenceTlb {
        fn new(capacity: usize) -> Self {
            Self {
                entries: Vec::with_capacity(capacity),
                capacity,
                clock: 0,
                last_page: 0,
                last_idx: usize::MAX,
            }
        }

        fn access_page(&mut self, page: u64) -> bool {
            self.clock += 1;
            if page == self.last_page && self.last_idx != usize::MAX {
                self.entries[self.last_idx].1 = self.clock;
                return true;
            }
            if let Some(i) = self.entries.iter().position(|&(p, _)| p == page) {
                self.entries[i].1 = self.clock;
                self.last_page = page;
                self.last_idx = i;
                return true;
            }
            if self.entries.len() < self.capacity {
                self.entries.push((page, self.clock));
                self.last_idx = self.entries.len() - 1;
            } else {
                let mut victim = 0;
                let mut best = self.entries[0].1;
                for (i, &(_, s)) in self.entries.iter().enumerate().skip(1) {
                    if s < best {
                        best = s;
                        victim = i;
                    }
                }
                self.entries[victim] = (page, self.clock);
                self.last_idx = victim;
            }
            self.last_page = page;
            false
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Hit for hit, the O(1) model replays the linear-scan reference
        // over random streams: same-page runs and both address and page
        // entry points, with page universes from half to eight times the
        // capacity.
        #[test]
        fn matches_the_linear_scan_reference(
            cap_idx in 0usize..5,
            universe_idx in 0usize..5,
            ops in prop::collection::vec((0u64..1 << 40, 1u64..5, 0u64..4096), 1..3000),
        ) {
            let capacity = [1usize, 2, 3, 64, 1024][cap_idx];
            let universe = match universe_idx {
                0 => (capacity / 2).max(1),
                1 => capacity,
                2 => capacity + 1,
                3 => 2 * capacity,
                _ => 8 * capacity,
            } as u64;
            let mut fast = Tlb::new(&spec(capacity));
            let mut reference = ReferenceTlb::new(capacity);
            for (step, &(raw, run, offset)) in ops.iter().enumerate() {
                let page = raw % universe;
                for r in 0..run {
                    let hit = if r % 2 == 0 {
                        fast.access_page(page)
                    } else {
                        fast.access((page << fast.page_shift()) | offset)
                    };
                    prop_assert_eq!(hit, reference.access_page(page), "step {} page {}", step, page);
                }
            }
        }
    }

    /// Page number `k` of one sparse family, for the reference proptest
    /// beyond the cap. `step` of `steps` drives the climbing family.
    fn sparse_page(family: usize, k: u64, step: usize, steps: usize) -> u64 {
        let bits = 1 + (step * 50 / steps) as u32;
        match family {
            // Raw pages up to 2^40: every index folds.
            0 => k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 24,
            // A multiple of the bucket count apart: one chain if the fold
            // ever drops the high bits.
            1 => k << BUCKET_BITS,
            // The fold's diagonal: all in bucket 5, so chains grow long
            // and evictions unchain mid-chain.
            2 => (k << BUCKET_BITS) | ((k ^ 5) & (MAX_BUCKETS as u64 - 1)),
            // A resident low working set, interleaved with pages that
            // climb past each power of two while the TLB is full.
            _ if k.is_multiple_of(2) => k,
            _ => (1 << bits) - 1 + (k >> 1 & 1),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The same replay on sparse page families that reach the bucket
        // cap and beyond it: folded indices, long chains with mid-chain
        // evictions, and growth while every slot is live.
        #[test]
        fn matches_the_reference_beyond_the_bucket_cap(
            family in 0usize..4,
            cap_idx in 0usize..4,
            universe_idx in 0usize..3,
            ops in prop::collection::vec((0u64..1 << 40, 1u64..4), 1..3000),
        ) {
            let capacity = [1usize, 3, 64, 1024][cap_idx];
            let universe = [capacity as u64, 2 * capacity as u64 + 1, 8 * capacity as u64][universe_idx];
            let mut fast = Tlb::new(&spec(capacity));
            let mut reference = ReferenceTlb::new(capacity);
            for (step, &(raw, run)) in ops.iter().enumerate() {
                let page = sparse_page(family, raw % universe, step, ops.len());
                for _ in 0..run {
                    prop_assert_eq!(
                        fast.access_page(page),
                        reference.access_page(page),
                        "step {} page {:#x}", step, page
                    );
                }
                prop_assert!(fast.buckets.len() <= MAX_BUCKETS);
            }
        }
    }

    #[test]
    fn bucket_memory_is_bounded_by_the_cap_not_the_working_set() {
        let mut t = Tlb::new(&spec(1024));
        for page in 0..100 {
            t.access_page(page);
        }
        assert_eq!(t.buckets.len(), 128, "grows only to cover the pages seen");
        for bit in 0..=50u32 {
            for delta in [0u64, 1, 3 << 20] {
                let page = (1u64 << bit) + delta;
                t.access_page(page);
                assert!(t.buckets.len() <= MAX_BUCKETS, "page {page:#x}");
            }
        }
        assert_eq!(t.buckets.len(), MAX_BUCKETS);
    }
}
