//! A set-associative cache with true-LRU replacement.
//!
//! The simulator models tag state only (no data), which is all a timing study
//! needs. Associativity in the fleet this workspace models is small (1–16
//! ways), so each set is a tiny array kept in recency order, most recently
//! used way first. An access carries its line in at the front and walks the
//! set once, each way taking the line before it: the walk stops where it
//! meets the line (a hit, whose way moved to the front) or drops the tail
//! way off the end (a miss, evicting the least recently used way). Empty
//! ways sit at the tail of their set, so they are consumed before any
//! eviction happens.
//!
//! A cache remembers which chunks of 64 sets a miss filled, so dropping it
//! re-empties only those: a run that touched a few sets of a 16 MiB tag
//! array clears a few KiB, and the array goes back to the tag pool clean.
//!
//! A cache built for a known *span* (`Cache::spanning`: every address the
//! run will access lies below it) whose lines all fit in the cache keeps no
//! sets at all. Set `s` then only ever receives lines `l ≡ s (mod sets)`
//! below the span's `L` lines, at most `ceil(L / sets) ≤ assoc` of them, so
//! no set overflows and no line is ever evicted: an access hits exactly
//! when its line was touched before. Such a *first-touch* cache keeps one
//! bit per line of the span and takes nothing from the tag pool; its hits
//! and misses are the LRU cache's, access for access. Only random
//! measurements build caches for a span, and only they settle one (below):
//! sweeps are counted without a cache.
//!
//! A fresh cache can also be *settled* (`Cache::settle`): put directly in
//! the state a run of addresses would leave, without simulating the run.
//! Starting empty, true LRU leaves each set holding the `assoc` most
//! recently used distinct lines that map to it, in recency order, with
//! empty ways after them. So the run is read backwards and each set keeps
//! the first `assoc` distinct lines it meets, in the order met; the scan
//! stops once every set is full, which for a small L1 is a few thousand
//! addresses into a run of tens of thousands. Nothing is shifted, and a
//! chunk is marked touched when its first way fills, as a forward miss
//! would have marked it. A first-touch cache marks every line of the run.
//!
//! A batch of accesses is served level by level (`Cache::serve_batch`),
//! one store lookup per address. A repeat of the line just touched needs
//! no shortcut: an LRU set holds it at way 0, where the walk stops at
//! once, and a first-touch bitmap already has its bit set.

use crate::hierarchy::SERVED_MEMORY;
use crate::spec::CacheGeometry;
use crate::tag_pool::{TagPool, EMPTY};

/// Log2 of [`CHUNK_SETS`].
const CHUNK_SHIFT: u32 = 6;

/// Sets per chunk of the touched-chunk bitmap.
const CHUNK_SETS: usize = 1 << CHUNK_SHIFT;

/// Where every cache's tag array comes from and goes back to.
static TAGS: TagPool = TagPool::new();

/// A set-associative LRU cache over 64-bit byte addresses (kept first-touch
/// when it holds a run's whole span, with the same hits and misses).
#[derive(Debug)]
pub(crate) struct Cache {
    tags: Tags,
    line_shift: u32,
}

/// How a cache remembers the lines it holds.
#[derive(Debug)]
enum Tags {
    /// Recency-ordered sets: the general case.
    Lru(Sets),
    /// One bit per line of a span the cache can hold whole.
    FirstTouch(Seen),
}

/// Either kind of line store.
trait Store {
    /// Touch `line`: `true` if the store held it (a hit); otherwise it is
    /// filled.
    fn touch(&mut self, line: u64) -> bool;
}

/// The LRU tag array.
#[derive(Debug)]
struct Sets {
    /// Line number per way (`addr >> line_shift`), `assoc` ways per set,
    /// each set ordered most to least recently used; [`EMPTY`] marks an
    /// unused way.
    ways: Vec<u64>,
    /// One bit per chunk of [`CHUNK_SETS`] sets, set when a miss fills a
    /// way in the chunk. Every way outside the marked chunks is [`EMPTY`].
    touched: Vec<u64>,
    assoc: usize,
    set_mask: u64,
    /// Lends `ways` and takes it back on drop.
    pool: &'static TagPool,
}

/// The lines of a span seen so far, for a cache that never evicts.
#[derive(Debug)]
struct Seen {
    /// Bit `l` is set once line `l` has been accessed.
    bits: Vec<u64>,
    /// Lines in the span; a line at or beyond it is outside the rule.
    lines: u64,
}

impl Cache {
    /// Build a cache for a run whose every address lies below `span`
    /// bytes. When the span's lines fit in the cache it is first-touch
    /// (counter `memsim.level.first_touch`), otherwise it is LRU; either
    /// way its hits and misses are the LRU cache's for every run that stays
    /// below the span. A span of `u64::MAX` always builds the LRU cache.
    ///
    /// # Panics
    /// Panics if the geometry fails validation.
    pub(crate) fn spanning(geometry: &CacheGeometry, span: u64) -> Self {
        geometry.validate().expect("invalid cache spec");
        let lines = span.div_ceil(geometry.line_bytes);
        if lines > geometry.capacity_bytes / geometry.line_bytes {
            return Self::with_tags(geometry, Tags::Lru(Sets::new(geometry, &TAGS)));
        }
        metasim_obs::counter_add("memsim.level.first_touch", 1);
        let bits = vec![0; lines.div_ceil(64) as usize];
        Self::with_tags(geometry, Tags::FirstTouch(Seen { bits, lines }))
    }

    fn with_tags(geometry: &CacheGeometry, tags: Tags) -> Self {
        Self {
            tags,
            line_shift: geometry.line_bytes.trailing_zeros(),
        }
    }

    /// Put this fresh cache in the state accessing every address of
    /// `addrs` in order would leave, without simulating the accesses. See
    /// the module doc for why the state is the forward run's, way for way.
    pub(crate) fn settle(&mut self, addrs: &[u64]) {
        let shift = self.line_shift;
        match &mut self.tags {
            Tags::Lru(sets) => sets.settle(addrs.iter().rev().map(|&a| a >> shift)),
            Tags::FirstTouch(seen) => {
                for &a in addrs {
                    seen.touch(a >> shift);
                }
            }
        }
    }

    /// Access every address of `addrs` in order and mark in `served` (one
    /// entry per address) each access that hits here and is not yet
    /// marked, with `level`. Unmarked entries hold
    /// [`SERVED_MEMORY`](crate::hierarchy::SERVED_MEMORY). The store is
    /// chosen once per batch, not once per access.
    pub(crate) fn serve_batch(&mut self, addrs: &[u64], level: u8, served: &mut [u8]) {
        let shift = self.line_shift;
        match &mut self.tags {
            Tags::Lru(sets) => serve(sets, shift, addrs, level, served),
            Tags::FirstTouch(seen) => serve(seen, shift, addrs, level, served),
        }
    }

    /// Access the line containing byte address `addr`. Returns `true` on hit.
    /// On miss the line is filled, evicting the set's LRU way.
    #[cfg(test)]
    pub(crate) fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        match &mut self.tags {
            Tags::Lru(sets) => sets.touch(line),
            Tags::FirstTouch(seen) => seen.touch(line),
        }
    }

    /// Whether this cache was built first-touch ([`spanning`](Self::spanning)).
    #[cfg(test)]
    pub(crate) fn is_first_touch(&self) -> bool {
        matches!(self.tags, Tags::FirstTouch(_))
    }

    /// Everything that decides this cache's future hits: its ways and
    /// touched chunks, or its seen lines.
    #[cfg(test)]
    pub(crate) fn state(&self) -> CacheState {
        match &self.tags {
            Tags::Lru(sets) => CacheState::Lru {
                ways: sets.ways.clone(),
                touched: sets.touched.clone(),
            },
            Tags::FirstTouch(seen) => CacheState::FirstTouch {
                bits: seen.bits.clone(),
            },
        }
    }

    /// Probe without updating state (no fill, no LRU touch).
    #[cfg(test)]
    pub(crate) fn contains(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        match &self.tags {
            Tags::Lru(sets) => sets.contains(line),
            Tags::FirstTouch(seen) => seen.contains(line),
        }
    }
}

/// A snapshot of [`Cache::state`].
#[cfg(test)]
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum CacheState {
    Lru { ways: Vec<u64>, touched: Vec<u64> },
    FirstTouch { bits: Vec<u64> },
}

/// [`Cache::serve_batch`] over a store of known kind.
fn serve<S: Store>(store: &mut S, shift: u32, addrs: &[u64], level: u8, served: &mut [u8]) {
    for (&addr, s) in addrs.iter().zip(served) {
        if store.touch(addr >> shift) && *s == SERVED_MEMORY {
            *s = level;
        }
    }
}

impl Sets {
    /// Empty sets of a validated geometry.
    fn new(geometry: &CacheGeometry, pool: &'static TagPool) -> Self {
        let sets = geometry.sets() as usize;
        let assoc = geometry.associativity as usize;
        Self {
            ways: pool.take(sets * assoc),
            touched: vec![0; sets.div_ceil(CHUNK_SETS).div_ceil(64)],
            assoc,
            set_mask: sets as u64 - 1,
            pool,
        }
    }

    #[cfg(test)]
    fn contains(&self, line: u64) -> bool {
        let base = (line & self.set_mask) as usize * self.assoc;
        self.ways[base..base + self.assoc].contains(&line)
    }

    /// Fill these empty sets from `lines`, most recently used first: each
    /// set keeps the first `assoc` distinct lines it meets, in that order,
    /// and the scan stops once every set is full.
    fn settle(&mut self, lines: impl Iterator<Item = u64>) {
        debug_assert!(
            self.touched.iter().all(|&w| w == 0),
            "only a fresh cache can be settled"
        );
        let assoc = self.assoc;
        let mut open = self.set_mask + 1;
        for line in lines {
            let set_index = (line & self.set_mask) as usize;
            let set = &mut self.ways[set_index * assoc..][..assoc];
            if set[assoc - 1] != EMPTY {
                // Full: `line` is older than every way it holds.
                continue;
            }
            for (way, held) in set.iter_mut().enumerate() {
                if *held == line {
                    break;
                }
                if *held == EMPTY {
                    *held = line;
                    if way == 0 {
                        let chunk = set_index >> CHUNK_SHIFT;
                        self.touched[chunk / 64] |= 1 << (chunk % 64);
                    }
                    if way == assoc - 1 {
                        open -= 1;
                    }
                    break;
                }
            }
            if open == 0 {
                return;
            }
        }
    }

    /// Re-empty every chunk a miss filled and unmark it: afterwards every
    /// way is [`EMPTY`].
    fn clear_touched(&mut self) {
        let chunk_ways = CHUNK_SETS * self.assoc;
        for (w, word) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let start = (w * 64 + bits.trailing_zeros() as usize) * chunk_ways;
                let end = self.ways.len().min(start + chunk_ways);
                self.ways[start..end].fill(EMPTY);
                bits &= bits - 1;
            }
        }
    }
}

impl Store for Sets {
    /// Move `line` to the front of its set; `true` if it was there (a hit),
    /// otherwise it is filled and the set's LRU way dropped.
    #[inline]
    fn touch(&mut self, line: u64) -> bool {
        let set_index = (line & self.set_mask) as usize;
        let base = set_index * self.assoc;
        // Carry the line in at the front; each way takes the one before it
        // until the line itself turns up (a hit at position k: ways 0..k
        // moved back one step) or the last way is carried off the end (a
        // miss: the LRU victim, or an empty way, is dropped).
        let mut carried = line;
        for way in &mut self.ways[base..base + self.assoc] {
            let held = std::mem::replace(way, carried);
            if held == line {
                return true;
            }
            carried = held;
        }
        let chunk = set_index >> CHUNK_SHIFT;
        self.touched[chunk / 64] |= 1 << (chunk % 64);
        false
    }
}

impl Drop for Sets {
    fn drop(&mut self) {
        if TagPool::keeps(self.ways.len()) {
            self.clear_touched();
        }
        self.pool.give(std::mem::take(&mut self.ways));
    }
}

#[cfg(test)]
impl Seen {
    fn contains(&self, line: u64) -> bool {
        line < self.lines && self.bits[(line >> 6) as usize] & (1 << (line & 63)) != 0
    }
}

impl Store for Seen {
    /// Mark `line` seen; `true` if it already was. The line lies inside
    /// the span: the hierarchy simulator refuses addresses at or above it,
    /// where a first-touch cache would no longer match the LRU one.
    #[inline]
    fn touch(&mut self, line: u64) -> bool {
        debug_assert!(line < self.lines, "line {line} lies beyond the span");
        let (word, bit) = (&mut self.bits[(line >> 6) as usize], 1u64 << (line & 63));
        let seen = *word & bit != 0;
        *word |= bit;
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim_stats::rng::SeededRng;
    use proptest::prelude::*;

    /// An LRU cache of `assoc` ways and `sets` sets of 64-byte lines.
    fn tiny(assoc: u32, sets: u64) -> Cache {
        Cache::spanning(
            &CacheGeometry {
                capacity_bytes: 64 * u64::from(assoc) * sets,
                line_bytes: 64,
                associativity: assoc,
            },
            u64::MAX,
        )
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = tiny(2, 4);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Direct-mapped-like behaviour inside one set: assoc 2, sets 1.
        let mut c = tiny(2, 1);
        c.access(0); // A miss, fills way
        c.access(64); // B miss, fills way
        c.access(0); // A hit (A is now MRU)
        c.access(128); // C miss, evicts B (LRU)
        assert!(c.contains(0), "A should survive");
        assert!(!c.contains(64), "B should be evicted");
        assert!(c.contains(128));
    }

    #[test]
    fn set_indexing_separates_conflicting_lines() {
        let mut c = tiny(1, 2); // direct-mapped, 2 sets
                                // line 0 -> set 0, line 1 -> set 1, line 2 -> set 0
        assert!(!c.access(0));
        assert!(!c.access(64));
        assert!(c.access(0), "set 1 fill must not evict set 0");
        assert!(!c.access(128), "conflicting line misses");
        assert!(!c.access(0), "and evicts the original");
    }

    #[test]
    fn working_set_within_capacity_fully_hits_after_warmup() {
        let mut c = tiny(4, 16); // 4 KiB
        let lines = 4 * 16;
        for pass in 0..3 {
            for i in 0..lines {
                let hit = c.access(i * 64);
                if pass > 0 {
                    assert!(hit, "pass {pass} line {i} should hit");
                }
            }
        }
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes_under_lru() {
        let mut c = tiny(4, 4); // 16 lines capacity
        let lines = 32; // 2x capacity, cyclic sweep defeats LRU entirely
        for _ in 0..3 {
            for i in 0..lines {
                c.access(i * 64);
            }
        }
        // After warmup, cyclic sweep over 2x capacity yields ~0% hits with LRU.
        for i in 0..lines {
            assert!(
                !c.access(i * 64),
                "cyclic over-capacity sweep should never hit"
            );
        }
    }

    #[test]
    fn contains_does_not_mutate() {
        let mut c = tiny(2, 2);
        c.access(0);
        let state = c.state();
        assert!(c.contains(0));
        assert!(!c.contains(4096));
        assert_eq!(c.state(), state);
    }

    #[test]
    fn high_addresses_do_not_wrap() {
        let mut c = tiny(2, 4);
        let base = 1u64 << 40;
        assert!(!c.access(base));
        assert!(c.access(base + 8));
        assert!(!c.access(base + 64));
    }

    /// An LRU cache whose tag array comes from `pool`.
    fn new_in(geometry: &CacheGeometry, pool: &'static TagPool) -> Cache {
        Cache::with_tags(geometry, Tags::Lru(Sets::new(geometry, pool)))
    }

    /// The tag array of an LRU cache.
    fn ways(c: &Cache) -> &[u64] {
        match &c.tags {
            Tags::Lru(sets) => &sets.ways,
            Tags::FirstTouch(_) => panic!("a first-touch cache has no tag array"),
        }
    }

    #[test]
    fn dropped_tag_arrays_are_recycled_empty() {
        static POOL: TagPool = TagPool::new();
        // A pooled array, and one with fewer sets than a single chunk (and
        // so than one bitmap word) covers, at an associativity that is not
        // a power of two.
        for spec in [
            CacheGeometry {
                capacity_bytes: 64 << 20,
                line_bytes: 64,
                associativity: 8,
            },
            CacheGeometry {
                capacity_bytes: 64 * 3 * 16,
                line_bytes: 64,
                associativity: 3,
            },
        ] {
            let sets = spec.sets();
            let pooled = TagPool::keeps(sets as usize * spec.associativity as usize);
            // One more line than the set holds, in one set of every chunk.
            let fill = |c: &mut Cache| {
                for chunk in 0..sets.div_ceil(CHUNK_SETS as u64) {
                    let set = (chunk * CHUNK_SETS as u64 + chunk % CHUNK_SETS as u64) % sets;
                    for k in 0..=u64::from(spec.associativity) {
                        c.access((set + k * sets) * 64);
                    }
                }
            };
            let all_empty = |c: &Cache| ways(c).iter().all(|&w| w == EMPTY);

            let mut c = new_in(&spec, &POOL);
            assert!(all_empty(&c));
            fill(&mut c);
            assert!(!c.contains(0) && c.contains(sets * 64));
            let ptr = ways(&c).as_ptr();
            drop(c);
            let mut c = new_in(&spec, &POOL);
            if pooled {
                assert_eq!(ways(&c).as_ptr(), ptr, "the spare must be reused");
            }
            assert!(all_empty(&c), "{spec:?}: a recycled array kept a line");
            // Two caches live at once take two arrays; both come back empty.
            let mut d = new_in(&spec, &POOL);
            fill(&mut c);
            fill(&mut d);
            drop(c);
            drop(d);
            let c = new_in(&spec, &POOL);
            let mut e = new_in(&spec, &POOL);
            assert!(all_empty(&c), "{spec:?}: a recycled array kept a line");
            assert!(all_empty(&e), "{spec:?}: a recycled array kept a line");
            assert!(!e.access(0));
        }
        assert_eq!(POOL.spare_ptrs().len(), 2, "both pooled arrays come back");
    }

    #[test]
    fn mru_fast_path_survives_interleaved_fills() {
        // An assoc-1 cache where a conflicting fill replaces the line just
        // touched: a repeat of that line must not hit afterwards.
        let mut c = tiny(1, 1);
        assert!(!c.access(0)); // fills the only way
        assert!(c.access(0)); // a repeat of the line just touched
        assert!(!c.access(64)); // evicts line 0
        assert!(!c.access(0), "evicted line must miss");
        assert!(c.access(0), "and hit after refill");
    }

    /// The stamp-based cache this module's recency-ordered sets replaced,
    /// kept as the reference they must match access for access: tags and
    /// monotone last-touch stamps in parallel arrays, `u64::MAX` marking an
    /// empty way, a miss filling the first way with the minimum stamp.
    struct ReferenceCache {
        tags: Vec<u64>,
        stamps: Vec<u64>,
        assoc: usize,
        set_mask: u64,
        clock: u64,
        /// Line most recently touched, valid when `last_way != usize::MAX`.
        /// Invariant: `tags[last_way] == last_line`.
        last_line: u64,
        last_way: usize,
    }

    impl ReferenceCache {
        fn new(assoc: usize, sets: usize) -> Self {
            Self {
                tags: vec![u64::MAX; assoc * sets],
                stamps: vec![0; assoc * sets],
                assoc,
                set_mask: sets as u64 - 1,
                clock: 0,
                last_line: 0,
                last_way: usize::MAX,
            }
        }

        fn access_line(&mut self, line: u64) -> bool {
            self.clock += 1;
            if line == self.last_line && self.last_way != usize::MAX {
                self.stamps[self.last_way] = self.clock;
                return true;
            }
            let base = (line & self.set_mask) as usize * self.assoc;
            let mut way = usize::MAX;
            for (i, &t) in self.tags[base..base + self.assoc].iter().enumerate() {
                if t == line {
                    way = base + i;
                }
            }
            if way != usize::MAX {
                self.stamps[way] = self.clock;
                self.last_line = line;
                self.last_way = way;
                return true;
            }
            let stamps = &self.stamps[base..base + self.assoc];
            let mut victim = 0;
            let mut best = stamps[0];
            for (i, &s) in stamps.iter().enumerate().skip(1) {
                if s < best {
                    best = s;
                    victim = i;
                }
            }
            let way = base + victim;
            self.tags[way] = line;
            self.stamps[way] = self.clock;
            self.last_line = line;
            self.last_way = way;
            false
        }

        fn contains_line(&self, line: u64) -> bool {
            let base = (line & self.set_mask) as usize * self.assoc;
            self.tags[base..base + self.assoc].contains(&line)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Hit for hit, the recency-ordered sets replay the stamp-based
        // reference over random streams: same-line runs, both single
        // accesses and batches, and `contains` probes, with line universes
        // from half to eight times the capacity.
        #[test]
        fn matches_the_stamp_based_reference(
            assoc_idx in 0usize..7,
            sets_log2 in 0u32..7,
            universe_idx in 0usize..5,
            ops in prop::collection::vec((0u64..1 << 40, 1usize..4, 0u64..64, 0u64..1 << 40), 1..2000),
        ) {
            let assoc = [1u32, 2, 3, 4, 8, 12, 16][assoc_idx];
            let sets = 1u64 << sets_log2;
            let capacity = u64::from(assoc) * sets;
            let universe = match universe_idx {
                0 => (capacity / 2).max(1),
                1 => capacity,
                2 => capacity + 1,
                3 => 2 * capacity,
                _ => 8 * capacity,
            };
            let mut fast = tiny(assoc, sets);
            let mut reference = ReferenceCache::new(assoc as usize, sets as usize);
            for (step, &(raw, run, offset, probe)) in ops.iter().enumerate() {
                let line = raw % universe;
                let probed = probe % universe;
                prop_assert_eq!(
                    fast.contains((probed << fast.line_shift) | offset),
                    reference.contains_line(probed),
                    "step {} probe {}", step, probed
                );
                let addrs = vec![(line << fast.line_shift) | offset; run];
                // Every other step goes through one batch.
                let hits: Vec<bool> = if step % 2 == 0 {
                    addrs.iter().map(|&a| fast.access(a)).collect()
                } else {
                    let mut served = vec![SERVED_MEMORY; run];
                    fast.serve_batch(&addrs, 0, &mut served);
                    served.iter().map(|&s| s == 0).collect()
                };
                for hit in hits {
                    prop_assert_eq!(hit, reference.access_line(line), "step {} line {}", step, line);
                }
            }
        }
    }

    proptest! {
        // Cache behaviour is a function of the address sequence only:
        // replaying a sequence yields identical hits and an identical
        // final state.
        #[test]
        fn cache_replay_is_deterministic(seed in 0u64..1000, n in 1usize..2000) {
            let mut rng = SeededRng::new(seed);
            let addrs: Vec<u64> = (0..n).map(|_| rng.next_below(1 << 16)).collect();
            let (mut a, mut b) = (tiny(2, 32), tiny(2, 32));
            let ra: Vec<bool> = addrs.iter().map(|&x| a.access(x)).collect();
            let rb: Vec<bool> = addrs.iter().map(|&x| b.access(x)).collect();
            prop_assert_eq!(ra, rb);
            prop_assert_eq!(a.state(), b.state());
        }

        // A repeat access to the immediately preceding address always hits.
        #[test]
        fn immediate_repeat_always_hits(seed in 0u64..1000) {
            let mut c = tiny(2, 32);
            let mut rng = SeededRng::new(seed);
            for _ in 0..500 {
                let a = rng.next_below(1 << 20);
                c.access(a);
                prop_assert!(c.access(a), "second touch of {a} must hit");
            }
        }
    }
}
