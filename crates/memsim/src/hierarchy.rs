//! A memory system's cache hierarchy ([`Hierarchy`]), the per-level access
//! profile ([`AccessProfile`]) the timing model prices, and the simulator
//! that produces the profile of a random stream: caches + TLB driven by
//! its addresses.
//!
//! The simulator reads only a memory system's [`Hierarchy`]: each cache
//! level's capacity, line size and associativity, and the TLB's entry count
//! and page size. Bandwidths, latencies, memory-level parallelism, prefetch
//! efficiency and the penalties belong to the [`TimingModel`], which reads
//! the full [`MemorySpec`]. So an [`AccessProfile`] is a function of the
//! hierarchy and the address stream alone, and machines that share a
//! hierarchy share their profiles
//! ([`measure_bandwidth_memo`](crate::bandwidth::measure_bandwidth_memo)).
//!
//! A random measurement's warm-up is not simulated: its simulator is built
//! *settled* (`HierarchySim::settled`), in the state the warm-up leaves,
//! from the warm-up's addresses read backwards. Every cache level and the
//! TLB is an independent state machine keyed on the address sequence, so
//! each is settled on its own (the `cache` and `tlb` module docs give the
//! rule); the measured pass is then driven forward. The simulator serves
//! random streams only: sequential and strided measurements are counted
//! without one
//! ([`measure_bandwidth_memo`](crate::bandwidth::measure_bandwidth_memo)).
//!
//! [`TimingModel`]: crate::timing::TimingModel

use serde::{Deserialize, Serialize};

use crate::cache::Cache;
use crate::spec::{CacheGeometry, TlbGeometry};
use crate::tlb::Tlb;

#[cfg(doc)]
use crate::spec::MemorySpec;

/// Everything the hierarchy simulator reads of a [`MemorySpec`]
/// ([`MemorySpec::hierarchy`]), so two specs with equal hierarchies yield
/// equal profiles for every address stream.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Hierarchy {
    /// Cache levels ordered L1 first.
    pub levels: Vec<CacheGeometry>,
    /// The TLB.
    pub tlb: TlbGeometry,
}

#[cfg(test)]
impl Hierarchy {
    /// A hierarchy of `(log2 line bytes, associativity index, log2 sets)`
    /// levels, associativities drawn from 1-16, and a `(entries, log2 page
    /// bytes)` TLB.
    pub(crate) fn of(levels: &[(u32, usize, u32)], tlb: (usize, u32)) -> Self {
        Self {
            levels: levels
                .iter()
                .map(|&(line_log2, assoc_idx, sets_log2)| {
                    let associativity = [1u32, 2, 3, 4, 8, 12, 16][assoc_idx];
                    let line_bytes = 1u64 << line_log2;
                    CacheGeometry {
                        capacity_bytes: (line_bytes * u64::from(associativity)) << sets_log2,
                        line_bytes,
                        associativity,
                    }
                })
                .collect(),
            tlb: TlbGeometry {
                entries: tlb.0,
                page_bytes: 1 << tlb.1,
            },
        }
    }
}

/// Counters of where accesses were served, plus TLB misses.
///
/// This is the interface between simulation (this module) and timing
/// ([`crate::timing`]): the timing model never sees addresses, only this
/// profile.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccessProfile {
    /// Accesses served per cache level, index 0 = L1.
    pub level_hits: Vec<u64>,
    /// Accesses served by main memory.
    pub memory_hits: u64,
    /// TLB misses encountered.
    pub tlb_misses: u64,
    /// Total bytes requested by the instruction stream (not line traffic).
    pub requested_bytes: u64,
}

impl AccessProfile {
    /// Total accesses recorded.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.level_hits.iter().sum::<u64>() + self.memory_hits
    }

    /// Merge another profile into this one (levels must match).
    pub fn merge(&mut self, other: &AccessProfile) {
        if self.level_hits.len() < other.level_hits.len() {
            self.level_hits.resize(other.level_hits.len(), 0);
        }
        for (a, b) in self.level_hits.iter_mut().zip(&other.level_hits) {
            *a += b;
        }
        self.memory_hits += other.memory_hits;
        self.tlb_misses += other.tlb_misses;
        self.requested_bytes += other.requested_bytes;
    }

    /// Fraction of accesses served at cache level `i` (0 if none recorded).
    #[must_use]
    pub fn level_fraction(&self, i: usize) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            return 0.0;
        }
        self.level_hits.get(i).copied().unwrap_or(0) as f64 / total as f64
    }

    /// Fraction of accesses served by main memory.
    #[must_use]
    pub fn memory_fraction(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            return 0.0;
        }
        self.memory_hits as f64 / total as f64
    }
}

/// Sentinel in [`HierarchySim::access_batch`]'s per-address record for
/// "missed every cache level".
pub(crate) const SERVED_MEMORY: u8 = u8::MAX;

/// An inclusive multi-level cache hierarchy plus TLB, for a run whose every
/// address lies below its span.
#[derive(Debug)]
pub(crate) struct HierarchySim {
    caches: Vec<Cache>,
    tlb: Tlb,
    profile: AccessProfile,
    /// Which level served each address of the current batch
    /// (`SERVED_MEMORY` = none): reused, not reallocated per batch.
    served: Vec<u8>,
    /// Every address must lie below this ([`spanning`](Self::spanning)).
    span: u64,
}

impl HierarchySim {
    /// A simulator for a run whose every address lies below `span` bytes:
    /// each level whose capacity holds the span's lines is first-touch
    /// ([`Cache::spanning`]), the others are LRU. Its profiles equal the
    /// all-LRU simulator's for every such run.
    ///
    /// # Panics
    /// Panics if a cache level's geometry fails validation or the TLB has
    /// no entries or a page size that is not a power of two. Accessing an
    /// address at or above `span` panics.
    pub(crate) fn spanning(hierarchy: &Hierarchy, span: u64) -> Self {
        let caches: Vec<Cache> = hierarchy
            .levels
            .iter()
            .map(|g| Cache::spanning(g, span))
            .collect();
        Self {
            profile: AccessProfile {
                level_hits: vec![0; caches.len()],
                ..AccessProfile::default()
            },
            caches,
            tlb: Tlb::new(&hierarchy.tlb),
            served: Vec::new(),
            span,
        }
    }

    /// A [`spanning`](Self::spanning) simulator in the state accessing
    /// every address of `warmup` in order leaves, with an empty profile:
    /// a measurement's warm-up, built from its addresses instead of
    /// simulated (counter `memsim.warmup.settled`). The addresses still
    /// count towards `memsim.addresses`.
    ///
    /// # Panics
    /// As [`spanning`](Self::spanning), and if a warm-up address lies at or
    /// above `span`.
    pub(crate) fn settled(hierarchy: &Hierarchy, span: u64, warmup: &[u64]) -> Self {
        let mut sim = Self::spanning(hierarchy, span);
        sim.settle(warmup);
        sim
    }

    /// Settle this fresh simulator's levels and TLB from `warmup`.
    fn settle(&mut self, warmup: &[u64]) {
        self.check_span(warmup);
        for c in &mut self.caches {
            c.settle(warmup);
        }
        self.tlb.settle(warmup);
        metasim_obs::counter_add("memsim.addresses", warmup.len() as u64);
        metasim_obs::counter_add("memsim.warmup.settled", 1);
    }

    /// Panic on an address at or above the span, where first-touch levels
    /// would no longer match LRU ones.
    fn check_span(&self, addrs: &[u64]) {
        if let Some(&addr) = addrs.iter().max() {
            assert!(
                addr < self.span,
                "address {addr:#x} lies at or above the simulator's span {:#x}",
                self.span
            );
        }
    }

    /// Simulate a batch of accesses, `bytes` requested at each address.
    ///
    /// Each cache (and the TLB) is an independent state machine keyed only
    /// on the address sequence, so the batch is replayed level by level:
    /// one pass over the TLB, then one per cache level over its
    /// recency-ordered sets (or first-touch bitmap). Every level sees every
    /// address (inclusive hierarchy: outer levels stay LRU-warm), and an
    /// access is served by the first level that hits. Feeding a level the
    /// whole batch before the next level sees any of it leaves each level
    /// in the state an address-by-address replay leaves, bit for bit. This
    /// is the measured pass of every random measurement.
    pub(crate) fn access_batch(&mut self, addrs: &[u64], bytes: u64) {
        debug_assert!(self.caches.len() < SERVED_MEMORY as usize);
        self.check_span(addrs);
        let page_shift = self.tlb.page_shift();
        let mut tlb_misses = 0;
        for &addr in addrs {
            if !self.tlb.access_page(addr >> page_shift) {
                tlb_misses += 1;
            }
        }
        self.served.clear();
        self.served.resize(addrs.len(), SERVED_MEMORY);
        for (level, c) in self.caches.iter_mut().enumerate() {
            c.serve_batch(addrs, level as u8, &mut self.served);
        }
        for &s in &self.served {
            if s == SERVED_MEMORY {
                self.profile.memory_hits += 1;
            } else {
                self.profile.level_hits[s as usize] += 1;
            }
        }
        self.profile.tlb_misses += tlb_misses;
        self.profile.requested_bytes += bytes * addrs.len() as u64;
        metasim_obs::counter_add("memsim.addresses", addrs.len() as u64);
    }

    /// The profile accumulated so far.
    pub(crate) fn profile(&self) -> &AccessProfile {
        &self.profile
    }
}

/// The all-LRU simulator, the scalar access path and the forward warm-up:
/// the references the settled, span-built and batched paths are tested
/// against.
#[cfg(test)]
impl HierarchySim {
    /// An all-LRU simulator for a hierarchy ([`MemorySpec::hierarchy`]).
    pub(crate) fn new(hierarchy: &Hierarchy) -> Self {
        Self::spanning(hierarchy, u64::MAX)
    }

    /// Simulate one access of `bytes` requested at byte address `addr`:
    /// [`access_batch`](Self::access_batch) of one address, level by level
    /// in the interleaved order. Returns the level that served it, `None`
    /// for main memory.
    pub(crate) fn access(&mut self, addr: u64, bytes: u64) -> Option<usize> {
        self.check_span(&[addr]);
        if !self.tlb.access(addr) {
            self.profile.tlb_misses += 1;
        }
        self.profile.requested_bytes += bytes;
        metasim_obs::counter_add("memsim.addresses", 1);
        let mut served = None;
        for (i, c) in self.caches.iter_mut().enumerate() {
            // Every level is touched, to keep outer levels LRU-warm.
            if c.access(addr) && served.is_none() {
                served = Some(i);
            }
        }
        match served {
            Some(i) => self.profile.level_hits[i] += 1,
            None => self.profile.memory_hits += 1,
        }
        served
    }

    /// Clear the collected profile but keep cache/TLB contents (used to
    /// discard warm-up traffic before a measurement pass).
    pub(crate) fn clear_profile(&mut self) {
        self.profile = AccessProfile {
            level_hits: vec![0; self.caches.len()],
            ..AccessProfile::default()
        };
    }

    /// Number of cache levels built first-touch.
    pub(crate) fn first_touch_levels(&self) -> usize {
        self.caches.iter().filter(|c| c.is_first_touch()).count()
    }

    /// Each level's [`Cache::state`] and the TLB's resident pages, most
    /// recently used first: everything that decides future hits.
    pub(crate) fn state(&self) -> (Vec<crate::cache::CacheState>, Vec<u64>) {
        (
            self.caches.iter().map(Cache::state).collect(),
            self.tlb.recency(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::DRIVE_BATCH;
    use crate::spec::{LevelSpec, MemorySpec, TlbSpec};
    use crate::streams::{RandomStream, StridedStream};
    use metasim_stats::rng::SeededRng;
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // A simulator settled from a warm-up holds, way for way and page
        // for page, what driving the warm-up forward through a fresh one
        // leaves, and then profiles a probe stream as that one does. Both
        // for a simulator built for the span (first-touch where a level
        // holds it) against a forward one of the same kind, and for an
        // all-LRU one against a fresh `new` one: 1-4 levels, associativity
        // 1-16, TLBs of 1-64 entries, random and wrapping strided streams,
        // spans that fit a chosen level or exceed it by a line, and
        // warm-ups from empty through shorter than a level up to 3,000.
        #[test]
        fn a_settled_warm_up_equals_the_forward_one(
            levels in prop::collection::vec((4u32..10, 0usize..7, 0u32..8), 1..5),
            tlb in (1usize..65, 9u32..15),
            (held, edge, fill) in (0usize..4, 0u8..4, 0u64..1 << 20),
            random in 0u8..2,
            stride_elems in 1u64..17,
            seed in 0u64..=u64::MAX,
            (empty, warmup) in (0u8..8, 0usize..3000),
            probes in 1usize..2000,
        ) {
            let h = Hierarchy::of(&levels, tlb);
            let level = h.levels[held % h.levels.len()];
            let capacity = level.capacity_bytes / level.line_bytes;
            let lines = match edge {
                0 => capacity,
                1 => capacity + 1,
                _ => 1 + fill % capacity,
            };
            let span = lines * level.line_bytes;
            let warmup = if empty == 0 { 0 } else { warmup };
            let mut addrs = vec![0; warmup + probes];
            if random == 1 {
                RandomStream::new(span, 8, SeededRng::new(seed)).fill(&mut addrs);
            } else {
                StridedStream::new(0, span, stride_elems * 8, 8).fill(&mut addrs);
            }
            let (warm, probe) = addrs.split_at(warmup);
            let mut lru = HierarchySim::new(&h);
            lru.settle(warm);
            for (mut settled, mut forward) in [
                (HierarchySim::settled(&h, span, warm), HierarchySim::spanning(&h, span)),
                (lru, HierarchySim::new(&h)),
            ] {
                forward.access_batch(warm, 8);
                forward.clear_profile();
                prop_assert_eq!(settled.state(), forward.state());
                prop_assert_eq!(settled.profile(), forward.profile());
                settled.access_batch(probe, 8);
                forward.access_batch(probe, 8);
                prop_assert_eq!(settled.profile(), forward.profile());
                prop_assert_eq!(settled.state(), forward.state());
            }
        }
    }

    #[test]
    fn a_settled_warm_up_counts_its_addresses_once() {
        let h = MemorySpec::example_two_level().hierarchy();
        let rec = Arc::new(metasim_obs::InMemoryRecorder::new());
        let recorder = Arc::clone(&rec) as Arc<dyn metasim_obs::Recorder>;
        let warm: Vec<u64> = (0..1000).map(|k| k * 4096 % (1 << 20)).collect();
        let sim =
            metasim_obs::with_recorder(recorder, || HierarchySim::settled(&h, 1 << 20, &warm));
        assert_eq!(
            sim.profile().total_accesses(),
            0,
            "the warm-up is not profiled"
        );
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter("memsim.warmup.settled"), 1);
        assert_eq!(snap.counter("memsim.addresses"), 1000);
    }

    #[test]
    #[should_panic(expected = "at or above the simulator's span")]
    fn a_warm_up_address_at_the_span_panics() {
        let h = MemorySpec::example_two_level().hierarchy();
        let _ = HierarchySim::settled(&h, 4096, &[0, 4096]);
    }

    #[test]
    fn l1_resident_sweep_hits_l1_after_warmup() {
        let spec = MemorySpec::example_two_level();
        let mut sim = HierarchySim::new(&spec.hierarchy());
        let lines = (spec.levels[0].capacity_bytes / spec.levels[0].line_bytes) / 2;
        for _ in 0..2 {
            for i in 0..lines {
                sim.access(i * 64, 8);
            }
        }
        sim.clear_profile();
        for i in 0..lines {
            assert_eq!(sim.access(i * 64, 8), Some(0));
        }
        let p = sim.profile();
        assert_eq!(p.level_hits[0], lines);
        assert_eq!(p.memory_hits, 0);
        assert_eq!(p.requested_bytes, lines * 8);
    }

    #[test]
    fn l2_resident_sweep_served_by_l2() {
        let spec = MemorySpec::example_two_level();
        let mut sim = HierarchySim::new(&spec.hierarchy());
        // Working set: half of L2 but 8x L1 — cyclic sweep defeats L1's LRU.
        let ws = spec.levels[1].capacity_bytes / 2;
        let lines = ws / 64;
        for _ in 0..2 {
            for i in 0..lines {
                sim.access(i * 64, 8);
            }
        }
        sim.clear_profile();
        for i in 0..lines {
            sim.access(i * 64, 8);
        }
        let p = sim.profile();
        assert_eq!(p.memory_hits, 0, "should not reach memory");
        assert!(
            p.level_hits[1] > p.level_hits[0],
            "L2 should dominate: {:?}",
            p.level_hits
        );
    }

    #[test]
    fn oversized_sweep_reaches_memory() {
        let spec = MemorySpec::example_two_level();
        let mut sim = HierarchySim::new(&spec.hierarchy());
        let ws = spec.levels[1].capacity_bytes * 4;
        let lines = ws / 64;
        for _ in 0..2 {
            for i in 0..lines {
                sim.access(i * 64, 8);
            }
        }
        sim.clear_profile();
        for i in 0..lines {
            sim.access(i * 64, 8);
        }
        let p = sim.profile();
        assert!(
            p.memory_hits as f64 > 0.9 * lines as f64,
            "cyclic over-capacity sweep should stream from memory: {p:?}"
        );
    }

    #[test]
    fn profile_merge_and_fractions() {
        let mut a = AccessProfile {
            level_hits: vec![3, 1],
            memory_hits: 1,
            tlb_misses: 2,
            requested_bytes: 40,
        };
        let b = AccessProfile {
            level_hits: vec![1, 0],
            memory_hits: 4,
            tlb_misses: 0,
            requested_bytes: 40,
        };
        a.merge(&b);
        assert_eq!(a.total_accesses(), 10);
        assert!((a.level_fraction(0) - 0.4).abs() < 1e-12);
        assert!((a.memory_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(a.tlb_misses, 2);
        assert_eq!(a.requested_bytes, 80);
    }

    #[test]
    fn empty_profile_fractions_are_zero() {
        let p = AccessProfile::default();
        assert_eq!(p.level_fraction(0), 0.0);
        assert_eq!(p.memory_fraction(), 0.0);
        assert_eq!(p.total_accesses(), 0);
    }

    #[test]
    fn a_spanning_simulator_is_first_touch_only_where_the_span_fits() {
        let h = MemorySpec::example_two_level().hierarchy();
        let l1 = h.levels[0].capacity_bytes;
        for (span, first_touch) in [
            (64, 2),
            (l1, 2),
            (l1 + 1, 1),
            (h.levels[1].capacity_bytes + 1, 0),
        ] {
            let sim = HierarchySim::spanning(&h, span);
            assert_eq!(sim.first_touch_levels(), first_touch, "span {span}");
        }
        assert_eq!(HierarchySim::new(&h).first_touch_levels(), 0);
    }

    #[test]
    #[should_panic(expected = "at or above the simulator's span")]
    fn a_batch_address_at_the_span_panics() {
        let mut sim = HierarchySim::spanning(&MemorySpec::example_two_level().hierarchy(), 4096);
        sim.access_batch(&[0, 4088, 4096], 8);
    }

    #[test]
    #[should_panic(expected = "at or above the simulator's span")]
    fn a_scalar_address_past_the_span_panics_even_when_every_level_is_lru() {
        let h = MemorySpec::example_two_level().hierarchy();
        let span = h.levels[1].capacity_bytes * 2;
        let mut sim = HierarchySim::spanning(&h, span);
        assert_eq!(sim.first_touch_levels(), 0);
        sim.access(span - 8, 8);
        sim.access(span + 4096, 8);
    }

    #[test]
    fn merge_grows_level_vector() {
        let mut a = AccessProfile::default();
        let b = AccessProfile {
            level_hits: vec![5, 6, 7],
            ..AccessProfile::default()
        };
        a.merge(&b);
        assert_eq!(a.level_hits, vec![5, 6, 7]);
    }

    proptest! {
        // Hits + misses always equals accesses.
        #[test]
        fn conservation_of_accesses(seed in 0u64..1000, n in 1u64..4000) {
            let spec = MemorySpec::example_two_level();
            let mut sim = HierarchySim::new(&spec.hierarchy());
            let mut rng = SeededRng::new(seed);
            for _ in 0..n {
                sim.access(rng.next_below(1 << 22), 8);
            }
            prop_assert_eq!(sim.profile().total_accesses(), n);
            prop_assert_eq!(sim.profile().requested_bytes, n * 8);
        }
    }

    /// A randomized but always-valid memory spec: one or two cache levels
    /// with power-of-two geometry and a deliberately tiny TLB so batches of
    /// a few thousand addresses exercise TLB misses and evictions, not just
    /// hits.
    fn arb_spec() -> impl Strategy<Value = MemorySpec> {
        (
            1u32..=3,    // log2 L1 associativity
            3u32..=6,    // log2 L1 sets
            5u32..=7,    // log2 L1 line bytes
            0u32..=2,    // log2 L2 capacity multiplier beyond 4x L1
            0u8..=1,     // include an L2 at all?
            1usize..=12, // TLB entries
        )
            .prop_map(|(assoc, sets, line, l2_mult, two_level, tlb_entries)| {
                let two_level = two_level == 1;
                let l1_line = 1u64 << line;
                let l1 = LevelSpec {
                    capacity_bytes: (1 << assoc) * (1 << sets) * l1_line,
                    line_bytes: l1_line,
                    associativity: 1 << assoc,
                    load_bandwidth: 16e9,
                    latency: 2e-9,
                };
                let l2 = LevelSpec {
                    capacity_bytes: l1.capacity_bytes * 4 * (1 << l2_mult),
                    line_bytes: l1_line,
                    associativity: 8,
                    load_bandwidth: 8e9,
                    latency: 10e-9,
                };
                let mut spec = MemorySpec::example_two_level();
                spec.levels = if two_level { vec![l1, l2] } else { vec![l1] };
                spec.tlb = TlbSpec {
                    entries: tlb_entries,
                    page_bytes: 4096,
                    miss_penalty: 60e-9,
                };
                spec.validate().expect("generated spec must be valid");
                spec
            })
    }

    /// A randomized address sequence long enough to span several drive
    /// batches, mixing monotone strides with wrap, uniform random and
    /// immediate repeats, including partial final batches.
    fn arb_addresses() -> impl Strategy<Value = Vec<u64>> {
        (
            0u8..3,
            0u64..1000,
            8u64..512,
            (DRIVE_BATCH * 2 + 1)..(DRIVE_BATCH * 3 + 57),
        )
            .prop_map(|(pattern, seed, stride, n)| {
                let mut rng = SeededRng::new(seed);
                let ws = 1u64 << (14 + (seed % 8)); // 16 KiB .. 2 MiB
                (0..n)
                    .map(|i| match pattern {
                        0 => (i as u64 * stride) % ws,   // monotone stride, wraps
                        1 => rng.next_below(ws / 8) * 8, // uniform random
                        _ => rng.next_below(ws / 64) * 8 * (i as u64 % 3), // repeats
                    })
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The level-by-level `access_batch` is bit-identical to the scalar
        // per-address `access` loop: same profile (level hits, memory hits,
        // TLB misses, bytes) and same cache/TLB state afterwards, for
        // arbitrary specs and streams.
        #[test]
        fn access_batch_is_bit_identical_to_scalar_access(
            spec in arb_spec(),
            addrs in arb_addresses(),
        ) {
            let mut batched = HierarchySim::new(&spec.hierarchy());
            let mut scalar = HierarchySim::new(&spec.hierarchy());
            for chunk in addrs.chunks(DRIVE_BATCH) {
                batched.access_batch(chunk, 8);
            }
            for &a in &addrs {
                scalar.access(a, 8);
            }
            prop_assert_eq!(batched.profile(), scalar.profile());

            // State equivalence, not just profile equivalence: replaying a
            // probe sequence after the divergence point must match too
            // (this catches state drift the counters would hide).
            batched.clear_profile();
            scalar.clear_profile();
            let probe: Vec<u64> = addrs.iter().rev().copied().collect();
            for chunk in probe.chunks(DRIVE_BATCH) {
                batched.access_batch(chunk, 8);
            }
            for &a in &probe {
                scalar.access(a, 8);
            }
            prop_assert_eq!(batched.profile(), scalar.profile());
            prop_assert_eq!(batched.state(), scalar.state());
        }
    }
}
