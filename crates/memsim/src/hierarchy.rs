//! The multi-level hierarchy simulator: caches + TLB driven by address
//! streams, producing per-level access profiles for the timing model.
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
//! each is settled on its own ([`Cache`]'s and [`Tlb`]'s module docs give
//! the rule); the measured pass is then driven forward as before. Settled
//! and span-built simulators serve random streams only: sequential and
//! strided measurements are counted without a simulator
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

/// Which level served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LevelHit {
    /// Served by cache level `0`-based index (0 = L1).
    Cache(usize),
    /// Missed all cache levels; served by main memory.
    Memory,
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

/// Sentinel in [`BatchScratch::served`] for "missed every cache level".
pub(crate) const SERVED_MEMORY: u8 = u8::MAX;

/// Reusable per-batch working memory for [`HierarchySim::access_batch`]:
/// allocated once per simulator, not once per 1,024-address buffer on the
/// measurement hot path.
#[derive(Debug, Clone, Default)]
struct BatchScratch {
    /// Which level served each address of the current batch
    /// (`SERVED_MEMORY` = none).
    served: Vec<u8>,
    /// Per-level hit counters for the current batch.
    level_hits: Vec<u64>,
}

/// An inclusive multi-level cache hierarchy plus TLB.
#[derive(Debug, Clone)]
pub struct HierarchySim {
    caches: Vec<Cache>,
    tlb: Tlb,
    profile: AccessProfile,
    scratch: BatchScratch,
    /// Every address must lie below this ([`spanning`](Self::spanning)).
    span: Option<u64>,
}

impl HierarchySim {
    /// Build a simulator for a hierarchy ([`MemorySpec::hierarchy`]).
    ///
    /// # Panics
    /// Panics if a cache level's geometry fails validation or the TLB has
    /// no entries or a page size that is not a power of two.
    #[must_use]
    pub fn new(hierarchy: &Hierarchy) -> Self {
        Self::with_caches(hierarchy, hierarchy.levels.iter().map(Cache::new), None)
    }

    /// A simulator for a run whose every address lies below `span` bytes:
    /// each level whose capacity holds the span's lines is first-touch
    /// ([`Cache::spanning`]), the others are LRU. Its profiles equal
    /// [`new`](Self::new)'s for every such run.
    ///
    /// # Panics
    /// As [`new`](Self::new); accessing an address at or above `span`
    /// panics.
    pub(crate) fn spanning(hierarchy: &Hierarchy, span: u64) -> Self {
        let caches = hierarchy.levels.iter().map(|g| Cache::spanning(g, span));
        Self::with_caches(hierarchy, caches, Some(span))
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

    fn with_caches(
        hierarchy: &Hierarchy,
        caches: impl Iterator<Item = Cache>,
        span: Option<u64>,
    ) -> Self {
        let caches = caches.collect::<Vec<_>>();
        let profile = AccessProfile {
            level_hits: vec![0; caches.len()],
            ..AccessProfile::default()
        };
        let scratch = BatchScratch {
            served: Vec::new(),
            level_hits: vec![0; caches.len()],
        };
        Self {
            caches,
            tlb: Tlb::new(&hierarchy.tlb),
            profile,
            scratch,
            span,
        }
    }

    /// Panic on an address at or above the span, where first-touch levels
    /// would no longer match LRU ones.
    fn check_span(&self, addrs: &[u64]) {
        if let (Some(span), Some(&addr)) = (self.span, addrs.iter().max()) {
            assert!(
                addr < span,
                "address {addr:#x} lies at or above the simulator's span {span:#x}"
            );
        }
    }

    /// Simulate one access of `bytes` requested at byte address `addr`.
    ///
    /// The line is filled into every inner level on a miss (inclusive
    /// hierarchy). Returns where the access was served.
    pub fn access(&mut self, addr: u64, bytes: u64) -> LevelHit {
        self.check_span(&[addr]);
        if !self.tlb.access(addr) {
            self.profile.tlb_misses += 1;
        }
        self.profile.requested_bytes += bytes;
        metasim_obs::counter_add("memsim.addresses", 1);

        let mut served = LevelHit::Memory;
        let mut found = false;
        for (i, c) in self.caches.iter_mut().enumerate() {
            let hit = c.access(addr);
            if hit && !found {
                served = LevelHit::Cache(i);
                found = true;
                // Inner levels already updated; outer levels must still be
                // touched to keep their LRU state warm for inclusivity.
            }
        }
        match served {
            LevelHit::Cache(i) => self.profile.level_hits[i] += 1,
            LevelHit::Memory => self.profile.memory_hits += 1,
        }
        served
    }

    /// Simulate a batch of accesses, `bytes` requested at each address.
    ///
    /// Exactly equivalent to calling [`access`](Self::access) per address —
    /// identical cache/TLB state transitions and an identical profile — but
    /// restructured for throughput. Each cache (and the TLB) is an
    /// independent state machine keyed only on the address sequence, so the
    /// batch is replayed level by level instead of interleaving levels per
    /// address: one tight pass over each level's recency-ordered sets (or
    /// first-touch bitmap).
    /// Within a pass, runs of consecutive accesses to the same line — every
    /// monotone-stride MAPS sweep with stride below the line size — collapse
    /// into one set scan plus a hit-count update. Per-batch counters live in
    /// reusable scratch, not a fresh allocation per 1,024-address buffer.
    /// This is the measurement hot path: MAPS sweeps drive tens of thousands
    /// of accesses per point across 55 curves per machine.
    pub fn access_batch(&mut self, addrs: &[u64], bytes: u64) {
        let n = addrs.len();
        if n == 0 {
            return;
        }
        debug_assert!(self.caches.len() < SERVED_MEMORY as usize);
        self.check_span(addrs);
        let scratch = &mut self.scratch;
        scratch.served.clear();
        scratch.served.resize(n, SERVED_MEMORY);
        scratch.level_hits.fill(0);

        // TLB pass. Same-page runs (page_bytes / stride consecutive
        // accesses on a sweep) need one lookup; the repeats are hits by
        // construction and collapse into a hit-count update.
        let mut tlb_misses = 0u64;
        let page_shift = self.tlb.page_shift();
        let mut i = 0;
        while i < n {
            let page = addrs[i] >> page_shift;
            let mut j = i + 1;
            while j < n && addrs[j] >> page_shift == page {
                j += 1;
            }
            if !self.tlb.access_page(page) {
                tlb_misses += 1;
            }
            if j - i > 1 {
                self.tlb.touch_repeat((j - i - 1) as u64);
            }
            i = j;
        }

        // Per-level passes. Every level sees every address (inclusive
        // hierarchy: outer levels stay LRU-warm), exactly as in the scalar
        // path — feeding a level the whole batch before the next level sees
        // any of it reproduces the interleaved order's state bit for bit.
        for (level, c) in self.caches.iter_mut().enumerate() {
            c.serve_batch(addrs, level as u8, &mut scratch.served);
        }

        let mut memory_hits = 0u64;
        for &s in &scratch.served {
            if s == SERVED_MEMORY {
                memory_hits += 1;
            } else {
                scratch.level_hits[s as usize] += 1;
            }
        }
        self.profile.tlb_misses += tlb_misses;
        self.profile.memory_hits += memory_hits;
        self.profile.requested_bytes += bytes * n as u64;
        metasim_obs::counter_add("memsim.addresses", n as u64);
        for (total, batch) in self.profile.level_hits.iter_mut().zip(&scratch.level_hits) {
            *total += batch;
        }
    }

    /// Reset all cache/TLB state and the collected profile.
    pub fn reset(&mut self) {
        for c in &mut self.caches {
            c.reset();
        }
        self.tlb.reset();
        self.profile = AccessProfile {
            level_hits: vec![0; self.caches.len()],
            ..AccessProfile::default()
        };
    }

    /// Clear the collected profile but keep cache/TLB contents (used to
    /// discard warm-up traffic before a measurement pass).
    pub fn clear_profile(&mut self) {
        self.profile = AccessProfile {
            level_hits: vec![0; self.caches.len()],
            ..AccessProfile::default()
        };
    }

    /// The profile accumulated since the last reset/clear.
    #[must_use]
    pub fn profile(&self) -> &AccessProfile {
        &self.profile
    }

    /// Number of cache levels built first-touch.
    #[cfg(test)]
    pub(crate) fn first_touch_levels(&self) -> usize {
        self.caches.iter().filter(|c| c.is_first_touch()).count()
    }

    /// Each level's [`Cache::state`] and the TLB's resident pages, most
    /// recently used first: everything that decides future hits.
    #[cfg(test)]
    pub(crate) fn state(&self) -> (Vec<crate::cache::CacheState>, Vec<u64>) {
        (
            self.caches.iter().map(Cache::state).collect(),
            self.tlb.recency(),
        )
    }

    /// Number of cache levels simulated.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.caches.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MemorySpec;
    use crate::streams::{AddressStream, RandomStream, StridedStream};
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
                RandomStream::new(0, span, 8, SeededRng::new(seed)).fill(&mut addrs);
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
            assert_eq!(sim.access(i * 64, 8), LevelHit::Cache(0));
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
    fn reset_restores_cold_state() {
        let spec = MemorySpec::example_two_level();
        let mut sim = HierarchySim::new(&spec.hierarchy());
        sim.access(0, 8);
        sim.access(0, 8);
        sim.reset();
        assert_eq!(sim.profile().total_accesses(), 0);
        assert_eq!(sim.access(0, 8), LevelHit::Memory, "cold after reset");
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
}
