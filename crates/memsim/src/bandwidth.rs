//! Bandwidth measurement: profile an address stream in a fresh hierarchy
//! and time it.
//!
//! This is the primitive every memory probe is built on: STREAM is a single
//! sequential measurement at a main-memory-sized working set; GUPS a random
//! measurement; MAPS a sweep of measurements across working-set sizes;
//! ENHANCED MAPS the same sweep under chained/branchy dependency modes.
//!
//! Measurements follow benchmarking discipline: a warm-up pass populates the
//! caches and TLB, its profile is discarded, and only then is the measured
//! pass accumulated.
//!
//! A measurement is two steps. The first profiles the address stream in a
//! fresh cache hierarchy and TLB, so the [`AccessProfile`] is a function
//! of the spec's [`Hierarchy`] and the [`Workload`] alone. The
//! [`TimingModel`] then turns that profile into seconds from the machine's
//! full [`MemorySpec`]: bandwidths, latencies, memory-level parallelism,
//! prefetch and penalties. Machines that share a hierarchy therefore share
//! profiles but not timings, and [`measure_bandwidth_memo`] simulates each
//! (hierarchy, address stream) once per [`ProfileMemo`] while timing every
//! call with its own spec.
//!
//! A sequential or strided measurement is counted, not simulated
//! (`sweep_profile`): a sweep's profile in a simulator that starts empty is
//! arithmetic in its period, its stride and each level's geometry. In the
//! first period a step hits a level exactly when it stays on the previous
//! step's line; in later periods also when the line's set receives at most
//! as many distinct lines per period as it has ways. No sweep builds a
//! simulator, a tag array or a warm-up.
//!
//! A random stream drives the simulator. It starts at address 0 and stays
//! inside its working set, so its simulator is built for that span: a
//! cache level that can hold the whole working set never evicts, so it
//! keeps a bitmap of the lines seen (an access hits exactly when its line
//! was touched before) in place of an LRU tag array. The profile is the
//! all-LRU simulator's, bit for bit.
//!
//! A random measurement's warm-up is generated into one buffer and
//! *settled*, not simulated: the simulator is built in the state the
//! warm-up leaves, reading the warm-up backwards until each level and the
//! TLB is full, and only the measured pass is driven forward. Starting empty, true LRU keeps each
//! set's most recently used distinct lines (and the TLB's last distinct
//! pages) in recency order, so this state is the forward warm-up's, way
//! for way.

use serde::{Deserialize, Serialize};

use metasim_cache::SingleFlight;
use metasim_stats::rng::SeededRng;
use metasim_units::{Bytes, BytesPerSec, Seconds};

use crate::hierarchy::{AccessProfile, Hierarchy, HierarchySim};
use crate::spec::MemorySpec;
use crate::streams::RandomStream;
use crate::timing::{AccessKind, DependencyMode, TimingModel};

/// Bytes requested per access throughout the study (double precision).
pub const ELEMENT_BYTES: u64 = 8;

/// Cap on simulated accesses per measurement pass; keeps MAPS sweeps cheap
/// while staying statistically stable (profiles are fractions of ≥ 2^13
/// accesses).
pub const MAX_MEASURED_ACCESSES: u64 = 1 << 15;

/// Floor on simulated accesses per measurement pass.
pub const MIN_MEASURED_ACCESSES: u64 = 1 << 13;

/// A memory measurement request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Workload {
    /// Working-set size in bytes.
    pub working_set: u64,
    /// Spatial pattern.
    pub kind: AccessKind,
    /// Dependency mode of the issuing loop.
    pub deps: DependencyMode,
    /// Seed label mixed into the random stream (defaults keep probe results
    /// machine-deterministic).
    pub seed: u64,
}

impl Workload {
    /// A workload with the default seed.
    #[must_use]
    pub fn new(working_set: u64, kind: AccessKind, deps: DependencyMode) -> Self {
        Self {
            working_set,
            kind,
            deps,
            seed: 0x5eed_0001,
        }
    }

    /// Stride in bytes implied by the access kind.
    #[must_use]
    pub fn stride_bytes(&self) -> u64 {
        match self.kind {
            AccessKind::Sequential => ELEMENT_BYTES,
            AccessKind::Strided(s) => u64::from(s) * ELEMENT_BYTES,
            AccessKind::Random => ELEMENT_BYTES,
        }
    }

    /// Number of accesses needed to cover the working set once.
    #[must_use]
    pub fn accesses_per_pass(&self) -> u64 {
        (self.working_set / self.stride_bytes()).max(1)
    }
}

/// Result of one bandwidth measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthSample {
    /// The workload measured.
    pub workload: Workload,
    /// Simulated seconds for the measured pass.
    pub seconds: f64,
    /// Bytes requested during the measured pass.
    pub bytes: u64,
    /// Where accesses were served.
    pub profile: AccessProfile,
}

impl BandwidthSample {
    /// Delivered bandwidth.
    #[must_use]
    pub fn bytes_per_second(&self) -> BytesPerSec {
        if self.seconds <= 0.0 {
            BytesPerSec::new(0.0)
        } else {
            Bytes::new(self.bytes as f64) / Seconds::new(self.seconds)
        }
    }

    /// Delivered bandwidth in GB/s (10^9 bytes).
    #[must_use]
    pub fn gb_per_second(&self) -> f64 {
        self.bytes_per_second().get() / 1e9
    }
}

/// Addresses generated per batch in [`drive`]: 8 KiB of address buffer —
/// resident in L1 of the *host* machine — amortizing profile-commit
/// overhead over the hierarchy simulation.
pub(crate) const DRIVE_BATCH: usize = 1024;

/// Drive `n` accesses of `stream` through `sim`, a batch of addresses at a
/// time ([`HierarchySim::access_batch`]).
pub(crate) fn drive(sim: &mut HierarchySim, stream: &mut RandomStream, n: u64) {
    let mut buf = [0u64; DRIVE_BATCH];
    let mut remaining = n;
    while remaining > 0 {
        let len = remaining.min(DRIVE_BATCH as u64) as usize;
        stream.fill(&mut buf[..len]);
        sim.access_batch(&buf[..len], ELEMENT_BYTES);
        remaining -= len as u64;
    }
}

/// Simulated profiles, each computed once per (hierarchy, address stream).
///
/// The key's [`Workload`] has its `deps` cleared to
/// [`DependencyMode::Independent`]: the dependency mode only changes how the
/// timing model prices a profile, never the addresses the simulator sees,
/// so a MAPS sweep's chained and branchy curves reuse its independent one.
/// Owned by whoever scopes the reuse — a probe suite, a ground-truth
/// runner — never process-wide.
pub type ProfileMemo = SingleFlight<(Hierarchy, Workload), AccessProfile>;

/// Measure delivered bandwidth for `workload` on the memory system described
/// by `spec`. Deterministic: equal inputs yield identical samples.
///
/// # Panics
/// Panics if the spec fails validation.
#[must_use]
pub fn measure_bandwidth(spec: &MemorySpec, workload: &Workload) -> BandwidthSample {
    measure_bandwidth_memo(spec, workload, &ProfileMemo::new())
}

/// [`measure_bandwidth`], reading the simulated profile through `memo`: the
/// first call for a (hierarchy, address stream) simulates it, later calls
/// on any spec with the same hierarchy reuse it. Every call validates its
/// own spec and times the profile with it, so the sample equals
/// [`measure_bandwidth`]'s.
///
/// # Panics
/// Panics if the spec fails validation, whether or not the profile is
/// already in `memo`.
#[must_use]
pub fn measure_bandwidth_memo(
    spec: &MemorySpec,
    workload: &Workload,
    memo: &ProfileMemo,
) -> BandwidthSample {
    let model = TimingModel::new(spec.clone(), ELEMENT_BYTES);
    let hierarchy = spec.hierarchy();
    let stream = Workload {
        deps: DependencyMode::Independent,
        ..*workload
    };
    let profile = memo.get_or_init((hierarchy.clone(), stream), || {
        simulate_profile(&hierarchy, workload)
    });
    let seconds = model.time(&profile, workload.kind, workload.deps);
    BandwidthSample {
        workload: *workload,
        seconds,
        bytes: profile.requested_bytes,
        profile,
    }
}

/// The profile of `workload`'s measurement in a fresh simulator of
/// `hierarchy`: a warm-up pass, then the measured pass whose profile is
/// returned. Reads the working set, access kind and seed; not `deps`. A
/// sweep is counted ([`sweep_profile`]); a random stream is driven
/// ([`driven_profile`]).
///
/// # Panics
/// Panics if the hierarchy's geometry is invalid; a sweep builds no
/// simulator to check it, so callers validate the spec first, as
/// [`measure_bandwidth_memo`] does.
fn simulate_profile(hierarchy: &Hierarchy, workload: &Workload) -> AccessProfile {
    let (warmup, measured) = pass_lengths(workload);
    match workload.kind {
        AccessKind::Sequential | AccessKind::Strided(_) => sweep_profile(
            hierarchy,
            workload.working_set,
            workload.stride_bytes(),
            warmup,
            measured,
        ),
        AccessKind::Random => {
            let working_set = workload.working_set.max(ELEMENT_BYTES);
            let rng = SeededRng::new(workload.seed ^ workload.working_set);
            let stream = RandomStream::new(working_set, ELEMENT_BYTES, rng);
            driven_profile(hierarchy, working_set, stream, warmup, measured)
        }
    }
}

/// The warm-up and measured access counts of `workload`'s measurement.
fn pass_lengths(workload: &Workload) -> (u64, u64) {
    let per_pass = workload.accesses_per_pass();
    // Warm-up must visit the whole working set at least once (capped so huge
    // sweeps stay cheap: beyond the cap the caches are in steady-state
    // thrash anyway).
    let warmup = per_pass.min(MAX_MEASURED_ACCESSES);
    let measured = per_pass.clamp(MIN_MEASURED_ACCESSES, MAX_MEASURED_ACCESSES);
    (warmup, measured)
}

/// The profile of accesses `warmup..warmup + measured` of `stream`, a
/// random stream over `[0, span)`, in a fresh simulator of `hierarchy`.
/// The simulator is built for that span, so a level that holds it is
/// first-touch. The first `warmup` addresses go into one buffer (at most
/// [`MAX_MEASURED_ACCESSES`] of them) and the simulator is built in the
/// state they leave ([`HierarchySim::settled`]); only the measured
/// accesses are driven.
fn driven_profile(
    hierarchy: &Hierarchy,
    span: u64,
    mut stream: RandomStream,
    warmup: u64,
    measured: u64,
) -> AccessProfile {
    debug_assert!(warmup <= MAX_MEASURED_ACCESSES);
    let mut addrs = vec![0; warmup as usize];
    stream.fill(&mut addrs);
    let mut sim = HierarchySim::settled(hierarchy, span, &addrs);
    drop(addrs);
    drive(&mut sim, &mut stream, measured);
    sim.profile().clone()
}

/// The profile of steps `warmup..warmup + measured` of a `stride`-byte
/// sweep over `working_set` bytes from address 0, in a fresh all-LRU
/// simulator of `hierarchy`, counted instead of simulated.
///
/// Step `k` reads `(k mod P) · stride`, where the period `P` is the number
/// of whole elements the sweep reaches before it wraps. A cache level with
/// `A` ways and the TLB (one set of `entries` ways over pages) each hit
/// step `k` exactly when
/// - `k mod P ≥ 1` and the step stays on the previous step's line, or
/// - `k ≥ P` and the line's set receives at most `A` distinct lines in one
///   period.
///
/// Exact, not a model. In period 0 the addresses only increase, so a line
/// was seen before only if the previous step was on it. From period 1 on,
/// between two visits of a line its set receives each of its other lines
/// of the period exactly once, in the same cyclic order, so true LRU keeps
/// the line exactly when fewer than `A` others share its set. An access is
/// served by the first level that hits, as in the simulator. Period 0
/// is counted in `O(levels)`; later periods take one pass over at most
/// `P < 2 · MAX_MEASURED_ACCESSES` positions. The warm-up steps still count
/// towards `memsim.addresses`, as when they are driven.
fn sweep_profile(
    hierarchy: &Hierarchy,
    working_set: u64,
    stride: u64,
    warmup: u64,
    measured: u64,
) -> AccessProfile {
    let sweep = Sweep {
        stride,
        period: (working_set.max(ELEMENT_BYTES) - ELEMENT_BYTES) / stride + 1,
    };
    let levels: Vec<SweepLevel> = hierarchy
        .levels
        .iter()
        .map(|g| SweepLevel {
            shift: g.line_bytes.trailing_zeros(),
            sets: g.sets(),
            ways: u64::from(g.associativity),
        })
        .collect();
    let tlb = SweepLevel {
        shift: hierarchy.tlb.page_bytes.trailing_zeros(),
        sets: 1,
        ways: hierarchy.tlb.entries as u64,
    };
    let mut profile = AccessProfile {
        level_hits: vec![0; levels.len()],
        requested_bytes: measured * ELEMENT_BYTES,
        ..AccessProfile::default()
    };
    let end = warmup + measured;

    // Period 0: every hit stays on the previous step's line. Staying on a
    // line implies staying on every longer one, so a step is first served
    // by a level exactly when it stays on that level's line but not on the
    // longest line among the levels before it.
    let (lo, hi) = (warmup, end.min(sweep.period));
    if lo < hi {
        let mut longest: Option<u32> = None;
        let mut served = 0;
        for (hits, level) in profile.level_hits.iter_mut().zip(&levels) {
            let inner = longest.map_or(0, |s| sweep.stays(s.min(level.shift), lo, hi));
            *hits = sweep.stays(level.shift, lo, hi) - inner;
            served += *hits;
            longest = Some(longest.map_or(level.shift, |s| s.max(level.shift)));
        }
        profile.memory_hits = hi - lo - served;
        profile.tlb_misses = hi - lo - sweep.stays(tlb.shift, lo, hi);
    }

    // Later periods: one pass over the positions the measured steps visit,
    // each weighted by how many times they visit it.
    let lo = warmup.max(sweep.period);
    if lo < end {
        let per_set: Vec<_> = levels.iter().map(|l| l.lines_per_set(&sweep)).collect();
        let tlb_per_set = tlb.lines_per_set(&sweep);
        for k in lo..end.min(lo + sweep.period) {
            let p = k % sweep.period;
            let weight = (end - 1 - k) / sweep.period + 1;
            let hit = |level: &SweepLevel, per_set: &Option<Vec<u32>>| {
                let line = (p * stride) >> level.shift;
                (p >= 1 && line == ((p - 1) * stride) >> level.shift)
                    || per_set
                        .as_ref()
                        .is_none_or(|m| u64::from(m[(line % level.sets) as usize]) <= level.ways)
            };
            match levels.iter().zip(&per_set).position(|(l, m)| hit(l, m)) {
                Some(level) => profile.level_hits[level] += weight,
                None => profile.memory_hits += weight,
            }
            if !hit(&tlb, &tlb_per_set) {
                profile.tlb_misses += weight;
            }
        }
    }
    metasim_obs::counter_add("memsim.addresses", end);
    metasim_obs::counter_add("memsim.sweep.closed_form", 1);
    profile
}

/// A sweep's stride and period, both as [`sweep_profile`] defines them.
struct Sweep {
    stride: u64,
    period: u64,
}

impl Sweep {
    /// How many of the period-0 steps `lo..hi` (`hi ≤ P`) stay on the
    /// previous step's line of `2^shift` bytes. Step 0 has no predecessor.
    fn stays(&self, shift: u32, lo: u64, hi: u64) -> u64 {
        let leaves = if self.stride >> shift != 0 {
            // A stride of a line or more leaves the line at every step.
            hi - lo
        } else {
            // A shorter one moves on at most one line per step: count the
            // line crossings, and step 0 as leaving.
            let line = |k: u64| (k * self.stride) >> shift;
            line(hi - 1) + 1 - lo.checked_sub(1).map_or(0, |k| line(k) + 1)
        };
        hi - lo - leaves
    }
}

/// One cache level, or the TLB, as [`sweep_profile`] counts it.
struct SweepLevel {
    /// Log2 of the line (or page) size.
    shift: u32,
    sets: u64,
    ways: u64,
}

impl SweepLevel {
    /// How many distinct lines of one period of `sweep` each set receives,
    /// or `None` when no set can receive more than `ways` of them. The
    /// table is built only when it is shorter than the period's line span.
    fn lines_per_set(&self, sweep: &Sweep) -> Option<Vec<u32>> {
        let last = ((sweep.period - 1) * sweep.stride) >> self.shift;
        if (last + 1).div_ceil(self.sets) <= self.ways {
            return None;
        }
        let mut lines = vec![0u32; self.sets as usize];
        let mut previous = None;
        for p in 0..sweep.period {
            let line = (p * sweep.stride) >> self.shift;
            if previous != Some(line) {
                lines[(line % self.sets) as usize] += 1;
                previous = Some(line);
            }
        }
        Some(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MemorySpec;
    use crate::streams::StridedStream;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn spec() -> MemorySpec {
        MemorySpec::example_two_level()
    }

    #[test]
    fn l1_resident_approaches_l1_bandwidth() {
        let s = spec();
        let sample = measure_bandwidth(
            &s,
            &Workload::new(8 << 10, AccessKind::Sequential, DependencyMode::Independent),
        );
        let l1 = s.levels[0].load_bandwidth;
        assert!(
            sample.bytes_per_second() > 0.95 * l1,
            "got {} vs L1 {}",
            sample.bytes_per_second(),
            l1
        );
    }

    #[test]
    fn memory_resident_approaches_stream_bandwidth() {
        let s = spec();
        let sample = measure_bandwidth(
            &s,
            &Workload::new(
                64 << 20,
                AccessKind::Sequential,
                DependencyMode::Independent,
            ),
        );
        let mem = s.memory.stream_bandwidth;
        let bw = sample.bytes_per_second();
        assert!(bw < mem, "cannot exceed DRAM: {bw} vs {mem}");
        assert!(bw > 0.6 * mem, "should approach DRAM: {bw} vs {mem}");
    }

    #[test]
    fn bandwidth_decreases_monotonically_in_working_set() {
        let s = spec();
        let sizes = [8u64 << 10, 256 << 10, 16 << 20];
        let bws: Vec<_> = sizes
            .iter()
            .map(|&ws| {
                measure_bandwidth(
                    &s,
                    &Workload::new(ws, AccessKind::Sequential, DependencyMode::Independent),
                )
                .bytes_per_second()
            })
            .collect();
        assert!(bws[0] > bws[1] && bws[1] > bws[2], "{bws:?}");
    }

    #[test]
    fn random_far_below_sequential_from_memory() {
        let s = spec();
        let seq = measure_bandwidth(
            &s,
            &Workload::new(
                64 << 20,
                AccessKind::Sequential,
                DependencyMode::Independent,
            ),
        );
        let rnd = measure_bandwidth(
            &s,
            &Workload::new(64 << 20, AccessKind::Random, DependencyMode::Independent),
        );
        assert!(
            rnd.bytes_per_second() < 0.25 * seq.bytes_per_second(),
            "random {} vs sequential {}",
            rnd.bytes_per_second(),
            seq.bytes_per_second()
        );
    }

    #[test]
    fn chained_dependency_reduces_bandwidth() {
        let s = spec();
        let ind = measure_bandwidth(
            &s,
            &Workload::new(8 << 10, AccessKind::Sequential, DependencyMode::Independent),
        );
        let dep = measure_bandwidth(
            &s,
            &Workload::new(8 << 10, AccessKind::Sequential, DependencyMode::Chained),
        );
        assert!(
            dep.bytes_per_second() < 0.5 * ind.bytes_per_second(),
            "chained {} vs independent {}",
            dep.bytes_per_second(),
            ind.bytes_per_second()
        );
    }

    #[test]
    fn measurement_is_deterministic() {
        let s = spec();
        let w = Workload::new(1 << 20, AccessKind::Random, DependencyMode::Independent);
        let a = measure_bandwidth(&s, &w);
        let b = measure_bandwidth(&s, &w);
        assert_eq!(a, b);
    }

    #[test]
    fn batched_drive_matches_scalar_access_loop() {
        // The batch kernel must be bit-equivalent to the scalar loop:
        // identical profile, including a partial final batch.
        let s = spec();
        let n = (DRIVE_BATCH as u64) * 3 + 17;
        let w = Workload::new(1 << 20, AccessKind::Random, DependencyMode::Independent);
        let rng = SeededRng::new(w.seed ^ w.working_set);
        let mut batched = HierarchySim::new(&s.hierarchy());
        let mut stream = RandomStream::new(w.working_set, ELEMENT_BYTES, rng);
        let mut addrs = vec![0; n as usize];
        stream.clone().fill(&mut addrs);
        drive(&mut batched, &mut stream, n);
        let mut scalar = HierarchySim::new(&s.hierarchy());
        for addr in addrs {
            scalar.access(addr, ELEMENT_BYTES);
        }
        assert_eq!(batched.profile(), scalar.profile());
    }

    /// Drive the first `warmup` of `addrs` through `sim`, fresh, a batch
    /// at a time, clear the profile, drive the rest and return their
    /// profile: the forward warm-up that [`driven_profile`] settles
    /// instead.
    fn forward_profile(mut sim: HierarchySim, addrs: &[u64], warmup: u64) -> AccessProfile {
        let (warm, measured) = addrs.split_at(warmup as usize);
        for chunk in warm.chunks(DRIVE_BATCH) {
            sim.access_batch(chunk, ELEMENT_BYTES);
        }
        sim.clear_profile();
        for chunk in measured.chunks(DRIVE_BATCH) {
            sim.access_batch(chunk, ELEMENT_BYTES);
        }
        sim.profile().clone()
    }

    /// The first `n` addresses of a random stream over `span` bytes.
    fn random_addrs(span: u64, rng: SeededRng, n: u64) -> Vec<u64> {
        let mut addrs = vec![0; n as usize];
        RandomStream::new(span, ELEMENT_BYTES, rng).fill(&mut addrs);
        addrs
    }

    /// The first `n` addresses of a `stride`-byte sweep over `working_set`
    /// bytes.
    fn strided_addrs(working_set: u64, stride: u64, n: u64) -> Vec<u64> {
        let mut addrs = vec![0; n as usize];
        StridedStream::new(0, working_set, stride, ELEMENT_BYTES).fill(&mut addrs);
        addrs
    }

    /// The profile of `warmup` then `measured` accesses of a `stride`-byte
    /// sweep over `working_set` bytes, driven through a fresh all-LRU
    /// simulator.
    fn driven_sweep(
        h: &Hierarchy,
        working_set: u64,
        stride: u64,
        warmup: u64,
        measured: u64,
    ) -> AccessProfile {
        let addrs = strided_addrs(working_set, stride, warmup + measured);
        forward_profile(HierarchySim::new(h), &addrs, warmup)
    }

    /// `workload`'s measurement driven through a fresh all-LRU simulator,
    /// whatever path [`simulate_profile`] takes.
    fn all_lru_profile(h: &Hierarchy, w: &Workload) -> AccessProfile {
        let (warmup, measured) = pass_lengths(w);
        let n = warmup + measured;
        let addrs = match w.kind {
            AccessKind::Random => {
                random_addrs(w.working_set, SeededRng::new(w.seed ^ w.working_set), n)
            }
            _ => strided_addrs(w.working_set, w.stride_bytes(), n),
        };
        forward_profile(HierarchySim::new(h), &addrs, warmup)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        // The counted profile of every sweep equals driving it through the
        // all-LRU simulator: 1-4 levels in any order of line sizes with
        // associativity 1-16 (3 and 12 included), TLBs of 1-64 entries,
        // strides of 1-40 elements, warm-ups shorter and longer than one
        // period, and working sets from one element (and below) to past
        // the point where the sweep never wraps. Small working sets are
        // drawn more often, so that sets holding exactly as many lines of
        // a period as they have ways come up.
        #[test]
        fn every_sweep_profile_equals_the_driven_one(
            levels in prop::collection::vec((4u32..10, 0usize..7, 0u32..8), 1..5),
            tlb in (1usize..65, 9u32..15),
            stride_elems in 1u64..41,
            warmup in 0u64..3000,
            measured in 1u64..3000,
            (scale, raw) in (0u32..4, 0u64..=u64::MAX),
        ) {
            let h = Hierarchy::of(&levels, tlb);
            let stride = stride_elems * ELEMENT_BYTES;
            let fresh = (warmup + measured - 1) * stride + ELEMENT_BYTES;
            // Up to 64 elements, 64 strides, a quarter of the fresh bound,
            // or twice it.
            let bound = [64 * ELEMENT_BYTES, 64 * stride, fresh / 4, 2 * fresh][scale as usize];
            let working_set = 1 + raw % bound.max(1);
            prop_assert_eq!(
                sweep_profile(&h, working_set, stride, warmup, measured),
                driven_sweep(&h, working_set.max(ELEMENT_BYTES), stride, warmup, measured)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // A simulator built for the stream's span, first-touch in every
        // level that holds it, yields the all-LRU simulator's profile
        // after a warm-up and `clear_profile`: 1-4 levels, 16-512 B lines,
        // associativity 1-16, random and wrapping strided streams, and a
        // span from one line up to a chosen level's capacity, exactly at
        // it, or one line beyond it.
        #[test]
        fn spanning_simulators_profile_as_all_lru_ones(
            levels in prop::collection::vec((4u32..10, 0usize..7, 0u32..8), 1..5),
            tlb in (1usize..65, 9u32..15),
            (held, edge, fill, trim) in (0usize..4, 0u8..4, 0u64..1 << 20, 0u64..512),
            random in 0u8..2,
            stride_elems in 1u64..17,
            seed in 0u64..=u64::MAX,
            warmup in 0u64..3000,
            measured in 1u64..3000,
        ) {
            let h = Hierarchy::of(&levels, tlb);
            let level = h.levels[held % h.levels.len()];
            let capacity = level.capacity_bytes / level.line_bytes;
            let lines = match edge {
                0 => capacity,
                1 => capacity + 1,
                _ => 1 + fill % capacity,
            };
            // Any span of `lines` lines, not only whole ones.
            let span = (lines * level.line_bytes - trim % level.line_bytes).max(ELEMENT_BYTES);
            let spanning = HierarchySim::spanning(&h, span);
            if lines <= capacity {
                prop_assert!(spanning.first_touch_levels() > 0);
            }
            let n = warmup + measured;
            let addrs = if random == 1 {
                random_addrs(span, SeededRng::new(seed), n)
            } else {
                strided_addrs(span, stride_elems * ELEMENT_BYTES, n)
            };
            prop_assert_eq!(
                forward_profile(spanning, &addrs, warmup),
                forward_profile(HierarchySim::new(&h), &addrs, warmup)
            );
        }
    }

    #[test]
    fn a_level_that_holds_the_working_set_is_first_touch_and_one_line_more_is_lru() {
        let h = spec().hierarchy();
        let l2 = h.levels[1];
        assert!(h.levels[0].capacity_bytes < l2.capacity_bytes);
        let rec = Arc::new(metasim_obs::InMemoryRecorder::new());
        let recorder = Arc::clone(&rec) as Arc<dyn metasim_obs::Recorder>;
        // Random and a wrapping strided sweep, each at exactly the L2's
        // capacity and one line more. The sweep is counted, so it builds
        // no simulator and no first-touch level.
        for (kind, held) in [(AccessKind::Random, 1), (AccessKind::Strided(16), 0)] {
            let at_capacity = l2.capacity_bytes;
            for (working_set, first_touch) in
                [(at_capacity, held), (at_capacity + l2.line_bytes, 0)]
            {
                let w = Workload::new(working_set, kind, DependencyMode::Independent);
                let before = rec.metrics_snapshot().counter("memsim.level.first_touch");
                let profile =
                    metasim_obs::with_recorder(Arc::clone(&recorder), || simulate_profile(&h, &w));
                let after = rec.metrics_snapshot().counter("memsim.level.first_touch");
                assert_eq!(after - before, first_touch, "{kind:?} {working_set}");
                assert_eq!(profile, all_lru_profile(&h, &w), "{kind:?} {working_set}");
            }
        }
        assert_eq!(
            rec.metrics_snapshot().counter("memsim.sweep.closed_form"),
            2
        );
    }

    #[test]
    fn the_largest_wrapping_sweep_and_one_element_more_are_both_counted() {
        let spec = spec();
        let h = spec.hierarchy();
        let rec = Arc::new(metasim_obs::InMemoryRecorder::new());
        let recorder = Arc::clone(&rec) as Arc<dyn metasim_obs::Recorder>;
        for kind in [AccessKind::Sequential, AccessKind::Strided(3)] {
            let stride = Workload::new(0, kind, DependencyMode::Independent).stride_bytes();
            // A working set past the measured-access cap, so warm-up plus
            // measured is a fixed 2 * MAX_MEASURED_ACCESSES steps: the
            // smaller set wraps on the last step, the larger never wraps.
            let steps = 2 * MAX_MEASURED_ACCESSES;
            let fresh = (steps - 1) * stride + ELEMENT_BYTES;
            for working_set in [fresh - ELEMENT_BYTES, fresh] {
                let w = Workload::new(working_set, kind, DependencyMode::Independent);
                assert_eq!(w.accesses_per_pass().min(MAX_MEASURED_ACCESSES), steps / 2);
                let before = rec.metrics_snapshot().counter("memsim.sweep.closed_form");
                let profile =
                    metasim_obs::with_recorder(Arc::clone(&recorder), || simulate_profile(&h, &w));
                let after = rec.metrics_snapshot().counter("memsim.sweep.closed_form");
                assert_eq!(after - before, 1, "{kind:?} {working_set}");
                let driven = driven_sweep(&h, working_set, stride, steps / 2, steps / 2);
                assert_eq!(profile, driven, "{kind:?} {working_set}");
            }
        }
        // Every counted step, warm-up included, adds to `memsim.addresses`.
        let snap = rec.metrics_snapshot();
        assert_eq!(
            snap.counter("memsim.addresses"),
            4 * 2 * MAX_MEASURED_ACCESSES
        );
        assert_eq!(snap.counter("memsim.warmup.settled"), 0);
    }

    /// `spec` with a second hierarchy-sharing twin whose every timing
    /// field differs.
    fn retimed(s: &MemorySpec) -> MemorySpec {
        let mut t = s.clone();
        for l in &mut t.levels {
            l.load_bandwidth *= 0.5;
            l.latency *= 1.5;
        }
        t.memory.stream_bandwidth *= 0.5;
        t.memory.latency *= 1.5;
        t.tlb.miss_penalty *= 2.0;
        t.mlp += 1.0;
        t.short_stride_prefetch *= 0.5;
        t.dependency_chain_latency *= 2.0;
        t.branch_penalty *= 2.0;
        t
    }

    #[test]
    fn hierarchy_holds_every_geometry_field_and_no_timing_field() {
        let s = spec();
        let h = s.hierarchy();
        let geometry_edits: [fn(&mut MemorySpec); 8] = [
            |s| s.levels[0].capacity_bytes *= 2,
            |s| s.levels[1].capacity_bytes *= 2,
            |s| s.levels[0].line_bytes *= 2,
            |s| s.levels[1].line_bytes *= 2,
            |s| s.levels[0].associativity *= 2,
            |s| s.levels[1].associativity *= 2,
            |s| s.tlb.entries *= 2,
            |s| s.tlb.page_bytes *= 2,
        ];
        for (i, edit) in geometry_edits.iter().enumerate() {
            let mut t = s.clone();
            edit(&mut t);
            assert_ne!(t.hierarchy(), h, "geometry edit {i} must change the key");
        }
        let mut dropped = s.clone();
        dropped.levels.pop();
        assert_ne!(
            dropped.hierarchy(),
            h,
            "a removed level must change the key"
        );

        let timing_edits: [fn(&mut MemorySpec); 11] = [
            |s| s.levels[0].load_bandwidth *= 2.0,
            |s| s.levels[1].load_bandwidth *= 0.5,
            |s| s.levels[0].latency *= 0.5,
            |s| s.levels[1].latency *= 2.0,
            |s| s.memory.stream_bandwidth *= 0.5,
            |s| s.memory.latency *= 2.0,
            |s| s.mlp *= 2.0,
            |s| s.short_stride_prefetch *= 0.5,
            |s| s.dependency_chain_latency *= 2.0,
            |s| s.branch_penalty *= 2.0,
            |s| s.tlb.miss_penalty *= 2.0,
        ];
        for (i, edit) in timing_edits.iter().enumerate() {
            let mut t = s.clone();
            edit(&mut t);
            assert_ne!(t, s, "timing edit {i} must change the spec");
            assert_eq!(t.hierarchy(), h, "timing edit {i} must not change the key");
        }
        assert_eq!(retimed(&s).hierarchy(), h);
    }

    #[test]
    fn a_memo_hit_is_timed_with_its_own_spec() {
        let (s, t) = (spec(), retimed(&spec()));
        let memo = ProfileMemo::new();
        for kind in [
            AccessKind::Sequential,
            AccessKind::Strided(4),
            AccessKind::Random,
        ] {
            for deps in [
                DependencyMode::Independent,
                DependencyMode::Chained,
                DependencyMode::Branchy,
            ] {
                let w = Workload::new(256 << 10, kind, deps);
                let (a, b) = (
                    measure_bandwidth_memo(&s, &w, &memo),
                    measure_bandwidth_memo(&t, &w, &memo),
                );
                assert_eq!(a, measure_bandwidth(&s, &w), "{w:?}");
                assert_eq!(b, measure_bandwidth(&t, &w), "{w:?}");
                assert_eq!(a.profile, b.profile, "one hierarchy, one profile");
                assert_ne!(
                    a.seconds, b.seconds,
                    "{w:?}: timing leaked from the first spec"
                );
            }
        }
        // The dependency mode prices a profile but never changes it: one
        // simulation per access kind.
        assert_eq!(memo.count_ready(|_| true), 3);
    }

    #[test]
    #[should_panic(expected = "invalid memory spec")]
    fn a_memo_hit_still_validates_the_spec() {
        let memo = ProfileMemo::new();
        let w = Workload::new(
            64 << 10,
            AccessKind::Sequential,
            DependencyMode::Independent,
        );
        let _ = measure_bandwidth_memo(&spec(), &w, &memo);
        let mut invalid = spec();
        invalid.mlp = 0.5;
        assert_eq!(invalid.hierarchy(), spec().hierarchy());
        let _ = measure_bandwidth_memo(&invalid, &w, &memo);
    }

    #[test]
    fn workload_accessors() {
        let w = Workload::new(1 << 20, AccessKind::Strided(4), DependencyMode::Independent);
        assert_eq!(w.stride_bytes(), 32);
        assert_eq!(w.accesses_per_pass(), (1 << 20) / 32);
        let w = Workload::new(4, AccessKind::Sequential, DependencyMode::Independent);
        assert_eq!(w.accesses_per_pass(), 1, "degenerate working set");
    }

    #[test]
    fn sample_bandwidth_handles_zero_time() {
        let s = BandwidthSample {
            workload: Workload::new(8, AccessKind::Sequential, DependencyMode::Independent),
            seconds: 0.0,
            bytes: 0,
            profile: AccessProfile::default(),
        };
        assert_eq!(s.bytes_per_second(), 0.0);
        assert_eq!(s.gb_per_second(), 0.0);
    }

    #[test]
    fn gb_conversion() {
        let s = BandwidthSample {
            workload: Workload::new(8, AccessKind::Sequential, DependencyMode::Independent),
            seconds: 1.0,
            bytes: 2_000_000_000,
            profile: AccessProfile::default(),
        };
        assert!((s.gb_per_second() - 2.0).abs() < 1e-12);
    }
}
