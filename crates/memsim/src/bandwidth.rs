//! Bandwidth measurement: drive an address stream through a fresh hierarchy
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
//! A measurement is two steps. The first drives the address stream through
//! the cache and TLB simulator, so the [`AccessProfile`] is a function of
//! the spec's [`Hierarchy`] and the [`Workload`] alone. The
//! [`TimingModel`] then turns that profile into seconds from the machine's
//! full [`MemorySpec`]: bandwidths, latencies, memory-level parallelism,
//! prefetch and penalties. Machines that share a hierarchy therefore share
//! profiles but not timings, and [`measure_bandwidth_memo`] simulates each
//! (hierarchy, address stream) once per [`ProfileMemo`] while timing every
//! call with its own spec.
//!
//! A sequential or strided measurement whose warm-up and measured passes
//! never wrap round the working set is counted rather than simulated
//! (`fresh_sweep_profile`): in a simulator that starts empty, a sweep of
//! increasing addresses hits a cache level exactly when it stays on the
//! previous access's line, and the TLB exactly when it stays on the
//! previous access's page. Every other measurement drives the simulator.
//!
//! A driven stream starts at address 0 and stays inside its working set, so
//! its simulator is built for that span ([`HierarchySim`]'s span
//! constructor): a cache level that can hold the whole working set never
//! evicts, so it keeps a bitmap of the lines seen (an access hits exactly
//! when its line was touched before) in place of an LRU tag array. The
//! profile is the all-LRU simulator's, bit for bit.
//!
//! A driven measurement's warm-up is generated into one buffer and
//! *settled*, not simulated: the simulator is built in the state the
//! warm-up leaves ([`HierarchySim`]'s settled constructor), reading the
//! warm-up backwards until each level and the TLB is full, and only the
//! measured pass is driven forward. Starting empty, true LRU keeps each
//! set's most recently used distinct lines (and the TLB's last distinct
//! pages) in recency order, so this state is the forward warm-up's, way
//! for way.

use serde::{Deserialize, Serialize};

use metasim_cache::SingleFlight;
use metasim_stats::rng::SeededRng;
use metasim_units::{Bytes, BytesPerSec, Seconds};

use crate::hierarchy::{AccessProfile, Hierarchy, HierarchySim};
use crate::spec::MemorySpec;
use crate::streams::{AddressStream, RandomStream, StridedStream};
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
/// resident in L1 of the *host* machine — amortizing stream dispatch and
/// profile-commit overhead over the hierarchy simulation.
pub const DRIVE_BATCH: usize = 1024;

/// Drive `n` accesses of `stream` through `sim`, in batches.
///
/// Equivalent to the scalar `for _ in 0..n { sim.access(stream.next_addr()) }`
/// loop — same state transitions, same profile — but addresses are generated
/// a block at a time and simulated via [`HierarchySim::access_batch`], so the
/// hot loop alternates between two tight kernels instead of interleaving
/// stream generation, cache simulation, and counter updates per access.
pub fn drive<S: AddressStream>(sim: &mut HierarchySim, stream: &mut S, n: u64) {
    let bytes = stream.element_bytes();
    let mut buf = [0u64; DRIVE_BATCH];
    let mut remaining = n;
    while remaining > 0 {
        let len = remaining.min(DRIVE_BATCH as u64) as usize;
        stream.fill(&mut buf[..len]);
        sim.access_batch(&buf[..len], bytes);
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

/// Drive `workload`'s address stream through a fresh simulator of
/// `hierarchy`: a warm-up pass, then the measured pass whose profile is
/// returned. Reads the working set, access kind and seed; not `deps`. A
/// sweep that never wraps is counted instead ([`fresh_sweep_profile`]).
///
/// # Panics
/// Panics if the hierarchy's geometry is invalid and the stream is driven;
/// the counting path builds no simulator, so callers validate the spec
/// first, as [`measure_bandwidth_memo`] does.
fn simulate_profile(hierarchy: &Hierarchy, workload: &Workload) -> AccessProfile {
    let (warmup, measured) = pass_lengths(workload);
    match workload.kind {
        AccessKind::Sequential | AccessKind::Strided(_) => {
            let (working_set, stride) = (
                workload.working_set.max(ELEMENT_BYTES),
                workload.stride_bytes(),
            );
            if sweep_stays_fresh(working_set, stride, warmup + measured) {
                return fresh_sweep_profile(hierarchy, stride, warmup, measured);
            }
            let stream = StridedStream::new(0, working_set, stride, ELEMENT_BYTES);
            driven_profile(hierarchy, working_set, stream, warmup, measured)
        }
        AccessKind::Random => {
            let working_set = workload.working_set.max(ELEMENT_BYTES);
            let rng = SeededRng::new(workload.seed ^ workload.working_set);
            let stream = RandomStream::new(0, working_set, ELEMENT_BYTES, rng);
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

/// The profile of accesses `warmup..warmup + measured` of `stream` in a
/// fresh simulator of `hierarchy`. Both streams start at address 0 and
/// stay below `span`, so the simulator is built for that span: a level that
/// holds it is first-touch. The first `warmup` addresses go into one buffer
/// (at most [`MAX_MEASURED_ACCESSES`] of them) and the simulator is built
/// in the state they leave ([`HierarchySim::settled`]); only the measured
/// accesses are driven.
fn driven_profile<S: AddressStream>(
    hierarchy: &Hierarchy,
    span: u64,
    mut stream: S,
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

/// Whether `accesses` steps of a [`StridedStream`] from address 0 over
/// `working_set` bytes all come before its first wrap: the last one,
/// `(accesses - 1) · stride`, still has a whole element inside the set.
fn sweep_stays_fresh(working_set: u64, stride: u64, accesses: u64) -> bool {
    (accesses - 1)
        .checked_mul(stride)
        .and_then(|last| last.checked_add(ELEMENT_BYTES))
        .is_some_and(|end| end <= working_set)
}

/// The profile of accesses `warmup..warmup + measured` of a sweep that
/// reads address `k · stride` at step `k`, in a fresh simulator of
/// `hierarchy`, counted instead of simulated.
///
/// Exact, not a model: the simulator starts empty and the addresses only
/// increase, so no line or page is ever seen again once the sweep has
/// left it. A cache level therefore hits access `k` exactly when `k`
/// shares that level's line with access `k - 1` (the line is then the
/// level's most recently used), and misses it otherwise, compulsorily;
/// the TLB likewise hits exactly when `k` shares the page of `k - 1`. The
/// access is served by the first level that hits, as in [`HierarchySim`].
/// The warm-up steps still count towards `memsim.addresses`, as when they
/// are driven.
fn fresh_sweep_profile(
    hierarchy: &Hierarchy,
    stride: u64,
    warmup: u64,
    measured: u64,
) -> AccessProfile {
    let shifts: Vec<u32> = hierarchy
        .levels
        .iter()
        .map(|l| l.line_bytes.trailing_zeros())
        .collect();
    let page_shift = hierarchy.tlb.page_bytes.trailing_zeros();
    let mut profile = AccessProfile {
        level_hits: vec![0; shifts.len()],
        requested_bytes: measured * ELEMENT_BYTES,
        ..AccessProfile::default()
    };
    for k in warmup..warmup + measured {
        let addr = k * stride;
        // Access 0 has no predecessor: it misses everywhere.
        let stays = |shift: u32| k > 0 && addr >> shift == (addr - stride) >> shift;
        match shifts.iter().position(|&shift| stays(shift)) {
            Some(level) => profile.level_hits[level] += 1,
            None => profile.memory_hits += 1,
        }
        if !stays(page_shift) {
            profile.tlb_misses += 1;
        }
    }
    metasim_obs::counter_add("memsim.addresses", warmup + measured);
    metasim_obs::counter_add("memsim.sweep.closed_form", 1);
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MemorySpec;
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
        // The batch kernel must be bit-equivalent to the scalar loop it
        // replaced: identical profile, including a partial final batch.
        let s = spec();
        let n = (DRIVE_BATCH as u64) * 3 + 17;
        for kind in [AccessKind::Sequential, AccessKind::Random] {
            let w = Workload::new(1 << 20, kind, DependencyMode::Independent);
            let (mut batched, mut scalar) = (
                HierarchySim::new(&s.hierarchy()),
                HierarchySim::new(&s.hierarchy()),
            );
            match kind {
                AccessKind::Random => {
                    let rng = SeededRng::new(w.seed ^ w.working_set);
                    let mut a = RandomStream::new(0, w.working_set, ELEMENT_BYTES, rng.clone());
                    let mut b = RandomStream::new(0, w.working_set, ELEMENT_BYTES, rng);
                    drive(&mut batched, &mut a, n);
                    for _ in 0..n {
                        let addr = b.next_addr();
                        scalar.access(addr, ELEMENT_BYTES);
                    }
                }
                _ => {
                    let mut a =
                        StridedStream::new(0, w.working_set, w.stride_bytes(), ELEMENT_BYTES);
                    let mut b =
                        StridedStream::new(0, w.working_set, w.stride_bytes(), ELEMENT_BYTES);
                    drive(&mut batched, &mut a, n);
                    for _ in 0..n {
                        let addr = b.next_addr();
                        scalar.access(addr, ELEMENT_BYTES);
                    }
                }
            }
            assert_eq!(batched.profile(), scalar.profile(), "{kind:?}");
        }
    }

    /// Drive `warmup` accesses of `stream` through `sim`, fresh, clear the
    /// profile, drive `measured` more and return their profile: the
    /// forward warm-up that [`driven_profile`] settles instead.
    fn forward_profile<S: AddressStream>(
        mut sim: HierarchySim,
        mut stream: S,
        warmup: u64,
        measured: u64,
    ) -> AccessProfile {
        drive(&mut sim, &mut stream, warmup);
        sim.clear_profile();
        drive(&mut sim, &mut stream, measured);
        sim.profile().clone()
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
        let stream = StridedStream::new(0, working_set, stride, ELEMENT_BYTES);
        forward_profile(HierarchySim::new(h), stream, warmup, measured)
    }

    /// `workload`'s measurement driven through a fresh all-LRU simulator,
    /// whatever path [`simulate_profile`] takes.
    fn all_lru_profile(h: &Hierarchy, w: &Workload) -> AccessProfile {
        let (warmup, measured) = pass_lengths(w);
        let sim = HierarchySim::new(h);
        match w.kind {
            AccessKind::Random => {
                let rng = SeededRng::new(w.seed ^ w.working_set);
                let stream = RandomStream::new(0, w.working_set, ELEMENT_BYTES, rng);
                forward_profile(sim, stream, warmup, measured)
            }
            _ => {
                let stream = StridedStream::new(0, w.working_set, w.stride_bytes(), ELEMENT_BYTES);
                forward_profile(sim, stream, warmup, measured)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The counted profile of a sweep that never wraps equals driving
        // it through the simulator, whatever the hierarchy: 1-4 levels in
        // any order of line sizes, TLBs from one entry up, and strides
        // above and below the line and page sizes.
        #[test]
        fn fresh_sweeps_count_what_the_simulator_drives(
            levels in prop::collection::vec((4u32..10, 0usize..7, 0u32..8), 1..5),
            tlb in (1usize..65, 9u32..15),
            stride_elems in 1u64..17,
            warmup in 0u64..5000,
            measured in 1u64..5000,
        ) {
            let h = Hierarchy::of(&levels, tlb);
            let stride = stride_elems * ELEMENT_BYTES;
            let working_set = (warmup + measured - 1) * stride + ELEMENT_BYTES;
            prop_assert!(sweep_stays_fresh(working_set, stride, warmup + measured));
            prop_assert_eq!(
                fresh_sweep_profile(&h, stride, warmup, measured),
                driven_sweep(&h, working_set, stride, warmup, measured)
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
            let lru = HierarchySim::new(&h);
            let (a, b) = if random == 1 {
                let stream = RandomStream::new(0, span, ELEMENT_BYTES, SeededRng::new(seed));
                (
                    forward_profile(spanning, stream.clone(), warmup, measured),
                    forward_profile(lru, stream, warmup, measured),
                )
            } else {
                let stride = stride_elems * ELEMENT_BYTES;
                let stream = StridedStream::new(0, span, stride, ELEMENT_BYTES);
                (
                    forward_profile(spanning, stream.clone(), warmup, measured),
                    forward_profile(lru, stream, warmup, measured),
                )
            };
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn a_level_that_holds_the_working_set_is_first_touch_and_one_line_more_is_lru() {
        let h = spec().hierarchy();
        let l2 = h.levels[1];
        assert!(h.levels[0].capacity_bytes < l2.capacity_bytes);
        let rec = Arc::new(metasim_obs::InMemoryRecorder::new());
        let recorder = Arc::clone(&rec) as Arc<dyn metasim_obs::Recorder>;
        // Random, and a strided sweep that wraps (so is driven, not
        // counted), each at exactly the L2's capacity and one line more.
        for kind in [AccessKind::Random, AccessKind::Strided(16)] {
            let at_capacity = l2.capacity_bytes;
            for (working_set, first_touch) in [(at_capacity, 1), (at_capacity + l2.line_bytes, 0)] {
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
            0
        );
    }

    #[test]
    fn the_largest_wrapping_sweep_is_driven_and_one_element_more_is_counted() {
        let spec = spec();
        let h = spec.hierarchy();
        let rec = Arc::new(metasim_obs::InMemoryRecorder::new());
        let recorder = Arc::clone(&rec) as Arc<dyn metasim_obs::Recorder>;
        for kind in [AccessKind::Sequential, AccessKind::Strided(3)] {
            let stride = Workload::new(0, kind, DependencyMode::Independent).stride_bytes();
            // A working set past the measured-access cap, so warm-up plus
            // measured is a fixed 2 * MAX_MEASURED_ACCESSES steps.
            let steps = 2 * MAX_MEASURED_ACCESSES;
            let fresh = (steps - 1) * stride + ELEMENT_BYTES;
            for (working_set, counted) in [(fresh - ELEMENT_BYTES, false), (fresh, true)] {
                let w = Workload::new(working_set, kind, DependencyMode::Independent);
                assert_eq!(w.accesses_per_pass().min(MAX_MEASURED_ACCESSES), steps / 2);
                let before = rec.metrics_snapshot().counter("memsim.sweep.closed_form");
                let profile =
                    metasim_obs::with_recorder(Arc::clone(&recorder), || simulate_profile(&h, &w));
                let after = rec.metrics_snapshot().counter("memsim.sweep.closed_form");
                assert_eq!(after - before, u64::from(counted), "{kind:?} {working_set}");
                let driven = driven_sweep(&h, working_set, stride, steps / 2, steps / 2);
                assert_eq!(profile, driven, "{kind:?} {working_set}");
            }
        }
        // Either path adds every simulated access to `memsim.addresses`.
        let snap = rec.metrics_snapshot();
        assert_eq!(
            snap.counter("memsim.addresses"),
            4 * 2 * MAX_MEASURED_ACCESSES
        );
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
