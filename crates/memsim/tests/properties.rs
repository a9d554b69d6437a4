//! Property-based tests for the memory-hierarchy simulator.

use metasim_memsim::bandwidth::{measure_bandwidth, Workload, DRIVE_BATCH};
use metasim_memsim::cache::Cache;
use metasim_memsim::hierarchy::HierarchySim;
use metasim_memsim::spec::{LevelSpec, MemorySpec, TlbSpec};
use metasim_memsim::timing::{AccessKind, DependencyMode, TimingModel};
use metasim_stats::rng::SeededRng;
use proptest::prelude::*;

fn small_level(cap_kib: u64, assoc: u32) -> LevelSpec {
    LevelSpec {
        capacity_bytes: cap_kib << 10,
        line_bytes: 64,
        associativity: assoc,
        load_bandwidth: 10e9,
        latency: 2e-9,
    }
}

proptest! {
    // Cache behaviour is a function of the address sequence only: replaying
    // a sequence yields identical hit/miss counts.
    #[test]
    fn cache_replay_is_deterministic(seed in 0u64..1000, n in 1usize..2000) {
        let spec = small_level(4, 2);
        let mut rng = SeededRng::new(seed);
        let addrs: Vec<u64> = (0..n).map(|_| rng.next_below(1 << 16)).collect();
        let mut a = Cache::new(&spec.geometry());
        let mut b = Cache::new(&spec.geometry());
        let ra: Vec<bool> = addrs.iter().map(|&x| a.access(x)).collect();
        let rb: Vec<bool> = addrs.iter().map(|&x| b.access(x)).collect();
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(a.hits(), b.hits());
    }

    // Inclusion-ish sanity: a repeat access to the immediately preceding
    // address always hits.
    #[test]
    fn immediate_repeat_always_hits(seed in 0u64..1000) {
        let spec = small_level(4, 2);
        let mut c = Cache::new(&spec.geometry());
        let mut rng = SeededRng::new(seed);
        for _ in 0..500 {
            let a = rng.next_below(1 << 20);
            c.access(a);
            prop_assert!(c.access(a), "second touch of {a} must hit");
        }
    }

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

    // Time is monotone in the profile: adding accesses never reduces time.
    #[test]
    fn time_is_monotone_in_accesses(
        l1 in 0u64..10_000, l2 in 0u64..10_000, mem in 0u64..10_000,
        extra_mem in 1u64..5_000,
    ) {
        let model = TimingModel::new(MemorySpec::example_two_level(), 8);
        let make = |l1, l2, mem| metasim_memsim::hierarchy::AccessProfile {
            level_hits: vec![l1, l2],
            memory_hits: mem,
            tlb_misses: 0,
            requested_bytes: (l1 + l2 + mem) * 8,
        };
        for kind in [AccessKind::Sequential, AccessKind::Strided(4), AccessKind::Random] {
            for deps in [DependencyMode::Independent, DependencyMode::Chained, DependencyMode::Branchy] {
                let t0 = model.time(&make(l1, l2, mem), kind, deps);
                let t1 = model.time(&make(l1, l2, mem + extra_mem), kind, deps);
                prop_assert!(t1 >= t0, "kind {kind:?} deps {deps:?}: {t1} < {t0}");
            }
        }
    }

    // Time is always non-negative and finite.
    #[test]
    fn time_is_finite_nonnegative(l1 in 0u64..100_000, mem in 0u64..100_000, tlb in 0u64..1000) {
        let model = TimingModel::new(MemorySpec::example_two_level(), 8);
        let p = metasim_memsim::hierarchy::AccessProfile {
            level_hits: vec![l1, 0],
            memory_hits: mem,
            tlb_misses: tlb,
            requested_bytes: (l1 + mem) * 8,
        };
        for kind in [AccessKind::Sequential, AccessKind::Strided(3), AccessKind::Random] {
            for deps in [DependencyMode::Independent, DependencyMode::Chained, DependencyMode::Branchy] {
                let t = model.time(&p, kind, deps);
                prop_assert!(t.is_finite() && t >= 0.0);
            }
        }
    }

}

/// A randomized but always-valid memory spec: one or two cache levels with
/// power-of-two geometry and a deliberately tiny TLB so batches of a few
/// thousand addresses exercise TLB misses and evictions, not just hits.
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

/// A randomized address sequence long enough to span several drive batches,
/// mixing the patterns the probes generate (monotone strides with wrap,
/// uniform random, immediate repeats) so the batch kernel's run-grouping and
/// MRU fast paths all get exercised, including partial final batches.
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

    // The tentpole pin: the vectorized, run-grouped, level-by-level
    // `access_batch` is bit-identical to the scalar per-address `access`
    // loop — same profile (level hits, memory hits, TLB misses, bytes) and
    // same cache/TLB state afterwards, for arbitrary specs and streams.
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
        // probe sequence after the divergence point must match too (this
        // catches stamp or fast-path state drift the counters would hide).
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
    }
}

// Full bandwidth measurements simulate tens of thousands of accesses per
// case; keep the case count modest so the suite stays fast in debug builds.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Measured bandwidth never exceeds L1 bandwidth and is positive.
    #[test]
    fn measured_bandwidth_within_physical_bounds(
        ws_log in 10u32..24,
        kind_sel in 0u8..3,
    ) {
        let spec = MemorySpec::example_two_level();
        let kind = match kind_sel {
            0 => AccessKind::Sequential,
            1 => AccessKind::Strided(4),
            _ => AccessKind::Random,
        };
        let sample = measure_bandwidth(
            &spec,
            &Workload::new(1 << ws_log, kind, DependencyMode::Independent),
        );
        let bw = sample.bytes_per_second();
        prop_assert!(bw > 0.0, "bandwidth must be positive");
        prop_assert!(
            bw <= spec.levels[0].load_bandwidth * (1.0 + 1e-9),
            "bw {bw} exceeds L1 {l1}",
            l1 = spec.levels[0].load_bandwidth
        );
    }

    // Chained dependency never increases bandwidth.
    #[test]
    fn chained_never_faster(ws_log in 10u32..22) {
        let spec = MemorySpec::example_two_level();
        let ind = measure_bandwidth(
            &spec,
            &Workload::new(1 << ws_log, AccessKind::Sequential, DependencyMode::Independent),
        );
        let dep = measure_bandwidth(
            &spec,
            &Workload::new(1 << ws_log, AccessKind::Sequential, DependencyMode::Chained),
        );
        prop_assert!(dep.bytes_per_second() <= ind.bytes_per_second() * (1.0 + 1e-9));
    }

    // Sequential delivered bandwidth is monotone non-increasing as working
    // sets cross cache-level boundaries (sampled at octave spacing).
    #[test]
    fn sequential_bandwidth_never_recovers_with_size(base_log in 10u32..20) {
        let spec = MemorySpec::example_two_level();
        let small = measure_bandwidth(
            &spec,
            &Workload::new(1 << base_log, AccessKind::Sequential, DependencyMode::Independent),
        );
        let big = measure_bandwidth(
            &spec,
            &Workload::new(1 << (base_log + 3), AccessKind::Sequential, DependencyMode::Independent),
        );
        prop_assert!(
            big.bytes_per_second() <= small.bytes_per_second() * 1.02,
            "bw grew: {} -> {}",
            small.bytes_per_second(),
            big.bytes_per_second()
        );
    }
}
