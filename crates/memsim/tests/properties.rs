//! Property-based tests for the memory-hierarchy simulator.

use metasim_memsim::bandwidth::{measure_bandwidth, Workload};
use metasim_memsim::spec::MemorySpec;
use metasim_memsim::timing::{AccessKind, DependencyMode, TimingModel};
use proptest::prelude::*;

proptest! {
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
