//! Tiered cache-model benchmarks: the closed-form analytic model against the
//! exact address-level simulator.
//!
//! Three granularities:
//!
//! 1. **One point** — a single memory-resident `measure_bandwidth` call, the
//!    unit of work a MAPS sweep repeats ~55 times per curve. The exact path
//!    simulates ~65k addresses through every cache level; the analytic path
//!    evaluates a handful of closed-form expressions.
//! 2. **One MAPS sweep** — the full 5-curve, half-octave-grid measurement of
//!    one machine, the dominant cost of a cold study. This is the headline
//!    `tier: analytic` speedup quoted in `BENCH_study.json`.
//! 3. **Calibration** — what `Tier::Auto` pays once per spec to earn the
//!    right to use the analytic model (21 exact measurements + 21 closed
//!    forms + comparison).

#![allow(missing_docs)] // criterion_group!/criterion_main! emit undocumented fns

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use metasim_bench::shared_fleet;
use metasim_memsim::analytic::{analytic_bandwidth, max_tier_divergence};
use metasim_memsim::bandwidth::{measure_bandwidth, ProfileMemo, Workload};
use metasim_memsim::spec::MemorySpec;
use metasim_memsim::timing::{AccessKind, DependencyMode};
use metasim_probes::maps::measure_maps_tiered;
use metasim_probes::ResolvedTier;

fn memory_resident_workload() -> Workload {
    Workload::new(64 << 20, AccessKind::Random, DependencyMode::Independent)
}

fn bench_single_point(c: &mut Criterion) {
    let spec = MemorySpec::example_two_level();
    let w = memory_resident_workload();
    c.bench_function("point/exact", |b| {
        b.iter(|| black_box(measure_bandwidth(black_box(&spec), black_box(&w))));
    });
    c.bench_function("point/analytic", |b| {
        b.iter(|| black_box(analytic_bandwidth(black_box(&spec), black_box(&w))));
    });
}

fn bench_maps_sweep(c: &mut Criterion) {
    let fleet = shared_fleet();
    let machine = fleet.base();
    // A fresh profile memo per sweep: every iteration simulates.
    for (name, tier) in [
        ("maps_sweep/exact", ResolvedTier::Exact),
        ("maps_sweep/analytic", ResolvedTier::Analytic),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                black_box(measure_maps_tiered(
                    black_box(machine),
                    tier,
                    &ProfileMemo::new(),
                ))
            });
        });
    }
}

fn bench_calibration(c: &mut Criterion) {
    let spec = MemorySpec::example_two_level();
    c.bench_function("calibration/grid", |b| {
        b.iter(|| black_box(max_tier_divergence(black_box(&spec))));
    });
}

criterion_group!(
    benches,
    bench_single_point,
    bench_maps_sweep,
    bench_calibration
);
criterion_main!(benches);
