//! Component micro-benchmarks: the simulator and methodology hot paths
//! (bandwidth measurement, stride detection, probes, convolution,
//! prediction, network replay).

#![allow(missing_docs)] // criterion_group!/criterion_main! emit undocumented fns

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use metasim_apps::registry::TestCase;
use metasim_apps::tracing::{sample_addresses, trace_workload};
use metasim_bench::{shared_fleet, shared_probes, shared_study};
use metasim_core::formula::{cost_expr, eval_cost};
use metasim_core::metric::MetricId;
use metasim_machines::MachineId;
use metasim_memsim::bandwidth::{measure_bandwidth, measure_bandwidth_memo, ProfileMemo, Workload};
use metasim_memsim::spec::MemorySpec;
use metasim_memsim::timing::{AccessKind, DependencyMode};
use metasim_netsim::collectives::allreduce_time;
use metasim_netsim::replay::replay;
use metasim_probes::audit::hit_fraction_samples;
use metasim_probes::maps::{sweep_sizes, DependencyFlavor, MapsCurve};
use metasim_stats::rng::SeededRng;
use metasim_tracer::analysis::analyze_dependencies;
use metasim_tracer::stride::StrideDetector;

fn bench_bandwidth(c: &mut Criterion) {
    let fleet = shared_fleet();
    let spec = &fleet.get(MachineId::ArlOpteron).memory;
    let mut group = c.benchmark_group("bandwidth_measurement");
    group.sample_size(20);
    for (name, ws, kind) in [
        ("stream_64MiB", 64u64 << 20, AccessKind::Sequential),
        ("gups_64MiB", 64 << 20, AccessKind::Random),
        ("l2_resident_unit", 256 << 10, AccessKind::Sequential),
    ] {
        group.bench_function(name, |b| {
            let w = Workload::new(ws, kind, DependencyMode::Independent);
            b.iter(|| black_box(measure_bandwidth(spec, &w)));
        });
    }
    group.finish();
}

/// One memory spec per distinct cache hierarchy of the paper fleet.
fn distinct_hierarchies() -> Vec<MemorySpec> {
    let mut specs: Vec<MemorySpec> = Vec::new();
    for m in shared_fleet().all() {
        if !specs.iter().any(|s| s.hierarchy() == m.memory.hierarchy()) {
            specs.push(m.memory.clone());
        }
    }
    specs
}

/// The MS204 memory-resident sample (a 64 MiB random stream: 32 Ki
/// warm-up and 32 Ki measured accesses) on each distinct hierarchy of the
/// paper fleet, one fresh measurement per hierarchy per iteration.
fn bench_random_measurement(c: &mut Criterion) {
    let specs = distinct_hierarchies();
    let (_, sample) = hit_fraction_samples()[1];
    let mut group = c.benchmark_group("memsim");
    group.sample_size(20);
    group.throughput(Throughput::Elements(specs.len() as u64));
    group.bench_function("random_measurement_64mib", |b| {
        b.iter(|| {
            for spec in &specs {
                black_box(measure_bandwidth(spec, &sample));
            }
        });
    });
    group.finish();
}

/// The `Sequential` and `Strided(4)` MAPS sweeps over every size of
/// `sweep_sizes()` on each distinct hierarchy of the paper fleet, each
/// hierarchy with a fresh memo, so every point is measured, not recalled.
fn bench_sweep_profiles(c: &mut Criterion) {
    let specs = distinct_hierarchies();
    let mut group = c.benchmark_group("memsim");
    group.sample_size(20);
    group.throughput(Throughput::Elements(
        (2 * specs.len() * sweep_sizes().len()) as u64,
    ));
    group.bench_function("sweep_profiles", |b| {
        b.iter(|| {
            for spec in &specs {
                let memo = ProfileMemo::new();
                for kind in [AccessKind::Sequential, AccessKind::Strided(4)] {
                    for &ws in sweep_sizes() {
                        let w = Workload::new(ws, kind, DependencyMode::Independent);
                        black_box(measure_bandwidth_memo(spec, &w, &memo));
                    }
                }
            }
        });
    });
    group.finish();
}

/// Curve interpolation with the precomputed log-size table — the inner
/// loop of every MAPS-based convolution (called ~10^5 times per study).
fn bench_bandwidth_at(c: &mut Criterion) {
    let points: Vec<(u64, f64)> = sweep_sizes()
        .iter()
        .enumerate()
        .map(|(i, &ws)| (ws, 8e9 / (1.0 + i as f64)))
        .collect();
    let curve = MapsCurve::new(
        AccessKind::Sequential,
        DependencyFlavor::Independent,
        points,
    );
    let mut rng = SeededRng::new(7);
    let queries: Vec<u64> = (0..4096).map(|_| 1 + rng.next_below(1 << 27)).collect();

    let mut group = c.benchmark_group("maps_curve");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("bandwidth_at", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &ws in &queries {
                acc += curve.bandwidth_at(ws).get();
            }
            black_box(acc)
        });
    });
    group.finish();
}

/// Table 4 aggregation: one pass over the 150 observations with nine
/// running accumulators. The study is built inside the closure, so a name
/// filter that skips this bench skips the cold study too.
fn bench_table4(c: &mut Criterion) {
    c.bench_function("table4_single_pass", |b| {
        let study = shared_study();
        b.iter(|| black_box(study.table4()));
    });
}

fn bench_tracer(c: &mut Criterion) {
    let workload = TestCase::AvusStandard.workload(64);
    let block = &workload.blocks[0];
    let addrs = sample_addresses(block, 65_536);

    let mut group = c.benchmark_group("tracer");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    group.bench_function("stride_detector", |b| {
        b.iter(|| {
            let mut d = StrideDetector::new();
            d.observe_all(&addrs);
            black_box(d.bins())
        });
    });
    group.finish();

    c.bench_function("trace_full_workload", |b| {
        b.iter(|| black_box(trace_workload(&workload)));
    });
}

/// The probe sweep and trace this bench convolves are measured inside its
/// closure, so they run only when the bench is selected.
fn bench_convolver(c: &mut Criterion) {
    c.bench_function("convolve_all_nine_metrics", |b| {
        let probes = shared_probes().measure(shared_fleet().get(MachineId::ArlAltix));
        let trace = trace_workload(&TestCase::Overflow2Standard.workload(48));
        let labels = analyze_dependencies(&trace.blocks);
        let costs = MetricId::ALL.map(cost_expr);
        b.iter(|| {
            for cost in &costs {
                black_box(eval_cost(cost, &probes, &trace, &labels));
            }
        });
    });
}

fn bench_netsim(c: &mut Criterion) {
    let fleet = shared_fleet();
    let net = &fleet.get(MachineId::MhpccP3).network;
    let trace = TestCase::HycomStandard.workload(96).comm;

    c.bench_function("allreduce_cost_model", |b| {
        b.iter(|| black_box(allreduce_time(net, 256, 8)));
    });
    c.bench_function("replay_mpi_trace", |b| {
        b.iter(|| black_box(replay(net, 96, &trace.events)));
    });
}

criterion_group!(
    benches,
    bench_random_measurement,
    bench_sweep_profiles,
    bench_bandwidth,
    bench_bandwidth_at,
    bench_table4,
    bench_tracer,
    bench_convolver,
    bench_netsim
);
criterion_main!(benches);
