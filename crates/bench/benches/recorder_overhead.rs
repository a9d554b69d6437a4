//! Recorder overhead: what span + metric instrumentation costs on the
//! hot path with (a) no recorder installed and (b) the in-memory recorder.
//!
//! The contract under test: the disabled path is one relaxed atomic
//! load per check, so leaving instrumentation compiled into probe and
//! prediction loops is free when nothing downstream consumes it.

#![allow(missing_docs)] // criterion_group!/criterion_main! emit undocumented fns

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use metasim_obs::{InMemoryRecorder, Recorder};

const SPANS_PER_ITER: u64 = 1_000;

/// The instrumented hot-path shape shared by every variant: the same
/// guarded span + counter + latency-histogram sequence the probe sweep
/// and prediction loops run, repeated `SPANS_PER_ITER` times.
fn instrumented_loop() {
    for i in 0..SPANS_PER_ITER {
        let span = metasim_obs::recording().then(|| metasim_obs::span("bench:unit"));
        metasim_obs::counter_add("bench.iterations", 1);
        black_box(i);
        if let Some(span) = span {
            metasim_obs::observe_hdr("lat.bench", span.finish());
        }
    }
}

fn bench_recorder_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("recorder_overhead");
    group.throughput(Throughput::Elements(SPANS_PER_ITER));

    // (a) Nothing installed: every check is one Relaxed atomic load and
    // the span/counter/histogram calls short-circuit.
    group.bench_function("disabled", |b| b.iter(instrumented_loop));

    // (b) In-memory recorder: full span log + metrics registry, the
    // `study --obs-out` configuration.
    group.bench_function("in_memory", |b| {
        let rec = Arc::new(InMemoryRecorder::new());
        metasim_obs::with_recorder(Arc::clone(&rec) as Arc<dyn Recorder>, || {
            b.iter(instrumented_loop);
        });
    });

    group.finish();
}

criterion_group!(benches, bench_recorder_overhead);
criterion_main!(benches);
