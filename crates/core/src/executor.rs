//! The sharded study executor: a std-thread worker pool that partitions a
//! canonical work list into contiguous shards, runs them concurrently, and
//! hands the results back in exactly the input order.
//!
//! Sharding moves no output bit because of three properties, each pinned
//! by a test on the code that has it:
//!
//! * results are index-addressed and the shards are *contiguous* slices of
//!   the canonical list, so the merged output order is the input order no
//!   matter which worker finishes first (the tests below);
//! * every worker re-installs the spawning thread's observability recorder
//!   and chaos plan before touching the work, and each ground-truth noise
//!   stream is seeded from its full cell coordinates
//!   ([`noise_seeds`](metasim_apps::groundtruth::noise_seeds), whose tests
//!   assert the streams are disjoint over the grid), so per-task draws and
//!   fault decisions are the same pure functions of the task they are
//!   serially;
//! * shared memo tables (probes, ground truth, traces) are
//!   [`SingleFlight`](metasim_cache::SingleFlight), so two shards hitting
//!   the same cold cell coalesce instead of racing.
//!
//! End to end, the study tests `parallel_study_matches_serial_exactly` and
//! `degraded_runs_are_identical_at_any_job_count` compare whole sharded
//! runs with serial ones.
//!
//! Each worker opens a `shard:K` span under the caller's span context, so
//! the run manifest shows the actual shard layout of a `--jobs N` run.

use std::sync::Arc;

use metasim_chaos::FaultPoint;
use metasim_obs::hdr::LAT_SHARD;
use metasim_obs::{Recorder, SpanCtx, WorkerSpanBuffer};

/// Contiguous, balanced shard boundaries: `len` items split into at most
/// `shards` chunks of sizes differing by at most one, returned as
/// `(start, end)` half-open ranges in order. Empty shards are omitted.
#[must_use]
pub fn shard_bounds(len: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.clamp(1, len.max(1));
    let base = len / shards;
    let extra = len % shards;
    let mut bounds = Vec::new();
    let mut start = 0;
    for k in 0..shards {
        let size = base + usize::from(k < extra);
        if size == 0 {
            break;
        }
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// Re-install the spawning thread's ambient contexts (observability
/// recorder, chaos plan) on the current worker thread, then run `f`.
fn with_contexts<R>(
    recorder: Option<Arc<dyn Recorder>>,
    plan: Option<Arc<dyn FaultPoint>>,
    f: impl FnOnce() -> R,
) -> R {
    match (recorder, plan) {
        (Some(rec), Some(p)) => metasim_obs::with_recorder(rec, || metasim_chaos::with_plan(p, f)),
        (Some(rec), None) => metasim_obs::with_recorder(rec, f),
        (None, Some(p)) => metasim_chaos::with_plan(p, f),
        (None, None) => f(),
    }
}

/// Run `f` over `items` across up to `jobs` worker threads, returning the
/// results in input order.
///
/// The items are split into contiguous shards by [`shard_bounds`]; worker
/// `k` processes shard `k` in order under a `shard:k` span parented at
/// `parent`. With `jobs <= 1` (or a single item) everything runs inline on
/// the calling thread, in input order, with no threads spawned and no shard
/// spans — so a serial run makes the same calls in the same order as a
/// sharded one, only on one thread.
pub fn run_sharded<T, R, F>(parent: SpanCtx, jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let bounds = shard_bounds(items.len(), jobs);
    if jobs <= 1 || bounds.len() <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Ambient contexts are thread-local; capture them here so workers see
    // what the spawning thread sees.
    let recorder = metasim_obs::recorder();
    let plan = metasim_chaos::point();

    // One private span buffer per shard: workers record spans without ever
    // taking the shared recorder's log lock (metrics pass straight through
    // as lock-free atomics), and the buffers flush in shard-index order
    // after the join — so the merged span log is canonical no matter which
    // worker finishes first, the same discipline the result merge
    // follows.
    let buffers: Vec<Option<Arc<WorkerSpanBuffer>>> = (0..bounds.len())
        .map(|_| recorder.clone().map(|r| Arc::new(WorkerSpanBuffer::new(r))))
        .collect();

    // Carve the items into per-shard vectors (contiguous, in order).
    let mut remaining = items;
    let mut shards: Vec<Vec<T>> = Vec::with_capacity(bounds.len());
    for &(start, end) in bounds.iter().rev() {
        let _ = start;
        let tail = remaining.split_off(remaining.len() - (end - start));
        shards.push(tail);
    }
    shards.reverse();

    let f = &f;
    let mut results: Vec<Vec<R>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shards.len());
        for ((k, shard), buffer) in shards.into_iter().enumerate().zip(&buffers) {
            let worker_rec = buffer.as_ref().map(|b| Arc::clone(b) as Arc<dyn Recorder>);
            let plan = plan.clone();
            handles.push(scope.spawn(move || {
                with_contexts(worker_rec, plan, || {
                    // The guard must be created on this thread (it is not
                    // Send); the Copy context crosses instead.
                    let span = parent.span(format!("shard:{k}"));
                    let out = shard.into_iter().map(f).collect::<Vec<R>>();
                    metasim_obs::observe_hdr(LAT_SHARD, span.finish());
                    out
                })
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });

    // Workers have joined; hand each buffer's spans to the shared recorder
    // in shard order.
    for buffer in buffers.iter().flatten() {
        buffer.flush();
    }

    // Canonical merge: shard order == input order because shards are
    // contiguous prefixes/suffixes, never interleaved.
    let mut merged = Vec::with_capacity(results.iter().map(Vec::len).sum());
    for shard in &mut results {
        merged.append(shard);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim_obs::InMemoryRecorder;

    #[test]
    fn bounds_are_contiguous_and_balanced() {
        assert_eq!(shard_bounds(10, 4), vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        assert_eq!(shard_bounds(3, 8), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(shard_bounds(0, 4), Vec::<(usize, usize)>::new());
        assert_eq!(shard_bounds(5, 1), vec![(0, 5)]);
        // Cover, no gaps, no overlaps, sizes within one of each other.
        for len in 0..40 {
            for shards in 1..10 {
                let b = shard_bounds(len, shards);
                let mut cursor = 0;
                for &(s, e) in &b {
                    assert_eq!(s, cursor);
                    assert!(e > s);
                    cursor = e;
                }
                assert_eq!(cursor, len);
                assert_eq!(b.iter().map(|&(s, e)| e - s).sum::<usize>(), len);
                if let (Some(max), Some(min)) = (
                    b.iter().map(|&(s, e)| e - s).max(),
                    b.iter().map(|&(s, e)| e - s).min(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = run_sharded(SpanCtx::root(), 7, items.clone(), |x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_spawns_no_shard_spans() {
        let rec = std::sync::Arc::new(InMemoryRecorder::new());
        let out = metasim_obs::with_recorder(rec.clone(), || {
            run_sharded(metasim_obs::current_ctx(), 1, vec![1, 2, 3], |x| x + 1)
        });
        assert_eq!(out, vec![2, 3, 4]);
        assert!(rec.span_records().is_empty());
    }

    #[test]
    fn workers_inherit_the_recorder_and_parent_their_shard_spans() {
        let rec = std::sync::Arc::new(InMemoryRecorder::new());
        metasim_obs::with_recorder(rec.clone(), || {
            let _root = metasim_obs::span("study");
            let parent = metasim_obs::current_ctx();
            let out = run_sharded(parent, 4, (0..8).collect::<Vec<u64>>(), |x| {
                // Implicit spans opened inside a worker nest under its
                // shard span via the worker's thread-local CURRENT.
                let _s = metasim_obs::span(format!("cell:{x}"));
                x
            });
            assert_eq!(out, (0..8).collect::<Vec<u64>>());
        });
        let spans = rec.span_records();
        let root = spans.iter().find(|s| s.name == "study").unwrap();
        let shard_spans: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("shard:"))
            .collect();
        assert_eq!(shard_spans.len(), 4);
        for s in &shard_spans {
            assert_eq!(s.parent, root.id, "shard spans hang off the study span");
            assert!(s.dur_ns.is_some(), "shard spans close");
        }
        for cell in spans.iter().filter(|s| s.name.starts_with("cell:")) {
            assert!(
                shard_spans.iter().any(|s| s.id == cell.parent),
                "cell spans nest under a shard span"
            );
        }
    }

    #[test]
    fn buffered_span_log_is_canonical_regardless_of_finish_order() {
        // Shard 0 is forced to finish last; the flushed log must still list
        // shard 0 first, because flush order is shard order, not finish
        // order. The per-shard latency histogram records one entry per
        // shard either way.
        let run = || {
            let rec = std::sync::Arc::new(InMemoryRecorder::new());
            let names: Vec<String> = metasim_obs::with_recorder(rec.clone(), || {
                let root = metasim_obs::span("study");
                run_sharded(root.ctx(), 3, (0..6u64).collect::<Vec<_>>(), |x| {
                    let _s = metasim_obs::span(format!("cell:{x}"));
                    if x < 2 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    x
                });
                drop(root);
                rec.span_records().iter().map(|s| s.name.clone()).collect()
            });
            (names, rec)
        };
        let (names, rec) = run();
        assert_eq!(
            names,
            [
                "study", "shard:0", "cell:0", "cell:1", "shard:1", "cell:2", "cell:3", "shard:2",
                "cell:4", "cell:5"
            ],
            "canonical shard-order log"
        );
        assert_eq!(
            rec.metrics_snapshot().hdr("lat.shard").unwrap().count(),
            3,
            "one lat.shard observation per shard"
        );
        // And the order is reproducible run to run.
        assert_eq!(names, run().0);
    }

    #[test]
    fn jobs_one_and_eight_record_identical_span_content_modulo_tracks() {
        let record = |jobs: usize| {
            let rec = std::sync::Arc::new(InMemoryRecorder::new());
            metasim_obs::with_recorder(rec.clone(), || {
                let _root = metasim_obs::span("study");
                run_sharded(
                    metasim_obs::current_ctx(),
                    jobs,
                    (0..12u64).collect::<Vec<_>>(),
                    |x| {
                        let _s = metasim_obs::span(format!("cell:{x}"));
                        x * 2
                    },
                );
            });
            rec
        };
        let (serial, parallel) = (record(1), record(8));

        // Same span content either way, modulo the shard containers that
        // only the parallel run has.
        let content = |rec: &InMemoryRecorder| {
            let mut names: Vec<String> = rec
                .span_records()
                .into_iter()
                .map(|s| s.name)
                .filter(|n| !n.starts_with("shard:"))
                .collect();
            names.sort();
            names
        };
        assert_eq!(content(&serial), content(&parallel));

        // Both runs export to valid Chrome traces; only the track layout
        // differs (the parallel one fans out into shard-worker lanes).
        let trace = |rec: &InMemoryRecorder| {
            metasim_obs::export::chrome_trace(&metasim_obs::manifest::RunManifest::build(
                rec,
                metasim_obs::manifest::ManifestMeta::default(),
            ))
        };
        let s = metasim_obs::export::validate_chrome_trace(&trace(&serial)).unwrap();
        let p = metasim_obs::export::validate_chrome_trace(&trace(&parallel)).unwrap();
        assert_eq!(s.tracks, 1, "serial: everything on the main lane");
        assert_eq!(p.tracks, 9, "parallel: main lane + 8 shard lanes");
        assert_eq!(p.pairs, s.pairs + 8, "same spans plus shard containers");
    }

    #[test]
    fn workers_inherit_the_chaos_plan() {
        use metasim_chaos::FaultPlan;
        let plan = std::sync::Arc::new(FaultPlan::empty(7));
        let fired: Vec<bool> = metasim_chaos::with_plan(plan, || {
            run_sharded(SpanCtx::root(), 3, vec![(); 6], |()| {
                metasim_chaos::point().is_some()
            })
        });
        assert!(fired.iter().all(|&b| b), "every worker sees the plan");
        // This thread's plan, not the process-wide `active()` count, which
        // a concurrently running `with_plan` test also raises.
        assert!(
            metasim_chaos::point().is_none(),
            "plan uninstalls after the scope"
        );
    }
}
