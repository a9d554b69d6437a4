//! The sharded study executor: a std-thread worker pool that runs a
//! canonical work list concurrently and hands the results back in exactly
//! the input order.
//!
//! Workers do not own fixed slices of the list. Each one claims the next
//! unclaimed item from one shared queue, so items are claimed in input
//! order and a slow item (a sampled machine with a 64 MiB cache, say)
//! holds back only the worker running it while the others drain the rest.
//!
//! Sharding moves no output bit because of three properties, each pinned
//! by a test on the code that has it:
//!
//! * every result is placed by its item's index, so the merged output
//!   order is the input order no matter which worker ran which item or
//!   finished first (the tests below);
//! * every worker re-installs the spawning thread's observability recorder
//!   and chaos plan before touching the work, and each ground-truth noise
//!   stream is seeded from its full cell coordinates
//!   ([`noise_seeds`](metasim_apps::groundtruth::noise_seeds), whose tests
//!   assert the streams are disjoint over the grid), so per-task draws and
//!   fault decisions are the same pure functions of the task they are
//!   serially;
//! * shared memo tables (probes, ground truth, traces) are
//!   [`SingleFlight`](metasim_cache::SingleFlight), so two workers hitting
//!   the same cold cell coalesce instead of racing.
//!
//! End to end, the study tests `parallel_study_matches_serial_exactly` and
//! `degraded_runs_are_identical_at_any_job_count` compare whole sharded
//! runs with serial ones.
//!
//! Each worker opens a `shard:K` span under the caller's span context, and
//! the spans of the items it ran nest under it, so the run manifest records
//! which worker ran which item in that run. The outputs are canonical; the
//! span log is a record of the schedule.

use std::sync::{Arc, Mutex};

use metasim_chaos::FaultPoint;
use metasim_obs::hdr::LAT_SHARD;
use metasim_obs::{Recorder, SpanCtx, WorkerSpanBuffer};

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
/// `min(jobs, items.len())` workers each open a `shard:K` span parented at
/// `parent`, then repeatedly claim the next unclaimed item (in input
/// order) until none is left. With `jobs <= 1` (or a single item)
/// everything runs inline on the calling thread, in input order, with no
/// threads spawned and no shard spans — so a serial run makes the same
/// calls in the same order as a sharded one, only on one thread.
pub fn run_sharded<T, R, F>(parent: SpanCtx, jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let len = items.len();
    let workers = jobs.min(len);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Ambient contexts are thread-local; capture them here so workers see
    // what the spawning thread sees.
    let recorder = metasim_obs::recorder();
    let plan = metasim_chaos::point();

    // One private span buffer per worker: workers record spans without
    // ever taking the shared recorder's log lock (metrics pass straight
    // through as lock-free atomics), and the buffers flush in worker order
    // after the join.
    let buffers: Vec<Option<Arc<WorkerSpanBuffer>>> = (0..workers)
        .map(|_| recorder.clone().map(|r| Arc::new(WorkerSpanBuffer::new(r))))
        .collect();

    // The shared queue: claiming an item is one `next()` under the lock,
    // so claim order is input order. `f` never runs under the lock.
    let queue = Mutex::new(items.into_iter().enumerate());
    let (f, queue) = (&f, &queue);
    let claimed: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for (k, buffer) in buffers.iter().enumerate() {
            let worker_rec = buffer.as_ref().map(|b| Arc::clone(b) as Arc<dyn Recorder>);
            let plan = plan.clone();
            handles.push(scope.spawn(move || {
                with_contexts(worker_rec, plan, || {
                    // The guard must be created on this thread (it is not
                    // Send); the Copy context crosses instead.
                    let span = parent.span(format!("shard:{k}"));
                    let mut out = Vec::new();
                    loop {
                        let next = queue
                            .lock()
                            .expect("a worker panicked while claiming")
                            .next();
                        let Some((index, item)) = next else { break };
                        out.push((index, f(item)));
                    }
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
    // in worker order.
    for buffer in buffers.iter().flatten() {
        buffer.flush();
    }

    // Place every result at its item's index: the output order is the
    // input order whoever ran the item.
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    for (index, result) in claimed.into_iter().flatten() {
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim_obs::InMemoryRecorder;
    use std::sync::Condvar;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = run_sharded(SpanCtx::root(), 7, items.clone(), |x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        // Uneven item costs make workers finish out of input order.
        for jobs in [2, 3, 8] {
            let out = run_sharded(SpanCtx::root(), jobs, (0..24u64).collect(), |x| {
                std::thread::sleep(Duration::from_millis((x * 7) % 5));
                x * 3
            });
            assert_eq!(
                out,
                (0..24u64).map(|x| x * 3).collect::<Vec<_>>(),
                "jobs {jobs}"
            );
        }
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
    fn a_slow_item_does_not_hold_back_the_rest() {
        // Item 0 finishes only after every other item has: a worker that
        // owned a fixed slice starting at item 0 could never run the rest
        // of that slice, so only claiming the next item avoids the timeout.
        const N: u64 = 8;
        let done = (Mutex::new(0u64), Condvar::new());
        let rec = Arc::new(InMemoryRecorder::new());
        let out = metasim_obs::with_recorder(rec.clone(), || {
            let root = metasim_obs::span("study");
            run_sharded(root.ctx(), 2, (0..N).collect(), |x| {
                let _s = metasim_obs::span(format!("cell:{x}"));
                let (count, cv) = &done;
                let mut count = count.lock().unwrap();
                if x == 0 {
                    let (count, timeout) = cv
                        .wait_timeout_while(count, Duration::from_secs(10), |c| *c < N - 1)
                        .unwrap();
                    assert!(
                        !timeout.timed_out(),
                        "item 0 waited on {} of {}",
                        *count,
                        N - 1
                    );
                } else {
                    *count += 1;
                    cv.notify_all();
                }
                x
            })
        });
        assert_eq!(out, (0..N).collect::<Vec<_>>());

        // The log lists the worker containers in worker order, each
        // followed by the cells it ran, in claim order: one worker ran
        // item 0 alone, the other everything else.
        let spans = rec.span_records();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        let rest: Vec<String> = (1..N).map(|x| format!("cell:{x}")).collect();
        let rest: Vec<&str> = rest.iter().map(String::as_str).collect();
        let (first, second) = if names[2] == "cell:0" {
            (vec!["cell:0"], rest)
        } else {
            (rest, vec!["cell:0"])
        };
        let expected: Vec<&str> = std::iter::once("study")
            .chain(std::iter::once("shard:0"))
            .chain(first)
            .chain(std::iter::once("shard:1"))
            .chain(second)
            .collect();
        assert_eq!(names, expected);
        // Every cell sits under the shard span of the worker that ran it.
        for cell in spans.iter().filter(|s| s.name.starts_with("cell:")) {
            let parent = spans.iter().find(|s| s.id == cell.parent).unwrap();
            assert!(
                parent.name.starts_with("shard:"),
                "{} under {}",
                cell.name,
                parent.name
            );
        }
        assert_eq!(
            rec.metrics_snapshot().hdr("lat.shard").unwrap().count(),
            2,
            "one lat.shard observation per worker"
        );
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
