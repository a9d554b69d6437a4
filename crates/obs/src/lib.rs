//! metasim-obs: structured tracing, metrics, and run manifests for the
//! 1,350-prediction study pipeline.
//!
//! The paper's credibility rests on 150 observations × 9 metrics being
//! computed the same way every time; this crate makes every run *observable*
//! without changing a single computed value. Three layers:
//!
//! * **Spans** — hierarchical wall-time intervals
//!   (study → phase → app → cpu-count → machine → metric), recorded through
//!   the [`Recorder`] trait. When no thread has a recorder the
//!   instrumentation collapses to one relaxed atomic load per call site, so
//!   library users who never ask for observability pay nothing and study
//!   outputs are byte-identical either way.
//! * **Metrics** — named counters, gauges, and fixed-bucket histograms with
//!   a deterministic [`MetricsSnapshot`] API (probe sweeps run, cache
//!   hits/misses per artifact kind, memsim addresses simulated, convolution
//!   terms evaluated, the per-prediction signed-error distribution, …).
//! * **Run manifests** — a JSON provenance record
//!   ([`manifest::RunManifest`]) emitted at study end: schema version,
//!   config digest, cache state, the per-phase span tree, the metric
//!   snapshot, and the slowest spans. `metasim obs summarize` renders it;
//!   the `MS4xx` audit rules ([`audit`]) statically validate it.
//!
//! Instrumented crates call the free functions here ([`span`],
//! [`counter_add`], [`observe`], [`gauge_set`]). A recorder is reachable
//! from one thread only: the CLI and tests scope an [`InMemoryRecorder`]
//! to the calling thread with [`with_recorder`], and the study's sharded
//! executor hands the caller's recorder on to each worker it spawns.

pub mod audit;
pub mod diff;
pub mod export;
pub mod hdr;
pub mod manifest;
pub mod metrics;
pub mod recorder;
pub mod summarize;

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub use hdr::HdrSnapshot;
pub use metrics::{HistogramSnapshot, MetricsSnapshot};
pub use recorder::{
    InMemoryRecorder, Recorder, SpanId, SpanRecord, WorkerSpanBuffer, WORKER_SPAN_ID_BASE,
};

/// Number of [`with_recorder`] scopes open on any thread. The
/// instrumentation fast path is a single relaxed load of this counter:
/// zero means every call below is a no-op.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's recorder ([`with_recorder`]).
    static LOCAL: RefCell<Option<Arc<dyn Recorder>>> = const { RefCell::new(None) };
    /// The innermost live span on this thread (0 = root).
    static CURRENT: Cell<SpanId> = const { Cell::new(0) };
}

/// Decrements [`ACTIVE`] and clears the thread-local recorder even when the
/// wrapped closure unwinds.
struct LocalGuard {
    prev: Option<Arc<dyn Recorder>>,
}

impl Drop for LocalGuard {
    fn drop(&mut self) {
        LOCAL.with(|l| *l.borrow_mut() = self.prev.take());
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run `f` with `recorder` installed for *this thread only*, so parallel
/// tests never share a recorder. Threads `f` spawns see no recorder unless
/// they are handed one. The previous thread-local recorder (if any) is
/// restored afterwards, panics included.
pub fn with_recorder<R>(recorder: Arc<dyn Recorder>, f: impl FnOnce() -> R) -> R {
    let prev = LOCAL.with(|l| l.borrow_mut().replace(recorder));
    ACTIVE.fetch_add(1, Ordering::SeqCst);
    let _guard = LocalGuard { prev };
    f()
}

/// The recorder this thread's instrumentation writes to right now, if any.
#[must_use]
pub fn recorder() -> Option<Arc<dyn Recorder>> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    LOCAL.with(|l| l.borrow().clone())
}

/// Whether any thread has a recorder (cheap: one relaxed atomic load).
/// Callers may use this to skip building expensive span names.
#[must_use]
pub fn recording() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Add `delta` to the named counter. No-op without a recorder.
pub fn counter_add(name: &str, delta: u64) {
    if let Some(r) = recorder() {
        r.counter_add(name, delta);
    }
}

/// Set the named gauge. No-op without a recorder.
pub fn gauge_set(name: &str, value: f64) {
    if let Some(r) = recorder() {
        r.gauge_set(name, value);
    }
}

/// Record `value` into the named histogram. No-op without a recorder.
pub fn observe(name: &str, value: f64) {
    if let Some(r) = recorder() {
        r.observe(name, value);
    }
}

/// Record `value` (typically a span duration in seconds) into the named
/// log-scaled latency histogram ([`hdr`]). No-op without a recorder.
pub fn observe_hdr(name: &str, value: f64) {
    if let Some(r) = recorder() {
        r.observe_hdr(name, value);
    }
}

/// A copyable handle naming a span, used to parent child spans explicitly —
/// the way instrumented code carries the tree structure onto worker
/// threads, where thread-local nesting cannot be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx(pub SpanId);

impl SpanCtx {
    /// The root context (spans created under it become tree roots).
    #[must_use]
    pub fn root() -> Self {
        SpanCtx(0)
    }

    /// Open a span as an explicit child of this context.
    #[must_use]
    pub fn span(self, name: impl Into<String>) -> SpanGuard {
        SpanGuard::open(self.0, name.into())
    }
}

/// The innermost live span on this thread, as an explicit context.
#[must_use]
pub fn current_ctx() -> SpanCtx {
    SpanCtx(CURRENT.with(Cell::get))
}

/// Open a span under the thread's current span (implicit nesting).
#[must_use]
pub fn span(name: impl Into<String>) -> SpanGuard {
    current_ctx().span(name)
}

/// An open span. Closes (recording its duration) on drop or via
/// [`finish`](Self::finish), which additionally returns the measured wall
/// time — the study's phase timings come from exactly these values, so the
/// span log and the reported timings can never disagree.
///
/// Wall time is measured whether or not a recorder is installed; only the
/// *recording* is conditional.
pub struct SpanGuard {
    recorder: Option<Arc<dyn Recorder>>,
    id: SpanId,
    prev: SpanId,
    start: Instant,
    closed: bool,
    /// Guards restore thread-local state on drop; keep them on one thread.
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    fn open(parent: SpanId, name: String) -> Self {
        let recorder = recorder();
        let (id, prev) = match &recorder {
            Some(r) => {
                let id = r.span_enter(parent, name);
                let prev = CURRENT.with(|c| c.replace(id));
                (id, prev)
            }
            None => (0, 0),
        };
        SpanGuard {
            recorder,
            id,
            prev,
            start: Instant::now(),
            closed: false,
            _not_send: PhantomData,
        }
    }

    /// This span as an explicit parent for children created in closures
    /// that may run on other threads.
    #[must_use]
    pub fn ctx(&self) -> SpanCtx {
        SpanCtx(self.id)
    }

    fn close(&mut self) -> f64 {
        let elapsed = self.start.elapsed().as_secs_f64();
        if !self.closed {
            self.closed = true;
            if let Some(r) = self.recorder.take() {
                r.span_exit(self.id, self.start.elapsed().as_nanos() as u64);
                CURRENT.with(|c| c.set(self.prev));
            }
        }
        elapsed
    }

    /// Close the span now and return its wall time in seconds.
    #[must_use]
    pub fn finish(mut self) -> f64 {
        self.close()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_instrumentation_is_inert() {
        assert!(recorder().is_none());
        counter_add("noop.counter", 5);
        observe("noop.histogram", 1.0);
        gauge_set("noop.gauge", 2.0);
        let g = span("noop.span");
        let inner = g.ctx().span("noop.child");
        let secs = inner.finish();
        assert!(secs >= 0.0, "wall time is measured even when disabled");
        assert!(g.finish() >= secs);
    }

    #[test]
    fn with_recorder_scopes_to_the_thread_and_restores() {
        let rec = Arc::new(InMemoryRecorder::new());
        let before = recording();
        with_recorder(rec.clone(), || {
            assert!(recording());
            counter_add("scoped.counter", 3);
            let s = span("scoped.span");
            let _ = s.finish();
        });
        assert_eq!(recording(), before, "ACTIVE must be restored");
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter("scoped.counter"), 3);
        assert_eq!(rec.span_records().len(), 1);
    }

    #[test]
    fn with_recorder_restores_after_panic() {
        let rec = Arc::new(InMemoryRecorder::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_recorder(rec, || {
                let _s = span("doomed");
                panic!("boom");
            });
        }));
        assert!(result.is_err());
        assert!(recorder().is_none(), "local recorder must be cleared");
        counter_add("after.panic", 1); // must be a no-op, not a poisoned lock
    }
}
