//! The [`Recorder`] sink trait, its in-memory implementation, and the
//! per-worker span buffer that keeps parallel recording contention-free.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// Identifies a span within one recorder. `0` is reserved for "no span"
/// (the root context); real ids start at 1.
pub type SpanId = u64;

/// First id of the worker-local span id space. A [`WorkerSpanBuffer`]
/// allocates ids at `WORKER_SPAN_ID_BASE + local index` so buffered spans
/// can reference each other (and canonical ids below the base) before the
/// merge assigns them real ids. `1 << 48` leaves room for ~2.8e14 canonical
/// spans — far beyond any run — while staying recognizable in a debugger.
pub const WORKER_SPAN_ID_BASE: SpanId = 1 << 48;

/// One recorded span: who opened it, under what, when, and for how long.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// This span's id (index into the recorder's log, starting at 1).
    pub id: SpanId,
    /// Parent span id, or 0 for a tree root.
    pub parent: SpanId,
    /// Hierarchical name, e.g. `phase:ground-truth` or `metric:#7`.
    pub name: String,
    /// Nanoseconds since the recorder's epoch at span entry.
    pub start_ns: u64,
    /// Wall time in nanoseconds; `None` while the span is still open.
    pub dur_ns: Option<u64>,
}

/// Where instrumentation events land. Implementations must be thread-safe:
/// the study's parallel loops record from whatever thread runs them.
pub trait Recorder: Send + Sync {
    /// Open a span under `parent` (0 = root) and return its id.
    fn span_enter(&self, parent: SpanId, name: String) -> SpanId;
    /// Close the span, recording its wall time.
    fn span_exit(&self, id: SpanId, dur_ns: u64);
    /// Add `delta` to a named counter.
    fn counter_add(&self, name: &str, delta: u64);
    /// Set a named gauge.
    fn gauge_set(&self, name: &str, value: f64);
    /// Record a fixed-bucket histogram observation.
    fn observe(&self, name: &str, value: f64);
    /// Record a log-scaled latency histogram observation
    /// ([`crate::hdr`]). Defaults to a no-op so bare span sinks (e.g. a
    /// streaming trace writer) need not carry a metrics registry.
    fn observe_hdr(&self, name: &str, value: f64) {
        let _ = (name, value);
    }
    /// Nanoseconds since this recorder's epoch — what buffered spans stamp
    /// as their `start_ns` so merged logs share one clock. Defaults to 0
    /// for sinks with no time base.
    fn now_ns(&self) -> u64 {
        0
    }
    /// Adopt a batch of spans recorded elsewhere (a [`WorkerSpanBuffer`]),
    /// in the batch's order. Ids at or above [`WORKER_SPAN_ID_BASE`]
    /// reference earlier spans *within the batch* and must be remapped;
    /// ids below the base are canonical and pass through. The default
    /// replays the batch through `span_enter`/`span_exit`, which preserves
    /// structure but restamps entry times; recorders with a clock should
    /// override to keep the original `start_ns`.
    fn merge_spans(&self, spans: Vec<SpanRecord>) {
        let mut ids: HashMap<SpanId, SpanId> = HashMap::with_capacity(spans.len());
        for s in spans {
            let parent = if s.parent >= WORKER_SPAN_ID_BASE {
                ids.get(&s.parent).copied().unwrap_or(0)
            } else {
                s.parent
            };
            let id = self.span_enter(parent, s.name);
            ids.insert(s.id, id);
            if let Some(dur) = s.dur_ns {
                self.span_exit(id, dur);
            }
        }
    }
}

/// A per-worker span buffer: the contention-free recording path under
/// `study --jobs N`.
///
/// Without it, every span a worker opens or closes takes the shared
/// recorder's log mutex — N workers opening ~90 prediction-cell spans each
/// serialize on that one lock. The buffer instead gives each worker a
/// private log (its mutex is uncontended: only the owning worker touches
/// it) and forwards metrics straight through (those are lock-free atomics
/// in the registry). At shard close the executor calls [`flush`], which
/// hands the whole batch to the inner recorder's `merge_spans` in one lock
/// acquisition. The executor flushes buffers in worker order after all
/// workers join, so each worker's spans stay together in the merged log,
/// whichever worker finished first.
///
/// [`flush`]: WorkerSpanBuffer::flush
pub struct WorkerSpanBuffer {
    inner: Arc<dyn Recorder>,
    spans: Mutex<Vec<SpanRecord>>,
}

impl WorkerSpanBuffer {
    /// A fresh buffer forwarding metrics (and eventually spans) to `inner`.
    #[must_use]
    pub fn new(inner: Arc<dyn Recorder>) -> Self {
        WorkerSpanBuffer {
            inner,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Hand every buffered span to the inner recorder in recorded order.
    /// Call after the worker has finished (its spans closed); open spans
    /// merge as never-closed records.
    pub fn flush(&self) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("worker span buffer"));
        if !spans.is_empty() {
            self.inner.merge_spans(spans);
        }
    }

    /// Spans buffered and not yet flushed (diagnostics/tests).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.spans.lock().expect("worker span buffer").len()
    }
}

impl Recorder for WorkerSpanBuffer {
    fn span_enter(&self, parent: SpanId, name: String) -> SpanId {
        let start_ns = self.inner.now_ns();
        let mut buf = self.spans.lock().expect("worker span buffer");
        let id = WORKER_SPAN_ID_BASE + buf.len() as SpanId;
        buf.push(SpanRecord {
            id,
            parent,
            name,
            start_ns,
            dur_ns: None,
        });
        id
    }

    fn span_exit(&self, id: SpanId, dur_ns: u64) {
        if let Some(i) = id.checked_sub(WORKER_SPAN_ID_BASE) {
            let mut buf = self.spans.lock().expect("worker span buffer");
            if let Some(rec) = buf.get_mut(usize::try_from(i).unwrap_or(usize::MAX)) {
                rec.dur_ns = Some(dur_ns);
            }
        } else {
            // A canonical id: the span was opened outside this buffer.
            self.inner.span_exit(id, dur_ns);
        }
    }

    fn counter_add(&self, name: &str, delta: u64) {
        self.inner.counter_add(name, delta);
    }

    fn gauge_set(&self, name: &str, value: f64) {
        self.inner.gauge_set(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.inner.observe(name, value);
    }

    fn observe_hdr(&self, name: &str, value: f64) {
        self.inner.observe_hdr(name, value);
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }
}

/// Signed-error buckets (percent) for the per-prediction distribution —
/// asymmetric because the paper's Table 4 errors skew positive (predictions
/// overshooting measured runtime) and under-predictions bottom out at -100%.
pub const SIGNED_ERROR_BOUNDS: &[f64] = &[
    -80.0, -60.0, -40.0, -20.0, -10.0, -5.0, 0.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 120.0, 200.0,
];

/// Name of the pre-registered signed-error histogram.
pub const SIGNED_ERROR_HISTOGRAM: &str = "study.signed_error_pct";

/// Collects every span and metric in memory; the manifest builder reads it
/// back at study end. Span ids are 1-based indices into an append-only log,
/// so entry order (= id order) is also chronological order.
#[derive(Debug)]
pub struct InMemoryRecorder {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    metrics: MetricsRegistry,
}

impl Default for InMemoryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemoryRecorder {
    /// Fresh recorder whose epoch is "now", with the study's signed-error
    /// histogram pre-registered on its paper-calibrated buckets.
    #[must_use]
    pub fn new() -> Self {
        let metrics = MetricsRegistry::new();
        metrics.register_histogram(SIGNED_ERROR_HISTOGRAM, SIGNED_ERROR_BOUNDS);
        InMemoryRecorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            metrics,
        }
    }

    /// Copy of the span log, in entry (chronological) order.
    #[must_use]
    pub fn span_records(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// Deterministic snapshot of all metrics.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The underlying registry, for pre-registering extra histograms.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

impl Recorder for InMemoryRecorder {
    fn span_enter(&self, parent: SpanId, name: String) -> SpanId {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut log = self.spans.lock().expect("span log lock");
        let id = log.len() as SpanId + 1;
        log.push(SpanRecord {
            id,
            parent,
            name,
            start_ns,
            dur_ns: None,
        });
        id
    }

    fn span_exit(&self, id: SpanId, dur_ns: u64) {
        let mut log = self.spans.lock().expect("span log lock");
        if let Some(rec) = id
            .checked_sub(1)
            .and_then(|i| log.get_mut(usize::try_from(i).unwrap_or(usize::MAX)))
        {
            rec.dur_ns = Some(dur_ns);
        }
    }

    fn counter_add(&self, name: &str, delta: u64) {
        self.metrics.counter_add(name, delta);
    }

    fn gauge_set(&self, name: &str, value: f64) {
        self.metrics.gauge_set(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.metrics.observe(name, value);
    }

    fn observe_hdr(&self, name: &str, value: f64) {
        self.metrics.hdr_observe(name, value);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn merge_spans(&self, spans: Vec<SpanRecord>) {
        // One lock acquisition for the whole batch, preserving each span's
        // buffered `start_ns` (stamped against this recorder's epoch via
        // the buffer's `now_ns` passthrough) while assigning canonical
        // log-index ids.
        let mut log = self.spans.lock().expect("span log lock");
        let mut ids: HashMap<SpanId, SpanId> = HashMap::with_capacity(spans.len());
        for mut s in spans {
            let id = log.len() as SpanId + 1;
            ids.insert(s.id, id);
            if s.parent >= WORKER_SPAN_ID_BASE {
                s.parent = ids.get(&s.parent).copied().unwrap_or(0);
            }
            s.id = id;
            log.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_sequential_and_exit_fills_duration() {
        let rec = InMemoryRecorder::new();
        let a = rec.span_enter(0, "a".into());
        let b = rec.span_enter(a, "b".into());
        assert_eq!((a, b), (1, 2));
        rec.span_exit(b, 50);
        rec.span_exit(a, 100);
        let log = rec.span_records();
        assert_eq!(log[0].name, "a");
        assert_eq!(log[0].dur_ns, Some(100));
        assert_eq!(log[1].parent, a);
        assert_eq!(log[1].dur_ns, Some(50));
        assert!(
            log[1].start_ns >= log[0].start_ns,
            "entry order is time order"
        );
    }

    #[test]
    fn exit_on_unknown_id_is_ignored() {
        let rec = InMemoryRecorder::new();
        rec.span_exit(0, 1);
        rec.span_exit(99, 1);
        assert!(rec.span_records().is_empty());
    }

    #[test]
    fn worker_buffer_merges_canonically_and_preserves_structure() {
        let rec = Arc::new(InMemoryRecorder::new());
        // A canonical span already in the log (the phase span workers
        // parent their shard spans under).
        let phase = rec.span_enter(0, "phase:predictions".into());

        // Two workers record concurrently without touching the shared log.
        let buf_a = WorkerSpanBuffer::new(Arc::clone(&rec) as Arc<dyn Recorder>);
        let buf_b = WorkerSpanBuffer::new(Arc::clone(&rec) as Arc<dyn Recorder>);
        let shard_a = buf_a.span_enter(phase, "shard:0".into());
        let cell_a = buf_a.span_enter(shard_a, "cell:a".into());
        buf_a.span_exit(cell_a, 10);
        buf_a.span_exit(shard_a, 20);
        let shard_b = buf_b.span_enter(phase, "shard:1".into());
        buf_b.span_exit(shard_b, 30);
        buf_b.counter_add("cells", 1);
        buf_b.observe_hdr("lat.shard", 0.5);
        assert!(shard_a >= WORKER_SPAN_ID_BASE, "local ids live above base");
        assert_eq!(rec.span_records().len(), 1, "nothing shared until flush");
        assert_eq!(buf_a.buffered(), 2);

        // Canonical order is flush order (shard index), not finish order.
        buf_a.flush();
        buf_b.flush();
        assert_eq!(buf_a.buffered(), 0);
        let log = rec.span_records();
        let names: Vec<&str> = log.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["phase:predictions", "shard:0", "cell:a", "shard:1"],
            "one canonical log in shard order"
        );
        assert_eq!(log[1].parent, phase, "canonical parents pass through");
        assert_eq!(log[2].parent, log[1].id, "local parents are remapped");
        assert_eq!(log[3].parent, phase);
        assert_eq!(log[2].dur_ns, Some(10));
        assert!(
            log[2].start_ns >= log[1].start_ns,
            "buffered start times share the recorder epoch"
        );
        // Metrics forwarded live, not buffered.
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter("cells"), 1);
        assert_eq!(snap.hdr("lat.shard").unwrap().count(), 1);
    }

    #[test]
    fn default_merge_replays_through_enter_exit() {
        // A sink that does NOT override merge_spans (or now_ns): the trait
        // default must rebuild the same tree by replaying enter/exit.
        struct ReplaySink(InMemoryRecorder);
        impl Recorder for ReplaySink {
            fn span_enter(&self, parent: SpanId, name: String) -> SpanId {
                self.0.span_enter(parent, name)
            }
            fn span_exit(&self, id: SpanId, dur_ns: u64) {
                self.0.span_exit(id, dur_ns);
            }
            fn counter_add(&self, name: &str, delta: u64) {
                self.0.counter_add(name, delta);
            }
            fn gauge_set(&self, name: &str, value: f64) {
                self.0.gauge_set(name, value);
            }
            fn observe(&self, name: &str, value: f64) {
                self.0.observe(name, value);
            }
        }

        let sink = ReplaySink(InMemoryRecorder::new());
        let batch = vec![
            SpanRecord {
                id: WORKER_SPAN_ID_BASE,
                parent: 0,
                name: "outer".into(),
                start_ns: 0,
                dur_ns: Some(9),
            },
            SpanRecord {
                id: WORKER_SPAN_ID_BASE + 1,
                parent: WORKER_SPAN_ID_BASE,
                name: "inner".into(),
                start_ns: 3,
                dur_ns: Some(5),
            },
        ];
        sink.merge_spans(batch);
        assert_eq!(sink.now_ns(), 0, "default clock has no time base");
        let log = sink.0.span_records();
        assert_eq!(log.len(), 2);
        assert_eq!(log[1].parent, log[0].id, "local parents remapped");
        assert_eq!(log[0].dur_ns, Some(9));
        assert_eq!(log[1].dur_ns, Some(5));
    }

    #[test]
    fn signed_error_histogram_is_preregistered() {
        let rec = InMemoryRecorder::new();
        rec.observe(SIGNED_ERROR_HISTOGRAM, -3.0);
        let snap = rec.metrics_snapshot();
        let h = snap.histogram(SIGNED_ERROR_HISTOGRAM).unwrap();
        assert_eq!(h.bounds, SIGNED_ERROR_BOUNDS.to_vec());
        assert_eq!(h.count(), 1);
    }
}
