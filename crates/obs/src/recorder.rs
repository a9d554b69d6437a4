//! The in-memory recorder every span and metric lands in, and the
//! worker-local span buffer that keeps parallel recording contention-free.

use std::sync::Mutex;
use std::time::Instant;

use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// Identifies a span within one recorder. `0` is reserved for "no span"
/// (the root context); real ids start at 1.
pub type SpanId = u64;

/// First id of the worker-local span id space. A worker's [`WorkerSpans`]
/// gives its spans ids `WORKER_SPAN_ID_BASE + local index` so they can
/// reference each other (and canonical ids below the base) before
/// [`InMemoryRecorder::merge_spans`] assigns them real ids. `1 << 48`
/// leaves room for ~2.8e14 canonical spans — far beyond any run — while
/// staying recognizable in a debugger.
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

    /// The underlying registry: the free metric functions write to it, and
    /// callers may pre-register extra histograms.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Nanoseconds since this recorder's epoch: every span's `start_ns`,
    /// buffered ones included, so merged logs share one clock.
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` (0 = root) and return its id.
    pub fn span_enter(&self, parent: SpanId, name: String) -> SpanId {
        let start_ns = self.now_ns();
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

    /// Close the span, recording its wall time. Unknown ids are ignored.
    pub fn span_exit(&self, id: SpanId, dur_ns: u64) {
        let mut log = self.spans.lock().expect("span log lock");
        if let Some(rec) = id
            .checked_sub(1)
            .and_then(|i| log.get_mut(usize::try_from(i).unwrap_or(usize::MAX)))
        {
            rec.dur_ns = Some(dur_ns);
        }
    }

    /// Append one worker's buffered spans to the log in the order the
    /// worker opened them, under one lock acquisition. Each keeps its
    /// `start_ns` and takes the next canonical id. A parent below
    /// [`WORKER_SPAN_ID_BASE`] is canonical and passes through; a local one
    /// names an earlier span of the batch and is remapped to that span's
    /// new id (any other local parent becomes a root).
    pub fn merge_spans(&self, spans: WorkerSpans) {
        let mut log = self.spans.lock().expect("span log lock");
        let first = log.len() as SpanId + 1;
        for (i, mut s) in (0..).zip(spans.0) {
            if let Some(local) = s.parent.checked_sub(WORKER_SPAN_ID_BASE) {
                s.parent = if local < i { first + local } else { 0 };
            }
            s.id = first + i;
            log.push(s);
        }
    }
}

/// The spans one worker thread opened, kept on that thread (a
/// [`SpanGuard`](crate::SpanGuard) never leaves it) until
/// [`InMemoryRecorder::merge_spans`] adopts them. Local ids are
/// `WORKER_SPAN_ID_BASE + index`, so the merge remaps them by arithmetic.
#[derive(Debug, Default)]
pub struct WorkerSpans(Vec<SpanRecord>);

impl WorkerSpans {
    /// Buffer a span opened at `start_ns` and return its local id.
    pub(crate) fn enter(&mut self, parent: SpanId, name: String, start_ns: u64) -> SpanId {
        let id = WORKER_SPAN_ID_BASE + self.0.len() as SpanId;
        self.0.push(SpanRecord {
            id,
            parent,
            name,
            start_ns,
            dur_ns: None,
        });
        id
    }

    /// Close the buffered span with local id `id`; an index past the
    /// buffer is ignored.
    pub(crate) fn exit(&mut self, id: SpanId, dur_ns: u64) {
        let index = id - WORKER_SPAN_ID_BASE;
        if let Some(rec) = self.0.get_mut(usize::try_from(index).unwrap_or(usize::MAX)) {
            rec.dur_ns = Some(dur_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{with_worker_recorder, SpanCtx};
    use std::sync::Arc;

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

        // Two workers record on threads of their own without touching the
        // shared log; worker 1 finishes first.
        let worker = |k: usize, cells: usize| {
            std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        with_worker_recorder(Some(Arc::clone(&rec)), || {
                            let shard = SpanCtx(phase).span(format!("shard:{k}"));
                            for c in 0..cells {
                                // Implicit nesting under the shard span.
                                let _cell = crate::span(format!("cell:{c}"));
                            }
                            crate::counter_add("cells", 1);
                            crate::observe_hdr("lat.shard", 0.5);
                            shard.ctx()
                        })
                    })
                    .join()
                    .unwrap()
            })
        };
        let (shard_b, spans_b) = worker(1, 0);
        // Metrics arrive live, not buffered.
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter("cells"), 1);
        assert_eq!(snap.hdr("lat.shard").unwrap().count(), 1);
        let (shard_a, spans_a) = worker(0, 1);
        assert!(
            shard_a.0 >= WORKER_SPAN_ID_BASE,
            "local ids live above base"
        );
        assert!(shard_b.0 >= WORKER_SPAN_ID_BASE);
        assert_eq!(rec.span_records().len(), 1, "nothing shared until merged");
        assert_eq!((spans_a.0.len(), spans_b.0.len()), (2, 1));

        // Canonical order is merge order (shard index), not finish order.
        rec.merge_spans(spans_a);
        rec.merge_spans(spans_b);
        let log = rec.span_records();
        let names: Vec<&str> = log.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["phase:predictions", "shard:0", "cell:0", "shard:1"],
            "one canonical log in shard order"
        );
        let ids: Vec<SpanId> = log.iter().map(|s| s.id).collect();
        assert_eq!(ids, [1, 2, 3, 4], "merged spans take canonical ids");
        assert_eq!(log[1].parent, phase, "canonical parents pass through");
        assert_eq!(log[2].parent, log[1].id, "local parents are remapped");
        assert_eq!(log[3].parent, phase);
        assert!(log[1..].iter().all(|s| s.dur_ns.is_some()), "spans close");
        assert!(
            log[1].start_ns >= log[0].start_ns && log[2].start_ns >= log[1].start_ns,
            "buffered start times share the recorder epoch"
        );
        assert_eq!(rec.metrics_snapshot().counter("cells"), 2);
    }

    #[test]
    fn signed_error_histogram_is_preregistered() {
        let rec = InMemoryRecorder::new();
        rec.metrics().observe(SIGNED_ERROR_HISTOGRAM, -3.0);
        let snap = rec.metrics_snapshot();
        let h = snap.histogram(SIGNED_ERROR_HISTOGRAM).unwrap();
        assert_eq!(h.bounds, SIGNED_ERROR_BOUNDS.to_vec());
        assert_eq!(h.count(), 1);
    }
}
