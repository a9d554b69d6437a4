//! Instrumenting a workload: the MetaSim Tracer run.
//!
//! Tracing happens *once per (application, processor count)* on the base
//! system — that's the paper's methodology and its cost argument. This
//! module drives each work block's address generator, feeds the stream to
//! the stride detector, and assembles an [`ApplicationTrace`]. Detection is
//! performed on a sampled prefix of each block's stream (real tracers
//! sample too, and the detector's chunk-boundary misclassifications are the
//! same kind of noise a per-PC hardware detector sees on loop preambles).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use metasim_cache::{content_key, ArtifactKey, ArtifactStore, SingleFlight};
use metasim_tracer::block::{StrideBins, TracedBlock};
use metasim_tracer::stride::StrideDetector;
use metasim_tracer::trace::ApplicationTrace;

use crate::workload::{AppWorkload, WorkBlock, ELEMENT_BYTES};

/// References sampled per block for stride detection (enough chunks that
/// the detected class fractions are within a few percent of the loop mix).
pub const SAMPLE_REFS: usize = 32_768;

/// Run length of one class before the generator switches, mimicking inner
/// loops that issue bursts of same-class references.
pub const CHUNK: usize = 256;

/// Generate a sampled address stream with the block's class mix, in chunks,
/// the way the block's real inner loops would interleave.
#[must_use]
pub fn sample_addresses(block: &WorkBlock, n: usize) -> Vec<u64> {
    let mut rng = block.rng("trace-stream");
    let ws = block.working_set.max(ELEMENT_BYTES);
    let slots = ws / ELEMENT_BYTES;
    let stride = u64::from(block.short_stride()) * ELEMENT_BYTES;
    let weights = [block.mix.0, block.mix.1, block.mix.2];

    let mut out = Vec::with_capacity(n);
    let mut seq_cursor = 0u64;
    let mut short_cursor = 0u64;
    while out.len() < n {
        let class = rng.weighted_index(&weights);
        let burst = CHUNK.min(n - out.len());
        match class {
            0 => {
                for _ in 0..burst {
                    out.push(seq_cursor);
                    seq_cursor += ELEMENT_BYTES;
                    if seq_cursor + ELEMENT_BYTES > ws {
                        seq_cursor = 0;
                    }
                }
            }
            1 => {
                for _ in 0..burst {
                    out.push(short_cursor);
                    short_cursor += stride;
                    if short_cursor + ELEMENT_BYTES > ws {
                        short_cursor = 0;
                    }
                }
            }
            _ => {
                for _ in 0..burst {
                    out.push(rng.next_below(slots) * ELEMENT_BYTES);
                }
            }
        }
    }
    out
}

/// Trace one block: detect stride bins on a sample and scale to the block's
/// full per-invocation reference count.
#[must_use]
pub fn trace_block(block: &WorkBlock) -> TracedBlock {
    let n = SAMPLE_REFS.min(block.refs.max(1) as usize);
    let addrs = sample_addresses(block, n);
    let mut detector = StrideDetector::new();
    detector.observe_all(&addrs);
    let sampled = detector.bins();
    let total = sampled.total().max(1);

    // Scale sampled fractions to the block's true per-invocation count,
    // keeping the total exact (remainder to the dominant stride-1 bin).
    let scale = |part: u64| (block.refs as f64 * part as f64 / total as f64) as u64;
    let short = scale(sampled.short);
    let random = scale(sampled.random);
    let stride1 = block.refs.saturating_sub(short + random);

    TracedBlock {
        name: block.name.clone(),
        flops: block.flops,
        bins: StrideBins {
            stride1,
            short,
            random,
        },
        working_set: block.working_set,
        dependency: block.dependency,
        invocations: block.invocations,
    }
}

/// Trace a full workload into an [`ApplicationTrace`].
#[must_use]
pub fn trace_workload(workload: &AppWorkload) -> ApplicationTrace {
    let trace = ApplicationTrace {
        app: workload.app.clone(),
        case: workload.case.clone(),
        processes: workload.processes,
        blocks: workload.blocks.iter().map(trace_block).collect(),
        mpi: workload.comm.clone(),
    };
    trace.validate().expect("generated trace must validate");
    trace
}

/// Artifact-store kind directory for persisted application traces.
pub const TRACE_KIND: &str = "trace";

/// Why a workload could not be traced: an installed `metasim-chaos` fault
/// plan dropped trace records on every attempt in the retry budget. Like a
/// probe failure, the outcome memoizes, so a run tells one story per
/// workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFailure {
    /// Application name.
    pub app: String,
    /// Test case name.
    pub case: String,
    /// Processor count.
    pub processes: u64,
    /// Human-readable cause.
    pub reason: String,
}

impl std::fmt::Display for TraceFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace unavailable for {}/{}@{}: {}",
            self.app, self.case, self.processes, self.reason
        )
    }
}

impl std::error::Error for TraceFailure {}

/// Memoizing, optionally store-backed front end to [`trace_workload`].
///
/// Tracing is the paper's pay-once cost (§3); this cache makes that true of
/// the reproduction too. In-process, concurrent callers of the same
/// workload are *single-flight* — they block on one tracing run instead of
/// racing duplicates. With a store attached, traces persist across
/// processes under a key derived from the full serialized workload, and
/// every load is re-validated against the `MS20x` audit rules; entries
/// that fail are evicted and re-traced.
///
/// This is also the trace-drop fault seam: an installed fault plan can make
/// acquisition attempts drop records ([`TraceCache::try_trace`] retries
/// with the default [`metasim_chaos::RetryPolicy`] and surfaces exhaustion
/// as a [`TraceFailure`]).
#[derive(Debug, Default)]
pub struct TraceCache {
    cells: SingleFlight<ArtifactKey, Result<Arc<ApplicationTrace>, TraceFailure>>,
    store: Option<Arc<ArtifactStore>>,
    traces: AtomicUsize,
}

impl TraceCache {
    /// In-process memoization only.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Memoize in-process *and* persist traces in `store`.
    #[must_use]
    pub fn with_store(store: Arc<ArtifactStore>) -> Self {
        Self {
            store: Some(store),
            ..Self::default()
        }
    }

    /// The content key a workload's trace is stored under.
    #[must_use]
    pub fn store_key(workload: &AppWorkload) -> ArtifactKey {
        content_key(&[TRACE_KIND], workload)
    }

    /// The trace for `workload`, computed at most once per key.
    ///
    /// Panics if acquisition fails (only possible under an installed fault
    /// plan); robustness-aware callers use [`try_trace`](Self::try_trace).
    #[must_use]
    pub fn trace(&self, workload: &AppWorkload) -> Arc<ApplicationTrace> {
        self.try_trace(workload).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`trace`](Self::trace): `Err` when an installed
    /// fault plan drops trace records on every attempt in the retry budget.
    pub fn try_trace(&self, workload: &AppWorkload) -> Result<Arc<ApplicationTrace>, TraceFailure> {
        let key = Self::store_key(workload);
        self.cells.get_or_init(key, || self.acquire(key, workload))
    }

    /// One acquisition: retried drop gate, then cache-load-or-trace.
    fn acquire(
        &self,
        key: ArtifactKey,
        workload: &AppWorkload,
    ) -> Result<Arc<ApplicationTrace>, TraceFailure> {
        let processes = workload.processes.to_string();
        metasim_chaos::RetryPolicy::default().run(|attempt| {
            let dropped = metasim_chaos::fires(
                metasim_chaos::site::TRACE,
                &[
                    &workload.app,
                    &workload.case,
                    &processes,
                    &attempt.to_string(),
                ],
            );
            if dropped {
                Err(TraceFailure {
                    app: workload.app.clone(),
                    case: workload.case.clone(),
                    processes: workload.processes,
                    reason: format!("trace records dropped (attempt {attempt})"),
                })
            } else {
                Ok(())
            }
        })?;
        if let Some(cached) = self.load_cached(key, workload) {
            return Ok(Arc::new(cached));
        }
        let _span = metasim_obs::recording().then(|| {
            metasim_obs::span(format!(
                "trace:{}/{}@{}",
                workload.app, workload.case, workload.processes
            ))
        });
        let trace = trace_workload(workload);
        self.traces.fetch_add(1, Ordering::Relaxed);
        metasim_obs::counter_add("traces.performed", 1);
        if let Some(store) = &self.store {
            let _ = store.store(TRACE_KIND, key, &trace);
        }
        Ok(Arc::new(trace))
    }

    /// Load + validate a persisted trace; corrupt or doctored entries are
    /// evicted so the caller re-traces.
    fn load_cached(&self, key: ArtifactKey, workload: &AppWorkload) -> Option<ApplicationTrace> {
        let store = self.store.as_ref()?;
        store.load_validated(TRACE_KIND, key, |t: &ApplicationTrace| {
            if t.app != workload.app || t.case != workload.case || t.processes != workload.processes
            {
                return Err(format!(
                    "entry traces {}/{}@{} but the key is for {}/{}@{}",
                    t.app, t.case, t.processes, workload.app, workload.case, workload.processes
                ));
            }
            t.validate()
                .map_err(|report| format!("audit-on-load failed: {report}"))
        })
    }

    /// How many tracing runs actually executed (cache hits excluded).
    #[must_use]
    pub fn traces_performed(&self) -> usize {
        self.traces.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avus;
    use metasim_tracer::block::DependencyClass;

    #[test]
    fn detected_bins_approximate_declared_mix() {
        let w = avus::standard(64);
        for block in &w.blocks {
            let traced = trace_block(block);
            let total = traced.bins.total() as f64;
            assert_eq!(traced.bins.total(), block.refs);
            let got_s1 = traced.bins.stride1 as f64 / total;
            // Chunked generation leaks ~1/CHUNK per class switch into the
            // random bin; allow a modest tolerance.
            assert!(
                (got_s1 - block.mix.0).abs() < 0.08,
                "{}: detected s1 {got_s1} vs declared {}",
                block.name,
                block.mix.0
            );
        }
    }

    #[test]
    fn random_dominated_block_detected_as_such() {
        let w = avus::standard(64);
        let gather = w.blocks.iter().find(|b| b.name.contains("gather")).unwrap();
        let traced = trace_block(gather);
        assert!(
            traced.bins.random_fraction() > 0.45,
            "gather detected random fraction {}",
            traced.bins.random_fraction()
        );
    }

    #[test]
    fn tracing_is_deterministic() {
        let w = avus::standard(32);
        let a = trace_workload(&w);
        let b = trace_workload(&w);
        assert_eq!(a, b);
    }

    #[test]
    fn trace_preserves_structure() {
        let w = avus::standard(32);
        let t = trace_workload(&w);
        assert_eq!(t.blocks.len(), w.blocks.len());
        assert_eq!(t.processes, 32);
        assert_eq!(t.mpi.processes, 32);
        assert_eq!(t.app, "AVUS");
        let chained = t
            .blocks
            .iter()
            .filter(|b| b.dependency == DependencyClass::Chained)
            .count();
        assert!(chained >= 1, "dependency classes carried through");
    }

    #[test]
    fn sampled_addresses_stay_in_working_set() {
        let w = avus::standard(64);
        for block in &w.blocks {
            for &a in &sample_addresses(block, 2048) {
                assert!(
                    a + ELEMENT_BYTES <= block.working_set.max(ELEMENT_BYTES),
                    "{}: address {a} outside ws {}",
                    block.name,
                    block.working_set
                );
            }
        }
    }

    #[test]
    fn small_blocks_sample_at_most_their_refs() {
        let w = avus::standard(64);
        let mut tiny = w.blocks[0].clone();
        tiny.refs = 10;
        let traced = trace_block(&tiny);
        assert_eq!(traced.bins.total(), 10);
    }

    #[test]
    fn trace_cache_is_single_flight() {
        let cache = TraceCache::new();
        let w = avus::standard(32);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _ = cache.trace(&w);
                });
            }
        });
        assert_eq!(
            cache.traces_performed(),
            1,
            "cold concurrent callers must share one tracing run"
        );
        // Memoized: the same Arc comes back.
        assert!(Arc::ptr_eq(&cache.trace(&w), &cache.trace(&w)));
    }

    #[test]
    fn store_backed_trace_cache_round_trips_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("metasim-trace-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir));
        let w = avus::standard(64);
        let key = TraceCache::store_key(&w);

        let cold = TraceCache::with_store(Arc::clone(&store));
        let fresh = cold.trace(&w);
        assert_eq!(cold.traces_performed(), 1);
        assert!(store.contains(TRACE_KIND, key));

        // A new cache (fresh process, same store) loads instead of tracing.
        let warm = TraceCache::with_store(Arc::clone(&store));
        let loaded = warm.trace(&w);
        assert_eq!(warm.traces_performed(), 0, "warm cache must not re-trace");
        assert_eq!(*fresh, *loaded, "loaded trace must be bit-identical");

        // Corrupt the entry: the next cold cache re-traces.
        std::fs::write(store.entry_path(TRACE_KIND, key), b"junk").unwrap();
        let recovering = TraceCache::with_store(Arc::clone(&store));
        let retraced = recovering.trace(&w);
        assert_eq!(
            recovering.traces_performed(),
            1,
            "corrupt entry must re-trace"
        );
        assert_eq!(*fresh, *retraced);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_traces_fail_typed_and_recover_with_better_seeds() {
        use metasim_chaos::{site, with_plan, FaultPlan};
        let w = avus::standard(32);
        let procs = w.processes.to_string();
        // Certain drop: every attempt fails, the cache memoizes the failure.
        let always = Arc::new(FaultPlan::parse_spec(1, "trace-drop:1.0").unwrap());
        let cache = TraceCache::new();
        let failure = with_plan(always, || cache.try_trace(&w).unwrap_err());
        assert_eq!(failure.app, "AVUS");
        assert!(failure.reason.contains("dropped"), "{failure}");
        assert!(cache.try_trace(&w).is_err(), "failure must memoize");
        assert_eq!(cache.traces_performed(), 0);

        // A seed that drops attempt 1 but not attempt 2 recovers and yields
        // exactly the fault-free trace.
        let seed = (0..10_000u64)
            .find(|&s| {
                let p = FaultPlan::parse_spec(s, "trace-drop:0.5").unwrap();
                p.fires(site::TRACE, &[&w.app, &w.case, &procs, "1"])
                    && !p.fires(site::TRACE, &[&w.app, &w.case, &procs, "2"])
            })
            .expect("some seed drops once then recovers");
        let flaky = Arc::new(FaultPlan::parse_spec(seed, "trace-drop:0.5").unwrap());
        let recovered = with_plan(flaky, || TraceCache::new().trace(&w));
        assert_eq!(*recovered, trace_workload(&w));
    }
}
