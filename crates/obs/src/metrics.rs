//! Named counters, gauges, fixed-bucket histograms, and log-scaled
//! latency histograms.
//!
//! The registry is write-hot and read-once: instrumented code bumps atomics
//! from many threads during a study, then the manifest builder takes one
//! [`MetricsSnapshot`] at the end. Names are created on first touch, so
//! instrumented crates never need to pre-declare anything; histograms may
//! optionally be registered up front to pin their bucket bounds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use serde::{Deserialize, Serialize};

use crate::hdr::{HdrHistogram, HdrSnapshot};

/// Default histogram bounds (seconds-flavoured, log-spaced): instrumented
/// code that observes into an unregistered name gets these.
pub const DEFAULT_BOUNDS: &[f64] = &[
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 100.0,
];

/// Fixed-bucket histogram. Bucket `i` counts observations `<= bounds[i]`;
/// the final bucket (index `bounds.len()`) is the overflow bucket.
#[derive(Debug)]
struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    /// Running sum of observed values, stored as `f64` bits and updated via
    /// compare-and-swap so `mean()` stays exact under concurrency.
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let mut bounds = bounds.to_vec();
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite histogram bounds"));
        bounds.dedup();
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    fn observe(&self, value: f64) {
        let idx = self.bounds.partition_point(|&b| value > b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + value).to_bits())
            });
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of one histogram: `counts.len() == bounds.len() + 1`,
/// the last slot being the overflow bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds (inclusive).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; one longer than `bounds`.
    pub counts: Vec<u64>,
    /// Sum of every observed value.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean observed value, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum / n as f64)
    }
}

/// Deterministic point-in-time copy of the whole registry: every list is
/// sorted by name, so equal registry contents snapshot to equal values —
/// the property the manifest round-trip test leans on.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, snapshot)` log-scaled latency histograms, sorted by name.
    pub hdr_histograms: Vec<(String, HdrSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the named counter (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Value of the named gauge, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The named histogram, if any observations were recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The named log-scaled latency histogram, if any observations were
    /// recorded.
    #[must_use]
    pub fn hdr(&self, name: &str) -> Option<&HdrSnapshot> {
        self.hdr_histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// Find-or-create in a name → `Arc<T>` map with a read-mostly locking
/// discipline: try under the shared read lock first (the hot path — every
/// metric after its first touch), then upgrade to the write lock and insert
/// via `make` only on a miss. Losing an upgrade race is fine: `or_insert_with`
/// keeps the winner's value.
///
/// The read guard must be fully dropped before falling back to the write
/// lock: an `if let` scrutinee's temporary lives to the end of the whole
/// if/else, which would self-deadlock the slow path — hence the two-step
/// `map(Arc::clone)` / `match`.
fn get_or_register<T>(
    map: &RwLock<HashMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    let existing = map.read().expect("metrics lock").get(name).map(Arc::clone);
    match existing {
        Some(v) => v,
        None => {
            let mut w = map.write().expect("metrics lock");
            Arc::clone(
                w.entry(name.to_string())
                    .or_insert_with(|| Arc::new(make())),
            )
        }
    }
}

/// The live registry: name → atomic cell, created on first touch.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    /// Gauges store `f64` bits.
    gauges: RwLock<HashMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
    hdr_histograms: RwLock<HashMap<String, Arc<HdrHistogram>>>,
}

impl MetricsRegistry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        get_or_register(&self.counters, name, AtomicU64::default)
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Set the named gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        get_or_register(&self.gauges, name, AtomicU64::default)
            .store(value.to_bits(), Ordering::Relaxed);
    }

    /// Pin the bucket bounds of the named histogram before any
    /// observations; later `observe` calls reuse them. Re-registering an
    /// existing name keeps the original bounds.
    pub fn register_histogram(&self, name: &str, bounds: &[f64]) {
        let _ = get_or_register(&self.histograms, name, || Histogram::new(bounds));
    }

    /// Record one observation into the named histogram, creating it with
    /// [`DEFAULT_BOUNDS`] if unregistered.
    pub fn observe(&self, name: &str, value: f64) {
        get_or_register(&self.histograms, name, || Histogram::new(DEFAULT_BOUNDS)).observe(value);
    }

    /// Record one observation into the named log-scaled latency histogram,
    /// creating it on first touch. The geometry is crate-wide
    /// ([`crate::hdr`]), so there is nothing to pre-register.
    pub fn hdr_observe(&self, name: &str, value: f64) {
        get_or_register(&self.hdr_histograms, name, HdrHistogram::new).observe(value);
    }

    /// Deterministic snapshot: all three maps, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, f64)> = self
            .gauges
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut hdr_histograms: Vec<(String, HdrSnapshot)> = self
            .hdr_histograms
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        hdr_histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            hdr_histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        reg.counter_add("a", 2);
        reg.counter_add("a", 3);
        reg.counter_add("b", 1);
        reg.gauge_set("g", 1.5);
        reg.gauge_set("g", 2.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("b"), 1);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.gauge("g"), Some(2.5));
        assert_eq!(snap.counters, vec![("a".into(), 5), ("b".into(), 1)]);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let reg = MetricsRegistry::new();
        reg.register_histogram("h", &[1.0, 2.0, 4.0]);
        // On-boundary values land in the bucket they bound; beyond-last
        // goes to overflow.
        for v in [0.5, 1.0, 1.0001, 2.0, 3.9, 4.0, 4.0001, 100.0] {
            reg.observe("h", v);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.bounds, vec![1.0, 2.0, 4.0]);
        assert_eq!(h.counts, vec![2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        let expected: f64 = 0.5 + 1.0 + 1.0001 + 2.0 + 3.9 + 4.0 + 4.0001 + 100.0;
        assert!((h.sum - expected).abs() < 1e-12);
        assert!((h.mean().unwrap() - expected / 8.0).abs() < 1e-12);
    }

    #[test]
    fn unregistered_histogram_uses_default_bounds() {
        let reg = MetricsRegistry::new();
        reg.observe("lazy", 0.25);
        let snap = reg.snapshot();
        let h = snap.histogram("lazy").unwrap();
        assert_eq!(h.bounds, DEFAULT_BOUNDS.to_vec());
        assert_eq!(h.counts.len(), DEFAULT_BOUNDS.len() + 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn register_keeps_first_bounds_and_dedups() {
        let reg = MetricsRegistry::new();
        reg.register_histogram("h", &[2.0, 1.0, 2.0]);
        reg.register_histogram("h", &[99.0]);
        reg.observe("h", 1.5);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("h").unwrap().bounds, vec![1.0, 2.0]);
    }

    #[test]
    fn get_or_register_reuses_one_cell_under_contention() {
        // The dedup helper behind counters, gauges, and both histogram
        // families: every thread racing the first touch of a name must end
        // up on the same cell, with no observation lost.
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let reg = std::sync::Arc::clone(&reg);
                s.spawn(move || {
                    for i in 0..500 {
                        reg.counter_add("contended", 1);
                        reg.observe("contended.hist", f64::from(i));
                        reg.hdr_observe("contended.hdr", 1e-3);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("contended"), 8 * 500);
        assert_eq!(snap.histogram("contended.hist").unwrap().count(), 8 * 500);
        assert_eq!(snap.hdr("contended.hdr").unwrap().count(), 8 * 500);

        // Identity, not just totals: a repeat lookup is the same Arc.
        let a = get_or_register(&reg.counters, "contended", AtomicU64::default);
        let b = get_or_register(&reg.counters, "contended", AtomicU64::default);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn hdr_histograms_snapshot_sorted_with_quantiles() {
        let reg = MetricsRegistry::new();
        reg.hdr_observe("lat.b", 0.002);
        reg.hdr_observe("lat.a", 0.5);
        reg.hdr_observe("lat.a", 0.5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap
            .hdr_histograms
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, ["lat.a", "lat.b"], "sorted by name");
        let a = snap.hdr("lat.a").unwrap();
        assert_eq!(a.count(), 2);
        assert_eq!(a.p50(), Some(0.5), "exact via [low, high] clamp");
        assert!(snap.hdr("absent").is_none());
    }

    #[test]
    fn empty_histogram_has_no_mean() {
        let h = HistogramSnapshot {
            bounds: vec![1.0],
            counts: vec![0, 0],
            sum: 0.0,
        };
        assert_eq!(h.mean(), None);
    }
}
