//! metasim-cache: a content-addressed, schema-versioned on-disk artifact
//! store for the study pipeline.
//!
//! The paper's methodology argument (§3) is that the expensive work — probe
//! sweeps, application tracing, ground-truth execution — is paid *once*,
//! while convolution is cheap. This crate makes that true across processes:
//! every expensive artifact (`MachineProbes`, ground-truth `RunResult`s,
//! whole `Study` result sets — the store itself is type-agnostic) can be
//! persisted as canonical JSON under a key derived from the full serialized
//! input configuration, so any change to a machine description or workload
//! automatically misses the cache.
//!
//! Design rules:
//!
//! * **Content-addressed.** [`content_key`] hashes the serde serialization
//!   of the inputs (plus string labels) with FNV-1a; equal configurations
//!   hit, edited configurations miss. No mtimes, no manual invalidation.
//! * **Schema-versioned.** Entries live under `v<SCHEMA_VERSION>/`; bumping
//!   [`SCHEMA_VERSION`] orphans every old entry without touching the disk.
//! * **Audit-on-load.** [`ArtifactStore::load_validated`] hands the decoded
//!   value to a caller-supplied check (the probe and study layers run their
//!   `metasim-audit` rules there); an entry that fails validation — or fails
//!   to parse at all, e.g. a truncated write — is deleted and treated as a
//!   miss, falling back to re-measurement.
//! * **Crash-safe writes.** Entries are written to a temporary file and
//!   atomically renamed into place, so a killed process can leave at worst a
//!   stale `.tmp`, never a half-written entry under a live key.
//!
//! The JSON text round-trips bit-identically (the vendored `serde_json`
//! prints shortest-round-trip floats), so a cached artifact compares equal —
//! bit for bit — to a freshly computed one, and determinism tests hold with
//! the cache on or off.
//!
//! The in-process side of the same pay-once rule is [`SingleFlight`], the
//! memo table every in-memory cache of the pipeline is built on.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

mod single_flight;
pub use single_flight::SingleFlight;

/// Version of the on-disk layout *and* of the serialized artifact schemas.
/// Bump whenever any cached type changes shape or meaning; old entries are
/// then invisible (they live under the previous `v<N>/` directory).
pub const SCHEMA_VERSION: u32 = 1;

/// A 64-bit content hash naming one artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey(pub u64);

impl std::fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a over a byte string. Stable across platforms and releases — cache
/// keys must never depend on `DefaultHasher`'s unspecified algorithm. This
/// is the workspace-shared implementation from `metasim-stats`, re-exported
/// so cache keys, chaos draws, and RNG seeds provably use one hash.
pub use metasim_stats::rng::fnv1a;

/// Key for an artifact derived from string labels plus the canonical JSON
/// serialization of the inputs that produced it. Labels separate artifact
/// families that share input types (e.g. `"probes"` vs `"groundtruth"`), and
/// a `0xff` byte — which cannot occur in JSON text or the labels we use —
/// separates fields so concatenations cannot collide.
///
/// # Panics
/// Panics if `inputs` cannot be serialized (non-finite floats); study
/// configurations are finite by construction and audited to stay so.
#[must_use]
pub fn content_key<T: Serialize + ?Sized>(labels: &[&str], inputs: &T) -> ArtifactKey {
    let json = serde_json::to_string(inputs).expect("cache key inputs must serialize");
    let mut bytes = Vec::with_capacity(json.len() + 16);
    for label in labels {
        bytes.extend_from_slice(label.as_bytes());
        bytes.push(0xff);
    }
    bytes.extend_from_slice(json.as_bytes());
    ArtifactKey(fnv1a(&bytes))
}

/// Aggregate numbers for `metasim cache stats`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Total entries across all kinds (current schema version only).
    pub entries: usize,
    /// Total bytes of entry payloads.
    pub bytes: u64,
    /// `(kind, entry count)` pairs, sorted by kind.
    pub kinds: Vec<(String, usize)>,
}

/// Session traffic through one store (and its clones): how many loads hit,
/// missed, or evicted a bad entry, and how many entries were written.
///
/// `metasim cache stats` prints this next to the on-disk totals, and the
/// run manifest's cache summary carries it — it is the number CI checks to
/// prove a warm run actually served from cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreTraffic {
    /// Loads served from a valid on-disk entry.
    pub hits: u64,
    /// Loads that found no entry (including after an eviction).
    pub misses: u64,
    /// Corrupt or invalid entries deleted during load.
    pub evictions: u64,
    /// Entries persisted.
    pub writes: u64,
}

/// Shared mutable counters behind [`StoreTraffic`].
#[derive(Debug, Default)]
struct Traffic {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writes: AtomicU64,
}

/// The on-disk artifact store.
///
/// Layout: `<root>/v<schema>/<kind>/<key>.json`. Every operation is safe to
/// call concurrently from multiple threads and processes: reads never see
/// partial writes (atomic rename) and a lost write race simply rewrites the
/// same bytes (entries are deterministic functions of their key).
///
/// Cloning shares the session traffic counters, so the per-layer caches
/// (probes, ground truth, traces) that each hold a clone all account into
/// one [`StoreTraffic`].
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
    schema: u32,
    traffic: Arc<Traffic>,
}

/// Bump one `cache.<outcome>.<kind>` observability counter. The name is
/// only formatted when a recorder is live.
fn obs_bump(outcome: &str, kind: &str) {
    if metasim_obs::recording() {
        metasim_obs::counter_add(&format!("cache.{outcome}.{kind}"), 1);
    }
}

/// Monotone counter making temp-file names unique within a process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl ArtifactStore {
    /// Store rooted at `root`, using the crate's [`SCHEMA_VERSION`]. The
    /// directory is created lazily on first write.
    #[must_use]
    pub fn open(root: impl Into<PathBuf>) -> Self {
        Self::with_schema(root, SCHEMA_VERSION)
    }

    /// Store with an explicit schema version (tests use this to prove that
    /// version bumps invalidate).
    #[must_use]
    pub fn with_schema(root: impl Into<PathBuf>, schema: u32) -> Self {
        Self {
            root: root.into(),
            schema,
            traffic: Arc::new(Traffic::default()),
        }
    }

    /// Snapshot of this store's session traffic (shared with every clone).
    #[must_use]
    pub fn traffic(&self) -> StoreTraffic {
        StoreTraffic {
            hits: self.traffic.hits.load(Ordering::Relaxed),
            misses: self.traffic.misses.load(Ordering::Relaxed),
            evictions: self.traffic.evictions.load(Ordering::Relaxed),
            writes: self.traffic.writes.load(Ordering::Relaxed),
        }
    }

    /// The root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The schema version entries are read from and written to.
    #[must_use]
    pub fn schema(&self) -> u32 {
        self.schema
    }

    fn version_dir(&self) -> PathBuf {
        self.root.join(format!("v{}", self.schema))
    }

    /// Path an entry lives at (whether or not it exists yet).
    #[must_use]
    pub fn entry_path(&self, kind: &str, key: ArtifactKey) -> PathBuf {
        self.version_dir().join(kind).join(format!("{key}.json"))
    }

    /// Load and decode an entry, or `None` on miss.
    #[must_use]
    pub fn load<T: Deserialize>(&self, kind: &str, key: ArtifactKey) -> Option<T> {
        self.load_validated(kind, key, |_| Ok(()))
    }

    /// Load an entry and run `validate` on the decoded value. A missing
    /// file is a plain miss; an unreadable, unparsable (corrupt/truncated),
    /// or invalid entry is *deleted* and reported as a miss so the caller
    /// falls back to recomputing — and rewrites a good entry.
    ///
    /// This is also the `metasim-chaos` cache-corruption seam: an installed
    /// fault plan can truncate the bytes a read attempt sees, and the read
    /// retries (deterministic bounded backoff, `chaos.retry.*` counters)
    /// because a transient bad read — NFS hiccup, torn page — is exactly
    /// what rereading fixes. Only injected corruption retries; a genuinely
    /// bad file on disk keeps the single-pass evict-and-recompute behavior.
    #[must_use]
    pub fn load_validated<T: Deserialize>(
        &self,
        kind: &str,
        key: ArtifactKey,
        validate: impl Fn(&T) -> Result<(), String>,
    ) -> Option<T> {
        let path = self.entry_path(kind, key);
        let Ok(bytes) = fs::read(&path) else {
            self.traffic.misses.fetch_add(1, Ordering::Relaxed);
            obs_bump("miss", kind);
            return None;
        };
        // The store writes JSON text only: bytes that are not UTF-8 are as
        // corrupt as bad JSON, and the empty text fails to decode.
        let text = String::from_utf8(bytes).unwrap_or_default();
        let policy = metasim_chaos::RetryPolicy::default();
        let max_attempts = if metasim_chaos::active() {
            policy.max_attempts.max(1)
        } else {
            1
        };
        let key_str = key.to_string();
        let mut attempt = 1;
        loop {
            let injected = metasim_chaos::fires(
                metasim_chaos::site::CACHE,
                &[kind, &key_str, &attempt.to_string()],
            );
            let view = if injected {
                // A torn read: the first half of the entry, mid-token, cut
                // at a character boundary.
                &text[..text.floor_char_boundary(text.len() / 2)]
            } else {
                text.as_str()
            };
            let decoded: Result<T, _> = serde_json::from_str(view);
            match decoded {
                Ok(value) if validate(&value).is_ok() => {
                    if attempt > 1 {
                        policy.note_recovered();
                    }
                    self.traffic.hits.fetch_add(1, Ordering::Relaxed);
                    obs_bump("hit", kind);
                    return Some(value);
                }
                _ if injected && attempt < max_attempts => {
                    policy.note_retry(attempt);
                    attempt += 1;
                }
                _ => {
                    if injected {
                        policy.note_exhausted();
                    }
                    // Corrupt or invalid: evict so the next write replaces it.
                    let _ = fs::remove_file(&path);
                    self.traffic.evictions.fetch_add(1, Ordering::Relaxed);
                    self.traffic.misses.fetch_add(1, Ordering::Relaxed);
                    obs_bump("evict", kind);
                    obs_bump("miss", kind);
                    return None;
                }
            }
        }
    }

    /// Serialize and persist an entry (atomic replace). Returns the final
    /// path. Callers treat failure as "cache unavailable", never fatal.
    pub fn store<T: Serialize + ?Sized>(
        &self,
        kind: &str,
        key: ArtifactKey,
        value: &T,
    ) -> io::Result<PathBuf> {
        let json = serde_json::to_string(value)
            .map_err(|e| io::Error::other(format!("serializing {kind}/{key}: {e}")))?;
        let path = self.entry_path(kind, key);
        let dir = path.parent().expect("entry path has a parent");
        fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".{key}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, &json)?;
        match fs::rename(&tmp, &path) {
            Ok(()) => {
                self.traffic.writes.fetch_add(1, Ordering::Relaxed);
                obs_bump("write", kind);
                Ok(path)
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Whether an entry file exists (no decode).
    #[must_use]
    pub fn contains(&self, kind: &str, key: ArtifactKey) -> bool {
        self.entry_path(kind, key).is_file()
    }

    /// Walk the current schema version and count entries.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        let Ok(kinds) = fs::read_dir(self.version_dir()) else {
            return stats;
        };
        for kind in kinds.flatten() {
            let name = kind.file_name().to_string_lossy().into_owned();
            let mut count = 0usize;
            if let Ok(entries) = fs::read_dir(kind.path()) {
                for entry in entries.flatten() {
                    let path = entry.path();
                    if path.extension().is_some_and(|e| e == "json") {
                        count += 1;
                        if let Ok(meta) = entry.metadata() {
                            stats.bytes += meta.len();
                        }
                    }
                }
            }
            if count > 0 {
                stats.entries += count;
                stats.kinds.push((name, count));
            }
        }
        stats.kinds.sort();
        stats
    }

    /// Delete the whole store (every schema version). A missing root is not
    /// an error — clearing an empty cache is a no-op.
    pub fn clear(&self) -> io::Result<()> {
        match fs::remove_dir_all(&self.root) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("metasim-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ArtifactStore::open(dir)
    }

    #[test]
    fn round_trip_hits_and_preserves_bits() {
        let store = temp_store("roundtrip");
        let value: Vec<(u64, f64)> = vec![(4096, 1.0 / 3.0), (8192, 6e-8)];
        let key = content_key(&["test"], &value);
        assert!(store.load::<Vec<(u64, f64)>>("curves", key).is_none());
        store.store("curves", key, &value).unwrap();
        let back: Vec<(u64, f64)> = store.load("curves", key).unwrap();
        assert_eq!(value, back);
        // Bit-identical: re-serialization of the loaded value matches.
        assert_eq!(
            serde_json::to_string(&value).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
        store.clear().unwrap();
    }

    #[test]
    fn corrupt_entry_is_evicted_and_misses() {
        let store = temp_store("corrupt");
        let key = content_key(&["x"], &7u64);
        store.store("nums", key, &7u64).unwrap();
        fs::write(store.entry_path("nums", key), "{not json").unwrap();
        assert_eq!(store.load::<u64>("nums", key), None);
        assert!(
            !store.contains("nums", key),
            "corrupt entry must be deleted"
        );
        store.clear().unwrap();
    }

    #[test]
    fn truncated_entry_is_evicted_and_misses() {
        let store = temp_store("truncated");
        let value: Vec<u64> = (0..64).collect();
        let key = content_key(&["x"], &value);
        let path = store.store("nums", key, &value).unwrap();
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(store.load::<Vec<u64>>("nums", key), None);
        assert!(!store.contains("nums", key));
        store.clear().unwrap();
    }

    #[test]
    fn failed_validation_evicts() {
        let store = temp_store("validate");
        let key = content_key(&["x"], &41u64);
        store.store("nums", key, &41u64).unwrap();
        let got = store.load_validated::<u64>("nums", key, |&n| {
            if n % 2 == 0 {
                Ok(())
            } else {
                Err(format!("{n} is odd"))
            }
        });
        assert_eq!(got, None);
        assert!(!store.contains("nums", key), "invalid entry must be gone");
        store.clear().unwrap();
    }

    #[test]
    fn schema_bump_invalidates_without_deleting() {
        let dir = temp_store("schema").root().to_path_buf();
        let v1 = ArtifactStore::with_schema(&dir, 1);
        let key = content_key(&["x"], &5u64);
        v1.store("nums", key, &5u64).unwrap();
        let v2 = ArtifactStore::with_schema(&dir, 2);
        assert_eq!(v2.load::<u64>("nums", key), None, "new schema sees nothing");
        assert_eq!(
            v1.load::<u64>("nums", key),
            Some(5),
            "old entries are orphaned, not destroyed"
        );
        v1.clear().unwrap();
    }

    #[test]
    fn keys_are_stable_and_label_sensitive() {
        let a = content_key(&["probes"], &1u64);
        let b = content_key(&["probes"], &1u64);
        let c = content_key(&["groundtruth"], &1u64);
        let d = content_key(&["probes"], &2u64);
        assert_eq!(a, b);
        assert_ne!(a, c, "labels must separate artifact families");
        assert_ne!(a, d, "inputs must drive the key");
        // FNV-1a of the empty string is the published offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(format!("{a}"), format!("{:016x}", a.0));
    }

    #[test]
    fn traffic_counts_hits_misses_evictions_and_writes() {
        let store = temp_store("traffic");
        let key = content_key(&["x"], &11u64);
        assert_eq!(store.traffic(), StoreTraffic::default());

        assert!(store.load::<u64>("nums", key).is_none()); // cold miss
        store.store("nums", key, &11u64).unwrap(); // write
        assert_eq!(store.load::<u64>("nums", key), Some(11)); // hit
        fs::write(store.entry_path("nums", key), "{corrupt").unwrap();
        assert!(store.load::<u64>("nums", key).is_none()); // evict + miss

        let t = store.traffic();
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 2, "cold miss plus post-eviction miss");
        assert_eq!(t.evictions, 1);
        assert_eq!(t.writes, 1);
        store.clear().unwrap();
    }

    #[test]
    fn clones_share_one_traffic_ledger() {
        let store = temp_store("traffic-clone");
        let clone = store.clone();
        let key = content_key(&["x"], &3u64);
        clone.store("nums", key, &3u64).unwrap();
        assert_eq!(store.load::<u64>("nums", key), Some(3));
        let t = clone.traffic();
        assert_eq!((t.writes, t.hits), (1, 1), "both sides see both events");
        assert_eq!(store.traffic(), clone.traffic());
        store.clear().unwrap();
    }

    #[test]
    fn traffic_flows_into_obs_counters() {
        let rec = std::sync::Arc::new(metasim_obs::InMemoryRecorder::new());
        let store = temp_store("traffic-obs");
        let key = content_key(&["x"], &9u64);
        metasim_obs::with_recorder(rec.clone(), || {
            assert!(store.load::<u64>("nums", key).is_none());
            store.store("nums", key, &9u64).unwrap();
            assert_eq!(store.load::<u64>("nums", key), Some(9));
        });
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter("cache.miss.nums"), 1);
        assert_eq!(snap.counter("cache.write.nums"), 1);
        assert_eq!(snap.counter("cache.hit.nums"), 1);
        store.clear().unwrap();
    }

    #[test]
    fn stats_and_clear_observe_the_store() {
        let store = temp_store("stats");
        assert_eq!(store.stats(), StoreStats::default());
        for n in 0..3u64 {
            store.store("nums", content_key(&["n"], &n), &n).unwrap();
        }
        store
            .store("curves", content_key(&["c"], &0u64), &vec![1.5f64])
            .unwrap();
        let stats = store.stats();
        assert_eq!(stats.entries, 4);
        assert!(stats.bytes > 0);
        assert_eq!(
            stats.kinds,
            vec![("curves".to_string(), 1), ("nums".to_string(), 3)]
        );
        store.clear().unwrap();
        assert_eq!(store.stats(), StoreStats::default());
        store.clear().unwrap(); // idempotent
    }

    mod chaos {
        use super::*;
        use metasim_chaos::{with_plan, FaultPlan};
        use metasim_obs::{with_recorder, InMemoryRecorder};
        use std::sync::Arc;

        fn plan(seed: u64, spec: &str) -> Arc<FaultPlan> {
            Arc::new(FaultPlan::parse_spec(seed, spec).unwrap())
        }

        #[test]
        fn injected_corruption_recovers_on_retry() {
            let store = temp_store("chaos-recover");
            let value: Vec<(u64, f64)> = vec![(1, 0.5), (2, 0.25)];
            let key = content_key(&["v"], &value);
            store.store("curves", key, &value).unwrap();
            // Find a seed that corrupts the first read attempt but not the
            // second — pure decisions make the scan deterministic.
            let key_str = key.to_string();
            let seed = (0..10_000u64)
                .find(|&s| {
                    use metasim_chaos::site;
                    let p = FaultPlan::parse_spec(s, "cache-corrupt:0.5").unwrap();
                    p.fires(site::CACHE, &["curves", &key_str, "1"])
                        && !p.fires(site::CACHE, &["curves", &key_str, "2"])
                })
                .expect("some seed corrupts once then recovers");
            let rec = Arc::new(InMemoryRecorder::new());
            let back: Option<Vec<(u64, f64)>> = with_recorder(rec.clone(), || {
                with_plan(plan(seed, "cache-corrupt:0.5"), || {
                    store.load("curves", key)
                })
            });
            assert_eq!(back, Some(value), "second attempt must read clean bytes");
            let snap = rec.metrics_snapshot();
            assert_eq!(snap.counter("chaos.retry.attempts"), 1);
            assert_eq!(snap.counter("chaos.retry.recovered"), 1);
            assert_eq!(snap.counter("chaos.retry.exhausted"), 0);
            assert!(
                store.contains("curves", key),
                "a recovered read must not evict the good file"
            );
            store.clear().unwrap();
        }

        #[test]
        fn certain_corruption_exhausts_and_evicts() {
            let store = temp_store("chaos-exhaust");
            let value = vec![1u64, 2, 3];
            let key = content_key(&["v"], &value);
            store.store("nums", key, &value).unwrap();
            let rec = Arc::new(InMemoryRecorder::new());
            let back: Option<Vec<u64>> = with_recorder(rec.clone(), || {
                with_plan(plan(1, "cache-corrupt:1.0"), || store.load("nums", key))
            });
            assert_eq!(back, None, "every attempt corrupted → miss");
            assert!(!store.contains("nums", key), "exhaustion evicts the entry");
            let snap = rec.metrics_snapshot();
            assert_eq!(snap.counter("chaos.retry.attempts"), 2);
            assert_eq!(snap.counter("chaos.retry.exhausted"), 1);
            store.clear().unwrap();
        }

        #[test]
        fn a_torn_read_cuts_at_a_character_boundary() {
            // The midpoint of "ééééé" as JSON splits a two-byte character.
            let store = temp_store("chaos-torn-utf8");
            let value = vec!["ééééé".to_string()];
            let key = content_key(&["v"], &value);
            store.store("words", key, &value).unwrap();
            let back: Option<Vec<String>> =
                with_plan(plan(1, "cache-corrupt:1.0"), || store.load("words", key));
            assert_eq!(back, None, "every attempt corrupted → miss");
            assert!(!store.contains("words", key), "exhaustion evicts the entry");
            store.clear().unwrap();
        }

        #[test]
        fn real_corruption_does_not_retry() {
            // Without injected faults a bad file keeps the single-pass
            // evict-and-miss semantics, even while a plan is installed.
            let store = temp_store("chaos-real");
            let key = content_key(&["v"], &9u64);
            store.store("nums", key, &9u64).unwrap();
            fs::write(store.entry_path("nums", key), "not json").unwrap();
            let rec = Arc::new(InMemoryRecorder::new());
            let back: Option<u64> = with_recorder(rec.clone(), || {
                with_plan(plan(1, "measure-fail:1.0"), || store.load("nums", key))
            });
            assert_eq!(back, None);
            assert_eq!(rec.metrics_snapshot().counter("chaos.retry.attempts"), 0);
            store.clear().unwrap();
        }
    }
}
