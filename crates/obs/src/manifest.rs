//! The run manifest: one JSON document capturing everything a study run
//! did — the provenance record a Cornebize-style reproduction needs.
//!
//! Built from an [`InMemoryRecorder`] at study end, serialized with the
//! workspace's deterministic JSON shims, and consumed by
//! `metasim obs summarize`, the `MS4xx` audit rules, and the
//! `BENCH_study.json` writer.

use serde::{Deserialize, Serialize};

use crate::recorder::{InMemoryRecorder, SpanRecord};
use crate::MetricsSnapshot;

/// Version of the manifest JSON schema. Bump on any breaking shape change;
/// `MS401` rejects manifests from other versions. v2 added the log-scaled
/// latency histograms (`metrics.hdr_histograms`).
pub const MANIFEST_SCHEMA_VERSION: u32 = 2;

/// How many spans the `slowest_spans` leaderboard keeps.
pub const SLOWEST_SPAN_COUNT: usize = 10;

/// Identity and cache context the recorder cannot know by itself; supplied
/// by the caller when building the manifest.
#[derive(Debug, Clone, Default)]
pub struct ManifestMeta {
    /// Producing tool, e.g. `metasim 0.1.0`.
    pub tool: String,
    /// Content digest of the study configuration (the fleet's store key).
    pub config_digest: String,
    /// Whether the study result came from the persistent cache.
    pub loaded_from_cache: bool,
    /// State of the persistent artifact store, when one was in use.
    pub cache: Option<CacheSummary>,
}

/// Snapshot of the persistent artifact store plus this session's traffic.
///
/// Deliberately a plain struct (not `metasim-cache` types): the cache crate
/// depends on this one for counters, so the manifest cannot depend back on
/// it without a cycle.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CacheSummary {
    /// Store root directory.
    pub root: String,
    /// Store schema version.
    pub schema: u32,
    /// Total artifacts on disk.
    pub entries: usize,
    /// Total bytes on disk.
    pub bytes: u64,
    /// Per-kind artifact counts, sorted by kind.
    pub kinds: Vec<(String, usize)>,
    /// Cache hits served during this run.
    pub session_hits: u64,
    /// Cache misses (artifact absent) during this run.
    pub session_misses: u64,
    /// Corrupt or invalid artifacts evicted during this run.
    pub session_evictions: u64,
}

/// One top-level pipeline phase and its wall time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Phase name with the `phase:` prefix stripped, e.g. `preflight`.
    pub name: String,
    /// Wall time in seconds.
    pub seconds: f64,
    /// Number of spans recorded underneath this phase (any depth).
    pub spans: usize,
}

/// One node of the span tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    /// Span name, e.g. `machine:lemieux`.
    pub name: String,
    /// Seconds from the recorder's epoch to span entry.
    pub start_seconds: f64,
    /// Wall time in seconds (0 if the span never closed).
    pub seconds: f64,
    /// Child spans, in entry order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Nodes in this subtree, excluding `self`.
    #[must_use]
    pub fn descendant_count(&self) -> usize {
        self.children.iter().map(|c| 1 + c.descendant_count()).sum()
    }
}

/// One leaderboard entry: a span and its wall time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowSpan {
    /// Span name.
    pub name: String,
    /// Wall time in seconds.
    pub seconds: f64,
}

/// The complete provenance record of one study run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Manifest schema version ([`MANIFEST_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Producing tool, e.g. `metasim 0.1.0`.
    pub tool: String,
    /// Content digest of the study configuration.
    pub config_digest: String,
    /// Whether the result was served from the persistent cache.
    pub loaded_from_cache: bool,
    /// End-to-end wall time: the duration of the root `study` span.
    pub total_seconds: f64,
    /// Top-level phases in execution order.
    pub phases: Vec<PhaseSummary>,
    /// Persistent store state, when a store was in use.
    pub cache: Option<CacheSummary>,
    /// The full span forest, in entry order.
    pub span_tree: Vec<SpanNode>,
    /// The [`SLOWEST_SPAN_COUNT`] slowest leaf-level spans (structural
    /// `study`/`phase:*` containers excluded — they would always win).
    pub slowest_spans: Vec<SlowSpan>,
    /// Snapshot of every counter, gauge, and histogram.
    pub metrics: MetricsSnapshot,
}

const NS: f64 = 1e-9;

fn build_tree(records: &[SpanRecord]) -> Vec<SpanNode> {
    // ids are 1-based log indices, so children always follow their parent;
    // one forward pass with an id → tree-position map builds the forest.
    fn place<'a>(roots: &'a mut Vec<SpanNode>, path: &[usize]) -> &'a mut Vec<SpanNode> {
        let mut nodes = roots;
        for &i in path {
            nodes = &mut nodes[i].children;
        }
        nodes
    }

    let mut roots: Vec<SpanNode> = Vec::new();
    // id → path of child indices from the root set to that span's node.
    let mut paths: Vec<Option<Vec<usize>>> = vec![None; records.len() + 1];
    for r in records {
        let parent_path = usize::try_from(r.parent)
            .ok()
            .and_then(|p| paths.get(p).cloned().flatten());
        let parent_path = match (r.parent, parent_path) {
            (0, _) => Vec::new(),
            (_, Some(p)) => p,
            // Parent id unknown (foreign recorder, dropped record): treat
            // as a root rather than losing the span.
            (_, None) => Vec::new(),
        };
        let siblings = place(&mut roots, &parent_path);
        let mut path = parent_path;
        path.push(siblings.len());
        siblings.push(SpanNode {
            name: r.name.clone(),
            start_seconds: r.start_ns as f64 * NS,
            seconds: r.dur_ns.unwrap_or(0) as f64 * NS,
            children: Vec::new(),
        });
        if let Some(slot) = paths.get_mut(usize::try_from(r.id).unwrap_or(0)) {
            *slot = Some(path);
        }
    }
    roots
}

/// Is this span a structural container rather than a unit of work?
pub(crate) fn is_structural(name: &str) -> bool {
    name == "study" || name.starts_with("phase:")
}

impl RunManifest {
    /// Assemble the manifest from everything `recorder` captured plus the
    /// caller-supplied identity in `meta`.
    #[must_use]
    pub fn build(recorder: &InMemoryRecorder, meta: ManifestMeta) -> Self {
        let records = recorder.span_records();
        let span_tree = build_tree(&records);

        let total_seconds = span_tree
            .iter()
            .filter(|n| n.name == "study")
            .map(|n| n.seconds)
            .sum();

        let phases = span_tree
            .iter()
            .filter(|n| n.name == "study")
            .flat_map(|study| study.children.iter())
            .filter(|n| n.name.starts_with("phase:"))
            .map(|n| PhaseSummary {
                name: n.name.trim_start_matches("phase:").to_string(),
                seconds: n.seconds,
                spans: n.descendant_count(),
            })
            .collect();

        let mut slowest: Vec<SlowSpan> = records
            .iter()
            .filter(|r| !is_structural(&r.name))
            .filter_map(|r| {
                r.dur_ns.map(|d| SlowSpan {
                    name: r.name.clone(),
                    seconds: d as f64 * NS,
                })
            })
            .collect();
        slowest.sort_by(|a, b| {
            b.seconds
                .partial_cmp(&a.seconds)
                .expect("span durations are finite")
                .then_with(|| a.name.cmp(&b.name))
        });
        slowest.truncate(SLOWEST_SPAN_COUNT);

        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            tool: meta.tool,
            config_digest: meta.config_digest,
            loaded_from_cache: meta.loaded_from_cache,
            total_seconds,
            phases,
            cache: meta.cache,
            span_tree,
            slowest_spans: slowest,
            metrics: recorder.metrics_snapshot(),
        }
    }

    /// Wall time of the named phase (without the `phase:` prefix), if it ran.
    #[must_use]
    pub fn phase_seconds(&self, name: &str) -> Option<f64> {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.seconds)
    }

    /// Serialize to compact JSON.
    ///
    /// # Errors
    /// A non-finite number somewhere in the metrics (JSON has no NaN).
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| format!("cannot serialize manifest: {e}"))
    }

    /// Parse a manifest back from JSON text.
    ///
    /// # Errors
    /// Malformed JSON or a JSON shape that is not a manifest.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid manifest: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn sample_recorder() -> InMemoryRecorder {
        let rec = InMemoryRecorder::new();
        let study = rec.span_enter(0, "study".into());
        let pre = rec.span_enter(study, "phase:preflight".into());
        rec.span_exit(pre, 2_000_000);
        let gt = rec.span_enter(study, "phase:ground-truth".into());
        let app = rec.span_enter(gt, "app:hycom-large".into());
        let m = rec.span_enter(app, "machine:lemieux".into());
        rec.span_exit(m, 5_000_000);
        rec.span_exit(app, 6_000_000);
        rec.span_exit(gt, 7_000_000);
        rec.span_exit(study, 10_000_000);
        rec.counter_add("cache.hit.trace", 4);
        rec.gauge_set("study.observations", 150.0);
        rec.observe("study.signed_error_pct", 12.0);
        rec
    }

    fn sample_meta() -> ManifestMeta {
        ManifestMeta {
            tool: "metasim 0.1.0".into(),
            config_digest: "abcd1234".into(),
            loaded_from_cache: false,
            cache: Some(CacheSummary {
                root: "/tmp/cache".into(),
                schema: 1,
                entries: 3,
                bytes: 1024,
                kinds: vec![("trace".into(), 3)],
                session_hits: 4,
                session_misses: 1,
                session_evictions: 0,
            }),
        }
    }

    #[test]
    fn build_derives_phases_total_and_slowest() {
        let m = RunManifest::build(&sample_recorder(), sample_meta());
        assert_eq!(m.schema_version, MANIFEST_SCHEMA_VERSION);
        assert!((m.total_seconds - 0.010).abs() < 1e-12);
        let names: Vec<&str> = m.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["preflight", "ground-truth"]);
        assert_eq!(m.phases[1].spans, 2, "app + machine under ground-truth");
        assert_eq!(m.phase_seconds("preflight"), Some(0.002));
        // Structural spans never make the leaderboard; the app span (6ms)
        // beats the machine span (5ms).
        assert_eq!(m.slowest_spans[0].name, "app:hycom-large");
        assert_eq!(m.slowest_spans[1].name, "machine:lemieux");
        assert_eq!(m.metrics.counter("cache.hit.trace"), 4);
    }

    #[test]
    fn tree_preserves_nesting_and_order() {
        let m = RunManifest::build(&sample_recorder(), sample_meta());
        assert_eq!(m.span_tree.len(), 1);
        let study = &m.span_tree[0];
        assert_eq!(study.name, "study");
        assert_eq!(study.children.len(), 2);
        assert_eq!(study.children[0].name, "phase:preflight");
        let gt = &study.children[1];
        assert_eq!(gt.children[0].name, "app:hycom-large");
        assert_eq!(gt.children[0].children[0].name, "machine:lemieux");
        assert_eq!(study.descendant_count(), 4);
    }

    #[test]
    fn orphan_spans_become_roots() {
        let rec = InMemoryRecorder::new();
        let id = rec.span_enter(999, "orphan".into());
        rec.span_exit(id, 1_000);
        let m = RunManifest::build(&rec, ManifestMeta::default());
        assert_eq!(m.span_tree.len(), 1);
        assert_eq!(m.span_tree[0].name, "orphan");
        assert_eq!(m.total_seconds, 0.0, "no study root span");
    }

    #[test]
    fn manifest_round_trips_through_json_identically() {
        let m = RunManifest::build(&sample_recorder(), sample_meta());
        let back = RunManifest::from_json(&m.to_json().unwrap()).expect("parses");
        assert_eq!(back, m, "serialize -> parse must be the identity");
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(RunManifest::from_json("not json").is_err());
        assert!(RunManifest::from_json("{\"schema_version\": 1}").is_err());
    }
}
