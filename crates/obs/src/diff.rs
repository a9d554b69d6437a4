//! `obs diff`: structured comparison of two run manifests, plus the
//! `MS404`–`MS406` regression-gating rules.
//!
//! BENCH_study.json-style point snapshots answer "how fast was it once";
//! CI needs "did this change make it slower *beyond what normal variability
//! explains*". [`diff_manifests`] computes the raw deltas — phase wall
//! times, counters, latency-quantile shifts, span-kind coverage — and
//! [`ManifestDiff::audit`] judges them against an explicit [`DiffBudget`],
//! following Cornebize & Legrand's point that conclusions must be drawn
//! against a variability allowance, not a single number.

use std::collections::BTreeSet;

use metasim_audit::registry::{MS404, MS405, MS406};
use metasim_audit::{audit_value, AuditReport, Auditor};
use serde::{Deserialize, Serialize};

use crate::hdr::REPORTED_QUANTILES;
use crate::manifest::{RunManifest, SpanNode};

/// Tolerances a diff is judged against. Loaded from JSON (`--budget FILE`);
/// every field is required in the file, so a committed budget is always
/// explicit about what it allows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffBudget {
    /// Allowed fractional wall-time increase per phase (0.5 = +50%)
    /// before `MS404` fires.
    pub phase_frac: f64,
    /// Phases whose candidate wall time is below this many seconds never
    /// fire `MS404` — sub-floor timings are noise, not regressions.
    pub phase_floor_seconds: f64,
    /// Allowed fractional drift (either direction) for counters before
    /// `MS405` fires.
    pub counter_frac: f64,
    /// Counters with a baseline below this are too small to judge.
    pub counter_min: u64,
    /// Allowed absolute drop in the session cache hit rate (0.10 = ten
    /// percentage points) before `MS405` fires.
    pub hit_rate_drop: f64,
}

impl Default for DiffBudget {
    /// Generous CI-grade defaults: phases may take half again as long
    /// (machines differ), timings under 100ms are ignored, counters may
    /// drift 10% once they exceed 100 events, and the cache hit rate may
    /// drop ten points.
    fn default() -> Self {
        DiffBudget {
            phase_frac: 0.5,
            phase_floor_seconds: 0.1,
            counter_frac: 0.1,
            counter_min: 100,
            hit_rate_drop: 0.1,
        }
    }
}

impl DiffBudget {
    /// Parse a budget from JSON text (all fields required).
    ///
    /// # Errors
    /// Malformed JSON or a missing/mistyped field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid diff budget: {e}"))
    }

    /// Serialize to pretty JSON (the committed-baseline format).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("budget fields are finite")
    }
}

/// One phase's wall time in both runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseDelta {
    /// Phase name (no `phase:` prefix).
    pub name: String,
    /// Baseline wall time in seconds (0 if the phase is new).
    pub baseline_seconds: f64,
    /// Candidate wall time in seconds (0 if the phase vanished).
    pub candidate_seconds: f64,
    /// `candidate / baseline`; 1.0 when the baseline is 0.
    pub ratio: f64,
}

/// One counter's value in both runs (only counters present in either).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Baseline value.
    pub baseline: u64,
    /// Candidate value.
    pub candidate: u64,
}

/// One latency-histogram quantile in both runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileShift {
    /// Histogram name, e.g. `lat.prediction`.
    pub name: String,
    /// Quantile label, e.g. `p99`.
    pub quantile: String,
    /// Baseline estimate in seconds.
    pub baseline: f64,
    /// Candidate estimate in seconds.
    pub candidate: f64,
}

/// Everything that differs (or could) between two manifests: the raw
/// material `obs diff` renders and [`audit`](Self::audit) judges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestDiff {
    /// Total wall time of the baseline run.
    pub baseline_total_seconds: f64,
    /// Total wall time of the candidate run.
    pub candidate_total_seconds: f64,
    /// Per-phase wall-time deltas, in baseline phase order (candidate-only
    /// phases appended).
    pub phases: Vec<PhaseDelta>,
    /// Counters that changed, sorted by name.
    pub counters: Vec<CounterDelta>,
    /// Latency-quantile estimates side by side, for histograms present in
    /// either run, sorted by name then quantile order.
    pub quantiles: Vec<QuantileShift>,
    /// Span kinds (name prefix before `:`) present in the baseline but
    /// absent from the candidate.
    pub missing_span_kinds: Vec<String>,
    /// Span kinds present only in the candidate.
    pub new_span_kinds: Vec<String>,
}

fn span_kinds(tree: &[SpanNode], out: &mut BTreeSet<String>) {
    for node in tree {
        let kind = node.name.split(':').next().unwrap_or(&node.name);
        out.insert(kind.to_string());
        span_kinds(&node.children, out);
    }
}

/// The session cache hit rate recorded in a manifest, if it served traffic.
fn hit_rate(m: &RunManifest) -> Option<f64> {
    let c = m.cache.as_ref()?;
    let total = c.session_hits + c.session_misses;
    (total > 0).then(|| c.session_hits as f64 / total as f64)
}

/// Compare two manifests: `baseline` is the committed reference, and
/// `candidate` the run under judgment.
#[must_use]
pub fn diff_manifests(baseline: &RunManifest, candidate: &RunManifest) -> ManifestDiff {
    let mut phases: Vec<PhaseDelta> = Vec::new();
    for p in &baseline.phases {
        let cand = candidate.phase_seconds(&p.name).unwrap_or(0.0);
        phases.push(PhaseDelta {
            name: p.name.clone(),
            baseline_seconds: p.seconds,
            candidate_seconds: cand,
            ratio: if p.seconds > 0.0 {
                cand / p.seconds
            } else {
                1.0
            },
        });
    }
    for p in &candidate.phases {
        if baseline.phase_seconds(&p.name).is_none() {
            phases.push(PhaseDelta {
                name: p.name.clone(),
                baseline_seconds: 0.0,
                candidate_seconds: p.seconds,
                ratio: 1.0,
            });
        }
    }

    let mut counter_names: BTreeSet<&str> = BTreeSet::new();
    counter_names.extend(baseline.metrics.counters.iter().map(|(n, _)| n.as_str()));
    counter_names.extend(candidate.metrics.counters.iter().map(|(n, _)| n.as_str()));
    let counters: Vec<CounterDelta> = counter_names
        .into_iter()
        .map(|name| CounterDelta {
            name: name.to_string(),
            baseline: baseline.metrics.counter(name),
            candidate: candidate.metrics.counter(name),
        })
        .filter(|d| d.baseline != d.candidate)
        .collect();

    let mut hdr_names: BTreeSet<&str> = BTreeSet::new();
    hdr_names.extend(
        baseline
            .metrics
            .hdr_histograms
            .iter()
            .map(|(n, _)| n.as_str()),
    );
    hdr_names.extend(
        candidate
            .metrics
            .hdr_histograms
            .iter()
            .map(|(n, _)| n.as_str()),
    );
    let mut quantiles: Vec<QuantileShift> = Vec::new();
    for name in hdr_names {
        for &(label, q) in REPORTED_QUANTILES {
            let at = |m: &RunManifest| {
                m.metrics
                    .hdr(name)
                    .and_then(|h| h.quantile(q))
                    .unwrap_or(0.0)
            };
            quantiles.push(QuantileShift {
                name: name.to_string(),
                quantile: label.to_string(),
                baseline: at(baseline),
                candidate: at(candidate),
            });
        }
    }

    let (mut base_kinds, mut cand_kinds) = (BTreeSet::new(), BTreeSet::new());
    span_kinds(&baseline.span_tree, &mut base_kinds);
    span_kinds(&candidate.span_tree, &mut cand_kinds);

    ManifestDiff {
        baseline_total_seconds: baseline.total_seconds,
        candidate_total_seconds: candidate.total_seconds,
        phases,
        counters,
        quantiles,
        missing_span_kinds: base_kinds.difference(&cand_kinds).cloned().collect(),
        new_span_kinds: cand_kinds.difference(&base_kinds).cloned().collect(),
    }
}

/// Audit a diff against `budget` under a `manifest-diff` scope.
pub fn audit_diff(diff: &ManifestDiff, budget: &DiffBudget, a: &mut Auditor) {
    a.scope("manifest-diff", |a| {
        for p in &diff.phases {
            let allowed = p.baseline_seconds * (1.0 + budget.phase_frac);
            if p.candidate_seconds > allowed && p.candidate_seconds > budget.phase_floor_seconds {
                a.finding_at(
                    &MS404,
                    format!("phases.{}", p.name),
                    format!(
                        "phase `{}` took {:.3}s, over the {:.3}s budget \
                         (baseline {:.3}s + {:.0}%)",
                        p.name,
                        p.candidate_seconds,
                        allowed,
                        p.baseline_seconds,
                        budget.phase_frac * 100.0
                    ),
                );
            }
        }

        for c in &diff.counters {
            if c.baseline < budget.counter_min {
                continue;
            }
            let drift = (c.candidate as f64 - c.baseline as f64).abs() / c.baseline as f64;
            if drift > budget.counter_frac {
                a.finding_at(
                    &MS405,
                    format!("counters.{}", c.name),
                    format!(
                        "counter `{}` moved {} -> {} ({:+.1}%), beyond the {:.0}% allowance",
                        c.name,
                        c.baseline,
                        c.candidate,
                        (c.candidate as f64 / c.baseline as f64 - 1.0) * 100.0,
                        budget.counter_frac * 100.0
                    ),
                );
            }
        }

        for kind in &diff.missing_span_kinds {
            a.finding_at(
                &MS406,
                format!("span_kinds.{kind}"),
                format!(
                    "span kind `{kind}` present in the baseline never appeared \
                     in the candidate run"
                ),
            );
        }
    });
}

impl ManifestDiff {
    /// Judge this diff against `budget` ([`MS404`]/[`MS405`]/[`MS406`]).
    #[must_use]
    pub fn audit(&self, budget: &DiffBudget) -> AuditReport {
        audit_value(|a| audit_diff(self, budget, a))
    }

    /// The session cache hit-rate comparison belongs to the diff even
    /// though it reads the manifests directly; called by
    /// [`diff_and_audit`] so fixture tests can exercise it in isolation.
    fn audit_hit_rate(
        baseline: &RunManifest,
        candidate: &RunManifest,
        budget: &DiffBudget,
        a: &mut Auditor,
    ) {
        if let (Some(base), Some(cand)) = (hit_rate(baseline), hit_rate(candidate)) {
            if base - cand > budget.hit_rate_drop {
                a.scope("manifest-diff", |a| {
                    a.finding_at(
                        &MS405,
                        "cache.session_hit_rate",
                        format!(
                            "session cache hit rate fell {:.1}% -> {:.1}%, more than \
                             the allowed {:.0}-point drop",
                            base * 100.0,
                            cand * 100.0,
                            budget.hit_rate_drop * 100.0
                        ),
                    );
                });
            }
        }
    }

    /// Render the diff as an aligned text report (the `obs diff` output).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "total wall time  {:>10.3}s -> {:>10.3}s",
            self.baseline_total_seconds, self.candidate_total_seconds
        );
        if !self.phases.is_empty() {
            let _ = writeln!(out, "\nphases:");
            for p in &self.phases {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>10.3}s -> {:>10.3}s  ({:>6.2}x)",
                    p.name, p.baseline_seconds, p.candidate_seconds, p.ratio
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\ncounters that changed:");
            for c in &self.counters {
                let _ = writeln!(
                    out,
                    "  {:<40} {:>12} -> {:>12}",
                    c.name, c.baseline, c.candidate
                );
            }
        }
        if !self.quantiles.is_empty() {
            let _ = writeln!(out, "\nlatency quantiles:");
            for q in &self.quantiles {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>4}  {:>12.6}s -> {:>12.6}s",
                    q.name, q.quantile, q.baseline, q.candidate
                );
            }
        }
        for (label, kinds) in [
            (
                "span kinds missing from candidate",
                &self.missing_span_kinds,
            ),
            ("span kinds new in candidate", &self.new_span_kinds),
        ] {
            if !kinds.is_empty() {
                let _ = writeln!(out, "\n{label}: {}", kinds.join(", "));
            }
        }
        out
    }
}

/// The whole `obs diff` pipeline in one call: compute the deltas and judge
/// them (including the cache hit-rate check, which needs the manifests).
#[must_use]
pub fn diff_and_audit(
    baseline: &RunManifest,
    candidate: &RunManifest,
    budget: &DiffBudget,
) -> (ManifestDiff, AuditReport) {
    let diff = diff_manifests(baseline, candidate);
    let report = audit_value(|a| {
        audit_diff(&diff, budget, a);
        ManifestDiff::audit_hit_rate(baseline, candidate, budget, a);
    });
    (diff, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{CacheSummary, ManifestMeta};
    use crate::recorder::InMemoryRecorder;

    /// A study-shaped manifest: two phases, shard spans, counters, cache
    /// traffic, and a latency histogram.
    fn fixture(ground_truth_ns: u64, hits: u64, misses: u64) -> RunManifest {
        let rec = InMemoryRecorder::new();
        let study = rec.span_enter(0, "study".into());
        let pre = rec.span_enter(study, "phase:preflight".into());
        rec.span_exit(pre, 50_000_000);
        let gt = rec.span_enter(study, "phase:ground-truth".into());
        let shard = rec.span_enter(gt, "shard:0".into());
        rec.span_exit(shard, ground_truth_ns / 2);
        rec.span_exit(gt, ground_truth_ns);
        rec.span_exit(study, 100_000_000 + ground_truth_ns);
        rec.metrics().counter_add("probe.sweeps", 1_000);
        rec.metrics().hdr_observe("lat.prediction", 0.002);
        rec.metrics().hdr_observe("lat.prediction", 0.004);
        RunManifest::build(
            &rec,
            ManifestMeta {
                tool: "metasim test".into(),
                config_digest: "fixture".into(),
                loaded_from_cache: false,
                cache: Some(CacheSummary {
                    session_hits: hits,
                    session_misses: misses,
                    ..CacheSummary::default()
                }),
            },
        )
    }

    /// A budget tight enough for fixtures: no floor, 50% phase allowance.
    fn tight_budget() -> DiffBudget {
        DiffBudget {
            phase_frac: 0.5,
            phase_floor_seconds: 0.0,
            counter_frac: 0.1,
            counter_min: 10,
            hit_rate_drop: 0.1,
        }
    }

    #[test]
    fn baseline_vs_itself_is_clean() {
        let base = fixture(400_000_000, 90, 10);
        let (diff, report) = diff_and_audit(&base, &base, &tight_budget());
        assert!(report.is_clean(), "{report}");
        assert!(diff.counters.is_empty(), "no counter changed");
        assert!(diff.missing_span_kinds.is_empty());
        assert!(diff.phases.iter().all(|p| (p.ratio - 1.0).abs() < 1e-12));
        // Quantiles are reported even when identical.
        assert!(diff.quantiles.iter().any(|q| q.name == "lat.prediction"));
    }

    #[test]
    fn inflated_ground_truth_phase_fires_ms404() {
        let base = fixture(400_000_000, 90, 10);
        // Candidate run with the ground-truth phase 10x slower.
        let cand = fixture(4_000_000_000, 90, 10);
        let (diff, report) = diff_and_audit(&base, &cand, &tight_budget());
        assert!(report.has_code("MS404"), "{report}");
        assert!(report.has_errors(), "MS404 is an error");
        let gt = diff
            .phases
            .iter()
            .find(|p| p.name == "ground-truth")
            .unwrap();
        assert!(gt.ratio > 9.0 && gt.ratio < 11.0, "ratio {}", gt.ratio);
        // The un-inflated phase stays quiet.
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.subject.contains("preflight")),
            "{report}"
        );
    }

    #[test]
    fn phase_floor_suppresses_tiny_regressions() {
        let base = fixture(400_000_000, 90, 10);
        let cand = fixture(4_000_000_000, 90, 10);
        let mut generous = tight_budget();
        generous.phase_floor_seconds = 60.0; // everything is sub-floor
        let (_, report) = diff_and_audit(&base, &cand, &generous);
        assert!(!report.has_code("MS404"), "{report}");
    }

    #[test]
    fn counter_drift_and_hit_rate_drop_fire_ms405() {
        let base = fixture(400_000_000, 90, 10);
        let mut cand = fixture(400_000_000, 40, 60); // hit rate 90% -> 40%
                                                     // Drift a counter 50% beyond its baseline.
        for (name, v) in &mut cand.metrics.counters {
            if name == "probe.sweeps" {
                *v += 500;
            }
        }
        let (diff, report) = diff_and_audit(&base, &cand, &tight_budget());
        assert!(report.has_code("MS405"), "{report}");
        assert!(!report.has_errors(), "MS405 is a warning: {report}");
        let subjects: Vec<&str> = report
            .diagnostics
            .iter()
            .map(|d| d.subject.as_str())
            .collect();
        assert!(
            subjects.iter().any(|s| s.contains("probe.sweeps")),
            "{report}"
        );
        assert!(
            subjects.iter().any(|s| s.contains("session_hit_rate")),
            "{report}"
        );
        assert_eq!(diff.counters.len(), 1);

        // Below counter_min the same relative drift is ignored.
        let mut small = tight_budget();
        small.counter_min = 10_000;
        let (_, report) = diff_and_audit(&base, &cand, &small);
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.subject.contains("probe.sweeps")));
    }

    #[test]
    fn vanished_span_kind_fires_ms406() {
        let base = fixture(400_000_000, 90, 10);
        let mut cand = fixture(400_000_000, 90, 10);
        // Drop the shard span from the candidate's tree.
        cand.span_tree[0].children[1].children.clear();
        let (diff, report) = diff_and_audit(&base, &cand, &tight_budget());
        assert_eq!(diff.missing_span_kinds, ["shard"]);
        assert!(report.has_code("MS406"), "{report}");
        assert!(!report.has_errors(), "MS406 is a warning: {report}");
    }

    #[test]
    fn quantile_shift_is_reported() {
        let base = fixture(400_000_000, 90, 10);
        let mut cand_rec_manifest = fixture(400_000_000, 90, 10);
        // Hand the candidate a slower latency distribution.
        for (name, h) in &mut cand_rec_manifest.metrics.hdr_histograms {
            if name == "lat.prediction" {
                for (idx, _) in &mut h.buckets {
                    *idx += 64; // shift two decades up
                }
                h.low *= 100.0;
                h.high *= 100.0;
                h.sum *= 100.0;
            }
        }
        let diff = diff_manifests(&base, &cand_rec_manifest);
        let p99 = diff
            .quantiles
            .iter()
            .find(|q| q.name == "lat.prediction" && q.quantile == "p99")
            .unwrap();
        assert!(
            p99.candidate > p99.baseline * 50.0,
            "shifted p99 {} vs {}",
            p99.candidate,
            p99.baseline
        );
    }

    #[test]
    fn budget_round_trips_and_rejects_partial_files() {
        let b = DiffBudget::default();
        let text = b.to_json_pretty();
        assert_eq!(DiffBudget::from_json(&text).unwrap(), b);
        assert!(DiffBudget::from_json("{\"phase_frac\": 0.5}").is_err());
        assert!(DiffBudget::from_json("nope").is_err());
    }

    #[test]
    fn render_mentions_every_section() {
        let base = fixture(400_000_000, 90, 10);
        let mut cand = fixture(800_000_000, 90, 10);
        cand.span_tree[0].children[1].children.clear();
        let diff = diff_manifests(&base, &cand);
        let text = diff.render();
        assert!(text.contains("total wall time"));
        assert!(text.contains("ground-truth"));
        assert!(text.contains("lat.prediction"));
        assert!(text.contains("span kinds missing from candidate: shard"));
    }
}
