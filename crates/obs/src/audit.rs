//! `MS4xx` audit rules: static validation of a [`RunManifest`].
//!
//! A manifest is itself a study artifact — CI archives it, EXPERIMENTS.md
//! compares cold and warm runs through it — so it gets the same treatment
//! as probe curves and traces: stable rule codes, dotted subject paths, and
//! a `metasim audit --manifest` entry point.

use metasim_audit::registry::{MS401, MS402, MS403, MS603};
use metasim_audit::{audit_value, AuditReport, Auditor};

use crate::manifest::{RunManifest, SpanNode, MANIFEST_SCHEMA_VERSION};

fn audit_span(node: &SpanNode, path: &str, a: &mut Auditor) {
    let ok = |x: f64| x.is_finite() && x >= 0.0;
    if !ok(node.seconds) || !ok(node.start_seconds) {
        a.finding_at(
            &MS402,
            path,
            format!(
                "span `{}` has invalid timing (start {}s, duration {}s)",
                node.name, node.start_seconds, node.seconds
            ),
        );
    }
    for (i, child) in node.children.iter().enumerate() {
        audit_span(child, &format!("{path}.{i}"), a);
    }
}

/// Audit `manifest` under a `manifest` scope: [`MS401`] schema version,
/// [`MS402`] duration sanity, [`MS403`] metrics-snapshot shape.
pub fn audit_manifest(manifest: &RunManifest, a: &mut Auditor) {
    a.scope("manifest", |a| {
        if manifest.schema_version != MANIFEST_SCHEMA_VERSION {
            a.finding_at(
                &MS401,
                "schema_version",
                format!(
                    "manifest schema v{} but this build reads v{MANIFEST_SCHEMA_VERSION}",
                    manifest.schema_version
                ),
            );
        }

        let ok = |x: f64| x.is_finite() && x >= 0.0;
        if !ok(manifest.total_seconds) {
            a.finding_at(
                &MS402,
                "total_seconds",
                format!(
                    "total wall time {} must be finite and >= 0",
                    manifest.total_seconds
                ),
            );
        }
        for p in &manifest.phases {
            if !ok(p.seconds) {
                a.finding_at(
                    &MS402,
                    format!("phases.{}", p.name),
                    format!("phase wall time {}s must be finite and >= 0", p.seconds),
                );
            }
        }
        for (i, root) in manifest.span_tree.iter().enumerate() {
            audit_span(root, &format!("span_tree.{i}"), a);
        }
        for s in &manifest.slowest_spans {
            if !ok(s.seconds) {
                a.finding_at(
                    &MS402,
                    format!("slowest_spans.{}", s.name),
                    format!("span wall time {}s must be finite and >= 0", s.seconds),
                );
            }
        }

        for (name, h) in &manifest.metrics.histograms {
            let subject = format!("metrics.histograms.{name}");
            if h.counts.len() != h.bounds.len() + 1 {
                a.finding_at(
                    &MS403,
                    &subject,
                    format!(
                        "{} buckets for {} bounds (need bounds + 1 overflow)",
                        h.counts.len(),
                        h.bounds.len()
                    ),
                );
            }
            if h.bounds.windows(2).any(|w| w[0] >= w[1]) || h.bounds.iter().any(|b| !b.is_finite())
            {
                a.finding_at(
                    &MS403,
                    &subject,
                    "bucket bounds must be finite and strictly increasing",
                );
            }
            if !h.sum.is_finite() {
                a.finding_at(&MS403, &subject, format!("sum {} must be finite", h.sum));
            }
        }
        for (name, h) in &manifest.metrics.hdr_histograms {
            if !h.is_coherent() {
                a.finding_at(
                    &MS403,
                    format!("metrics.hdr_histograms.{name}"),
                    "log-scaled histogram snapshot must have ascending in-range \
                     buckets, nonzero counts, and finite sum/low/high",
                );
            }
        }
        for (name, v) in &manifest.metrics.gauges {
            if !v.is_finite() {
                a.finding_at(
                    &MS403,
                    format!("metrics.gauges.{name}"),
                    format!("gauge value {v} must be finite"),
                );
            }
        }

        // MS603: an exhausted retry budget means some operation failed for
        // good after every attempt — the run degraded, and the manifest is
        // where that has to surface.
        let exhausted = manifest.metrics.counter("chaos.retry.exhausted");
        if exhausted > 0 {
            a.finding_at(
                &MS603,
                "metrics.counters.chaos.retry.exhausted",
                format!(
                    "{exhausted} operation(s) exhausted their retry budget; \
                     the run completed with degraded coverage"
                ),
            );
        }
    });
}

impl RunManifest {
    /// Audit this manifest against the `MS4xx` rules.
    #[must_use]
    pub fn audit(&self) -> AuditReport {
        audit_value(|a| audit_manifest(self, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{ManifestMeta, SlowSpan};
    use crate::recorder::InMemoryRecorder;

    fn valid_manifest() -> RunManifest {
        let rec = InMemoryRecorder::new();
        let study = rec.span_enter(0, "study".into());
        let pre = rec.span_enter(study, "phase:preflight".into());
        rec.span_exit(pre, 1_000);
        rec.span_exit(study, 2_000);
        rec.metrics().observe("study.signed_error_pct", 5.0);
        RunManifest::build(&rec, ManifestMeta::default())
    }

    #[test]
    fn a_built_manifest_audits_clean() {
        let report = valid_manifest().audit();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn wrong_schema_version_fires_ms401() {
        let mut m = valid_manifest();
        m.schema_version = 99;
        let report = m.audit();
        assert!(report.has_code("MS401"), "{report}");
        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].subject, "manifest.schema_version");
    }

    #[test]
    fn negative_or_nan_durations_fire_ms402() {
        let mut m = valid_manifest();
        m.total_seconds = -1.0;
        m.phases[0].seconds = f64::NAN;
        m.span_tree[0].children[0].seconds = -0.5;
        m.slowest_spans.push(SlowSpan {
            name: "bad".into(),
            seconds: f64::INFINITY,
        });
        let report = m.audit();
        assert!(report.has_code("MS402"), "{report}");
        assert!(
            report
                .diagnostics
                .iter()
                .filter(|d| d.rule.code == "MS402")
                .count()
                >= 4,
            "{report}"
        );
    }

    #[test]
    fn exhausted_retries_fire_ms603() {
        let rec = InMemoryRecorder::new();
        let study = rec.span_enter(0, "study".into());
        rec.span_exit(study, 2_000);
        rec.metrics().counter_add("chaos.retry.attempts", 5);
        rec.metrics().counter_add("chaos.retry.recovered", 3);
        rec.metrics().counter_add("chaos.retry.exhausted", 2);
        let m = RunManifest::build(&rec, ManifestMeta::default());
        let report = m.audit();
        assert!(report.has_code("MS603"), "{report}");
        assert!(!report.has_errors(), "MS603 is a warning: {report}");

        // Recovered retries alone are healthy — no finding.
        let rec = InMemoryRecorder::new();
        let study = rec.span_enter(0, "study".into());
        rec.span_exit(study, 2_000);
        rec.metrics().counter_add("chaos.retry.attempts", 5);
        rec.metrics().counter_add("chaos.retry.recovered", 5);
        let m = RunManifest::build(&rec, ManifestMeta::default());
        assert!(m.audit().is_clean());
    }

    #[test]
    fn malformed_metrics_fire_ms403() {
        let mut m = valid_manifest();
        {
            let (_, h) = &mut m.metrics.histograms[0];
            h.counts.pop();
            h.bounds[0] = h.bounds[1]; // no longer strictly increasing
            h.sum = f64::NAN;
        }
        m.metrics.gauges.push(("bad.gauge".into(), f64::NAN));
        let report = m.audit();
        assert!(report.has_code("MS403"), "{report}");
        assert_eq!(
            report
                .diagnostics
                .iter()
                .filter(|d| d.rule.code == "MS403")
                .count(),
            4,
            "{report}"
        );
    }

    #[test]
    fn incoherent_hdr_snapshot_fires_ms403() {
        let rec = InMemoryRecorder::new();
        let study = rec.span_enter(0, "study".into());
        rec.span_exit(study, 2_000);
        rec.metrics().hdr_observe("lat.prediction", 0.003);
        let mut m = RunManifest::build(&rec, ManifestMeta::default());
        assert!(m.audit().is_clean(), "coherent hdr passes");
        let (_, h) = &mut m.metrics.hdr_histograms[0];
        h.sum = f64::NAN;
        let report = m.audit();
        assert!(report.has_code("MS403"), "{report}");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.subject.contains("hdr_histograms.lat.prediction")));
    }
}
