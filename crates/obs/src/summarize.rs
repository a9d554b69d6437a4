//! Human rendering of a [`RunManifest`] — what `metasim obs summarize`
//! prints.
//!
//! The raw span forest of a full study holds ~1,800 spans (150 machine
//! spans × 2 phases, 1,350 metric spans, …); dumping it verbatim would be
//! unreadable. The renderer instead aggregates sibling spans by *kind* —
//! the name prefix before the first `:` — so `machine:lemieux`,
//! `machine:blueice`, … collapse into one `machine ×10` row with their
//! total and worst wall time.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::manifest::{RunManifest, SpanNode};

/// Maximum tree depth rendered before eliding deeper levels.
const MAX_DEPTH: usize = 5;

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// The name prefix before the first `:`, or the whole name.
fn kind_of(name: &str) -> &str {
    name.split(':').next().unwrap_or(name)
}

/// Sibling spans of one kind, folded into a single display row.
struct KindGroup {
    kind: String,
    count: usize,
    total_seconds: f64,
    max_seconds: f64,
    /// A representative child set (from the first member) for recursion.
    children: Vec<SpanNode>,
    /// Sole member's full name when the group has exactly one span.
    sole_name: String,
}

fn group_siblings(nodes: &[SpanNode]) -> Vec<KindGroup> {
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, KindGroup> = HashMap::new();
    for n in nodes {
        let kind = kind_of(&n.name).to_string();
        let g = groups.entry(kind.clone()).or_insert_with(|| {
            order.push(kind.clone());
            KindGroup {
                kind,
                count: 0,
                total_seconds: 0.0,
                max_seconds: 0.0,
                children: n.children.clone(),
                sole_name: n.name.clone(),
            }
        });
        g.count += 1;
        g.total_seconds += n.seconds;
        g.max_seconds = g.max_seconds.max(n.seconds);
    }
    order
        .into_iter()
        .filter_map(|k| groups.remove(&k))
        .collect()
}

fn render_tree(nodes: &[SpanNode], depth: usize, out: &mut String) {
    if depth >= MAX_DEPTH {
        return;
    }
    for g in group_siblings(nodes) {
        let indent = "  ".repeat(depth + 1);
        if g.count == 1 {
            let _ = writeln!(
                out,
                "{indent}{:<28} {:>10}",
                g.sole_name,
                fmt_secs(g.total_seconds)
            );
        } else {
            let _ = writeln!(
                out,
                "{indent}{:<28} {:>10}  (×{}, max {})",
                g.kind,
                fmt_secs(g.total_seconds),
                g.count,
                fmt_secs(g.max_seconds)
            );
        }
        render_tree(&g.children, depth + 1, out);
    }
}

/// Default length of the slowest-span listing (`--top N` overrides).
pub const DEFAULT_TOP_SPANS: usize = 10;

/// Render the manifest as a terminal-friendly report with the default
/// slowest-span listing length.
#[must_use]
pub fn render(m: &RunManifest) -> String {
    render_top(m, DEFAULT_TOP_SPANS)
}

/// Render the manifest, listing up to `top` slowest spans.
#[must_use]
pub fn render_top(m: &RunManifest, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run manifest · schema v{} · {}",
        m.schema_version, m.tool
    );
    let _ = writeln!(out, "config digest  {}", m.config_digest);
    let _ = writeln!(
        out,
        "total          {} ({})",
        fmt_secs(m.total_seconds),
        if m.loaded_from_cache {
            "served from cache"
        } else {
            "computed"
        }
    );

    if !m.phases.is_empty() {
        let _ = writeln!(out, "\nphases");
        for p in &m.phases {
            let pct = if m.total_seconds > 0.0 {
                p.seconds / m.total_seconds * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<14} {:>10}  {:>5.1}%  {} spans",
                p.name,
                fmt_secs(p.seconds),
                pct,
                p.spans
            );
        }
    }

    if let Some(c) = &m.cache {
        let _ = writeln!(out, "\ncache · {} (schema v{})", c.root, c.schema);
        let _ = writeln!(
            out,
            "  {} entries, {} bytes on disk; session: {} hits, {} misses, {} evictions",
            c.entries, c.bytes, c.session_hits, c.session_misses, c.session_evictions
        );
    }

    if !m.span_tree.is_empty() {
        let _ = writeln!(out, "\nspan tree (siblings grouped by kind)");
        render_tree(&m.span_tree, 0, &mut out);
    }

    if !m.slowest_spans.is_empty() && top > 0 {
        let shown = m.slowest_spans.len().min(top);
        let _ = writeln!(out, "\nslowest spans (top {shown})");
        for s in m.slowest_spans.iter().take(top) {
            let _ = writeln!(out, "  {:<28} {:>10}", s.name, fmt_secs(s.seconds));
        }
    }

    if !m.metrics.counters.is_empty() {
        let _ = writeln!(out, "\ncounters");
        let mut counters = m.metrics.counters.clone();
        counters.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (name, v) in counters {
            let _ = writeln!(out, "  {name:<32} {v:>12}");
        }
    }

    if !m.metrics.gauges.is_empty() {
        let _ = writeln!(out, "\ngauges");
        for (name, v) in &m.metrics.gauges {
            let _ = writeln!(out, "  {name:<32} {v:>12}");
        }
    }

    if !m.metrics.histograms.is_empty() {
        let _ = writeln!(out, "\nhistograms");
        for (name, h) in &m.metrics.histograms {
            let mean = h
                .mean()
                .map_or_else(|| "-".to_string(), |x| format!("{x:.3}"));
            let _ = writeln!(out, "  {name:<32} count {:>8}  mean {mean}", h.count());
        }
    }

    if !m.metrics.hdr_histograms.is_empty() {
        let _ = writeln!(out, "\nlatency quantiles");
        for (name, h) in &m.metrics.hdr_histograms {
            let q = |p: f64| fmt_secs(h.quantile(p).unwrap_or(0.0));
            let _ = writeln!(
                out,
                "  {name:<28} count {:>8}  p50 {:>9}  p90 {:>9}  p99 {:>9}",
                h.count(),
                q(0.50),
                q(0.90),
                q(0.99)
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{ManifestMeta, RunManifest};
    use crate::recorder::InMemoryRecorder;

    #[test]
    fn render_groups_siblings_and_lists_sections() {
        let rec = InMemoryRecorder::new();
        let study = rec.span_enter(0, "study".into());
        let gt = rec.span_enter(study, "phase:ground-truth".into());
        for name in ["machine:a", "machine:b", "machine:c"] {
            let m = rec.span_enter(gt, name.into());
            rec.span_exit(m, 1_000_000);
        }
        rec.span_exit(gt, 4_000_000);
        rec.span_exit(study, 5_000_000);
        rec.metrics().counter_add("cache.hit.trace", 7);
        rec.metrics().gauge_set("study.observations", 150.0);
        rec.metrics().observe("study.signed_error_pct", 10.0);
        let m = RunManifest::build(
            &rec,
            ManifestMeta {
                tool: "metasim test".into(),
                config_digest: "ff00".into(),
                ..ManifestMeta::default()
            },
        );
        let text = render(&m);
        assert!(text.contains("schema v2"), "{text}");
        assert!(text.contains("phases"), "{text}");
        assert!(text.contains("ground-truth"), "{text}");
        assert!(text.contains("machine"), "{text}");
        assert!(text.contains("×3"), "grouped machine spans: {text}");
        assert!(text.contains("slowest spans"), "{text}");
        assert!(text.contains("cache.hit.trace"), "{text}");
        assert!(text.contains("study.signed_error_pct"), "{text}");
    }

    #[test]
    fn top_flag_limits_the_slowest_span_listing() {
        let rec = InMemoryRecorder::new();
        let study = rec.span_enter(0, "study".into());
        for i in 0..5u64 {
            let m = rec.span_enter(study, format!("machine:{i}"));
            rec.span_exit(m, (i + 1) * 1_000_000);
        }
        rec.span_exit(study, 20_000_000);
        let m = RunManifest::build(&rec, ManifestMeta::default());

        let top2 = render_top(&m, 2);
        assert!(top2.contains("slowest spans (top 2)"), "{top2}");
        assert!(top2.contains("machine:4") && top2.contains("machine:3"));
        assert!(!top2.contains("machine:2"), "{top2}");
        assert!(
            !render_top(&m, 0).contains("slowest spans"),
            "--top 0 hides the section"
        );
        assert_eq!(render(&m), render_top(&m, 10), "render is the default top");
    }

    #[test]
    fn latency_quantiles_render_next_to_counts() {
        let rec = InMemoryRecorder::new();
        let study = rec.span_enter(0, "study".into());
        rec.span_exit(study, 1_000_000);
        for i in 1..=100 {
            rec.metrics()
                .hdr_observe("lat.prediction", f64::from(i) * 1e-3);
        }
        let m = RunManifest::build(&rec, ManifestMeta::default());
        let text = render(&m);
        assert!(text.contains("latency quantiles"), "{text}");
        assert!(text.contains("lat.prediction"), "{text}");
        assert!(text.contains("p50") && text.contains("p99"), "{text}");
        let line = text
            .lines()
            .find(|l| l.contains("lat.prediction"))
            .expect("histogram row");
        assert!(line.contains("100"), "count on the row: {line}");
    }

    #[test]
    fn formats_scale_units() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(0.0000034), "3µs");
    }
}
