//! The property the audit engine guarantees for the shipped study: every
//! static artifact — fleet configuration, measured probe curves, the fifteen
//! (case, CPU-count) workloads and their traces — passes preflight with zero
//! error-severity diagnostics, and the individual validators agree.

use metasim::apps::tracing::TraceCache;
use metasim::audit::{audit_value, AllowRule, AuditPolicy, Severity};
use metasim::core::{preflight, preflight_with_policy};
use metasim::machines::fleet;
use metasim::probes::suite::ProbeSuite;

#[test]
fn shipped_artifacts_pass_preflight_without_errors() {
    let f = fleet();
    let suite = ProbeSuite::new();
    let report = preflight(&f, &suite, &TraceCache::new());
    assert!(
        !report.has_errors(),
        "the shipped study must be error-free:\n{report}"
    );
    assert_eq!(
        report.count(Severity::Warn),
        0,
        "the shipped study must also be warning-free (CI denies warnings):\n{report}"
    );
}

#[test]
fn preflight_survives_deny_warnings() {
    // CI runs `metasim audit --deny-warnings`; the shipped artifacts must
    // stay clean when every warning escalates to an error.
    let f = fleet();
    let suite = ProbeSuite::new();
    let report = preflight_with_policy(
        &f,
        &suite,
        &TraceCache::new(),
        AuditPolicy {
            allow: vec![],
            deny_warnings: true,
        },
    );
    assert!(!report.has_errors(), "{report}");
}

#[test]
fn allow_rules_suppress_warnings_not_errors() {
    use metasim::audit::registry::{MS008, MS101};
    let report = audit_value(|a| {
        a.finding(&MS008, "era warning");
        a.finding(&MS101, "shape error");
    });
    assert_eq!(report.count(Severity::Warn), 1);
    assert_eq!(report.count(Severity::Error), 1);

    let mut auditor = metasim::audit::Auditor::with_policy(AuditPolicy {
        allow: vec![AllowRule::parse("MS008").unwrap()],
        deny_warnings: false,
    });
    auditor.finding(&MS008, "era warning");
    auditor.finding(&MS101, "shape error");
    let report = auditor.finish();
    assert_eq!(report.count(Severity::Warn), 0, "warning suppressed");
    assert_eq!(
        report.count(Severity::Error),
        1,
        "errors are never suppressed"
    );
    assert_eq!(report.suppressed, 1);
}

#[test]
fn every_component_validator_passes_on_the_fleet() {
    let f = fleet();
    for m in f.all() {
        m.validate().unwrap_or_else(|r| panic!("{}: {r}", m.id));
        m.processor.validate().unwrap();
        m.memory.validate().unwrap();
        m.network.validate().unwrap();
    }
}
