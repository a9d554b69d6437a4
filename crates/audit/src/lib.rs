//! metasim-audit: the diagnostics engine behind `metasim audit`.
//!
//! This crate is pure infrastructure — it defines *how* findings are
//! represented, suppressed, and rendered, while the rules themselves live
//! next to the artifacts they check (machine configs in `metasim-machines`,
//! MAPS curves in `metasim-probes`, traces in `metasim-tracer`, study
//! outputs and formulas in `metasim-core`, run manifests in `metasim-obs`,
//! fault plans in `metasim-chaos`). Everything here is modelled on compiler
//! lints: stable rule codes (`MS0xx` config, `MS1xx` probe/curve, `MS2xx`
//! trace, `MS3xx` study/prediction, `MS4xx` run manifest, `MS5xx`
//! formula/dataflow lint, `MS6xx` chaos/degradation), three severities,
//! structured
//! [`Diagnostic`]s carrying a dotted *subject path* (the artifact-tree
//! analogue of a source span), `allow`-style suppression, and both a
//! human-readable and a JSON-lines renderer.

pub mod registry;
pub mod render;

use std::fmt;

pub use registry::Rule;

/// How bad a finding is. Ordering is `Note < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth a look, never blocks a study.
    Note,
    /// Suspicious but plausible; blocks only under `--deny-warnings`.
    Warn,
    /// The artifact contradicts the paper's methodology or basic physics;
    /// a study refusing to run on it is the correct outcome.
    Error,
}

impl Severity {
    /// Lowercase label used by both renderers.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding: a rule violation (or near-violation) on a specific artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: &'static Rule,
    /// Effective severity (defaults to the rule's, may be escalated).
    pub severity: Severity,
    /// Dotted path naming the artifact, e.g. `fleet.lemieux.processor`.
    pub subject: String,
    /// Primary human-readable message with the offending values inline.
    pub message: String,
    /// Supplementary observations (rendered as `= note:` lines).
    pub notes: Vec<String>,
    /// Suggested remediation (rendered as `= help:`).
    pub help: Option<String>,
}

impl Diagnostic {
    /// New diagnostic at the rule's default severity.
    #[must_use]
    pub fn new(
        rule: &'static Rule,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            severity: rule.default_severity,
            subject: subject.into(),
            message: message.into(),
            notes: Vec::new(),
            help: None,
        }
    }

    /// Attach a supplementary note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Attach remediation help.
    #[must_use]
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

/// One `allow` entry: a rule code, optionally scoped to a subject prefix
/// (`"MS008"` or `"MS008@fleet.xt3"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowRule {
    /// Rule code being suppressed, e.g. `MS008`.
    pub code: String,
    /// If set, suppress only diagnostics whose subject starts with this.
    pub subject_prefix: Option<String>,
}

impl AllowRule {
    /// Parse `"CODE"` or `"CODE@subject.prefix"`.
    ///
    /// # Errors
    /// Rejects unknown codes and empty prefixes so typos in config files
    /// fail loudly instead of silently suppressing nothing.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (code, prefix) = match s.split_once('@') {
            Some((c, p)) => (c.trim(), Some(p.trim())),
            None => (s.trim(), None),
        };
        if registry::by_code(code).is_none() {
            return Err(format!("unknown rule code `{code}` in allow entry `{s}`"));
        }
        if let Some(p) = prefix {
            if p.is_empty() {
                return Err(format!("empty subject prefix in allow entry `{s}`"));
            }
        }
        Ok(AllowRule {
            code: code.to_string(),
            subject_prefix: prefix.map(str::to_string),
        })
    }

    /// Does this entry suppress the given diagnostic?
    #[must_use]
    pub fn matches(&self, d: &Diagnostic) -> bool {
        self.code == d.rule.code
            && self
                .subject_prefix
                .as_deref()
                .is_none_or(|p| d.subject.starts_with(p))
    }
}

/// Suppression and escalation policy applied as diagnostics are emitted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditPolicy {
    /// `allow`-style suppressions (errors are never suppressible).
    pub allow: Vec<AllowRule>,
    /// Escalate every `Warn` to `Error` (CI's `--deny-warnings`).
    pub deny_warnings: bool,
}

/// Collects diagnostics while walking an artifact tree.
///
/// Rules call [`Auditor::emit`] (or the `error`/`warn`/`note` shorthands);
/// the auditor applies the policy and tracks the current subject path via
/// [`Auditor::scope`].
#[derive(Debug, Default)]
pub struct Auditor {
    policy: AuditPolicy,
    path: Vec<String>,
    diagnostics: Vec<Diagnostic>,
    suppressed: usize,
}

impl Auditor {
    /// Auditor with the default (empty) policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Auditor applying `policy`.
    #[must_use]
    pub fn with_policy(policy: AuditPolicy) -> Self {
        Auditor {
            policy,
            ..Self::default()
        }
    }

    /// The current dotted subject path.
    #[must_use]
    pub fn subject(&self) -> String {
        self.path.join(".")
    }

    /// Subject path extended with a final segment.
    #[must_use]
    pub fn subject_of(&self, leaf: impl AsRef<str>) -> String {
        let leaf = leaf.as_ref();
        if self.path.is_empty() {
            leaf.to_string()
        } else {
            format!("{}.{leaf}", self.subject())
        }
    }

    /// Run `f` with `segment` pushed onto the subject path.
    pub fn scope<R>(&mut self, segment: impl Into<String>, f: impl FnOnce(&mut Self) -> R) -> R {
        self.path.push(segment.into());
        let out = f(self);
        self.path.pop();
        out
    }

    /// Record a diagnostic, applying suppression and escalation.
    ///
    /// Errors are never suppressible — an `allow` entry naming an
    /// error-severity finding is ignored, matching `#[allow]` semantics
    /// where hard errors cannot be allowed away.
    pub fn emit(&mut self, diagnostic: Diagnostic) {
        let mut d = diagnostic;
        if d.severity == Severity::Warn && self.policy.deny_warnings {
            d.severity = Severity::Error;
            d.notes
                .push("warning escalated by deny-warnings".to_string());
        }
        if d.severity < Severity::Error && self.policy.allow.iter().any(|a| a.matches(&d)) {
            self.suppressed += 1;
            return;
        }
        self.diagnostics.push(d);
    }

    /// Emit at the current subject path with the rule's default severity.
    pub fn finding(&mut self, rule: &'static Rule, message: impl Into<String>) {
        let subject = self.subject();
        self.emit(Diagnostic::new(rule, subject, message));
    }

    /// Emit at the current path extended with `leaf`.
    pub fn finding_at(
        &mut self,
        rule: &'static Rule,
        leaf: impl AsRef<str>,
        message: impl Into<String>,
    ) {
        let subject = self.subject_of(leaf);
        self.emit(Diagnostic::new(rule, subject, message));
    }

    /// Finish, producing the report.
    #[must_use]
    pub fn finish(self) -> AuditReport {
        let mut report = AuditReport {
            diagnostics: self.diagnostics,
            suppressed: self.suppressed,
        };
        report.sort();
        report
    }
}

/// Run `f` against a fresh default-policy [`Auditor`] and return the report.
///
/// The one-shot form domain `validate()` wrappers use: build the report,
/// then call [`AuditReport::into_result`] to turn errors into `Err`.
pub fn audit_value<F: FnOnce(&mut Auditor)>(f: F) -> AuditReport {
    let mut auditor = Auditor::new();
    f(&mut auditor);
    auditor.finish()
}

/// The outcome of an audit pass: every finding plus suppression stats.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// All recorded findings, sorted worst-first.
    pub diagnostics: Vec<Diagnostic>,
    /// Count of findings dropped by `allow` entries.
    pub suppressed: usize,
}

impl AuditReport {
    /// Number of findings at `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Any error-severity findings?
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Any findings at all?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Did a rule with this code fire?
    #[must_use]
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.rule.code == code)
    }

    /// `Ok(report)` when error-free (warnings/notes allowed through for
    /// inspection), `Err(report)` when any error-severity finding exists.
    ///
    /// # Errors
    /// The report itself, when it contains errors.
    pub fn into_result(self) -> Result<AuditReport, AuditReport> {
        if self.has_errors() {
            Err(self)
        } else {
            Ok(self)
        }
    }

    /// Fold another report into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.diagnostics.extend(other.diagnostics);
        self.suppressed += other.suppressed;
        self.sort();
    }

    /// Sort worst-severity first, then by code, then by subject.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.rule.code.cmp(b.rule.code))
                .then_with(|| a.subject.cmp(&b.subject))
        });
    }

    /// One-line totals, e.g. `2 errors, 1 warning, 0 notes (3 suppressed)`.
    #[must_use]
    pub fn summary_line(&self) -> String {
        let (e, w, n) = (
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Note),
        );
        let plural = |c: usize, s: &str| format!("{c} {s}{}", if c == 1 { "" } else { "s" });
        let mut line = format!(
            "{}, {}, {}",
            plural(e, "error"),
            plural(w, "warning"),
            plural(n, "note")
        );
        if self.suppressed > 0 {
            line.push_str(&format!(" ({} suppressed)", self.suppressed));
        }
        line
    }
}

impl fmt::Display for AuditReport {
    /// The full human rendering — panics carrying a report stay readable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&render::human(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rule() -> &'static Rule {
        registry::by_code("MS001").expect("MS001 registered")
    }

    fn warn_rule() -> &'static Rule {
        registry::by_code("MS008").expect("MS008 registered")
    }

    #[test]
    fn severity_orders_correctly() {
        assert!(Severity::Note < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn auditor_tracks_subject_path() {
        let mut a = Auditor::new();
        a.scope("fleet", |a| {
            a.scope("lemieux", |a| {
                assert_eq!(a.subject(), "fleet.lemieux");
                a.finding_at(rule(), "clock_ghz", "bad clock");
            });
        });
        let report = a.finish();
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].subject, "fleet.lemieux.clock_ghz");
    }

    /// The policy the CLI's repeated `--allow CODE[@SUBJECT]` builds.
    fn allow(specs: &[&str]) -> AuditPolicy {
        AuditPolicy {
            allow: specs.iter().map(|s| AllowRule::parse(s).unwrap()).collect(),
            deny_warnings: false,
        }
    }

    #[test]
    fn allow_suppresses_warnings_but_not_errors() {
        let policy = allow(&["MS008", "MS001"]);
        let mut a = Auditor::with_policy(policy);
        a.finding(rule(), "an error");
        a.finding(warn_rule(), "a warning");
        let report = a.finish();
        assert_eq!(report.suppressed, 1, "only the warning is suppressible");
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule.code, "MS001");
    }

    #[test]
    fn allow_scoped_by_subject_prefix() {
        let policy = allow(&["MS008@fleet.xt3"]);
        let mut a = Auditor::with_policy(policy);
        a.scope("fleet", |a| {
            a.scope("xt3", |a| a.finding(warn_rule(), "suppressed"));
            a.scope("p655", |a| a.finding(warn_rule(), "kept"));
        });
        let report = a.finish();
        assert_eq!(report.suppressed, 1);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].subject, "fleet.p655");
    }

    #[test]
    fn allow_rejects_unknown_codes() {
        assert!(AllowRule::parse("MS999").is_err());
        assert!(AllowRule::parse("MS008@").is_err());
        assert!(AllowRule::parse("MS008@fleet").is_ok());
    }

    #[test]
    fn deny_warnings_escalates() {
        let mut a = Auditor::with_policy(AuditPolicy {
            allow: Vec::new(),
            deny_warnings: true,
        });
        a.finding(warn_rule(), "will be an error");
        let report = a.finish();
        assert!(report.has_errors());
    }

    #[test]
    fn report_sorts_worst_first_and_counts() {
        let mut a = Auditor::new();
        a.emit(Diagnostic::new(warn_rule(), "b", "warn"));
        a.emit(Diagnostic::new(rule(), "a", "err"));
        let report = a.finish();
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
        assert_eq!(report.count(Severity::Error), 1);
        assert_eq!(report.count(Severity::Warn), 1);
        assert_eq!(report.summary_line(), "1 error, 1 warning, 0 notes");
    }

    /// Text spliced into an allow entry: its separators, whitespace, a
    /// multi-byte character and a NUL.
    const ALLOW_SPLICES: [&str; 8] = ["@", "@@", " ", "\t", "MS", "0", "é", "\u{0}"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Arbitrary bytes, read as lossy UTF-8, never make `parse` panic,
        /// and whatever it accepts names a registered rule and no empty
        /// prefix.
        #[test]
        fn arbitrary_allow_entries_never_panic(
            bytes in prop::collection::vec(0u8..=255, 0..64),
        ) {
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(rule) = AllowRule::parse(&text) {
                prop_assert!(registry::by_code(&rule.code).is_some());
                prop_assert_ne!(rule.subject_prefix.as_deref(), Some(""));
            }
        }

        /// `MS008@fleet.xt3` with characters inserted, deleted or replaced
        /// never makes `parse` panic, and whatever it accepts is well formed.
        #[test]
        fn mutated_allow_entries_never_panic(
            edits in prop::collection::vec((0u8..3, 0usize..64, 0usize..8), 1..6),
        ) {
            let mut text: Vec<char> = "MS008@fleet.xt3".chars().collect();
            for (op, at, pick) in edits {
                let at = at % (text.len() + 1);
                if op != 0 && at < text.len() {
                    text.remove(at);
                }
                if op != 1 {
                    text.splice(at..at, ALLOW_SPLICES[pick].chars());
                }
            }
            let text: String = text.into_iter().collect();
            if let Ok(rule) = AllowRule::parse(&text) {
                prop_assert!(registry::by_code(&rule.code).is_some());
                prop_assert_ne!(rule.subject_prefix.as_deref(), Some(""));
            }
        }
    }
}
