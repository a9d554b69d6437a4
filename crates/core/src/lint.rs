//! `metasim lint`: static analysis of the study's dataflow.
//!
//! Without measuring a probe, tracing an application, or convolving a
//! single block, this pass checks the *shape* of the study:
//!
//! * **MS501** — every metric's prediction formula must reduce
//!   dimensionally to seconds ([`formula::prediction_expr`](crate::formula::prediction_expr) folded by
//!   [`formula::Expr::dim`](crate::formula::Expr::dim)).
//! * **MS502** — a formula may only reference quantities the probe plan
//!   actually measures.
//! * **MS503** — every measured quantity should feed some formula
//!   (a probe nobody reads is wasted measurement — or a dropped term).
//! * **MS504** — every fleet machine should appear in the observation
//!   plan (config → study edges).
//! * **MS505** — every ENHANCED MAPS curve flavor must be reachable from
//!   some dependency class the analyzer emits (transfer-function branch
//!   reachability).
//!
//! The shipped model ([`LintModel::shipped`]) describes the study as
//! built and lints clean. The tests here seed one defect at a time into
//! its fields — a wrong-unit Equation 1, a dropped network term, a
//! single-class dependency analyzer — and pin that each is caught by
//! exactly the rule that owns it.

use metasim_apps::tracing::TraceCache;
use metasim_audit::registry::{MS501, MS502, MS503, MS504, MS505};
use metasim_audit::{AuditPolicy, AuditReport, Auditor};
use metasim_machines::MachineId;
use metasim_probes::suite::ProbeSuite;
use metasim_tracer::block::DependencyClass;

use crate::formula::{prediction_expr, Dim, Expr, ProbeQuantity};
use crate::metric::MetricId;
use crate::sensitivity::{analyze_with_jobs, lint_report, SenseModel};

/// A static description of the study's dataflow graph: which machines the
/// plan observes, which quantities the probe plan measures, which
/// dependency classes the analyzer can emit, and the nine prediction
/// formulas.
#[derive(Debug, Clone)]
pub struct LintModel {
    /// Machines configured in the fleet.
    pub fleet_machines: Vec<MachineId>,
    /// Machines the observation plan actually visits (base + targets).
    pub plan_machines: Vec<MachineId>,
    /// Quantities the probe plan measures.
    pub measured: Vec<ProbeQuantity>,
    /// The metric prediction formulas, in metric order.
    pub formulas: Vec<(MetricId, Expr)>,
    /// Dependency classes the static analyzer can emit.
    pub emitted_classes: Vec<DependencyClass>,
}

impl LintModel {
    /// The study as shipped: full fleet, full probe plan, all nine
    /// formulas, all three dependency classes. Lints clean.
    #[must_use]
    pub fn shipped() -> Self {
        LintModel {
            fleet_machines: MachineId::ALL.to_vec(),
            plan_machines: MachineId::ALL.to_vec(),
            measured: ProbeQuantity::ALL.to_vec(),
            formulas: MetricId::ALL
                .into_iter()
                .map(|m| (m, prediction_expr(m)))
                .collect(),
            emitted_classes: vec![
                DependencyClass::Independent,
                DependencyClass::Chained,
                DependencyClass::Branchy,
            ],
        }
    }
}

/// Which ENHANCED MAPS curve flavor a dependency class selects.
fn class_flavor(class: DependencyClass) -> &'static str {
    match class {
        DependencyClass::Independent => "independent",
        DependencyClass::Chained => "chained",
        DependencyClass::Branchy => "branchy",
    }
}

/// Run every lint check against `model`, emitting findings into `a`.
pub fn lint_model(model: &LintModel, a: &mut Auditor) {
    a.scope("lint", |a| {
        lint_formulas(model, a);
        lint_probe_dataflow(model, a);
        lint_machines(model, a);
        lint_branches(model, a);
    });
}

/// MS501 + MS502: per-formula dimension and measurement checks.
fn lint_formulas(model: &LintModel, a: &mut Auditor) {
    a.scope("formulas", |a| {
        for (metric, expr) in &model.formulas {
            let subject = format!("#{}", metric.number());
            match expr.dim() {
                Err(e) => a.finding_at(
                    &MS501,
                    &subject,
                    format!("{metric}: formula is dimensionally inconsistent: {e}"),
                ),
                Ok(d) if d != Dim::TIME => a.finding_at(
                    &MS501,
                    &subject,
                    format!("{metric}: prediction reduces to {d}, not seconds"),
                ),
                Ok(_) => {}
            }
            for q in expr.probe_quantities() {
                if !model.measured.contains(&q) {
                    a.finding_at(
                        &MS502,
                        &subject,
                        format!(
                            "{metric} convolves {q}, but the probe plan never runs {}",
                            q.probe()
                        ),
                    );
                }
            }
        }
    });
}

/// MS503: measured quantities no formula consumes.
fn lint_probe_dataflow(model: &LintModel, a: &mut Auditor) {
    a.scope("probes", |a| {
        let used: Vec<ProbeQuantity> = model
            .formulas
            .iter()
            .flat_map(|(_, e)| e.probe_quantities())
            .collect();
        for q in &model.measured {
            if !used.contains(q) {
                a.finding_at(
                    &MS503,
                    q.to_string(),
                    format!("{} measures {q}, but no metric formula reads it", q.probe()),
                );
            }
        }
    });
}

/// MS504: fleet machines the observation plan never visits.
fn lint_machines(model: &LintModel, a: &mut Auditor) {
    a.scope("fleet", |a| {
        for m in &model.fleet_machines {
            if !model.plan_machines.contains(m) {
                a.finding_at(
                    &MS504,
                    m.to_string(),
                    format!("{m} is configured but no study observation targets it"),
                );
            }
        }
    });
}

/// MS505: ENHANCED MAPS curve flavors no dependency class can select.
fn lint_branches(model: &LintModel, a: &mut Auditor) {
    a.scope("branches", |a| {
        let has_labeled = model.formulas.iter().any(|(_, e)| e.has_labeled_curves());
        if !has_labeled {
            return;
        }
        let all = [
            DependencyClass::Independent,
            DependencyClass::Chained,
            DependencyClass::Branchy,
        ];
        for class in all {
            if !model.emitted_classes.contains(&class) {
                a.finding_at(
                    &MS505,
                    class_flavor(class),
                    format!(
                        "the {} ENHANCED MAPS curves are unreachable: \
                         the dependency analyzer never emits that class",
                        class_flavor(class)
                    ),
                );
            }
        }
    });
}

/// Run both static analyses — the `MS5xx` formula lint and the `MS9xx`
/// sensitivity lint — into one report. This is what `metasim lint` runs
/// end to end; the sensitivity pass evaluates `sense` abstractly (probes
/// are measured through `suite` and traces read through `traces`, but no
/// study cell is convolved beyond the model's scope).
#[must_use]
pub fn lint_full_with_policy(
    model: &LintModel,
    sense: &SenseModel,
    suite: &ProbeSuite,
    traces: &TraceCache,
    policy: AuditPolicy,
) -> AuditReport {
    let mut a = Auditor::with_policy(policy);
    lint_model(model, &mut a);
    lint_report(sense, &analyze_with_jobs(sense, suite, traces, 1), &mut a);
    a.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{calibrated, cost_expr, eq1_multiply};

    fn lint(model: &LintModel) -> AuditReport {
        let mut a = Auditor::new();
        lint_model(model, &mut a);
        a.finish()
    }

    /// Metric #9's memory part alone: the label-steered block sum without
    /// the network term.
    fn labeled_maps_only() -> Expr {
        match cost_expr(MetricId::P9HplMapsNetDep) {
            Expr::Sum(mut terms) => terms.swap_remove(0),
            other => other,
        }
    }

    /// Equation 1 with a multiply instead of a divide: the cost ratio no
    /// longer cancels, so Metric #1's prediction stops being a time (MS501).
    fn wrong_unit_eq1() -> LintModel {
        LintModel {
            formulas: eq1_multiply(),
            ..LintModel::shipped()
        }
    }

    /// MAPS struck from the probe plan while #7–#9 still convolve against
    /// its curves (MS502).
    fn maps_unmeasured() -> LintModel {
        let mut model = LintModel::shipped();
        model.measured.retain(|q| *q != ProbeQuantity::MapsCurves);
        model
    }

    /// #8 and #9 forget their network term: NETBENCH still measures
    /// latency, bandwidth and the `all_reduce` score, but nothing reads
    /// them (MS503).
    fn network_terms_dropped() -> LintModel {
        let mut model = LintModel::shipped();
        model.formulas[7].1 = calibrated(cost_expr(MetricId::P7HplMaps));
        model.formulas[8].1 = calibrated(labeled_maps_only());
        model
    }

    /// One target machine left out of the observation plan while its
    /// config stays in the fleet (MS504).
    fn target_dropped() -> LintModel {
        let mut model = LintModel::shipped();
        let dropped = MachineId::TARGETS[MachineId::TARGETS.len() - 1];
        model.plan_machines.retain(|m| *m != dropped);
        model
    }

    /// A single-class dependency analyzer: the chained and branchy
    /// ENHANCED MAPS curves become unreachable branches of Metric #9's
    /// transfer function (MS505).
    fn single_dep_class() -> LintModel {
        LintModel {
            emitted_classes: vec![DependencyClass::Independent],
            ..LintModel::shipped()
        }
    }

    #[test]
    fn shipped_model_lints_clean() {
        let report = lint(&LintModel::shipped());
        assert!(
            report.diagnostics.is_empty(),
            "shipped study must lint clean: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn eq1_multiply_is_rejected_as_a_dimension_error() {
        // The prediction carries s³/flop² instead of s.
        let report = lint(&wrong_unit_eq1());
        assert!(report.has_code("MS501"), "{:?}", report.diagnostics);
        assert!(report.has_errors());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule.code == "MS501")
            .unwrap();
        assert!(
            d.message.contains("not seconds"),
            "message should name the failure: {}",
            d.message
        );
    }

    #[test]
    fn dropping_maps_measurement_flags_three_metrics() {
        let report = lint(&maps_unmeasured());
        assert!(report.has_code("MS502"));
        let count = report
            .diagnostics
            .iter()
            .filter(|d| d.rule.code == "MS502")
            .count();
        assert_eq!(count, 3, "#7, #8, #9 all convolve the MAPS curves");
    }

    #[test]
    fn dropping_network_terms_leaves_netbench_unread() {
        let report = lint(&network_terms_dropped());
        let unread: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule.code == "MS503")
            .map(|d| d.subject.as_str())
            .collect();
        assert_eq!(unread.len(), 3, "{unread:?}");
        assert!(unread.iter().all(|s| s.contains("net-")), "{unread:?}");
        // Warnings, not errors — the study still runs, just wastefully.
        assert!(!report.has_errors());
    }

    #[test]
    fn dropping_a_target_flags_the_unused_machine() {
        let report = lint(&target_dropped());
        assert!(report.has_code("MS504"));
        assert_eq!(report.diagnostics.len(), 1);
    }

    #[test]
    fn single_class_analyzer_makes_enhanced_curves_unreachable() {
        let report = lint(&single_dep_class());
        let flavors: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule.code == "MS505")
            .map(|d| d.subject.as_str())
            .collect();
        assert_eq!(flavors.len(), 2, "{flavors:?}");
        assert!(flavors.iter().any(|s| s.ends_with("chained")));
        assert!(flavors.iter().any(|s| s.ends_with("branchy")));
    }

    #[test]
    fn every_mutation_trips_exactly_its_rule() {
        let defects = [
            ("MS501", wrong_unit_eq1()),
            ("MS502", maps_unmeasured()),
            ("MS503", network_terms_dropped()),
            ("MS504", target_dropped()),
            ("MS505", single_dep_class()),
        ];
        for (code, model) in defects {
            let report = lint(&model);
            assert!(report.has_code(code), "defect must trip {code}");
            // And nothing else: a fixture seeds one defect.
            for d in &report.diagnostics {
                assert_eq!(d.rule.code, code, "unexpected extra finding {d:?}");
            }
        }
    }

    #[test]
    fn deny_warnings_escalates_lint_warnings() {
        let mut a = Auditor::with_policy(AuditPolicy {
            deny_warnings: true,
            ..AuditPolicy::default()
        });
        lint_model(&single_dep_class(), &mut a);
        let report = a.finish();
        assert!(report.has_errors(), "deny-warnings must escalate MS505");
    }
}
