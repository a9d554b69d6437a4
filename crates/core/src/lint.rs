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
//! built and lints clean; [`Mutation`]s seed specific defects — a
//! wrong-unit Equation 1, a dropped network term, a single-class
//! dependency analyzer — and each is caught by exactly the rule that owns
//! it, pinned by tests here and exercised from the CLI via
//! `metasim lint --mutate NAME`.

use metasim_apps::tracing::TraceCache;
use metasim_audit::registry::{MS501, MS502, MS503, MS504, MS505};
use metasim_audit::{AuditPolicy, AuditReport, Auditor};
use metasim_machines::MachineId;
use metasim_probes::suite::ProbeSuite;
use metasim_tracer::block::DependencyClass;

use crate::formula::{calibrated, cost_expr, prediction_expr, Dim, Expr, ProbeQuantity};
use crate::metric::MetricId;
use crate::sensitivity::{analyze_with_jobs, lint_report, SenseModel, SenseMutation};

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

    /// The shipped model with one seeded defect.
    #[must_use]
    pub fn mutated(mutation: Mutation) -> Self {
        let mut model = Self::shipped();
        mutation.apply(&mut model);
        model
    }
}

/// A named, deliberately seeded defect for exercising the lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Equation 1 with a multiply instead of a divide: the cost ratio no
    /// longer cancels, so Metric #1's prediction stops being a time.
    /// Caught by **MS501**.
    Eq1Multiply,
    /// Strike MAPS from the probe plan while #7–#9 still convolve against
    /// its curves. Caught by **MS502**.
    DropMapsLike,
    /// Drop the network term from #8/#9: NETBENCH still measures latency,
    /// bandwidth, and the `all_reduce` score, but nothing reads them.
    /// Caught by **MS503**.
    DropNetworkTerms,
    /// Remove one target machine from the observation plan while its
    /// config stays in the fleet. Caught by **MS504**.
    DropTarget,
    /// Restrict the dependency analyzer to a single class: the chained and
    /// branchy ENHANCED MAPS curves become unreachable branches of
    /// Metric #9's transfer function. Caught by **MS505**.
    SingleDepClass,
}

impl Mutation {
    /// Every named mutation, in help order.
    pub const ALL: [Mutation; 5] = [
        Mutation::Eq1Multiply,
        Mutation::DropMapsLike,
        Mutation::DropNetworkTerms,
        Mutation::DropTarget,
        Mutation::SingleDepClass,
    ];

    /// The CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mutation::Eq1Multiply => "eq1-multiply",
            Mutation::DropMapsLike => "drop-maps",
            Mutation::DropNetworkTerms => "drop-network-terms",
            Mutation::DropTarget => "drop-target",
            Mutation::SingleDepClass => "single-dep-class",
        }
    }

    /// The rule the mutation is designed to trip.
    #[must_use]
    pub fn expected_code(self) -> &'static str {
        match self {
            Mutation::Eq1Multiply => "MS501",
            Mutation::DropMapsLike => "MS502",
            Mutation::DropNetworkTerms => "MS503",
            Mutation::DropTarget => "MS504",
            Mutation::SingleDepClass => "MS505",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(name: &str) -> Result<Mutation, String> {
        Mutation::ALL
            .into_iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Mutation::ALL.iter().map(|m| m.name()).collect();
                format!("unknown mutation `{name}` (one of: {})", known.join(", "))
            })
    }

    fn apply(self, model: &mut LintModel) {
        match self {
            Mutation::Eq1Multiply => {
                // T′ = C(X) · C(X₀) · T(X₀): the seeded wrong-unit bug.
                let cost = cost_expr(MetricId::S1Hpl);
                model.formulas[0].1 = Expr::Mul(
                    Box::new(Expr::Mul(
                        Box::new(cost.clone()),
                        Box::new(Expr::OnBase(Box::new(cost))),
                    )),
                    Box::new(Expr::Time(crate::formula::TimeSource::BaseRuntime)),
                );
            }
            Mutation::DropMapsLike => {
                model.measured.retain(|q| *q != ProbeQuantity::MapsCurves);
            }
            Mutation::DropNetworkTerms => {
                // #8 and #9 forget their network term; the memory part stays.
                for (metric, expr) in &mut model.formulas {
                    match metric {
                        MetricId::P8HplMapsNet => {
                            *expr = calibrated(cost_expr(MetricId::P7HplMaps));
                        }
                        MetricId::P9HplMapsNetDep => {
                            *expr = calibrated(labeled_maps_only());
                        }
                        _ => {}
                    }
                }
            }
            Mutation::DropTarget => {
                let dropped = MachineId::TARGETS[MachineId::TARGETS.len() - 1];
                model.plan_machines.retain(|m| *m != dropped);
            }
            Mutation::SingleDepClass => {
                model.emitted_classes = vec![DependencyClass::Independent];
            }
        }
    }
}

/// A seeded defect from either analysis family: a formula/probe-plan
/// mutation (`MS5xx`, [`Mutation`]) or a sensitivity mutation (`MS9xx`,
/// [`SenseMutation`]). `metasim lint --mutate NAME` accepts any of the
/// nine names; an unknown name lists them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnyMutation {
    /// A formula-model defect, caught by MS501–MS505.
    Formula(Mutation),
    /// A sensitivity-model defect, caught by MS901–MS904.
    Sense(SenseMutation),
}

impl AnyMutation {
    /// The CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AnyMutation::Formula(m) => m.name(),
            AnyMutation::Sense(m) => m.name(),
        }
    }

    /// The rule the mutation is designed to trip.
    #[must_use]
    pub fn expected_code(self) -> &'static str {
        match self {
            AnyMutation::Formula(m) => m.expected_code(),
            AnyMutation::Sense(m) => m.expected_code(),
        }
    }

    /// Every known mutation name across both families, in help order.
    #[must_use]
    pub fn all_names() -> Vec<&'static str> {
        Mutation::ALL
            .into_iter()
            .map(Mutation::name)
            .chain(SenseMutation::ALL.into_iter().map(SenseMutation::name))
            .collect()
    }

    /// Parse a CLI spelling from any family. An unknown name fails with
    /// the full list of available mutations, not a bare error.
    pub fn parse(name: &str) -> Result<AnyMutation, String> {
        Mutation::ALL
            .into_iter()
            .find(|m| m.name() == name)
            .map(AnyMutation::Formula)
            .or_else(|| {
                SenseMutation::ALL
                    .into_iter()
                    .find(|m| m.name() == name)
                    .map(AnyMutation::Sense)
            })
            .ok_or_else(|| {
                format!(
                    "unknown mutation `{name}`; available mutations: {}",
                    AnyMutation::all_names().join(", ")
                )
            })
    }
}

/// Metric #9's memory part alone: the label-steered block sum without the
/// network term (used by the `drop-network-terms` mutation).
fn labeled_maps_only() -> Expr {
    match cost_expr(MetricId::P9HplMapsNetDep) {
        Expr::Sum(mut terms) => terms.swap_remove(0),
        other => other,
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

/// Lint `model` under `policy` and return the report.
#[must_use]
pub fn lint_with_policy(model: &LintModel, policy: AuditPolicy) -> AuditReport {
    let mut a = Auditor::with_policy(policy);
    lint_model(model, &mut a);
    a.finish()
}

/// Lint `model` with the default policy.
#[must_use]
pub fn lint(model: &LintModel) -> AuditReport {
    lint_with_policy(model, AuditPolicy::default())
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
        // The seeded wrong-unit formula: multiply instead of divide in
        // Equation 1. The prediction carries s³/flop² instead of s.
        let report = lint(&LintModel::mutated(Mutation::Eq1Multiply));
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
        let report = lint(&LintModel::mutated(Mutation::DropMapsLike));
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
        let report = lint(&LintModel::mutated(Mutation::DropNetworkTerms));
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
        let report = lint(&LintModel::mutated(Mutation::DropTarget));
        assert!(report.has_code("MS504"));
        assert_eq!(report.diagnostics.len(), 1);
    }

    #[test]
    fn single_class_analyzer_makes_enhanced_curves_unreachable() {
        let report = lint(&LintModel::mutated(Mutation::SingleDepClass));
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
        for m in Mutation::ALL {
            let report = lint(&LintModel::mutated(m));
            assert!(
                report.has_code(m.expected_code()),
                "{} must trip {}",
                m.name(),
                m.expected_code()
            );
            // And nothing else: a mutation seeds one defect.
            for d in &report.diagnostics {
                assert_eq!(
                    d.rule.code,
                    m.expected_code(),
                    "{}: unexpected extra finding {:?}",
                    m.name(),
                    d
                );
            }
        }
    }

    #[test]
    fn mutation_names_round_trip() {
        for m in Mutation::ALL {
            assert_eq!(Mutation::parse(m.name()).unwrap(), m);
        }
        assert!(Mutation::parse("no-such-mutation").is_err());
    }

    #[test]
    fn any_mutation_spans_both_families() {
        assert_eq!(AnyMutation::all_names().len(), 9);
        for m in Mutation::ALL {
            assert_eq!(
                AnyMutation::parse(m.name()).unwrap(),
                AnyMutation::Formula(m)
            );
        }
        for m in SenseMutation::ALL {
            assert_eq!(AnyMutation::parse(m.name()).unwrap(), AnyMutation::Sense(m));
        }
    }

    #[test]
    fn unknown_mutation_error_lists_every_available_name() {
        let err = AnyMutation::parse("no-such-defect").unwrap_err();
        for name in AnyMutation::all_names() {
            assert!(err.contains(name), "error must list `{name}`: {err}");
        }
    }

    #[test]
    fn deny_warnings_escalates_lint_warnings() {
        let policy = AuditPolicy {
            allow: Vec::new(),
            deny_warnings: true,
        };
        let report = lint_with_policy(&LintModel::mutated(Mutation::SingleDepClass), policy);
        assert!(report.has_errors(), "deny-warnings must escalate MS505");
    }
}
