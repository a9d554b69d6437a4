//! Base-calibrated predictions for all nine metrics.
//!
//! Every prediction scales the base system's *measured* runtime by a cost
//! ratio:
//!
//! ```text
//! T′(metric, X) = C(metric, X) / C(metric, X₀) · T(X₀)
//! ```
//!
//! For simple metrics the cost is a reciprocal rate, so this is literally
//! Equation 1; for predictive metrics it is the transfer function evaluated
//! on both machines. Both are [`prediction_expr`] trees folded by
//! [`eval_prediction`] — the formula IR is the convolver. The
//! paper's observation that Metric #4's results equal Metric #1's ("the
//! convolver's execution is identical to that of a pencil-and-paper
//! calculation") falls out algebraically and is pinned by a test here.

use std::sync::OnceLock;

use metasim_probes::suite::MachineProbes;
use metasim_tracer::block::DependencyClass;
use metasim_tracer::trace::ApplicationTrace;
use metasim_units::Seconds;

use crate::formula::{cost_expr, eval_cost, eval_prediction, prediction_expr, Expr};
use crate::metric::MetricId;

/// Each metric's (cost, prediction) trees, built once per process.
fn trees() -> &'static [(Expr, Expr); 9] {
    static TREES: OnceLock<[(Expr, Expr); 9]> = OnceLock::new();
    TREES.get_or_init(|| MetricId::ALL.map(|m| (cost_expr(m), prediction_expr(m))))
}

/// All nine metric predictions for one target machine.
///
/// * `trace` — the application trace collected on the base system.
/// * `dep_labels` — static-analysis dependency verdicts for `trace.blocks`.
/// * `target`/`base` — probe measurements for the two machines.
/// * `time_base` — the measured runtime on the base system.
#[must_use]
pub fn predict_all(
    trace: &ApplicationTrace,
    dep_labels: &[DependencyClass],
    target: &MachineProbes,
    base: &MachineProbes,
    time_base: Seconds,
) -> [Seconds; 9] {
    assert!(time_base > 0.0, "base runtime must be positive");
    MetricId::ALL.map(|metric| {
        let _span = metasim_obs::recording()
            .then(|| metasim_obs::span(format!("metric:{}", metric.short_label())));
        predict_one(metric, trace, dep_labels, target, base, time_base)
    })
}

/// Prediction for a single metric (convenience for examples and the CLI).
#[must_use]
pub fn predict_one(
    metric: MetricId,
    trace: &ApplicationTrace,
    dep_labels: &[DependencyClass],
    target: &MachineProbes,
    base: &MachineProbes,
    time_base: Seconds,
) -> Seconds {
    let (cost, prediction) = &trees()[metric.number() - 1];
    // Transfer-function size, once per cost evaluated (target and base).
    // Counted only when a recorder is live.
    if metasim_obs::recording() {
        metasim_obs::counter_add("convolver.terms", 2 * cost.term_count(trace) as u64);
    }
    debug_assert!(
        eval_cost(cost, base, trace, dep_labels) > 0.0,
        "{metric}: zero base cost"
    );
    eval_prediction(prediction, target, base, trace, dep_labels, time_base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim_apps::registry::TestCase;
    use metasim_apps::tracing::trace_workload;
    use metasim_machines::{fleet, MachineId};
    use metasim_probes::suite::ProbeSuite;
    use metasim_tracer::analysis::analyze_dependencies;

    #[test]
    fn metric4_equals_metric1_exactly() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let base = suite.measure(f.base());
        let trace = trace_workload(&TestCase::HycomStandard.workload(96));
        let labels = analyze_dependencies(&trace.blocks);
        for id in MachineId::TARGETS {
            let target = suite.measure(f.get(id));
            let p = predict_all(&trace, &labels, &target, &base, Seconds::new(5000.0));
            assert!(
                (p[0] - p[3]).abs() / p[0] < 1e-9,
                "{id}: #1 {} vs #4 {}",
                p[0],
                p[3]
            );
        }
    }

    #[test]
    fn base_machine_predicts_itself_exactly() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let base = suite.measure(f.base());
        let trace = trace_workload(&TestCase::AvusStandard.workload(32));
        let labels = analyze_dependencies(&trace.blocks);
        let p = predict_all(&trace, &labels, &base, &base, Seconds::new(777.0));
        for (i, v) in p.iter().enumerate() {
            assert!(
                (v.get() - 777.0).abs() < 1e-9,
                "metric {} self-prediction {v}",
                i + 1
            );
        }
    }

    #[test]
    fn predictions_scale_linearly_with_base_time() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let base = suite.measure(f.base());
        let target = suite.measure(f.get(MachineId::ArlOpteron));
        let trace = trace_workload(&TestCase::RfcthStandard.workload(32));
        let labels = analyze_dependencies(&trace.blocks);
        let p1 = predict_all(&trace, &labels, &target, &base, Seconds::new(1000.0));
        let p2 = predict_all(&trace, &labels, &target, &base, Seconds::new(2000.0));
        for (a, b) in p1.iter().zip(&p2) {
            assert!((b.get() / a.get() - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn predict_one_matches_predict_all() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let base = suite.measure(f.base());
        let target = suite.measure(f.get(MachineId::AscSc45));
        let trace = trace_workload(&TestCase::Overflow2Standard.workload(48));
        let labels = analyze_dependencies(&trace.blocks);
        let all = predict_all(&trace, &labels, &target, &base, Seconds::new(4321.0));
        for (i, metric) in MetricId::ALL.into_iter().enumerate() {
            let one = predict_one(
                metric,
                &trace,
                &labels,
                &target,
                &base,
                Seconds::new(4321.0),
            );
            assert!((one - all[i]).abs() < 1e-9, "{metric}");
        }
    }

    #[test]
    fn faster_machine_predicts_smaller_times() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let base = suite.measure(f.base());
        let fast = suite.measure(f.get(MachineId::Navo655));
        let slow = suite.measure(f.get(MachineId::MhpccP3));
        let trace = trace_workload(&TestCase::AvusStandard.workload(64));
        let labels = analyze_dependencies(&trace.blocks);
        let pf = predict_all(&trace, &labels, &fast, &base, Seconds::new(1000.0));
        let ps = predict_all(&trace, &labels, &slow, &base, Seconds::new(1000.0));
        for (i, (a, b)) in pf.iter().zip(&ps).enumerate() {
            assert!(a < b, "metric {}: fast {a} vs slow {b}", i + 1);
        }
    }

    #[test]
    #[should_panic(expected = "base runtime")]
    fn zero_base_time_panics() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let base = suite.measure(f.base());
        let trace = trace_workload(&TestCase::AvusStandard.workload(32));
        let labels = analyze_dependencies(&trace.blocks);
        let _ = predict_all(&trace, &labels, &base, &base, Seconds::new(0.0));
    }
}
