//! Property-based invariants of the prediction methodology, exercised over
//! randomized machine perturbations and workload choices.

use metasim::apps::registry::TestCase;
use metasim::apps::tracing::trace_workload;
use metasim::core::formula::{cost_expr, eval_cost};
use metasim::core::metric::MetricId;
use metasim::core::prediction::predict_all;
use metasim::machines::{fleet, MachineBuilder, MachineId};
use metasim::probes::suite::{MachineProbes, ProbeSuite};
use metasim::tracer::analysis::analyze_dependencies;
use metasim::units::Seconds;
use proptest::prelude::*;

fn any_case() -> impl Strategy<Value = (TestCase, u64)> {
    (0usize..5, 0usize..3).prop_map(|(c, p)| {
        let case = TestCase::ALL[c];
        (case, case.cpu_counts()[p])
    })
}

fn any_target() -> impl Strategy<Value = MachineId> {
    (0usize..10).prop_map(|i| MachineId::TARGETS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Predictions are positive, finite, and scale-invariant in base time.
    #[test]
    fn predictions_well_formed_for_any_cell((case, cpus) in any_case(), target in any_target()) {
        let f = fleet();
        let suite = ProbeSuite::new();
        let trace = trace_workload(&case.workload(cpus));
        let labels = analyze_dependencies(&trace.blocks);
        let tp = suite.measure(f.get(target));
        let bp = suite.measure(f.base());
        let p1 = predict_all(&trace, &labels, &tp, &bp, Seconds::new(1000.0));
        let p2 = predict_all(&trace, &labels, &tp, &bp, Seconds::new(3000.0));
        for (a, b) in p1.iter().zip(&p2) {
            prop_assert!(*a > 0.0 && a.is_finite());
            prop_assert!(((*b / *a).get() - 3.0).abs() < 1e-9, "scale invariance");
        }
        // #1 == #4 for every cell.
        prop_assert!((p1[0] - p1[3]).abs() / p1[0] < 1e-9);
    }

    // A machine that is strictly better in memory cannot convolve to a
    // higher memory-dominated cost (metric #6 uses STREAM+GUPS directly).
    #[test]
    fn memory_upgrade_never_slows_metric6(bw_scale in 1.05f64..1.3, lat_scale in 0.7f64..0.95) {
        let f = fleet();
        let stock = f.get(MachineId::ArlXeon).clone();
        let upgraded = MachineBuilder::from(stock.clone())
            .scale_memory_bandwidth(bw_scale)
            .scale_memory_latency(lat_scale)
            .build()
            .expect("valid upgrade");
        let trace = trace_workload(&TestCase::AvusStandard.workload(64));
        let labels = analyze_dependencies(&trace.blocks);
        let stock_probes = MachineProbes::measure(&stock);
        let upgraded_probes = MachineProbes::measure(&upgraded);
        let six = cost_expr(MetricId::P6HplStreamGups);
        let cs = eval_cost(&six, &stock_probes, &trace, &labels);
        let cu = eval_cost(&six, &upgraded_probes, &trace, &labels);
        prop_assert!(cu <= cs * 1.001, "upgrade slowed #6: {cu} vs {cs}");
    }

    // Convolved costs are monotone in metric refinement direction for the
    // additive terms: #8 >= #7 and #9 >= #7 (network and dependency terms
    // only ever add time).
    #[test]
    fn additive_terms_only_add((case, cpus) in any_case(), target in any_target()) {
        let f = fleet();
        let suite = ProbeSuite::new();
        let trace = trace_workload(&case.workload(cpus));
        let labels = analyze_dependencies(&trace.blocks);
        let probes = suite.measure(f.get(target));
        let cost = |m| eval_cost(&cost_expr(m), &probes, &trace, &labels);
        let c7 = cost(MetricId::P7HplMaps);
        let c8 = cost(MetricId::P8HplMapsNet);
        let c9 = cost(MetricId::P9HplMapsNetDep);
        prop_assert!(c8 >= c7, "network term must add: {c8} vs {c7}");
        prop_assert!(c9 >= c7, "dependency term must add: {c9} vs {c7}");
    }
}

#[test]
fn probe_cache_survives_concurrent_study_style_access() {
    use std::sync::Arc;
    let f = Arc::new(fleet());
    let suite = Arc::new(ProbeSuite::new());
    let handles: Vec<_> = MachineId::TARGETS
        .into_iter()
        .map(|id| {
            let f = Arc::clone(&f);
            let suite = Arc::clone(&suite);
            std::thread::spawn(move || suite.measure(f.get(id)).stream.bandwidth)
        })
        .collect();
    for h in handles {
        assert!(h.join().expect("no panics") > 0.0);
    }
    assert_eq!(suite.measured_count(), 10);
}
