//! Rank-correlation analysis: how well does each metric *rank* systems?
//!
//! The paper's introduction frames everything in terms of ranking HPC
//! systems ("system X is 50% faster than system Y for application Z") and
//! cites Gustafson & Todi's finding that HPL can be *anticorrelated* with
//! application performance. This module extends the study with the natural
//! quantification: Kendall's τ between predicted and true machine orderings
//! per (case, CPU count), averaged per metric.

use serde::{Deserialize, Serialize};

use metasim_apps::registry::{all_test_cases, TestCase};
use metasim_stats::correlation::kendall_tau;

use crate::metric::MetricId;
use crate::study::Study;

/// Average rank correlation for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankCorrelation {
    /// The metric.
    pub metric: MetricId,
    /// Mean Kendall τ across the 15 (case, CPU) groups (1 = perfect
    /// ranking, 0 = uninformative, −1 = inverted).
    pub mean_tau: f64,
    /// Worst group τ (the metric's ranking failure mode).
    pub min_tau: f64,
}

/// Kendall τ between a metric's predictions and the true runtimes for one
/// (case, CPU) group. `None` if the group is degenerate.
#[must_use]
pub fn group_tau(study: &Study, case: TestCase, cpus: u64, metric: MetricId) -> Option<f64> {
    let (mut pred, mut actual) = (Vec::new(), Vec::new());
    for o in study
        .observations
        .iter()
        .filter(|o| o.case == case && o.cpus == cpus)
    {
        pred.push(o.predictions[metric.number() - 1].get());
        actual.push(o.actual.get());
    }
    kendall_tau(&pred, &actual).ok()
}

/// Rank-correlation summary per metric over the full study.
#[must_use]
pub fn rank_correlations(study: &Study) -> Vec<RankCorrelation> {
    MetricId::ALL
        .into_iter()
        .map(|metric| {
            let taus: Vec<f64> = all_test_cases()
                .into_iter()
                .filter_map(|(case, cpus)| group_tau(study, case, cpus, metric))
                .collect();
            let mean = taus.iter().sum::<f64>() / taus.len().max(1) as f64;
            let min = taus.iter().copied().fold(f64::INFINITY, f64::min);
            RankCorrelation {
                metric,
                mean_tau: mean,
                min_tau: if min.is_finite() { min } else { 0.0 },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::shared_study;

    #[test]
    fn convolution_metrics_rank_better_than_hpl() {
        let study = shared_study();
        let rc = rank_correlations(study);
        let tau = |m: MetricId| rc[m.number() - 1].mean_tau;
        assert!(
            tau(MetricId::P9HplMapsNetDep) > tau(MetricId::S1Hpl),
            "#9 τ {} vs HPL τ {}",
            tau(MetricId::P9HplMapsNetDep),
            tau(MetricId::S1Hpl)
        );
        // The best convolution metric ranks machines well in absolute terms.
        assert!(tau(MetricId::P9HplMapsNetDep) > 0.7);
    }

    #[test]
    fn every_metric_reports_fifteen_groups() {
        let study = shared_study();
        for metric in MetricId::ALL {
            let count = all_test_cases()
                .into_iter()
                .filter_map(|(c, p)| group_tau(study, c, p, metric))
                .count();
            assert_eq!(count, 15, "{metric}");
        }
    }

    #[test]
    fn tau_values_are_bounded() {
        let study = shared_study();
        for rc in rank_correlations(study) {
            assert!(rc.mean_tau >= -1.0 && rc.mean_tau <= 1.0);
            assert!(rc.min_tau >= -1.0 && rc.min_tau <= 1.0);
            assert!(rc.min_tau <= rc.mean_tau + 1e-12);
        }
    }
}
