//! A machine-checkable checklist of the paper's qualitative claims.
//!
//! The study tests assert these claims; this module exposes them as a
//! user-facing report (`metasim verify`) so a reader can see exactly which
//! of the paper's findings the reproduction supports, with the numbers.

use serde::{Deserialize, Serialize};

use crate::metric::MetricId;
use crate::study::Study;
use crate::superlatives::census;

/// One verified claim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Claim {
    /// Short identifier.
    pub name: &'static str,
    /// What the paper says.
    pub statement: &'static str,
    /// Whether the reproduction supports it.
    pub pass: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Evaluate every claim against a completed study.
#[must_use]
pub fn verify(study: &Study) -> Vec<Claim> {
    let t4 = study.table4();
    let err = |m: MetricId| t4[m.number() - 1].mean_absolute;
    let c = census(study);

    let mut claims = Vec::new();
    let mut claim = |name, statement, pass, detail: String| {
        claims.push(Claim {
            name,
            statement,
            pass,
            detail,
        });
    };

    // #4 == #1 across all observations.
    let max_dev = study
        .observations
        .iter()
        .map(|o| {
            ((o.predictions[3] - o.predictions[0]) / o.predictions[0])
                .get()
                .abs()
        })
        .fold(0.0f64, f64::max);
    claim(
        "convolver-sanity",
        "Metric #4 (convolved, flops only) equals Metric #1 (Equation 1 HPL) exactly",
        max_dev < 1e-9,
        format!("max relative deviation {max_dev:.2e}"),
    );

    claim(
        "hpl-inadequate",
        "HPL is a poor predictor of application performance",
        err(MetricId::S1Hpl) > 35.0
            && err(MetricId::S1Hpl) > err(MetricId::S2Stream)
            && err(MetricId::S1Hpl) > err(MetricId::S3Gups),
        format!(
            "HPL {:.1}% vs STREAM {:.1}% vs GUPS {:.1}%",
            err(MetricId::S1Hpl),
            err(MetricId::S2Stream),
            err(MetricId::S3Gups)
        ),
    );

    claim(
        "memory-metrics-better",
        "Memory-oriented simple metrics beat HPL; GUPS edges STREAM",
        err(MetricId::S2Stream) < err(MetricId::S1Hpl)
            && err(MetricId::S3Gups) <= err(MetricId::S2Stream),
        format!(
            "STREAM {:.1}%, GUPS {:.1}%",
            err(MetricId::S2Stream),
            err(MetricId::S3Gups)
        ),
    );

    let worst_conv = [
        MetricId::P6HplStreamGups,
        MetricId::P7HplMaps,
        MetricId::P8HplMapsNet,
        MetricId::P9HplMapsNetDep,
    ]
    .into_iter()
    .map(|m| err(m).get())
    .fold(0.0f64, f64::max);
    let best_simple = [MetricId::S1Hpl, MetricId::S2Stream, MetricId::S3Gups]
        .into_iter()
        .map(|m| err(m).get())
        .fold(f64::INFINITY, f64::min);
    claim(
        "convolution-wins",
        "Every trace-convolution metric (#6-#9) beats every simple metric",
        worst_conv < best_simple,
        format!("worst convolution {worst_conv:.1}% vs best simple {best_simple:.1}%"),
    );

    claim(
        "eighty-percent",
        "Transfer-function prediction reaches ~80% accuracy",
        err(MetricId::P9HplMapsNetDep) < 25.0,
        format!(
            "metric #9: {:.1}% average absolute error",
            err(MetricId::P9HplMapsNetDep)
        ),
    );

    claim(
        "maps-anomaly",
        "Cache-aware MAPS without dependency modelling (#7) is not better than #6",
        err(MetricId::P7HplMaps) >= err(MetricId::P6HplStreamGups) - 2.0,
        format!(
            "#7 {:.1}% vs #6 {:.1}%",
            err(MetricId::P7HplMaps),
            err(MetricId::P6HplStreamGups)
        ),
    );

    claim(
        "network-term",
        "Adding the NETBENCH term helps modestly (cases are not communication-bound)",
        err(MetricId::P8HplMapsNet) <= err(MetricId::P7HplMaps) + 0.5,
        format!(
            "#8 {:.1}% vs #7 {:.1}%",
            err(MetricId::P8HplMapsNet),
            err(MetricId::P7HplMaps)
        ),
    );

    claim(
        "dependency-term",
        "The ENHANCED-MAPS dependency term makes #9 the best predictor overall",
        MetricId::ALL
            .into_iter()
            .all(|m| err(MetricId::P9HplMapsNetDep) <= err(m)),
        format!(
            "#9 {:.1}% is the column minimum",
            err(MetricId::P9HplMapsNetDep)
        ),
    );

    claim(
        "hpl-never-best",
        "HPL is never the best predictor in any (case, CPU) group",
        {
            let groups = crate::superlatives::group_errors(study);
            groups
                .iter()
                .all(|g| g.best() != MetricId::S1Hpl && g.best() != MetricId::P4Hpl)
        },
        format!("checked {} groups", c.groups),
    );

    claim(
        "gups-vs-stream-groups",
        "GUPS beats STREAM in most (case, CPU) groups",
        c.gups_beats_stream * 2 > c.groups,
        format!("{} of {} groups", c.gups_beats_stream, c.groups),
    );

    claims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::shared_study;

    #[test]
    fn all_claims_pass_on_the_default_study() {
        let claims = verify(shared_study());
        assert!(claims.len() >= 10);
        for c in &claims {
            assert!(c.pass, "claim `{}` failed: {}", c.name, c.detail);
        }
    }

    #[test]
    fn claims_have_distinct_names() {
        let claims = verify(shared_study());
        let mut names: Vec<_> = claims.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), claims.len());
    }
}
