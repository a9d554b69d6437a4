//! Shared fixtures for the Criterion benchmark harness.
//!
//! Every bench regenerates one of the paper's tables or figures; this crate
//! centralizes the (expensive, memoized) study and probe fixtures so a
//! `cargo bench` run measures regeneration cost, not redundant setup, and
//! prints the same rows/series the paper reports.

use std::sync::OnceLock;

use metasim_apps::groundtruth::GroundTruth;
use metasim_core::study::Study;
use metasim_machines::{fleet, Fleet};
use metasim_probes::suite::ProbeSuite;

/// The study fleet, built once.
pub fn shared_fleet() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(fleet)
}

/// A probe suite shared by all benches (memoizes machine measurements).
pub fn shared_probes() -> &'static ProbeSuite {
    static SUITE: OnceLock<ProbeSuite> = OnceLock::new();
    SUITE.get_or_init(ProbeSuite::new)
}

/// A ground-truth runner shared by all benches.
pub fn shared_ground_truth() -> &'static GroundTruth {
    static GT: OnceLock<GroundTruth> = OnceLock::new();
    GT.get_or_init(GroundTruth::new)
}

/// The full 150-observation study, computed once per bench binary from the
/// shared fleet, probes and ground truth, so a bench run measures each
/// machine and executes each cell once.
pub fn shared_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| {
        let (f, suite, gt) = (shared_fleet(), shared_probes(), shared_ground_truth());
        Study::run_with_store_jobs(f, suite, gt, None, 1).0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_singletons() {
        assert!(std::ptr::eq(shared_fleet(), shared_fleet()));
        assert!(std::ptr::eq(shared_probes(), shared_probes()));
        assert!(std::ptr::eq(shared_ground_truth(), shared_ground_truth()));
    }
}
