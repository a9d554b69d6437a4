//! The MetaSim convolver and the SC'05 nine-metric study.
//!
//! This crate is the paper's primary contribution, reimplemented:
//!
//! * [`metric`] — the nine synthetic metrics of Table 3 (three simple, six
//!   predictive).
//! * [`formula`] — the MetaSim Convolver as a dimension-tagged symbolic IR
//!   of the nine transfer functions: per-basic-block operation counts
//!   divided by per-machine operation rates, summed with overlap, plus the
//!   NETBENCH network term (#8) and the ENHANCED-MAPS dependency term (#9).
//!   Its evaluator is the only implementation of the transfer functions;
//!   predictions, the lint, and the sensitivity analysis all read the same
//!   trees.
//! * [`prediction`] — base-calibrated predictions for all nine metrics
//!   (`T′(X) = C(X)/C(X₀) · T(X₀)`), which makes Metric #4 reduce exactly to
//!   Metric #1, as the paper observes.
//! * [`study`] — the full 150-observation × 9-metric driver behind Table 4,
//!   Table 5, and Figures 2–7, its independent cells sharded across
//!   workers that claim them in order and merge them back by index. The grid here is the
//!   paper's own (ten target machines × fifteen workloads); `metasim-fleet`
//!   reruns the same methodology over *sampled* machine and application
//!   spaces through the pure entry points ([`prediction::predict_all`],
//!   [`executor::run_sharded`]) — nothing in this crate is bound to the
//!   shipped grid.
//! * [`balanced`] — the IDC balanced-rating comparison of §4 (fixed equal
//!   weights, then regression-optimized weights).
//! * [`ranking`] — the rank-correlation extension: how well each metric
//!   *ranks* machines (Kendall τ), quantifying the introduction's framing.
//! * [`lint`] — `metasim lint`: static dimension/dataflow checks over the
//!   formulas and the study plan (the `MS5xx` rules).
//! * [`sensitivity`] — `metasim sense`: interval bounds and first-order
//!   elasticities per probe quantity, abstractly interpreted over the
//!   formula IR and cross-validated against chaos probe noise (the
//!   `MS9xx` rules).
//!
//! ```no_run
//! use metasim_apps::groundtruth::GroundTruth;
//! use metasim_core::study::{Study, StudyError};
//! use metasim_probes::suite::ProbeSuite;
//!
//! fn main() -> Result<(), StudyError> {
//!     let f = metasim_machines::fleet();
//!     let (study, _) =
//!         Study::try_run_with_store_jobs(&f, &ProbeSuite::new(), &GroundTruth::new(), None, 1)?;
//!     let table4 = study.table4();
//!     // Metric #9 (HPL+MAPS+NET+DEP) is the most accurate predictor.
//!     assert!(table4[8].mean_absolute <= table4[0].mean_absolute);
//!     Ok(())
//! }
//! ```

pub mod audit;
pub mod balanced;
pub mod executor;
pub mod formula;
pub mod lint;
pub mod metric;
pub mod prediction;
pub mod ranking;
pub mod sensitivity;
pub mod study;
pub mod superlatives;
pub mod verification;

pub use audit::{audit_inputs, audit_study, preflight, preflight_with_policy};
pub use lint::{lint_full_with_policy, LintModel};
pub use metric::{MetricId, MetricKind};
pub use prediction::predict_all;
pub use sensitivity::{SenseModel, SenseScope, SensitivityReport};
pub use study::{Coverage, Observation, Study, StudyError};
