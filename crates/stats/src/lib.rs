//! Statistics and deterministic-randomness substrate for the `metasim` workspace.
//!
//! The SC'05 study this workspace reproduces leans on a handful of statistical
//! operations — percent-error (its Equation 2), averages and standard
//! deviations of absolute errors (Tables 4 and 5), least-squares regression
//! (the optimized "balanced rating" weights of §4), and rank correlation (the
//! system-ranking framing of the introduction). The Rust ecosystem's
//! statistics crates are thin and none are on the approved offline list, so
//! this crate implements exactly what the study needs, from scratch, with
//! careful tests.
//!
//! It also hosts the workspace's *determinism* substrate:
//! [`rng::SeededRng`], a SplitMix64 generator seeded from stable string
//! hashes, so that every synthetic address stream, idiosyncrasy factor, and
//! imbalance draw in the workspace is exactly reproducible run-to-run.
//!
//! # Quick example
//!
//! ```
//! use metasim_stats::descriptive::Summary;
//! use metasim_stats::error_metrics::percent_error;
//! use metasim_units::Seconds;
//!
//! // Equation 2 of the paper: (T' - T) / T * 100. The inputs are typed
//! // runtimes; the output is a `Percent`, not another runtime.
//! let err = percent_error(Seconds::new(90.0), Seconds::new(100.0));
//! assert!((err.get() - -10.0).abs() < 1e-12);
//!
//! let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(s.mean, 2.5);
//! ```

pub mod bootstrap;
pub mod correlation;
pub mod descriptive;
pub mod error_metrics;
pub mod regression;
pub mod rng;

pub use correlation::{kendall_tau, pearson, spearman};
pub use descriptive::Summary;
pub use error_metrics::{absolute_percent_error, percent_error, ErrorAccumulator};
pub use regression::{ols, simplex_constrained_least_squares, OlsFit};
pub use rng::SeededRng;

/// Errors produced by statistical routines in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input slice was empty where at least one element is required.
    EmptyInput,
    /// Input slices that must have equal lengths did not.
    LengthMismatch {
        /// Length of the first operand.
        left: usize,
        /// Length of the second operand.
        right: usize,
    },
    /// The linear system passed to the solver is singular (or numerically so).
    SingularMatrix,
    /// A quantity that must be strictly positive was not (e.g. a measured
    /// runtime of zero used as an error denominator).
    NonPositive {
        /// Human-readable name of the offending quantity.
        what: &'static str,
    },
    /// Fewer observations than unknowns in a regression.
    Underdetermined {
        /// Number of observations supplied.
        observations: usize,
        /// Number of unknown coefficients requested.
        unknowns: usize,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "empty input where data is required"),
            StatsError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            StatsError::SingularMatrix => write!(f, "singular (or near-singular) matrix"),
            StatsError::NonPositive { what } => {
                write!(f, "{what} must be strictly positive")
            }
            StatsError::Underdetermined {
                observations,
                unknowns,
            } => write!(
                f,
                "underdetermined system: {observations} observations for {unknowns} unknowns"
            ),
        }
    }
}

impl std::error::Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = StatsError::LengthMismatch { left: 3, right: 4 };
        assert_eq!(e.to_string(), "length mismatch: 3 vs 4");
        let e = StatsError::NonPositive { what: "runtime" };
        assert!(e.to_string().contains("runtime"));
        assert_eq!(
            StatsError::EmptyInput.to_string(),
            "empty input where data is required"
        );
        let e = StatsError::Underdetermined {
            observations: 2,
            unknowns: 5,
        };
        assert!(e.to_string().contains("2 observations for 5 unknowns"));
        assert!(StatsError::SingularMatrix.to_string().contains("singular"));
    }
}
