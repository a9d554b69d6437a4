//! Prediction-error metrics: Equation 2 of the paper and its aggregations.
//!
//! > % Error = (T′(X,Y) − T(X,Y)) / T(X,Y) · 100
//!
//! Negative error means the prediction was *faster* than the actual runtime;
//! positive means *slower*. The paper then takes absolute values before
//! averaging "to ensure the magnitude of each deviation is considered …
//! preventing error cancellation". [`ErrorAccumulator`] implements exactly
//! that aggregation discipline and is what Tables 4 and 5 are built from.
//!
//! Equation 2 is dimension-checked at compile time: the prediction and the
//! measurement must share a dimension (normally both [`Seconds`]), their
//! difference-over-actual is a dimensionless ratio, and the result is a
//! [`Percent`] — so an error can never be accidentally fed back in as a
//! runtime.
//!
//! [`Seconds`]: metasim_units::Seconds

use serde::{Deserialize, Serialize};

use metasim_units::{Dimension, Percent, Quantity};

use crate::descriptive::Welford;

/// Signed percent error of a prediction against a measurement (Equation 2).
///
/// Panics in debug builds if `actual` is not strictly positive.
#[must_use]
pub fn percent_error<D: Dimension>(predicted: Quantity<D>, actual: Quantity<D>) -> Percent {
    debug_assert!(actual > 0.0, "percent_error: actual must be positive");
    ((predicted - actual) / actual).percent()
}

/// Absolute percent error (|Equation 2|).
#[must_use]
pub fn absolute_percent_error<D: Dimension>(
    predicted: Quantity<D>,
    actual: Quantity<D>,
) -> Percent {
    percent_error(predicted, actual).abs()
}

/// Aggregates prediction errors the way the paper does: signed errors are
/// recorded per experiment, then the *absolute* values are averaged (with
/// their standard deviation) across experiments.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ErrorAccumulator {
    signed: Welford,
    absolute: Welford,
}

impl ErrorAccumulator {
    /// Fresh, empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one (prediction, measurement) pair.
    pub fn record<D: Dimension>(&mut self, predicted: Quantity<D>, actual: Quantity<D>) {
        let e = percent_error(predicted, actual);
        self.record_signed_error(e);
    }

    /// Record a pre-computed signed percent error.
    pub fn record_signed_error(&mut self, signed: Percent) {
        self.signed.push(signed.get());
        self.absolute.push(signed.get().abs());
    }

    /// Merge another accumulator (parallel reduction support).
    pub fn merge(&mut self, other: &ErrorAccumulator) {
        self.signed.merge(&other.signed);
        self.absolute.merge(&other.absolute);
    }

    /// Number of recorded experiments.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.absolute.count()
    }

    /// Average absolute percent error — the paper's headline statistic.
    #[must_use]
    pub fn mean_absolute(&self) -> Percent {
        Percent::new(self.absolute.mean())
    }

    /// Population standard deviation of absolute percent errors — the
    /// paper's second column in Table 4.
    #[must_use]
    pub fn stddev_absolute(&self) -> Percent {
        Percent::new(self.absolute.stddev())
    }

    /// Mean of the *signed* errors (reveals bias direction).
    #[must_use]
    pub fn mean_signed(&self) -> Percent {
        Percent::new(self.signed.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim_units::Seconds;

    fn s(v: f64) -> Seconds {
        Seconds::new(v)
    }

    #[test]
    fn equation_two_signs() {
        // Prediction faster than actual => negative.
        assert!((percent_error(s(50.0), s(100.0)).get() + 50.0).abs() < 1e-12);
        // Prediction slower than actual => positive.
        assert!((percent_error(s(150.0), s(100.0)).get() - 50.0).abs() < 1e-12);
        // Perfect prediction => zero.
        assert_eq!(percent_error(s(100.0), s(100.0)), 0.0);
    }

    #[test]
    fn absolute_error_drops_sign() {
        assert!((absolute_percent_error(s(50.0), s(100.0)).get() - 50.0).abs() < 1e-12);
        assert!((absolute_percent_error(s(150.0), s(100.0)).get() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn accumulator_prevents_cancellation() {
        // +50% and -50% would cancel to zero under naive signed averaging;
        // the paper's discipline keeps them at 50.
        let mut acc = ErrorAccumulator::new();
        acc.record(s(150.0), s(100.0));
        acc.record(s(50.0), s(100.0));
        assert_eq!(acc.count(), 2);
        assert!((acc.mean_absolute().get() - 50.0).abs() < 1e-12);
        assert!(acc.mean_signed().abs() < 1e-12);
        assert!((acc.stddev_absolute().get() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn accumulator_stddev_of_absolute_values() {
        let mut acc = ErrorAccumulator::new();
        // absolute errors: 10 and 30 => mean 20, population SD 10.
        acc.record(s(110.0), s(100.0));
        acc.record(s(70.0), s(100.0));
        assert!((acc.mean_absolute().get() - 20.0).abs() < 1e-12);
        assert!((acc.stddev_absolute().get() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn accumulator_merge_matches_sequential() {
        let pairs = [(110.0, 100.0), (70.0, 100.0), (95.0, 100.0), (210.0, 100.0)];
        let mut whole = ErrorAccumulator::new();
        pairs.iter().for_each(|&(p, a)| whole.record(s(p), s(a)));

        let mut left = ErrorAccumulator::new();
        let mut right = ErrorAccumulator::new();
        pairs[..2]
            .iter()
            .for_each(|&(p, a)| left.record(s(p), s(a)));
        pairs[2..]
            .iter()
            .for_each(|&(p, a)| right.record(s(p), s(a)));
        left.merge(&right);

        assert_eq!(left.count(), whole.count());
        assert!((left.mean_absolute() - whole.mean_absolute()).abs() < 1e-10);
        assert!((left.stddev_absolute() - whole.stddev_absolute()).abs() < 1e-10);
        assert!((left.mean_signed() - whole.mean_signed()).abs() < 1e-10);
    }

    #[test]
    fn empty_accumulator_reports_zeroes() {
        let acc = ErrorAccumulator::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean_absolute(), 0.0);
    }

    /// Table 4 fixture: the published STREAM row is mean |error| 43% with
    /// SD 49% — feed a tiny synthetic set of signed errors shaped like the
    /// paper's (over- and under-predictions mixed) and check the signed
    /// mean stays near zero while the absolute mean does not.
    #[test]
    fn table4_style_signed_vs_absolute_discipline() {
        let actual = s(100.0);
        let mut acc = ErrorAccumulator::new();
        for predicted in [143.0, 57.0, 120.0, 80.0] {
            acc.record(s(predicted), actual);
        }
        // Signed errors: +43, -43, +20, -20 — cancel to 0.
        assert!(acc.mean_signed().abs() < 1e-12);
        // Absolute errors: 43, 43, 20, 20 — mean 31.5, like a Table 4 cell.
        assert!((acc.mean_absolute().get() - 31.5).abs() < 1e-12);
        // The rendering used in Table 4 is whole percent.
        assert_eq!(acc.mean_absolute().paper(), "32");
    }

    /// The `Percent` type is the unit boundary: Equation 2's output cannot
    /// be fed back in as a runtime (that would not compile), and its signed
    /// rendering matches the CLI's `{:+.1}` convention.
    #[test]
    fn percent_is_a_distinct_endpoint_type() {
        let e = percent_error(s(90.0), s(100.0));
        assert_eq!(e.signed_one_decimal(), "-10.0");
        assert_eq!(e.abs().one_decimal(), "10.0");
    }
}
