//! Descriptive statistics: means, standard deviations, quantiles, summaries.
//!
//! Table 4 and Table 5 of the paper report the *average* and *standard
//! deviation* of absolute percent errors; this module provides those
//! aggregations plus the usual descriptive extras used by the report crate.

use serde::{Deserialize, Serialize};

use crate::StatsError;

/// Arithmetic mean. Returns `Err(EmptyInput)` on an empty slice.
pub fn mean(xs: &[f64]) -> Result<f64, StatsError> {
    if xs.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation (divide by *n*).
///
/// The paper aggregates over the full set of predictions it made — a
/// population, not a sample — so population SD matches its Tables 4/5
/// convention.
pub fn stddev(xs: &[f64]) -> Result<f64, StatsError> {
    let m = mean(xs)?;
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64;
    Ok(var.sqrt())
}

/// Linear-interpolated quantile of already-sorted data, `q` in `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Result<f64, StatsError> {
    if sorted.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "quantile_sorted requires sorted input"
    );
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Ok(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Median (sorts a copy; for repeated quantile queries sort once and use
/// [`quantile_sorted`]).
pub fn median(xs: &[f64]) -> Result<f64, StatsError> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    quantile_sorted(&v, 0.5)
}

/// A one-pass descriptive summary of a data set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarize a non-empty slice. Panics on empty input (use
    /// [`Summary::try_from_slice`] when emptiness is a real possibility).
    #[must_use]
    pub fn from_slice(xs: &[f64]) -> Self {
        Self::try_from_slice(xs).expect("Summary::from_slice on empty input")
    }

    /// Summarize a slice, reporting emptiness as an error.
    pub fn try_from_slice(xs: &[f64]) -> Result<Self, StatsError> {
        let m = mean(xs)?;
        let sd = stddev(xs)?;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in xs {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        Ok(Self {
            n: xs.len(),
            mean: m,
            stddev: sd,
            min: lo,
            max: hi,
        })
    }
}

/// Running (Welford) accumulator for mean/variance without storing samples.
///
/// Used by the study driver to aggregate thousands of per-prediction errors
/// without building intermediate vectors in the hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Fresh, empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator (parallel reduction support).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations folded in.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (0 for an empty accumulator).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation (0 for fewer than 2 observations).
    #[must_use]
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Finish into a [`Summary`]; `None` if no observations were pushed.
    #[must_use]
    pub fn summary(&self) -> Option<Summary> {
        if self.n == 0 {
            return None;
        }
        Some(Summary {
            n: self.n as usize,
            mean: self.mean,
            stddev: self.stddev(),
            min: self.min,
            max: self.max,
        })
    }
}

/// Geometric mean of strictly positive data.
pub fn geometric_mean(xs: &[f64]) -> Result<f64, StatsError> {
    if xs.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    let mut acc = 0.0;
    for &x in xs {
        if x <= 0.0 {
            return Err(StatsError::NonPositive {
                what: "geometric mean input",
            });
        }
        acc += x.ln();
    }
    Ok((acc / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn mean_and_stddev_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs).unwrap() - 5.0).abs() < EPS);
        // Classic example with population SD exactly 2.
        assert!((stddev(&xs).unwrap() - 2.0).abs() < EPS);
    }

    #[test]
    fn empty_inputs_error() {
        assert_eq!(mean(&[]), Err(StatsError::EmptyInput));
        assert_eq!(stddev(&[]), Err(StatsError::EmptyInput));
        assert_eq!(median(&[]), Err(StatsError::EmptyInput));
        assert_eq!(geometric_mean(&[]), Err(StatsError::EmptyInput));
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile_sorted(&xs, 0.0).unwrap() - 1.0).abs() < EPS);
        assert!((quantile_sorted(&xs, 1.0).unwrap() - 4.0).abs() < EPS);
        assert!((quantile_sorted(&xs, 0.5).unwrap() - 2.5).abs() < EPS);
        assert!((quantile_sorted(&xs, 1.0 / 3.0).unwrap() - 2.0).abs() < EPS);
    }

    #[test]
    fn median_odd_and_even() {
        assert!((median(&[3.0, 1.0, 2.0]).unwrap() - 2.0).abs() < EPS);
        assert!((median(&[4.0, 1.0, 3.0, 2.0]).unwrap() - 2.5).abs() < EPS);
    }

    #[test]
    fn summary_fields() {
        let s = Summary::from_slice(&[1.0, 5.0, 3.0]);
        assert_eq!(s.n, 3);
        assert!((s.mean - 3.0).abs() < EPS);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn summary_from_empty_panics() {
        let _ = Summary::from_slice(&[]);
    }

    #[test]
    fn welford_matches_batch() {
        let xs = [2.5, -1.0, 7.0, 4.4, 0.1, 3.3];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let s = w.summary().unwrap();
        assert!((s.mean - mean(&xs).unwrap()).abs() < 1e-10);
        assert!((s.stddev - stddev(&xs).unwrap()).abs() < 1e-10);
        assert_eq!(s.min, -1.0);
        assert_eq!(s.max, 7.0);
    }

    #[test]
    fn welford_merge_matches_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        xs.iter().for_each(|&x| whole.push(x));

        let (a, b) = xs.split_at(37);
        let mut wa = Welford::new();
        a.iter().for_each(|&x| wa.push(x));
        let mut wb = Welford::new();
        b.iter().for_each(|&x| wb.push(x));
        wa.merge(&wb);

        assert_eq!(wa.count(), whole.count());
        assert!((wa.mean() - whole.mean()).abs() < 1e-10);
        assert!((wa.stddev() - whole.stddev()).abs() < 1e-10);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);

        let mut empty = Welford::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn welford_empty_summary_is_none() {
        assert!(Welford::new().summary().is_none());
        assert_eq!(Welford::new().stddev(), 0.0);
    }

    #[test]
    fn geometric_mean_basic() {
        assert!((geometric_mean(&[1.0, 4.0]).unwrap() - 2.0).abs() < EPS);
        assert!(matches!(
            geometric_mean(&[1.0, 0.0]),
            Err(StatsError::NonPositive { .. })
        ));
    }
}
