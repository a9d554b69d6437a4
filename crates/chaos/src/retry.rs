//! Bounded retry with deterministic, *virtual* backoff.
//!
//! Instrumented seams (probe measurement, cache loads, trace acquisition)
//! wrap their fallible step in [`RetryPolicy::run`]. Backoff is never
//! slept — simulated studies must stay fast and reproducible — it is
//! *accounted*, in the `chaos.retry.backoff_ms` obs counter, alongside
//! `chaos.retry.attempts` (failed attempts that were retried),
//! `chaos.retry.recovered` (operations that succeeded after at least one
//! failure), and `chaos.retry.exhausted` (operations that failed every
//! attempt). The `MS603` manifest rule flags any run whose exhausted
//! counter is nonzero.

use metasim_obs::counter_add;

/// Bounded retry with exponential virtual backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Virtual backoff before the second attempt; doubles per retry.
    pub base_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 10,
        }
    }
}

impl RetryPolicy {
    /// Virtual backoff charged after failed attempt `attempt` (1-based):
    /// `base << (attempt - 1)`, capped to avoid shift overflow.
    #[must_use]
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        self.base_backoff_ms << (attempt.saturating_sub(1)).min(16)
    }

    /// Charge the obs counters for a failed attempt that *will* be retried.
    pub fn note_retry(&self, attempt: u32) {
        counter_add("chaos.retry.attempts", 1);
        counter_add("chaos.retry.backoff_ms", self.backoff_ms(attempt));
    }

    /// Charge the obs counter for an operation that succeeded after ≥1 failure.
    pub fn note_recovered(&self) {
        counter_add("chaos.retry.recovered", 1);
    }

    /// Charge the obs counter for an operation that failed every attempt.
    pub fn note_exhausted(&self) {
        counter_add("chaos.retry.exhausted", 1);
    }

    /// Run `op` up to [`max_attempts`](Self::max_attempts) times, passing
    /// the 1-based attempt number. Returns the first success, or the last
    /// error once the budget is exhausted. Counter accounting is
    /// exactly-once per outcome: every retried failure bumps
    /// `chaos.retry.attempts`, a late success bumps `chaos.retry.recovered`,
    /// a final failure bumps `chaos.retry.exhausted`.
    pub fn run<T, E>(&self, mut op: impl FnMut(u32) -> Result<T, E>) -> Result<T, E> {
        let max = self.max_attempts.max(1);
        let mut attempt = 1;
        loop {
            match op(attempt) {
                Ok(value) => {
                    if attempt > 1 {
                        self.note_recovered();
                    }
                    return Ok(value);
                }
                Err(err) if attempt >= max => {
                    self.note_exhausted();
                    return Err(err);
                }
                Err(_) => {
                    self.note_retry(attempt);
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim_obs::{with_recorder, InMemoryRecorder};
    use std::sync::Arc;

    fn counting_run(
        policy: RetryPolicy,
        fail_first: u32,
    ) -> (Result<u32, String>, metasim_obs::MetricsSnapshot) {
        let rec = Arc::new(InMemoryRecorder::new());
        let result = with_recorder(rec.clone(), || {
            policy.run(|attempt| {
                if attempt <= fail_first {
                    Err(format!("attempt {attempt} failed"))
                } else {
                    Ok(attempt)
                }
            })
        });
        (result, rec.metrics_snapshot())
    }

    #[test]
    fn first_try_success_touches_no_counters() {
        let (result, snap) = counting_run(RetryPolicy::default(), 0);
        assert_eq!(result, Ok(1));
        assert_eq!(snap.counter("chaos.retry.attempts"), 0);
        assert_eq!(snap.counter("chaos.retry.recovered"), 0);
        assert_eq!(snap.counter("chaos.retry.exhausted"), 0);
    }

    #[test]
    fn recovery_counts_each_failed_attempt_once() {
        let (result, snap) = counting_run(RetryPolicy::default(), 2);
        assert_eq!(result, Ok(3));
        assert_eq!(snap.counter("chaos.retry.attempts"), 2);
        assert_eq!(snap.counter("chaos.retry.recovered"), 1);
        assert_eq!(snap.counter("chaos.retry.exhausted"), 0);
        // 10ms after attempt 1, 20ms after attempt 2.
        assert_eq!(snap.counter("chaos.retry.backoff_ms"), 30);
    }

    #[test]
    fn exhaustion_reports_the_last_error() {
        let (result, snap) = counting_run(RetryPolicy::default(), 99);
        assert_eq!(result, Err("attempt 3 failed".to_string()));
        assert_eq!(snap.counter("chaos.retry.attempts"), 2);
        assert_eq!(snap.counter("chaos.retry.recovered"), 0);
        assert_eq!(snap.counter("chaos.retry.exhausted"), 1);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_ms(1), 10);
        assert_eq!(policy.backoff_ms(2), 20);
        assert_eq!(policy.backoff_ms(3), 40);
        assert_eq!(policy.backoff_ms(40), 10 << 16, "shift must saturate");
    }

    proptest::proptest! {
        // The satellite guarantee: every retry is exactly-once-observable
        // through the run manifest — the counters a `RunManifest` carries
        // are a closed-form function of (failures, budget), and `MS603`
        // fires precisely when the budget ran out.
        #[test]
        fn retry_accounting_is_exactly_once_in_the_manifest(
            fail_first in 0u32..6,
            max_attempts in 1u32..5,
        ) {
            use metasim_obs::manifest::{ManifestMeta, RunManifest};

            let policy = RetryPolicy {
                max_attempts,
                base_backoff_ms: 10,
            };
            let rec = Arc::new(InMemoryRecorder::new());
            let result = with_recorder(rec.clone(), || {
                policy.run(|attempt| {
                    if attempt <= fail_first {
                        Err(attempt)
                    } else {
                        Ok(attempt)
                    }
                })
            });
            let study = rec.span_enter(0, "study".into());
            rec.span_exit(study, 1_000);
            let manifest = RunManifest::build(&rec, ManifestMeta::default());

            let exhausted = fail_first >= max_attempts;
            let retried = u64::from(if exhausted {
                max_attempts - 1
            } else {
                fail_first
            });
            assert_eq!(result.is_err(), exhausted);
            assert_eq!(manifest.metrics.counter("chaos.retry.attempts"), retried);
            assert_eq!(
                manifest.metrics.counter("chaos.retry.recovered"),
                u64::from(!exhausted && fail_first > 0)
            );
            assert_eq!(
                manifest.metrics.counter("chaos.retry.exhausted"),
                u64::from(exhausted)
            );
            // Geometric backoff: 10 + 20 + ... for each retried attempt.
            assert_eq!(
                manifest.metrics.counter("chaos.retry.backoff_ms"),
                10 * ((1u64 << retried) - 1)
            );
            assert_eq!(manifest.audit().has_code("MS603"), exhausted);
        }
    }
}
