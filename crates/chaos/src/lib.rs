//! metasim-chaos: deterministic, seeded fault injection and the
//! graceful-degradation machinery that lets the study produce *partial but
//! honest* results.
//!
//! Real probe runs are noisy, machines drop out mid-campaign, and cache
//! files rot; Cornebize & Legrand showed that ignoring exactly this kind of
//! measurement variability silently corrupts convolution-based prediction.
//! This crate makes failure a first-class, reproducible input:
//!
//! * **Fault plans** — a [`FaultPlan`] names the faults to inject (probe
//!   noise, transient measurement failures, cache corruption, whole-machine
//!   outages, trace drops) and a seed. Every injection decision is a pure
//!   function of `(seed, site, labels)`, so the same plan replays the same
//!   faults in any execution order — two runs of `metasim chaos run
//!   --seed 42` are byte-identical.
//! * **Fault points** — instrumented crates ask the free functions
//!   [`fires`] and [`factor`] whether the calling thread's plan injects a
//!   fault at a named site. A plan is scoped to one thread by [`with_plan`]
//!   (the study's sharded executor hands it on to each worker it spawns).
//!   With no plan on any thread both collapse to one relaxed atomic load
//!   (the same zero-cost pattern as `metasim_obs::Recorder`), and an
//!   *empty* plan answers exactly like no plan at all — study outputs stay
//!   bit-for-bit identical.
//! * **Retries** — [`RetryPolicy`] wraps probe measurement and cache loads
//!   in bounded retry-with-deterministic-backoff; attempts are observable
//!   through the `chaos.retry.*` obs counters, and backoff is *virtual*
//!   (accounted in `chaos.retry.backoff_ms`, never slept) so chaos runs
//!   stay fast and deterministic.
//!
//! Degradation policy lives with the consumers: `metasim_probes` turns an
//! exhausted machine into a typed `ProbeFailure`, and `metasim_core`'s
//! study driver skips that machine and reports coverage ("9/10 systems,
//! 135/150 observations") instead of averaging over holes. The `MS601`–
//! `MS603` audit rules flag partial coverage, oversized perturbations, and
//! exhausted retry budgets.

pub mod plan;
pub mod retry;

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

pub use plan::{FaultPlan, FaultSpec, NOISE_TOLERANCE};
pub use retry::RetryPolicy;

/// The fault sites instrumented across the pipeline. Using these constants
/// (rather than ad-hoc strings) keeps plan decisions and injection sites in
/// agreement.
pub mod site {
    /// Whole-machine outage; labels: `[machine-label]`.
    pub const OUTAGE: &str = "outage";
    /// Transient probe-measurement failure; labels: `[machine-label, attempt]`.
    pub const MEASURE: &str = "measure";
    /// Corrupted/truncated cache entry read; labels: `[kind, key, attempt]`.
    pub const CACHE: &str = "cache";
    /// Dropped trace records; labels: `[app, case, processes, attempt]`.
    pub const TRACE: &str = "trace";
    /// Multiplicative probe perturbation; labels: `[family, machine-label]`.
    pub const PROBE_NOISE: &str = "probe-noise";
}

/// A source of fault-injection decisions. [`FaultPlan`] is the only
/// implementation shipped; the trait exists so tests can inject bespoke
/// behavior and so instrumented crates depend on an interface, not a plan
/// format.
pub trait FaultPoint: Send + Sync {
    /// Does a fault fire at this `(site, labels)` coordinate?
    fn fires(&self, site: &str, labels: &[&str]) -> bool;

    /// Multiplicative perturbation factor at this coordinate (1.0 = none).
    fn factor(&self, site: &str, labels: &[&str]) -> f64;
}

/// Number of [`with_plan`] scopes open on any thread. The instrumentation
/// fast path is one relaxed load of this counter: zero means [`fires`] and
/// [`factor`] are no-ops.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's fault point ([`with_plan`]).
    static LOCAL: RefCell<Option<Arc<dyn FaultPoint>>> = const { RefCell::new(None) };
}

/// Decrements [`ACTIVE`] and clears the thread-local fault point even when
/// the wrapped closure unwinds.
struct LocalGuard {
    prev: Option<Arc<dyn FaultPoint>>,
}

impl Drop for LocalGuard {
    fn drop(&mut self) {
        LOCAL.with(|l| *l.borrow_mut() = self.prev.take());
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run `f` with `point` installed for *this thread only*, so parallel tests
/// never share a fault plan. Threads `f` spawns see no plan unless they are
/// handed one. The previous thread-local point (if any) is restored
/// afterwards, panics included.
pub fn with_plan<R>(point: Arc<dyn FaultPoint>, f: impl FnOnce() -> R) -> R {
    let prev = LOCAL.with(|l| l.borrow_mut().replace(point));
    ACTIVE.fetch_add(1, Ordering::SeqCst);
    let _guard = LocalGuard { prev };
    f()
}

/// The fault point this thread's injection sites consult right now, if
/// any.
#[must_use]
pub fn point() -> Option<Arc<dyn FaultPoint>> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    LOCAL.with(|l| l.borrow().clone())
}

/// Whether any thread has a fault point (cheap: one relaxed atomic load).
/// Consumers use this to skip perturbation code entirely, keeping the
/// fault-free path byte-identical to a build without this crate.
#[must_use]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Does this thread's plan fire a fault at this coordinate? `false` (one
/// relaxed load) when no thread has a plan. Fired faults bump the
/// `chaos.faults.injected` obs counter.
#[must_use]
pub fn fires(site: &str, labels: &[&str]) -> bool {
    match point() {
        Some(p) if p.fires(site, labels) => {
            metasim_obs::counter_add("chaos.faults.injected", 1);
            true
        }
        _ => false,
    }
}

/// This thread's plan's multiplicative factor at this coordinate, or
/// exactly `1.0` without a plan. Consumers must skip the
/// multiplication when the factor is exactly `1.0` so an empty plan cannot
/// perturb values through floating-point rounding.
#[must_use]
pub fn factor(site: &str, labels: &[&str]) -> f64 {
    point().map_or(1.0, |p| p.factor(site, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// `ACTIVE` is process-wide, so the tests that read or change it take
    /// turns: run in parallel, one test's `with_plan` shows up in
    /// another's `active()`.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    struct Always;
    impl FaultPoint for Always {
        fn fires(&self, _site: &str, _labels: &[&str]) -> bool {
            true
        }
        fn factor(&self, _site: &str, _labels: &[&str]) -> f64 {
            2.0
        }
    }

    #[test]
    fn no_plan_means_no_faults() {
        let _serial = serial();
        assert!(!active());
        assert!(!fires(site::OUTAGE, &["ARL_SC45"]));
        assert_eq!(factor(site::PROBE_NOISE, &["hpl", "ARL_SC45"]), 1.0);
    }

    #[test]
    fn with_plan_scopes_to_the_thread_and_restores() {
        let _serial = serial();
        let before = active();
        with_plan(Arc::new(Always), || {
            assert!(active());
            assert!(fires(site::MEASURE, &["x", "1"]));
            assert_eq!(factor(site::PROBE_NOISE, &["hpl", "x"]), 2.0);
        });
        assert_eq!(active(), before, "ACTIVE must be restored");
    }

    #[test]
    fn with_plan_restores_after_panic() {
        let _serial = serial();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_plan(Arc::new(Always), || panic!("boom"));
        }));
        assert!(result.is_err());
        assert!(point().is_none(), "local fault point must be cleared");
        assert!(!fires(site::CACHE, &["probes", "k", "1"]));
    }

    #[test]
    fn fired_faults_are_counted() {
        let _serial = serial();
        let rec = Arc::new(metasim_obs::InMemoryRecorder::new());
        metasim_obs::with_recorder(rec.clone(), || {
            with_plan(Arc::new(Always), || {
                assert!(fires(site::TRACE, &["sweep3d", "mk25", "64", "1"]));
                assert!(fires(site::TRACE, &["sweep3d", "mk25", "64", "2"]));
            });
        });
        assert_eq!(rec.metrics_snapshot().counter("chaos.faults.injected"), 2);
    }
}
