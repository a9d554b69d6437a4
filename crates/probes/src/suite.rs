//! The full probe suite for a machine, measured once and memoized.
//!
//! The study needs every probe result for every machine (Tables 4/5 convolve
//! 1,350 predictions); [`ProbeSuite`] memoizes per-machine measurements with
//! *single-flight* semantics: each machine gets one once-cell, so concurrent
//! cold callers run exactly one sweep (the rest block on the winner instead
//! of burning a duplicate 5-curve MAPS measurement and discarding it).
//!
//! Optionally the suite is backed by a persistent [`ArtifactStore`]: probe
//! sets load from disk when a valid entry exists (validated on load against
//! the `metasim-audit` MS1xx rules — a corrupt or physically impossible
//! entry is evicted and re-measured) and are written back after measurement.
//!
//! The suite is also a fault-injection seam for `metasim-chaos`: an
//! installed [`FaultPlan`](metasim_chaos::FaultPlan) can take a machine
//! down entirely (`outage`), fail measurement attempts transiently
//! (`measure`, wrapped in [`RetryPolicy`] bounded retries), or perturb the
//! measured results multiplicatively (`probe-noise`). Failures surface as
//! typed [`ProbeFailure`]s through [`ProbeSuite::try_measure`] so the study
//! driver can skip a dead machine instead of dying with it. Raw (never
//! perturbed) results are what the store persists.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use metasim_audit::audit_value;
use metasim_cache::{content_key, ArtifactKey, ArtifactStore, SingleFlight};
use metasim_chaos::{site, RetryPolicy};
use metasim_machines::{MachineConfig, MachineId};

use crate::audit::audit_probes;

use metasim_memsim::analytic::{resolve_tier, ResolvedTier, Tier};
use metasim_memsim::bandwidth::ProfileMemo;

use crate::gups::{measure_gups_tiered, GupsResult};
use crate::hpl::{measure_hpl, HplResult};
use crate::maps::{measure_maps_tiered, MapsSet};
use crate::netbench::{measure_netbench, NetbenchResult};
use crate::stream::{measure_stream_tiered, StreamResult};

/// Number of processes the fleet-comparable HPL submission uses.
pub const HPL_PROCESSES: u64 = 64;

/// Every probe result for one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineProbes {
    /// Which machine was measured.
    pub id: MachineId,
    /// HPL result (per-processor Rmax).
    pub hpl: HplResult,
    /// STREAM result.
    pub stream: StreamResult,
    /// GUPS result.
    pub gups: GupsResult,
    /// MAPS and ENHANCED MAPS curves.
    pub maps: MapsSet,
    /// NETBENCH result.
    pub netbench: NetbenchResult,
}

impl MachineProbes {
    /// Measure everything for one machine (expensive: full MAPS sweeps).
    #[must_use]
    pub fn measure(machine: &MachineConfig) -> Self {
        Self::measure_tiered(machine, ResolvedTier::Exact)
    }

    /// Measure under an explicit resolved model tier. The memory-driven
    /// probes (STREAM, GUPS, MAPS) use the requested tier; HPL and NETBENCH
    /// are not memory-simulator-driven and always measure the same way.
    /// The exact tier is byte-identical to [`measure`](Self::measure).
    #[must_use]
    pub fn measure_tiered(machine: &MachineConfig, tier: ResolvedTier) -> Self {
        Self::measure_memo(machine, tier, &ProfileMemo::new())
    }

    /// [`measure_tiered`](Self::measure_tiered), reading exact-tier memory
    /// profiles through `profiles`, so machines that share a cache
    /// hierarchy simulate each sweep point once. Identical results.
    #[must_use]
    pub fn measure_memo(
        machine: &MachineConfig,
        tier: ResolvedTier,
        profiles: &ProfileMemo,
    ) -> Self {
        Self {
            id: machine.id,
            hpl: measure_hpl(machine, HPL_PROCESSES),
            stream: measure_stream_tiered(machine, tier, profiles),
            gups: measure_gups_tiered(machine, tier, profiles),
            maps: measure_maps_tiered(machine, tier, profiles),
            netbench: measure_netbench(machine),
        }
    }
}

/// Artifact-store kind directory for persisted probe sets.
pub const PROBES_KIND: &str = "probes";

/// Why a machine's probe set could not be acquired: an injected outage, or
/// transient measurement failures that exhausted the retry budget. The
/// failure is memoized like a success — every later request for the machine
/// sees the same answer, so one run tells one story.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeFailure {
    /// The machine that could not be measured.
    pub machine: MachineId,
    /// Human-readable cause (outage vs. exhausted retries).
    pub reason: String,
}

impl fmt::Display for ProbeFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "probes unavailable for {}: {}",
            self.machine, self.reason
        )
    }
}

impl std::error::Error for ProbeFailure {}

/// Memoizing probe runner with single-flight semantics and an optional
/// persistent backing store.
///
/// Besides one cell per machine, the suite owns the memo of the exact
/// memory profiles its sweeps simulate, keyed by cache hierarchy and
/// workload: machines that share a hierarchy simulate each sweep point
/// once, and the study preflight reads [`MS204`]'s samples from the same
/// memo. Nothing is shared between suites.
///
/// [`MS204`]: metasim_audit::registry::MS204
#[derive(Debug)]
pub struct ProbeSuite {
    cells: SingleFlight<MachineId, Result<Arc<MachineProbes>, ProbeFailure>>,
    profiles: ProfileMemo,
    store: Option<Arc<ArtifactStore>>,
    measurements: AtomicUsize,
    tier: Tier,
}

impl Default for ProbeSuite {
    /// Defaults to [`Tier::Exact`]: existing callers keep byte-identical
    /// results; opting into the analytic fast path is explicit via
    /// [`with_tier`](Self::with_tier).
    fn default() -> Self {
        Self {
            cells: SingleFlight::new(),
            profiles: ProfileMemo::new(),
            store: None,
            measurements: AtomicUsize::new(0),
            tier: Tier::Exact,
        }
    }
}

impl ProbeSuite {
    /// Fresh suite with an empty in-process cache and no backing store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Suite backed by a persistent artifact store: probe sets are loaded
    /// from (and written back to) disk, surviving across processes.
    #[must_use]
    pub fn with_store(store: Arc<ArtifactStore>) -> Self {
        Self {
            store: Some(store),
            ..Self::default()
        }
    }

    /// Set the cache-model tier for all subsequent measurements. `Auto`
    /// calibrates per machine spec and falls back to exact when the
    /// analytic model misses [`metasim_memsim::TIER_ERROR_BUDGET`].
    #[must_use]
    pub fn with_tier(mut self, tier: Tier) -> Self {
        self.tier = tier;
        self
    }

    /// The configured cache-model tier.
    #[must_use]
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// The suite's memo of simulated memory profiles.
    #[must_use]
    pub fn profiles(&self) -> &ProfileMemo {
        &self.profiles
    }

    /// The tier measurements on `machine` would run with (`Auto` resolved
    /// against the machine's spec).
    #[must_use]
    pub fn resolved_tier(&self, machine: &MachineConfig) -> ResolvedTier {
        resolve_tier(&machine.memory, self.tier)
    }

    /// The content key a machine's probe set is stored under: the full
    /// serialized machine configuration, so any spec edit is a cache miss.
    /// This is the exact-tier key — the analytic tier persists under a
    /// tier-tagged sibling ([`store_key_tiered`](Self::store_key_tiered)),
    /// so switching tiers can never serve a model-mismatched artifact.
    #[must_use]
    pub fn store_key(machine: &MachineConfig) -> ArtifactKey {
        Self::store_key_tiered(machine, ResolvedTier::Exact)
    }

    /// The content key for a machine's probe set under a resolved tier.
    #[must_use]
    pub fn store_key_tiered(machine: &MachineConfig, tier: ResolvedTier) -> ArtifactKey {
        match tier {
            ResolvedTier::Exact => content_key(&[PROBES_KIND], machine),
            ResolvedTier::Analytic => content_key(&[PROBES_KIND, "analytic"], machine),
        }
    }

    /// Probe results for `machine`, measuring on first request.
    ///
    /// Concurrent callers on a cold machine coalesce onto one measurement:
    /// the first caller runs the sweep inside the machine's once-cell while
    /// the rest wait for that same result.
    ///
    /// Panics if the machine cannot be measured (only possible under an
    /// installed fault plan); robustness-aware callers use
    /// [`try_measure`](Self::try_measure) instead.
    #[must_use]
    pub fn measure(&self, machine: &MachineConfig) -> Arc<MachineProbes> {
        self.try_measure(machine).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`measure`](Self::measure): `Err` when an installed
    /// fault plan makes the machine unreachable (outage) or fails every
    /// measurement attempt in the retry budget. The outcome — success or
    /// failure — is memoized once per machine.
    pub fn try_measure(&self, machine: &MachineConfig) -> Result<Arc<MachineProbes>, ProbeFailure> {
        self.cells.get_or_init(machine.id, || self.acquire(machine))
    }

    /// One acquisition: outage gate, retried transient-failure gate, then
    /// cache-load-or-measure. The store always receives the *raw*
    /// measurement; any probe-noise perturbation is applied after, so a
    /// warm (cache-hit) chaos run sees exactly the values a cold one did.
    fn acquire(&self, machine: &MachineConfig) -> Result<Arc<MachineProbes>, ProbeFailure> {
        let label = machine.id.label();
        if metasim_chaos::fires(site::OUTAGE, &[label]) {
            metasim_obs::counter_add("chaos.outage", 1);
            return Err(ProbeFailure {
                machine: machine.id,
                reason: "machine unreachable (injected outage)".to_string(),
            });
        }
        RetryPolicy::default().run(|attempt| {
            if metasim_chaos::fires(site::MEASURE, &[label, &attempt.to_string()]) {
                Err(ProbeFailure {
                    machine: machine.id,
                    reason: format!("transient measurement failure (attempt {attempt})"),
                })
            } else {
                Ok(())
            }
        })?;
        let tier = self.resolved_tier(machine);
        let probes = if let Some(cached) = self.load_cached(machine, tier) {
            cached
        } else {
            let span = metasim_obs::recording()
                .then(|| metasim_obs::span(format!("probe-sweep:{}", machine.id)));
            let probes = MachineProbes::measure_memo(machine, tier, &self.profiles);
            self.measurements.fetch_add(1, Ordering::Relaxed);
            metasim_obs::counter_add("probes.sweeps", 1);
            if let Some(span) = span {
                metasim_obs::observe_hdr(metasim_obs::hdr::LAT_PROBE_SWEEP, span.finish());
            }
            if let Some(store) = &self.store {
                let _ = store.store(PROBES_KIND, Self::store_key_tiered(machine, tier), &probes);
            }
            probes
        };
        Ok(Arc::new(apply_probe_noise(machine, probes)))
    }

    /// Audit-on-load: a persisted probe set is trusted only if it claims the
    /// right machine identity and passes the MS1xx physics rules
    /// ([`audit_probes`]) with no error-severity findings. Anything else is
    /// evicted (by the store) and re-measured. The gate runs no simulation:
    /// [`MS204`](metasim_audit::registry::MS204) checks the simulator, not a
    /// stored entry, and the study preflight runs it once per machine.
    fn load_cached(&self, machine: &MachineConfig, tier: ResolvedTier) -> Option<MachineProbes> {
        let store = self.store.as_ref()?;
        store.load_validated(
            PROBES_KIND,
            Self::store_key_tiered(machine, tier),
            |probes: &MachineProbes| {
                if probes.id != machine.id {
                    return Err(format!(
                        "entry claims machine {} but key belongs to {}",
                        probes.id, machine.id
                    ));
                }
                let report = audit_value(|a| audit_probes(machine, probes, a));
                if report.has_errors() {
                    return Err(format!("audit-on-load failed: {}", report.summary_line()));
                }
                Ok(())
            },
        )
    }

    /// Number of machines whose probes are available (measured or loaded);
    /// machines memoized as failed do not count.
    #[must_use]
    pub fn measured_count(&self) -> usize {
        self.cells.count_ready(Result::is_ok)
    }

    /// Number of full probe sweeps actually executed by this suite (cache
    /// loads do not count). The single-flight guarantee is that this never
    /// exceeds the number of distinct machines requested.
    #[must_use]
    pub fn measurements_performed(&self) -> usize {
        self.measurements.load(Ordering::Relaxed)
    }
}

/// Apply the installed fault plan's `probe-noise` perturbation to a raw
/// probe set (every acquisition passes its measurement through here). With no plan installed (or a plan without a
/// `ProbeNoise` fault) this is the identity — not even a `* 1.0` touches
/// the values, so fault-free results stay bit-identical.
///
/// Factors are drawn per probe *family*, not per individual value, because
/// the MS1xx physics rules relate values to each other: all five MAPS
/// curves, STREAM, and GUPS share one memory-subsystem factor (uniform
/// scaling preserves the MS102 monotonicity and MS103/MS104 dominance
/// invariants), and the perturbed HPL Rmax is clamped to the machine's
/// theoretical peak so MS105 keeps holding.
#[must_use]
pub fn apply_probe_noise(machine: &MachineConfig, mut probes: MachineProbes) -> MachineProbes {
    if !metasim_chaos::active() {
        return probes;
    }
    let label = machine.id.label();
    let factor_for = |family: &str| {
        metasim_chaos::factor(site::PROBE_NOISE, &[family, label]).max(f64::MIN_POSITIVE)
    };

    let f_hpl = factor_for("hpl");
    if f_hpl != 1.0 {
        let peak = machine.processor.peak_gflops();
        let rmax = probes.hpl.rmax_gflops_per_proc.get();
        let clamped = (rmax * f_hpl).min(peak);
        // Keep rate and solve time consistent: time scales inversely with
        // the rate the perturbation actually achieved.
        probes.hpl.rmax_gflops_per_proc = metasim_units::Gflops::new(clamped);
        probes.hpl.seconds = probes.hpl.seconds / (clamped / rmax);
    }

    let f_mem = factor_for("memory");
    if f_mem != 1.0 {
        probes.stream.bandwidth = probes.stream.bandwidth * f_mem;
        probes.gups.updates_per_second = probes.gups.updates_per_second * f_mem;
        for curve in [
            &mut probes.maps.unit,
            &mut probes.maps.random,
            &mut probes.maps.unit_chained,
            &mut probes.maps.unit_branchy,
            &mut probes.maps.random_chained,
        ] {
            for point in &mut curve.points {
                point.1 *= f_mem;
            }
        }
    }

    let f_net = factor_for("netbench");
    if f_net != 1.0 {
        // A slower fabric delivers less bandwidth and takes longer per
        // message, so times scale inversely with the rate factor.
        probes.netbench.bandwidth = probes.netbench.bandwidth * f_net;
        probes.netbench.latency = probes.netbench.latency / f_net;
        probes.netbench.allreduce_64p = probes.netbench.allreduce_64p / f_net;
    }
    probes
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim_machines::{fleet, MachineId};

    #[test]
    fn suite_memoizes() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let a = suite.measure(f.get(MachineId::ArlXeon));
        let b = suite.measure(f.get(MachineId::ArlXeon));
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        assert_eq!(suite.measured_count(), 1);
    }

    /// The exact-simulator addresses `f` issues on this thread.
    fn simulated(f: impl FnOnce()) -> u64 {
        use metasim_obs::{with_recorder, InMemoryRecorder, Recorder};
        let rec = Arc::new(InMemoryRecorder::new());
        with_recorder(Arc::clone(&rec) as Arc<dyn Recorder>, f);
        rec.metrics_snapshot().counter("memsim.addresses")
    }

    #[test]
    fn each_suite_simulates_for_itself() {
        // The profile memo belongs to the suite: a second fresh suite
        // re-simulates everything the first did, while a machine that
        // shares a hierarchy with one the suite already swept simulates
        // nothing at all.
        let f = fleet();
        let (first, second) = (ProbeSuite::new(), ProbeSuite::new());
        let a = simulated(|| drop(first.measure(f.get(MachineId::NavoP3))));
        let b = simulated(|| drop(second.measure(f.get(MachineId::NavoP3))));
        assert!(a > 0);
        assert_eq!(a, b, "a fresh suite must not see another suite's profiles");
        let f_p3 = f.get(MachineId::MhpccP3);
        assert_eq!(
            f_p3.memory.hierarchy(),
            f.get(MachineId::NavoP3).memory.hierarchy()
        );
        assert_eq!(simulated(|| drop(first.measure(f_p3))), 0);
        assert_eq!(*first.measure(f_p3), MachineProbes::measure(f_p3));
    }

    #[test]
    fn shared_hierarchies_reuse_profiles_but_not_timings() {
        use metasim_memsim::bandwidth::{measure_bandwidth, measure_bandwidth_memo, Workload};
        use metasim_memsim::timing::{AccessKind, DependencyMode};

        let f = fleet();
        let machines: Vec<_> = f.all().collect();
        let mut workloads: Vec<Workload> = crate::audit::hit_fraction_samples()
            .iter()
            .map(|&(_, w)| w)
            .collect();
        for ws in [4u64 << 10, 48 << 10, 3 << 20, 128 << 20] {
            for kind in [AccessKind::Sequential, AccessKind::Random] {
                for deps in [DependencyMode::Independent, DependencyMode::Chained] {
                    workloads.push(Workload::new(ws, kind, deps));
                }
            }
        }
        let mut pairs = 0;
        for (i, a) in machines.iter().enumerate() {
            for b in &machines[i + 1..] {
                if a.memory.hierarchy() != b.memory.hierarchy() {
                    continue;
                }
                pairs += 1;
                let memo = ProfileMemo::new();
                let mut retimed = 0;
                for w in &workloads {
                    let first = measure_bandwidth_memo(&a.memory, w, &memo);
                    let hit = measure_bandwidth_memo(&b.memory, w, &memo);
                    assert_eq!(first, measure_bandwidth(&a.memory, w), "{} {w:?}", a.id);
                    assert_eq!(hit, measure_bandwidth(&b.memory, w), "{} {w:?}", b.id);
                    assert_eq!(first.profile, hit.profile);
                    if first.seconds != hit.seconds {
                        retimed += 1;
                    }
                }
                // Specs that share a hierarchy differ in their timing
                // fields, and the memo hit must carry that difference.
                assert_ne!(a.memory, b.memory);
                assert!(retimed > 0, "{} and {} timed alike", a.id, b.id);
            }
        }
        // MHPCC_690_1.3, ARL_690_1.7, NAVO_655 and NAVO_690_BASE share one
        // hierarchy (six pairs), MHPCC_P3 and NAVO_P3 another (one pair).
        assert_eq!(pairs, 7);
    }

    #[test]
    fn probes_carry_machine_identity() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let p = suite.measure(f.get(MachineId::ErdcO3800));
        assert_eq!(p.id, MachineId::ErdcO3800);
        assert_eq!(p.hpl.processes, HPL_PROCESSES);
    }

    #[test]
    fn concurrent_measurement_is_safe() {
        let f = Arc::new(fleet());
        let suite = Arc::new(ProbeSuite::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let f = Arc::clone(&f);
                let suite = Arc::clone(&suite);
                std::thread::spawn(move || {
                    let p = suite.measure(f.get(MachineId::AscSc45));
                    p.stream.bandwidth
                })
            })
            .collect();
        let values: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(values.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(suite.measured_count(), 1);
    }

    #[test]
    fn concurrent_cold_callers_run_exactly_one_sweep() {
        // Single-flight: four threads racing on a cold machine must coalesce
        // onto ONE full MAPS sweep, not run four and discard three.
        let f = Arc::new(fleet());
        let suite = Arc::new(ProbeSuite::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let f = Arc::clone(&f);
                let suite = Arc::clone(&suite);
                std::thread::spawn(move || suite.measure(f.get(MachineId::ArlOpteron)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            suite.measurements_performed(),
            1,
            "cold concurrent callers must share a single measurement"
        );
        assert_eq!(suite.measured_count(), 1);
    }

    #[test]
    fn store_backed_suite_round_trips_and_skips_the_sweep() {
        let dir = std::env::temp_dir().join(format!("metasim-probe-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(metasim_cache::ArtifactStore::open(&dir));
        let f = fleet();
        let m = f.get(MachineId::ArlXeon);

        let cold = ProbeSuite::with_store(Arc::clone(&store));
        let fresh = cold.measure(m);
        assert_eq!(cold.measurements_performed(), 1);
        assert!(store.contains(PROBES_KIND, ProbeSuite::store_key(m)));

        // A new suite (fresh process, same store) loads instead of sweeping.
        let warm = ProbeSuite::with_store(Arc::clone(&store));
        let loaded = warm.measure(m);
        assert_eq!(warm.measurements_performed(), 0, "warm run must not sweep");
        assert_eq!(*fresh, *loaded, "cached probes must equal fresh probes");

        // A corrupted entry is evicted and silently re-measured.
        std::fs::write(
            store.entry_path(PROBES_KIND, ProbeSuite::store_key(m)),
            "junk",
        )
        .unwrap();
        let repaired = ProbeSuite::with_store(Arc::clone(&store));
        let again = repaired.measure(m);
        assert_eq!(repaired.measurements_performed(), 1);
        assert_eq!(*fresh, *again);
        store.clear().unwrap();
    }

    mod chaos {
        use super::*;
        use metasim_chaos::{with_plan, FaultPlan};
        use metasim_obs::{with_recorder, InMemoryRecorder};

        fn plan(seed: u64, spec: &str) -> Arc<FaultPlan> {
            Arc::new(FaultPlan::parse_spec(seed, spec).unwrap())
        }

        #[test]
        fn outage_is_a_typed_failure_not_a_panic() {
            let f = fleet();
            let suite = ProbeSuite::new();
            let failure = with_plan(plan(1, "outage:ARL_Xeon"), || {
                suite.try_measure(f.get(MachineId::ArlXeon)).unwrap_err()
            });
            assert_eq!(failure.machine, MachineId::ArlXeon);
            assert!(failure.reason.contains("outage"), "{failure}");
            // The failure memoizes: still down even after the plan is gone.
            assert!(suite.try_measure(f.get(MachineId::ArlXeon)).is_err());
            assert_eq!(suite.measured_count(), 0);
            // Other machines are unaffected.
            assert!(suite.try_measure(f.get(MachineId::NavoP3)).is_ok());
        }

        #[test]
        fn empty_plan_is_byte_identical_to_no_plan() {
            let f = fleet();
            let m = f.get(MachineId::AscSc45);
            let bare = ProbeSuite::new().measure(m);
            let under_empty_plan = with_plan(plan(42, ""), || ProbeSuite::new().measure(m));
            assert_eq!(
                *bare, *under_empty_plan,
                "an installed empty plan must not move a single value"
            );
        }

        #[test]
        fn noise_perturbs_deterministically_and_stays_physical() {
            let f = fleet();
            let m = f.get(MachineId::ErdcO3800);
            let raw = ProbeSuite::new().measure(m);
            let noisy_a = with_plan(plan(7, "probe-noise:0.05"), || ProbeSuite::new().measure(m));
            let noisy_b = with_plan(plan(7, "probe-noise:0.05"), || ProbeSuite::new().measure(m));
            assert_eq!(*noisy_a, *noisy_b, "same seed, same perturbation");
            assert_ne!(*raw, *noisy_a, "sigma 0.05 must actually perturb");
            let report = audit_value(|a| crate::audit::audit_probes(m, &noisy_a, a));
            assert!(
                report.is_clean(),
                "perturbed probes must still pass the MS1xx physics rules: {}",
                report.summary_line()
            );
        }

        #[test]
        fn transient_failures_recover_and_are_counted() {
            let f = fleet();
            let m = f.get(MachineId::Navo655);
            // Find a seed whose first measure attempt fails and second
            // succeeds — decisions are pure, so this scan is deterministic.
            let seed = (0..10_000u64)
                .find(|&s| {
                    let p = FaultPlan::parse_spec(s, "measure-fail:0.5").unwrap();
                    use metasim_chaos::{site, FaultPoint};
                    let lbl = m.id.label();
                    p.fires(site::MEASURE, &[lbl, "1"]) && !p.fires(site::MEASURE, &[lbl, "2"])
                })
                .expect("some seed fails once then recovers");
            let rec = Arc::new(InMemoryRecorder::new());
            let raw = ProbeSuite::new().measure(m);
            let recovered = with_recorder(rec.clone(), || {
                with_plan(plan(seed, "measure-fail:0.5"), || {
                    ProbeSuite::new().measure(m)
                })
            });
            assert_eq!(*raw, *recovered, "no noise fault → values untouched");
            let snap = rec.metrics_snapshot();
            assert_eq!(snap.counter("chaos.retry.attempts"), 1);
            assert_eq!(snap.counter("chaos.retry.recovered"), 1);
            assert_eq!(snap.counter("chaos.retry.exhausted"), 0);
            assert_eq!(snap.counter("chaos.retry.backoff_ms"), 10);
        }

        #[test]
        fn exhausted_retries_fail_the_machine() {
            let f = fleet();
            let rec = Arc::new(InMemoryRecorder::new());
            let result = with_recorder(rec.clone(), || {
                with_plan(plan(3, "measure-fail:1.0"), || {
                    ProbeSuite::new().try_measure(f.get(MachineId::MhpccP3))
                })
            });
            let failure = result.unwrap_err();
            assert!(failure.reason.contains("attempt 3"), "{failure}");
            let snap = rec.metrics_snapshot();
            assert_eq!(snap.counter("chaos.retry.attempts"), 2);
            assert_eq!(snap.counter("chaos.retry.exhausted"), 1);
        }

        #[test]
        fn store_persists_raw_results_under_noise() {
            let dir = std::env::temp_dir()
                .join(format!("metasim-chaos-probe-store-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = Arc::new(metasim_cache::ArtifactStore::open(&dir));
            let f = fleet();
            let m = f.get(MachineId::Mhpcc690_13);
            let raw = ProbeSuite::new().measure(m);

            // Cold chaos run: measures, stores, perturbs.
            let cold = with_plan(plan(11, "probe-noise:0.05"), || {
                ProbeSuite::with_store(Arc::clone(&store)).measure(m)
            });
            // Warm chaos run: loads the stored entry, perturbs identically.
            let warm_suite = ProbeSuite::with_store(Arc::clone(&store));
            let warm = with_plan(plan(11, "probe-noise:0.05"), || warm_suite.measure(m));
            assert_eq!(warm_suite.measurements_performed(), 0, "warm must load");
            assert_eq!(*cold, *warm, "cold and warm chaos runs must agree");

            // The disk entry itself is the raw, unperturbed measurement.
            let persisted = ProbeSuite::with_store(Arc::clone(&store)).measure(m);
            assert_eq!(*raw, *persisted, "the store must never see noise");
            store.clear().unwrap();
        }
    }
}
