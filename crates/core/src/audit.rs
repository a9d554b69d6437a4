//! Study-layer audit rules (`MS3xx`) and the preflight gate.
//!
//! [`preflight`] statically verifies every input artifact — the fleet
//! configuration, each machine's probe curves and the traces the study will
//! convolve — before the 150-observation grid runs;
//! [`Study::try_run_with_store_jobs`] refuses to start when it reports errors.
//! [`audit_study`] then checks the *outputs*: error accounting per
//! Equation 2, strong-scaling sanity of the measured runtimes, the
//! benchmark-dominance paradox of Tables 2/3, and the Metric #1 = #4
//! identity of Equation 1.

use metasim_apps::registry::all_test_cases;
use metasim_apps::tracing::TraceCache;
use metasim_audit::registry::{MS301, MS302, MS303, MS304, MS305, MS601};
use metasim_audit::{audit_value, AuditPolicy, AuditReport, Auditor};
use metasim_machines::{Fleet, MachineId};
use metasim_memsim::analytic::{audit_tier_budget, Tier};
use metasim_probes::audit::{audit_hit_fractions, audit_probes};
use metasim_probes::suite::{MachineProbes, ProbeSuite};

use crate::study::Study;

/// Slack factor for [`MS302`]: adding processors may fail to help (Amdahl,
/// communication), but runtime should not *grow* by more than this.
const SCALING_TOLERANCE: f64 = 1.05;

/// Audit every static input artifact relative to the auditor's current
/// scope: the fleet (`MS00x`), the measured probe set of each machine
/// (`MS10x`) with its cache simulator (`MS204`, whose samples are read
/// through the suite's profile memo), and the fifteen (case,
/// processor-count) workloads with the traces `traces` serves for them
/// (`MS20x`).
///
/// The probe sets and traces are the ones the study itself reads: a warm
/// `suite` or `traces` serves store loads (already gated by their
/// audit-on-load), a cold one acquires and memoizes them here. A machine
/// an installed fault plan takes down, or a trace it drops, has nothing to
/// audit and is skipped; the study reports the gap (`MS601`).
pub fn audit_inputs(fleet: &Fleet, suite: &ProbeSuite, traces: &TraceCache, a: &mut Auditor) {
    fleet.audit(a);
    // MS801: a suite that may serve analytic-tier measurements must prove
    // the closed-form model tracks the exact simulator on every machine it
    // could be asked about, before any of its numbers enter the study.
    if suite.tier() != Tier::Exact {
        for m in fleet.all() {
            a.scope("tier", |a| {
                a.scope(m.id.to_string(), |a| audit_tier_budget(&m.memory, a));
            });
        }
    }
    for m in fleet.all() {
        let Ok(probes) = suite.try_measure(m) else {
            continue;
        };
        a.scope("probes", |a| {
            a.scope(m.id.to_string(), |a| {
                audit_probes(m, &probes, a);
                audit_hit_fractions(&m.memory, suite.profiles(), a);
            });
        });
    }
    for (case, cpus) in all_test_cases() {
        let workload = case.workload(cpus);
        a.scope(format!("workloads.{case}.{cpus}cpu"), |a| workload.audit(a));
        let Ok(trace) = traces.try_trace(&workload) else {
            continue;
        };
        a.scope(format!("traces.{case}.{cpus}cpu"), |a| trace.audit(a));
    }
}

/// Audit every static input artifact under the default policy.
#[must_use]
pub fn preflight(fleet: &Fleet, suite: &ProbeSuite, traces: &TraceCache) -> AuditReport {
    preflight_with_policy(fleet, suite, traces, AuditPolicy::default())
}

/// [`preflight`] under an explicit policy (allow-list, `--deny-warnings`).
#[must_use]
pub fn preflight_with_policy(
    fleet: &Fleet,
    suite: &ProbeSuite,
    traces: &TraceCache,
    policy: AuditPolicy,
) -> AuditReport {
    let mut a = Auditor::with_policy(policy);
    audit_inputs(fleet, suite, traces, &mut a);
    a.finish()
}

/// True when `a` beats or ties `b` on every headline benchmark score.
fn dominates(a: &MachineProbes, b: &MachineProbes) -> bool {
    a.hpl.rmax_gflops_per_proc >= b.hpl.rmax_gflops_per_proc
        && a.stream.bandwidth >= b.stream.bandwidth
        && a.gups.effective_bandwidth() >= b.gups.effective_bandwidth()
        && a.netbench.latency <= b.netbench.latency
        && a.netbench.bandwidth >= b.netbench.bandwidth
}

/// Audit the *values* of a finished study under a `study` scope: [`MS301`]
/// error accounting, [`MS302`] strong-scaling sanity, [`MS304`] finiteness,
/// [`MS305`] the #1 = #4 identity.
///
/// This subset needs only the study data itself — no fleet, no probe
/// measurements — which makes it cheap enough to run as the audit-on-load
/// gate for persistently cached study results. The full [`audit_study`]
/// adds the probe-dependent [`MS303`] dominance-paradox rule on top.
pub fn audit_study_values(study: &Study, a: &mut Auditor) {
    a.scope("study", |a| {
        // MS601: a partial grid must say so. Tables 4/5 average over the
        // full 150-observation grid; any silent hole skews every mean.
        let coverage = study.coverage();
        if !coverage.is_complete() {
            a.finding_at(
                &MS601,
                "coverage",
                format!(
                    "partial study: {coverage}{}",
                    if coverage.missing_machines.is_empty() {
                        String::new()
                    } else {
                        format!(
                            " (missing: {})",
                            coverage
                                .missing_machines
                                .iter()
                                .map(|m| m.label())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    }
                ),
            );
        }

        // MS304 + MS305: per-observation invariants.
        let mut values_finite = true;
        for o in &study.observations {
            let subject = format!("{}.{}cpu.{}", o.case, o.cpus, o.machine);
            let finite_positive = |x: metasim_units::Seconds| x.is_finite() && x > 0.0;
            if !finite_positive(o.actual) || !finite_positive(o.base_actual) {
                values_finite = false;
                a.finding_at(
                    &MS304,
                    &subject,
                    format!(
                        "measured runtimes must be finite and positive (actual {}, base {})",
                        o.actual, o.base_actual
                    ),
                );
            }
            for (i, p) in o.predictions.iter().enumerate() {
                if !finite_positive(*p) {
                    values_finite = false;
                    a.finding_at(
                        &MS304,
                        &subject,
                        format!(
                            "metric #{} prediction {p} must be finite and positive",
                            i + 1
                        ),
                    );
                }
            }
            if (o.predictions[0] - o.predictions[3]).abs() > (1e-9 * o.predictions[0]).abs() {
                a.finding_at(
                    &MS305,
                    &subject,
                    format!(
                        "metric #4 {} must equal metric #1 {} (Equation 1)",
                        o.predictions[3], o.predictions[0]
                    ),
                );
            }
        }

        // MS301: Table 4 accounting. The mean of |e| can never sit below
        // |mean of e|, and both must be finite. Aggregating requires every
        // runtime to be strictly positive (Equation 2 divides by it, and
        // `percent_error` asserts as much in debug builds), so when MS304
        // already fired the aggregate check is moot — skip it rather than
        // panic on data a corrupted cache entry may have handed us.
        let table4 = if values_finite {
            study.table4()
        } else {
            Vec::new()
        };
        for row in table4 {
            let subject = format!("table4.{}", row.metric);
            if !(row.mean_absolute.is_finite()
                && row.stddev.is_finite()
                && row.mean_signed.is_finite())
            {
                a.finding_at(&MS301, &subject, "error statistics must be finite");
            } else if row.mean_absolute + 1e-9 < row.mean_signed.abs() || row.stddev < 0.0 {
                a.finding_at(
                    &MS301,
                    &subject,
                    format!(
                        "mean |error| {} below |mean signed error| {} (or stddev {} < 0)",
                        row.mean_absolute, row.mean_signed, row.stddev
                    ),
                );
            }
        }

        // MS302: for a fixed (case, machine), measured runtime should not
        // grow with processor count.
        for machine in MachineId::TARGETS {
            let mut rows: Vec<_> = study
                .observations
                .iter()
                .filter(|o| o.machine == machine)
                .collect();
            rows.sort_by_key(|o| (o.case, o.cpus));
            for w in rows.windows(2) {
                if w[0].case == w[1].case && w[1].actual > w[0].actual * SCALING_TOLERANCE {
                    a.finding_at(
                        &MS302,
                        format!("{}.{}", w[0].case, machine),
                        format!(
                            "runtime grows {:.3}s@{} -> {:.3}s@{} processors",
                            w[0].actual, w[0].cpus, w[1].actual, w[1].cpus
                        ),
                    );
                }
            }
        }
    });
}

/// Audit a finished study under a `study` scope: the value-level rules of
/// [`audit_study_values`] plus [`MS303`], the benchmark-dominance paradox,
/// which needs the fleet's probe measurements.
pub fn audit_study(study: &Study, fleet: &Fleet, suite: &ProbeSuite, a: &mut Auditor) {
    audit_study_values(study, a);
    a.scope("study", |a| {
        // MS303: a machine that dominates another on every benchmark score
        // yet measures slower on some observation — the paradox the paper
        // opens with (Tables 2/3). Warn-level: the study data is expected
        // to reproduce it.
        let probes: Vec<_> = fleet
            .targets()
            .filter_map(|m| suite.try_measure(m).ok())
            .collect();
        for pa in &probes {
            for pb in &probes {
                if pa.id == pb.id || !dominates(pa, pb) || dominates(pb, pa) {
                    continue;
                }
                let slower_somewhere = study.observations.iter().any(|oa| {
                    oa.machine == pa.id
                        && study.observations.iter().any(|ob| {
                            ob.machine == pb.id
                                && ob.case == oa.case
                                && ob.cpus == oa.cpus
                                && oa.actual > ob.actual * 1.001
                        })
                });
                if slower_somewhere {
                    a.finding_at(
                        &MS303,
                        format!("{}", pa.id),
                        format!(
                            "{} dominates {} on every benchmark yet measures slower somewhere",
                            pa.id, pb.id
                        ),
                    );
                }
            }
        }
    });
}

impl Study {
    /// Audit this study's outputs against the `MS3xx` rules.
    #[must_use]
    pub fn audit(&self, fleet: &Fleet, suite: &ProbeSuite) -> AuditReport {
        audit_value(|a| audit_study(self, fleet, suite, a))
    }

    /// Audit only the value-level `MS3xx` rules (no probe measurements
    /// needed) — the audit-on-load gate for cached study results.
    #[must_use]
    pub fn audit_values(&self) -> AuditReport {
        audit_value(|a| audit_study_values(self, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::shared_study;
    use metasim_machines::fleet;

    #[test]
    fn preflight_is_clean_on_the_shipped_fleet() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let report = preflight(&f, &suite, &TraceCache::new());
        assert!(!report.has_errors(), "{report}");
    }

    // Preflight reads whatever the suite and trace cache serve. Served from
    // a warm store (probe and trace loads, gated by their audit-on-load),
    // it must report exactly what a cold in-memory run reports, read every
    // probe set and trace from the store, and simulate nothing but one
    // MS204 pass per distinct cache hierarchy.
    #[test]
    fn warm_store_preflight_matches_a_cold_in_memory_one() {
        use std::sync::Arc;

        use metasim_apps::tracing::TRACE_KIND;
        use metasim_cache::ArtifactStore;
        use metasim_memsim::analytic::ResolvedTier;
        use metasim_memsim::bandwidth::ProfileMemo;
        use metasim_obs::InMemoryRecorder;
        use metasim_probes::suite::PROBES_KIND;

        // Exact-simulator addresses `f` issues, counted by the obs layer.
        fn simulated(f: impl FnOnce()) -> u64 {
            let rec = Arc::new(InMemoryRecorder::new());
            metasim_obs::with_recorder(Arc::clone(&rec), f);
            rec.metrics_snapshot().counter("memsim.addresses")
        }

        let f = fleet();
        let cold_suite = ProbeSuite::new();
        let cold_traces = TraceCache::new();
        let cold = preflight(&f, &cold_suite, &cold_traces);

        // Stage the store with the cold run's artifacts, under the keys a
        // store-backed run writes them to.
        let dir = std::env::temp_dir().join(format!("metasim-preflight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir));
        for m in f.all() {
            let key = ProbeSuite::store_key_tiered(m, ResolvedTier::Exact);
            store
                .store(PROBES_KIND, key, &*cold_suite.measure(m))
                .unwrap();
        }
        for (case, cpus) in all_test_cases() {
            let w = case.workload(cpus);
            store
                .store(
                    TRACE_KIND,
                    TraceCache::store_key(&w),
                    &*cold_traces.trace(&w),
                )
                .unwrap();
        }

        let warm_suite = ProbeSuite::with_store(Arc::clone(&store));
        let warm_traces = TraceCache::with_store(Arc::clone(&store));
        let mut warm = AuditReport::default();
        let warm_addresses = simulated(|| warm = preflight(&f, &warm_suite, &warm_traces));
        assert_eq!(warm_suite.measurements_performed(), 0, "probes must load");
        assert_eq!(warm_traces.traces_performed(), 0, "traces must load");
        assert_eq!(
            store.traffic().hits,
            (f.all().count() + all_test_cases().len()) as u64,
            "every probe set and every trace is read from the store"
        );
        // One machine per distinct hierarchy: the paper's 11 machines have 7.
        let mut hierarchies = Vec::new();
        let mut representatives = Vec::new();
        for m in f.all() {
            let h = m.memory.hierarchy();
            if !hierarchies.contains(&h) {
                hierarchies.push(h);
                representatives.push(m);
            }
        }
        assert_eq!(representatives.len(), 7, "distinct paper hierarchies");
        let ms204_addresses = simulated(|| {
            for m in representatives {
                let _ = audit_value(|a| audit_hit_fractions(&m.memory, &ProfileMemo::new(), a));
            }
        });
        assert_eq!(
            warm_addresses, ms204_addresses,
            "MS204 once per distinct hierarchy"
        );
        assert_eq!(warm, cold, "same diagnostics, same order");
        store.clear().unwrap();
    }

    #[test]
    fn study_audit_has_no_errors_on_the_default_study() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let report = shared_study().audit(&f, &suite);
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn doctored_study_fires_ms304_and_ms305() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let mut s = shared_study().clone();
        s.observations[0].actual = metasim_units::Seconds::new(f64::NAN);
        s.observations[1].predictions[3] = s.observations[1].predictions[3] * 2.0;
        let report = s.audit(&f, &suite);
        assert!(report.has_code("MS304"), "{report}");
        assert!(report.has_code("MS305"), "{report}");
        assert!(report.has_errors());
    }

    #[test]
    fn shrinking_runtimes_pass_ms302_and_growth_fires_it() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let mut s = shared_study().clone();
        // Make one (case, machine) series grow dramatically with cpus.
        let (case, machine) = (s.observations[0].case, s.observations[0].machine);
        for o in &mut s.observations {
            if o.case == case && o.machine == machine {
                o.actual = metasim_units::Seconds::new(o.cpus as f64);
            }
        }
        let report = s.audit(&f, &suite);
        assert!(report.has_code("MS302"), "{report}");
    }
}
