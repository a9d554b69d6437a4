//! The full study driver: 5 test cases × 3 processor counts × 10 target
//! systems × 9 metrics = 1,350 predictions against 150 observations,
//! exactly the grid behind the paper's Table 4, Table 5, and Figures 2–7.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use metasim_apps::groundtruth::GroundTruth;
use metasim_apps::registry::{all_test_cases, TestCase};
use metasim_apps::tracing::TraceCache;
use metasim_audit::AuditReport;
use metasim_cache::{content_key, ArtifactKey, ArtifactStore};
use metasim_machines::{Fleet, MachineId};
use metasim_memsim::analytic::Tier;
use metasim_memsim::bandwidth::measure_bandwidth_memo;
use metasim_obs::hdr::LAT_PREDICTION;
use metasim_obs::SpanCtx;
use metasim_probes::audit::hit_fraction_samples;
use metasim_probes::suite::{ProbeFailure, ProbeSuite};
use metasim_stats::error_metrics::{percent_error, ErrorAccumulator};
use metasim_tracer::analysis::analyze_dependencies;
use metasim_units::{Percent, Seconds};

use crate::executor::run_sharded;
use crate::metric::MetricId;
use crate::prediction::predict_all;

/// One (test case, processor count, machine) cell with its nine predictions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Which application test case.
    pub case: TestCase,
    /// Processor count.
    pub cpus: u64,
    /// Target machine.
    pub machine: MachineId,
    /// Ground-truth ("measured") runtime on the target, seconds.
    pub actual: Seconds,
    /// Ground-truth runtime on the base system, seconds.
    pub base_actual: Seconds,
    /// Predicted runtimes, indexed by metric (0 = #1 … 8 = #9).
    pub predictions: [Seconds; 9],
}

impl Observation {
    /// Signed percent error (Equation 2) for one metric.
    #[must_use]
    pub fn signed_error(&self, metric: MetricId) -> Percent {
        percent_error(self.predictions[metric.number() - 1], self.actual)
    }
}

/// One row of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricErrorRow {
    /// The metric.
    pub metric: MetricId,
    /// Average absolute percent error across all observations.
    pub mean_absolute: Percent,
    /// Population standard deviation of the absolute errors.
    pub stddev: Percent,
    /// Mean signed error (bias; not printed in the paper but informative).
    pub mean_signed: Percent,
}

/// One row of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemErrorRow {
    /// The system.
    pub machine: MachineId,
    /// Average absolute percent error per metric (0 = #1 … 8 = #9).
    pub per_metric: [Percent; 9],
}

/// The complete study result set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Study {
    /// All observations — 150 on a full run; fewer when graceful
    /// degradation skipped machines or trace rows (see
    /// [`coverage`](Study::coverage)).
    pub observations: Vec<Observation>,
}

/// How much of the paper's full grid a study actually covers. A fault-free
/// run is complete; a degraded run reports exactly what is missing, so
/// partial tables are annotated instead of silently averaging over holes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Coverage {
    /// Observations present.
    pub observations: usize,
    /// Observations a full grid would hold (cases × counts × targets).
    pub expected_observations: usize,
    /// Target machines with at least one observation.
    pub machines: usize,
    /// Target machines in the full fleet.
    pub expected_machines: usize,
    /// Targets with no observations at all (skipped by degradation).
    pub missing_machines: Vec<MachineId>,
}

impl Coverage {
    /// Whether the grid is the paper's full 150-observation grid.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.observations == self.expected_observations && self.machines == self.expected_machines
    }
}

impl std::fmt::Display for Coverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} systems, {}/{} observations",
            self.machines, self.expected_machines, self.observations, self.expected_observations
        )
    }
}

/// Artifact-store kind directory for persisted whole-study results.
pub const STUDY_KIND: &str = "study";

/// Why [`Study::try_run_with_store_jobs`] computed no study.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyError {
    /// The [`crate::audit::preflight`] audit found error-severity
    /// diagnostics in the fleet configuration or the measured probe curves.
    Preflight(AuditReport),
    /// The base system's probes are unavailable (an outage, or retries
    /// exhausted under a fault plan). It is not degradable like a target:
    /// every prediction scales from its measured runtime (Equation 1).
    BaseUnavailable(ProbeFailure),
}

impl std::fmt::Display for StudyError {
    /// One line; a preflight failure gives the report's totals, and the
    /// report itself renders the findings.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Preflight(report) => write!(
                f,
                "study preflight found error-severity diagnostics: {}",
                report.summary_line()
            ),
            Self::BaseUnavailable(e) => {
                write!(f, "the base system is required by Equation 1: {e}")
            }
        }
    }
}

impl std::error::Error for StudyError {}

impl Study {
    /// The computation behind [`run_with_store_jobs`](Self::run_with_store_jobs),
    /// with an explicit trace cache, so a store-backed run can reuse
    /// persisted application traces (`metasim_apps::tracing::TRACE_KIND`
    /// entries) even when the whole-study entry itself missed. All spans
    /// nest under `ctx` (the caller's root `study` span).
    ///
    /// The phases are ordered so that no prediction cell ever blocks on
    /// another cell's cold measurement: preflight warms every machine's
    /// probes and audits the traces `traces` serves (warming them too), a
    /// ground-truth phase warms every (case, cpus, machine) cell including
    /// the base system, and only then does the prediction pass run against
    /// purely warm caches. Each phase goes through one
    /// [`run_sharded`] call over the phase's independent cells (see
    /// [`crate::executor`]), which runs inline at `jobs <= 1`.
    ///
    /// The phase spans are the study's only timing record: a recorder
    /// installed around the run turns them into the run manifest.
    ///
    /// # Errors
    /// [`StudyError::BaseUnavailable`] when the base system cannot be
    /// measured, then [`StudyError::Preflight`] when the preflight audit
    /// finds errors; either way before any ground-truth work.
    fn compute(
        ctx: SpanCtx,
        fleet: &Fleet,
        suite: &ProbeSuite,
        gt: &GroundTruth,
        traces: &TraceCache,
        jobs: usize,
    ) -> Result<Self, StudyError> {
        // Preflight: statically verify every input artifact. The phase span
        // closes *before* the error gates below so a failed preflight still
        // shows up — with its wall time — in the recorder.
        let pre = ctx.span("phase:preflight");
        // Warm every machine's probe sweep and its two MS204 samples so the
        // audit below reads purely warm single-flight cells. A failing sweep
        // is not an error here — the audit and the alive filter below decide
        // what a failure means — and leaves MS204 unsampled, as the audit
        // skips it too.
        run_sharded(pre.ctx(), jobs, MachineId::ALL.to_vec(), |machine| {
            let m = fleet.get(machine);
            if suite.try_measure(m).is_ok() {
                for (_, workload) in hit_fraction_samples() {
                    let _ = measure_bandwidth_memo(&m.memory, &workload, suite.profiles());
                }
            }
        });
        let report = crate::audit::preflight(fleet, suite, traces);
        metasim_obs::counter_add("audit.findings", report.diagnostics.len() as u64);
        let base_cfg = fleet.base();
        // The base system is not degradable: every prediction scales from
        // its measured runtime (Equation 1), so losing it loses the study.
        let base_probes = suite
            .try_measure(base_cfg)
            .map_err(StudyError::BaseUnavailable)?;
        // Graceful degradation: a target whose probes are unavailable
        // (outage or exhausted retries under an installed fault plan) is
        // skipped, not fatal. `Study::coverage` and MS601 report the gap.
        let alive: Vec<MachineId> = MachineId::TARGETS
            .into_iter()
            .filter(|&machine| match suite.try_measure(fleet.get(machine)) {
                Ok(_) => true,
                Err(_) => {
                    metasim_obs::counter_add("chaos.machine.skipped", 1);
                    false
                }
            })
            .collect();
        drop(pre);
        if report.has_errors() {
            return Err(StudyError::Preflight(report));
        }

        // Warm every ground-truth cell: the 165-cell grid flattened in
        // canonical order, each (case, cpus) with the base system first
        // (every cell scales from it), then the alive targets. Every cell
        // is independent of the others, and the single-flight memo
        // coalesces any shard racing another to the same base cell.
        let gt_span = ctx.span("phase:ground-truth");
        let mut cells: Vec<(TestCase, u64, MachineId)> = Vec::new();
        for (case, cpus) in all_test_cases() {
            cells.push((case, cpus, MachineId::NavoP690Base));
            for &machine in &alive {
                cells.push((case, cpus, machine));
            }
        }
        run_sharded(gt_span.ctx(), jobs, cells, |(case, cpus, machine)| {
            let _m = metasim_obs::span(format!("cell:{case}/{cpus}/{machine}"));
            let _ = gt.run(case, cpus, fleet.get(machine));
        });
        drop(gt_span);

        // The prediction cut: (case, cpus) groups are independent, traces
        // are single-flight, every ground-truth read is warm, and the
        // groups come back in canonical order.
        let pred_span = ctx.span("phase:predictions");
        let observations: Vec<Observation> =
            run_sharded(pred_span.ctx(), jobs, all_test_cases(), |(case, cpus)| {
                let app = metasim_obs::span(format!("app:{case}"));
                let cpu = app.ctx().span(format!("cpus:{cpus}"));
                // A dropped trace loses this (case, cpus) row across every
                // machine — traces are collected once on the base system —
                // but not the rest of the grid.
                let trace = match traces.try_trace(&case.workload(cpus)) {
                    Ok(trace) => trace,
                    Err(_) => {
                        metasim_obs::counter_add("chaos.trace.skipped", 1);
                        return Vec::new();
                    }
                };
                let labels = analyze_dependencies(&trace.blocks);
                let base_actual = Seconds::new(gt.run(case, cpus, base_cfg).seconds);
                let cpu_ctx = cpu.ctx();
                alive
                    .iter()
                    .map(|&machine| {
                        let m_span = cpu_ctx.span(format!("machine:{machine}"));
                        let target_cfg = fleet.get(machine);
                        let actual = Seconds::new(gt.run(case, cpus, target_cfg).seconds);
                        let target_probes = suite.measure(target_cfg);
                        let predictions =
                            predict_all(&trace, &labels, &target_probes, &base_probes, base_actual);
                        let obs = Observation {
                            case,
                            cpus,
                            machine,
                            actual,
                            base_actual,
                            predictions,
                        };
                        metasim_obs::observe_hdr(LAT_PREDICTION, m_span.finish());
                        obs
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

        let mut study = Self { observations };
        // The grid's canonical order, whatever order the groups produced.
        study
            .observations
            .sort_by_key(|o| (o.case, o.cpus, o.machine));
        study.record_obs_metrics();
        drop(pred_span);
        Ok(study)
    }

    /// Feed the finished grid into the metrics registry: the signed-error
    /// distribution across all 1,350 predictions plus grid-shape gauges.
    /// No-op without a recorder.
    fn record_obs_metrics(&self) {
        if !metasim_obs::recording() {
            return;
        }
        for o in &self.observations {
            for metric in MetricId::ALL {
                metasim_obs::observe(
                    metasim_obs::recorder::SIGNED_ERROR_HISTOGRAM,
                    o.signed_error(metric).get(),
                );
            }
        }
        metasim_obs::gauge_set("study.observations", self.observations.len() as f64);
        metasim_obs::gauge_set("study.predictions", self.prediction_count() as f64);
    }

    /// The content key a whole-study result is stored under: the full
    /// serialized fleet, so editing any machine spec re-runs the study.
    /// This is the exact-tier key; non-exact tiers persist under a
    /// tier-tagged sibling ([`store_key_tiered`](Self::store_key_tiered)).
    #[must_use]
    pub fn store_key(fleet: &Fleet) -> ArtifactKey {
        content_key(&[STUDY_KIND], fleet)
    }

    /// The content key for a study run under `tier`. Exact keeps the
    /// original key (byte-identical to pre-tier studies); other tiers get
    /// their own key space so switching tiers can never serve a
    /// model-mismatched cached study.
    #[must_use]
    pub fn store_key_tiered(fleet: &Fleet, tier: Tier) -> ArtifactKey {
        match tier {
            Tier::Exact => Self::store_key(fleet),
            tier => content_key(&[STUDY_KIND, &tier.to_string()], fleet),
        }
    }

    /// Run the full study on `fleet`: the one entry point that computes a
    /// study. The `bool` is `true` when the study was loaded whole from
    /// `store`. Phase wall times are spans, read from the run manifest of a
    /// recorder installed around the call.
    ///
    /// With a store, a warm hit loads the whole result set in one read —
    /// validated on load by the value-level `MS3xx` audit rules plus a
    /// grid-shape check; any error-severity diagnostic evicts the entry and
    /// the study recomputes (and rewrites it). Serde round-trips are
    /// bit-identical, so a loaded study compares equal to a freshly
    /// computed one. `store: None` always computes.
    ///
    /// The computation is sharded across `jobs` worker threads; `jobs <= 1`
    /// runs every phase inline on the calling thread. Any `jobs` produces
    /// the identical `Study` — results are merged in canonical order and
    /// every per-cell computation is a pure, memoized function of its
    /// coordinates (pinned by `parallel_study_matches_serial_exactly`) —
    /// and a cold run stores the identical bytes.
    ///
    /// # Panics
    /// Refuses to run, panicking with the one-line error, where
    /// [`try_run_with_store_jobs`](Self::try_run_with_store_jobs) returns
    /// an `Err` (compute path only).
    #[must_use]
    pub fn run_with_store_jobs(
        fleet: &Fleet,
        suite: &ProbeSuite,
        gt: &GroundTruth,
        store: Option<&ArtifactStore>,
        jobs: usize,
    ) -> (Self, bool) {
        Self::try_run_with_store_jobs(fleet, suite, gt, store, jobs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run_with_store_jobs`](Self::run_with_store_jobs), returning why no
    /// study could be computed instead of panicking.
    ///
    /// # Errors
    /// A [`StudyError`] when the preflight audit finds error-severity
    /// diagnostics or the base system cannot be measured (compute path
    /// only: a stored study was audited when it was written and on load).
    pub fn try_run_with_store_jobs(
        fleet: &Fleet,
        suite: &ProbeSuite,
        gt: &GroundTruth,
        store: Option<&ArtifactStore>,
        jobs: usize,
    ) -> Result<(Self, bool), StudyError> {
        // A run under a fault plan neither reads nor writes the whole-study
        // store: a cached full grid would mask the injected faults, and a
        // partial grid must never poison fault-free runs. Plans are
        // per-thread, so ask `point` (this thread's plan), not `active`,
        // which counts `with_plan` scopes open on any thread.
        let store = store.filter(|_| metasim_chaos::point().is_none());
        let root = metasim_obs::span("study");
        let ctx = root.ctx();
        if let Some(store) = store {
            let load = ctx.span("phase:load");
            let expected = all_test_cases().len() * MachineId::TARGETS.len();
            let key = Self::store_key_tiered(fleet, suite.tier());
            let loaded = store.load_validated(STUDY_KIND, key, |s: &Study| {
                if s.observations.len() != expected {
                    return Err(format!(
                        "grid holds {} observations, expected {expected}",
                        s.observations.len()
                    ));
                }
                let report = s.audit_values();
                if report.has_errors() {
                    return Err(format!("audit-on-load failed: {}", report.summary_line()));
                }
                Ok(())
            });
            drop(load);
            if let Some(study) = loaded {
                study.record_obs_metrics();
                return Ok((study, true));
            }
        }
        let traces = match store {
            Some(store) => TraceCache::with_store(Arc::new(store.clone())),
            None => TraceCache::new(),
        };
        let study = Self::compute(ctx, fleet, suite, gt, &traces, jobs)?;
        if let Some(store) = store {
            let _write = ctx.span("store-write");
            let _ = store.store(
                STUDY_KIND,
                Self::store_key_tiered(fleet, suite.tier()),
                &study,
            );
        }
        Ok((study, false))
    }

    /// Table 4: per-metric average absolute error and standard deviation.
    ///
    /// One pass over the observations with nine running accumulators
    /// (instead of nine full scans); each accumulator sees the same error
    /// sequence in the same order as the multi-scan version, so the
    /// statistics are bit-identical.
    #[must_use]
    pub fn table4(&self) -> Vec<MetricErrorRow> {
        let mut accs: [ErrorAccumulator; 9] = std::array::from_fn(|_| ErrorAccumulator::new());
        for o in &self.observations {
            for (acc, metric) in accs.iter_mut().zip(MetricId::ALL) {
                acc.record_signed_error(o.signed_error(metric));
            }
        }
        MetricId::ALL
            .into_iter()
            .zip(accs)
            .map(|(metric, acc)| MetricErrorRow {
                metric,
                mean_absolute: acc.mean_absolute(),
                stddev: acc.stddev_absolute(),
                mean_signed: acc.mean_signed(),
            })
            .collect()
    }

    /// Table 5: per-system rows plus the overall row is `table4`.
    ///
    /// Single pass: a (system × metric) accumulator grid replaces the 90
    /// filtered re-scans of the observation list. Machines with *no*
    /// observations (skipped by graceful degradation) are omitted rather
    /// than rendered as rows of NaN means — renderers pair the rows with
    /// [`coverage`](Study::coverage) to say what is missing.
    #[must_use]
    pub fn table5(&self) -> Vec<SystemErrorRow> {
        let mut accs: Vec<[ErrorAccumulator; 9]> = MachineId::TARGETS
            .iter()
            .map(|_| std::array::from_fn(|_| ErrorAccumulator::new()))
            .collect();
        let mut seen = [false; MachineId::TARGETS.len()];
        for o in &self.observations {
            let Some(row) = MachineId::TARGETS.iter().position(|&m| m == o.machine) else {
                continue;
            };
            seen[row] = true;
            for (acc, metric) in accs[row].iter_mut().zip(MetricId::ALL) {
                acc.record_signed_error(o.signed_error(metric));
            }
        }
        MachineId::TARGETS
            .into_iter()
            .zip(accs)
            .zip(seen)
            .filter(|(_, seen)| *seen)
            .map(|((machine, accs), _)| SystemErrorRow {
                machine,
                per_metric: std::array::from_fn(|i| accs[i].mean_absolute()),
            })
            .collect()
    }

    /// Figure 3–7 data: for one test case, average absolute error per
    /// (processor count, metric) across the ten systems. Single filtered
    /// pass, accumulating all (count, metric) rows at once.
    #[must_use]
    pub fn errors_by_app(&self, case: TestCase) -> Vec<(u64, [Percent; 9])> {
        let counts = case.cpu_counts();
        let mut accs: Vec<[ErrorAccumulator; 9]> = counts
            .iter()
            .map(|_| std::array::from_fn(|_| ErrorAccumulator::new()))
            .collect();
        for o in self.observations.iter().filter(|o| o.case == case) {
            let Some(row) = counts.iter().position(|&c| c == o.cpus) else {
                continue;
            };
            for (acc, metric) in accs[row].iter_mut().zip(MetricId::ALL) {
                acc.record_signed_error(o.signed_error(metric));
            }
        }
        counts
            .into_iter()
            .zip(accs)
            .map(|(cpus, accs)| (cpus, std::array::from_fn(|i| accs[i].mean_absolute())))
            .collect()
    }

    /// How much of the full grid this study covers. Derived entirely from
    /// the observations, so it is meaningful for loaded studies too.
    #[must_use]
    pub fn coverage(&self) -> Coverage {
        let missing_machines: Vec<MachineId> = MachineId::TARGETS
            .into_iter()
            .filter(|&m| !self.observations.iter().any(|o| o.machine == m))
            .collect();
        Coverage {
            observations: self.observations.len(),
            expected_observations: all_test_cases().len() * MachineId::TARGETS.len(),
            machines: MachineId::TARGETS.len() - missing_machines.len(),
            expected_machines: MachineId::TARGETS.len(),
            missing_machines,
        }
    }

    /// Total prediction count (should be 1,350).
    #[must_use]
    pub fn prediction_count(&self) -> usize {
        self.observations.len() * 9
    }
}

/// The default fleet's store-less serial study, computed once per test
/// binary for the tests that only read it.
#[cfg(test)]
pub(crate) fn shared_study() -> &'static Study {
    static STUDY: std::sync::OnceLock<Study> = std::sync::OnceLock::new();
    STUDY.get_or_init(|| {
        let f = metasim_machines::fleet();
        Study::run_with_store_jobs(&f, &ProbeSuite::new(), &GroundTruth::new(), None, 1).0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim_machines::fleet;

    fn study() -> &'static Study {
        shared_study()
    }

    #[test]
    fn grid_dimensions_match_the_paper() {
        let s = study();
        assert_eq!(s.observations.len(), 150, "5 cases x 3 counts x 10 systems");
        assert_eq!(s.prediction_count(), 1350, "9 metrics x 150");
    }

    #[test]
    fn parallel_study_matches_serial_exactly() {
        // Index-addressed results, disjoint per-cell noise
        // streams and single-flight memos, checked end to end: sharding
        // the study moves no output bit.
        let serial = study();
        let f = fleet();
        let suite = ProbeSuite::new();
        let gt = GroundTruth::new();
        let rec = Arc::new(metasim_obs::InMemoryRecorder::new());
        let (parallel, loaded_from_cache) = metasim_obs::with_recorder(rec.clone(), || {
            Study::run_with_store_jobs(&f, &suite, &gt, None, 4)
        });
        assert_eq!(parallel.observations, serial.observations);
        // Bit-for-bit: the serialized artifact (what the store and the
        // CSV exports are derived from) is identical too.
        assert_eq!(
            serde_json::to_string(&parallel).unwrap(),
            serde_json::to_string(serial).unwrap()
        );
        assert!(!loaded_from_cache);
        // The manifest shows the shard layout: every phase ran sharded.
        let spans = rec.span_records();
        let shard_count = spans.iter().filter(|s| s.name == "shard:0").count();
        assert_eq!(
            shard_count, 3,
            "preflight, ground truth, and predictions each sharded"
        );
        let phases: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("phase:"))
            .collect();
        let all_shards: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("shard:"))
            .collect();
        for shard in &all_shards {
            assert!(
                phases.iter().any(|p| p.id == shard.parent),
                "shard spans hang off a phase span"
            );
        }
        // Every shard recorded its wall time into the latency histogram.
        assert_eq!(
            rec.metrics_snapshot()
                .hdr(metasim_obs::hdr::LAT_SHARD)
                .expect("lat.shard histogram")
                .count(),
            all_shards.len() as u64
        );
        // The parallel run exports as a valid Chrome trace with one lane
        // per shard worker plus the main lane.
        let manifest = metasim_obs::manifest::RunManifest::build(
            &rec,
            metasim_obs::manifest::ManifestMeta::default(),
        );
        let trace = metasim_obs::export::chrome_trace(&manifest);
        let stats = metasim_obs::export::validate_chrome_trace(&trace).expect("valid trace");
        assert_eq!(stats.pairs, spans.len());
        assert_eq!(stats.tracks, 5, "main lane + 4 shard-worker lanes");
    }

    #[test]
    fn full_grid_coverage_is_complete() {
        let cov = study().coverage();
        assert!(cov.is_complete(), "the default fleet covers the full grid");
        assert!(cov.missing_machines.is_empty());
        assert_eq!(cov.to_string(), "10/10 systems, 150/150 observations");
        assert_eq!(
            study().table5().len(),
            MachineId::TARGETS.len(),
            "a complete grid renders every Table 5 row"
        );
    }

    #[test]
    fn every_observation_is_finite_and_positive() {
        for o in &study().observations {
            assert!(o.actual > 0.0 && o.actual.is_finite());
            assert!(o.base_actual > 0.0);
            for (i, p) in o.predictions.iter().enumerate() {
                assert!(
                    *p > 0.0 && p.is_finite(),
                    "{:?}@{} on {}: metric {} -> {p}",
                    o.case,
                    o.cpus,
                    o.machine,
                    i + 1
                );
            }
        }
    }

    #[test]
    fn metric4_column_equals_metric1_column() {
        for o in &study().observations {
            assert!(
                (o.predictions[0] - o.predictions[3]).abs() / o.predictions[0] < 1e-9,
                "#1 and #4 must be identical predictions"
            );
        }
    }

    #[test]
    fn table4_shape_matches_the_paper() {
        let t4 = study().table4();
        let err = |m: MetricId| t4[m.number() - 1].mean_absolute;

        // (i) HPL is the worst simple metric; GUPS the best.
        assert!(
            err(MetricId::S1Hpl) > err(MetricId::S2Stream),
            "HPL > STREAM"
        );
        assert!(
            err(MetricId::S2Stream) > err(MetricId::S3Gups),
            "STREAM > GUPS"
        );

        // (ii) The convolution metrics #6-#9 all beat every simple metric.
        for conv in [
            MetricId::P6HplStreamGups,
            MetricId::P7HplMaps,
            MetricId::P8HplMapsNet,
            MetricId::P9HplMapsNetDep,
        ] {
            for simple in [MetricId::S1Hpl, MetricId::S2Stream, MetricId::S3Gups] {
                assert!(err(conv) < err(simple), "{conv} vs {simple}");
            }
        }

        // (iii) #9 is the best predictor overall.
        for other in MetricId::ALL {
            if other != MetricId::P9HplMapsNetDep {
                assert!(
                    err(MetricId::P9HplMapsNetDep) <= err(other),
                    "#9 must win: {} vs {other} {}",
                    err(MetricId::P9HplMapsNetDep),
                    err(other)
                );
            }
        }

        // (iv) the paper's anomaly: cache-aware-but-dependency-blind #7 is
        // not better than the cruder #6 (allow a small tolerance).
        assert!(
            err(MetricId::P7HplMaps) >= err(MetricId::P6HplStreamGups) - 2.0,
            "#7 {} should not beat #6 {} materially",
            err(MetricId::P7HplMaps),
            err(MetricId::P6HplStreamGups)
        );

        // (v) the network term helps: #8 <= #7.
        assert!(
            err(MetricId::P8HplMapsNet) <= err(MetricId::P7HplMaps) + 0.5,
            "#8 {} vs #7 {}",
            err(MetricId::P8HplMapsNet),
            err(MetricId::P7HplMaps)
        );

        // (vi) "approximately 80% accuracy" band for the convolution
        // metrics; simple metrics far outside it.
        assert!(err(MetricId::P9HplMapsNetDep) < 30.0);
        assert!(err(MetricId::S1Hpl) > 35.0);
    }

    #[test]
    fn table5_overall_row_matches_table4() {
        let s = study();
        let t4 = s.table4();
        let t5 = s.table5();
        assert_eq!(t5.len(), 10);
        // The overall row of Table 5 is the Table 4 column: check one
        // metric by recomputing the weighted mean over systems (equal
        // observation counts per system make it the plain mean).
        for (i, _) in MetricId::ALL.iter().enumerate() {
            let mean_over_systems: f64 =
                t5.iter().map(|r| r.per_metric[i].get()).sum::<f64>() / t5.len() as f64;
            assert!(
                (mean_over_systems - t4[i].mean_absolute.get()).abs() < 1e-6,
                "metric {}: {} vs {}",
                i + 1,
                mean_over_systems,
                t4[i].mean_absolute
            );
        }
    }

    #[test]
    fn per_app_errors_cover_all_cases() {
        let s = study();
        for case in TestCase::ALL {
            let rows = s.errors_by_app(case);
            assert_eq!(rows.len(), 3);
            for (cpus, errors) in rows {
                assert!(case.cpu_counts().contains(&cpus));
                assert!(errors.iter().all(|e| e.is_finite() && *e >= 0.0));
            }
        }
    }

    #[test]
    fn study_outputs_match_the_golden_digest() {
        // FNV-1a over the little-endian `to_bits` of every observation's
        // actual runtime and its nine predictions, in grid order. The
        // constant was captured at commit 5007279 (before the formula IR
        // replaced the hand-written convolver as the prediction
        // evaluator); any drift in any output bit changes it.
        const GOLDEN: u64 = 0x439f_ccbf_c2b7_e81a;
        let mut h = metasim_stats::rng::FNV_OFFSET;
        for o in &study().observations {
            for v in std::iter::once(o.actual).chain(o.predictions) {
                for b in v.get().to_bits().to_le_bytes() {
                    h = metasim_stats::rng::fnv1a_step(h, b);
                }
            }
        }
        assert_eq!(h, GOLDEN, "study digest {h:#018x} moved");
    }

    #[test]
    fn study_is_deterministic() {
        // Two independent runs (fresh caches) must agree bit-for-bit. One
        // of them runs under a recorder, which doubles as the proof that
        // instrumentation changes no study output — and lets us check the
        // span tree covers every phase and all nine metric spans.
        let f = fleet();
        let rec = Arc::new(metasim_obs::InMemoryRecorder::new());
        let a = metasim_obs::with_recorder(Arc::clone(&rec), || {
            Study::run_with_store_jobs(&f, &ProbeSuite::new(), &GroundTruth::new(), None, 1).0
        });
        assert_eq!(&a, shared_study());

        let names: Vec<String> = rec.span_records().into_iter().map(|s| s.name).collect();
        assert!(names.iter().any(|n| n == "study"), "root span missing");
        for phase in ["phase:preflight", "phase:ground-truth", "phase:predictions"] {
            assert!(names.iter().any(|n| n == phase), "missing {phase}");
        }
        for metric in MetricId::ALL {
            let label = format!("metric:{}", metric.short_label());
            assert!(names.contains(&label), "missing {label}");
        }

        let snap = rec.metrics_snapshot();
        let hist = snap
            .histogram(metasim_obs::recorder::SIGNED_ERROR_HISTOGRAM)
            .expect("signed-error histogram");
        assert_eq!(hist.count(), 1350, "one signed error per prediction");
        assert_eq!(snap.gauge("study.predictions"), Some(1350.0));
        assert!(snap.counter("probes.sweeps") >= 11, "11 machines sweep");
        assert!(
            snap.counter("groundtruth.executions") >= 165,
            "150 + 15 base"
        );
        assert!(snap.counter("traces.performed") >= 15, "15 (case, cpus)");
        assert!(snap.counter("convolver.terms") > 0);
        assert!(snap.counter("memsim.addresses") > 0);

        // The latency histograms cover the per-prediction and per-probe
        // span durations with usable quantiles.
        let lat = snap
            .hdr(metasim_obs::hdr::LAT_PREDICTION)
            .expect("lat.prediction histogram");
        assert_eq!(lat.count(), 150, "one latency sample per observation");
        assert!(lat.quantile(0.99).unwrap() >= lat.quantile(0.50).unwrap());
        assert!(
            snap.hdr(metasim_obs::hdr::LAT_PROBE_SWEEP)
                .expect("lat.probe_sweep histogram")
                .count()
                >= 11,
            "every cold sweep times itself"
        );

        // The recorded (serial) run also round-trips into a schema-valid
        // Chrome trace.
        let manifest = metasim_obs::manifest::RunManifest::build(
            &rec,
            metasim_obs::manifest::ManifestMeta::default(),
        );
        let trace = metasim_obs::export::chrome_trace(&manifest);
        let stats = metasim_obs::export::validate_chrome_trace(&trace).expect("valid trace");
        assert!(stats.pairs >= 1500, "study + phases + 1350 metric spans");
    }

    #[test]
    fn failed_preflight_still_records_the_phase_span() {
        use serde::{Deserialize as _, Serialize as _, Value};

        // Doctor one machine's app efficiency above its HPL efficiency
        // (an MS002 error) through the serde value tree — the round trip
        // bypasses Fleet::new's constructor gate exactly like a hand-edited
        // config file would.
        fn first_machine_app_eff(v: &mut Value) -> Option<&mut Value> {
            let Value::Object(fields) = v else {
                return None;
            };
            let machines = &mut fields.iter_mut().find(|(k, _)| k == "machines")?.1;
            let Value::Array(items) = machines else {
                return None;
            };
            let Value::Object(machine) = items.first_mut()? else {
                return None;
            };
            let proc_spec = &mut machine.iter_mut().find(|(k, _)| k == "processor")?.1;
            let Value::Object(proc_fields) = proc_spec else {
                return None;
            };
            Some(
                &mut proc_fields
                    .iter_mut()
                    .find(|(k, _)| k == "app_flop_efficiency")?
                    .1,
            )
        }
        let mut v = fleet().to_value();
        let eff = first_machine_app_eff(&mut v).expect("fleet JSON shape");
        *eff = Value::F64(5.0);
        let bad = Fleet::from_value(&v).expect("doctored fleet still parses");

        let rec = Arc::new(metasim_obs::InMemoryRecorder::new());
        let result = metasim_obs::with_recorder(Arc::clone(&rec), || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Study::run_with_store_jobs(&bad, &ProbeSuite::new(), &GroundTruth::new(), None, 1)
            }))
        });
        assert!(result.is_err(), "doctored fleet must fail preflight");
        let err =
            Study::try_run_with_store_jobs(&bad, &ProbeSuite::new(), &GroundTruth::new(), None, 1)
                .unwrap_err();
        let StudyError::Preflight(report) = &err else {
            panic!("expected a preflight error, got {err:?}");
        };
        assert!(report.has_errors());
        assert!(!err.to_string().contains('\n'), "one line: {err}");

        // The satellite guarantee: the preflight phase is reported — with a
        // wall time — even though preflight itself aborted the study.
        let spans = rec.span_records();
        let pre = spans
            .iter()
            .find(|s| s.name == "phase:preflight")
            .expect("failed preflight must still record its span");
        assert!(pre.dur_ns.is_some(), "the span must close with a duration");
        assert!(
            spans.iter().all(|s| s.name != "phase:ground-truth"),
            "no later phase may run after a failed preflight"
        );
        assert!(
            rec.metrics_snapshot().counter("audit.findings") > 0,
            "the findings counter must reflect the failure"
        );
    }

    #[test]
    fn cached_study_loads_bit_identical() {
        let dir = std::env::temp_dir().join(format!("metasim-study-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir);
        let f = fleet();
        let fresh = study();
        store
            .store(STUDY_KIND, Study::store_key(&f), fresh)
            .unwrap();

        let (loaded, loaded_from_cache) = Study::run_with_store_jobs(
            &f,
            &ProbeSuite::new(),
            &GroundTruth::new(),
            Some(&store),
            1,
        );
        assert!(loaded_from_cache, "warm store must serve the load");
        assert_eq!(fresh, &loaded, "cached study must equal the fresh study");
        // Bit-for-bit, not merely PartialEq: identical serialized text.
        assert_eq!(
            serde_json::to_string(fresh).unwrap(),
            serde_json::to_string(&loaded).unwrap()
        );
        store.clear().unwrap();
    }

    #[test]
    fn doctored_store_entry_is_rejected_and_recomputed() {
        let dir =
            std::env::temp_dir().join(format!("metasim-study-badstore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir);
        let f = fleet();
        let mut doctored = study().clone();
        doctored.observations[0].actual = Seconds::new(f64::NAN);
        // NaN cannot survive the JSON layer; smuggle the corruption in as a
        // negative runtime instead, which the MS304 audit-on-load catches.
        doctored.observations[0].actual = Seconds::new(-5.0);
        store
            .store(STUDY_KIND, Study::store_key(&f), &doctored)
            .unwrap();

        let (recomputed, loaded_from_cache) = Study::run_with_store_jobs(
            &f,
            &ProbeSuite::new(),
            &GroundTruth::new(),
            Some(&store),
            1,
        );
        assert!(
            !loaded_from_cache,
            "audit-on-load must reject the doctored entry"
        );
        assert_eq!(&recomputed, study(), "fallback recomputes the true study");
        // The recompute rewrote a good entry over the doctored one.
        let (reloaded, reloaded_from_cache) = Study::run_with_store_jobs(
            &f,
            &ProbeSuite::new(),
            &GroundTruth::new(),
            Some(&store),
            1,
        );
        assert!(reloaded_from_cache);
        assert_eq!(reloaded, recomputed);
        store.clear().unwrap();
    }

    mod chaos {
        use super::*;
        use metasim_chaos::FaultPlan;

        #[test]
        fn empty_fault_plan_reproduces_the_seed_study_bit_for_bit() {
            // The satellite guarantee: a plan with zero fault sites must be
            // byte-invisible — identical serialized text, not merely
            // PartialEq — for any seed.
            let f = fleet();
            let under_plan = metasim_chaos::with_plan(Arc::new(FaultPlan::empty(42)), || {
                Study::run_with_store_jobs(&f, &ProbeSuite::new(), &GroundTruth::new(), None, 1).0
            });
            let bare = study();
            assert_eq!(&under_plan, bare);
            assert_eq!(
                serde_json::to_string(bare).unwrap(),
                serde_json::to_string(&under_plan).unwrap(),
                "an empty fault plan must be byte-invisible"
            );
        }

        #[test]
        fn degraded_runs_are_identical_at_any_job_count() {
            // Serial and sharded runs under the CI chaos plan (where the
            // retries absorb every trace drop) and under a harsher
            // trace-drop rate that loses one (case, cpus) row: the outage
            // and trace-skip paths run inside `run_sharded`, so a worker
            // must see the fault decisions the inline path does. The
            // analytic tier keeps the probe sweeps cheap, and ground truth,
            // which has no fault seam, is executed once and shared.
            let f = fleet();
            let gt = GroundTruth::new();
            for (spec, coverage) in [
                (
                    "probe-noise:0.05,measure-fail:0.2,trace-drop:0.1,outage:ARL_Xeon",
                    "9/10 systems, 135/150 observations",
                ),
                (
                    "trace-drop:0.5,outage:ARL_Xeon",
                    "9/10 systems, 126/150 observations",
                ),
            ] {
                let run = |jobs| {
                    let plan = FaultPlan::parse_spec(42, spec).unwrap();
                    metasim_chaos::with_plan(Arc::new(plan), || {
                        let suite = ProbeSuite::new().with_tier(Tier::Analytic);
                        Study::run_with_store_jobs(&f, &suite, &gt, None, jobs).0
                    })
                };
                let serial = run(1);
                assert_eq!(serial.coverage().to_string(), coverage, "{spec}");
                assert_eq!(
                    serde_json::to_string(&serial).unwrap(),
                    serde_json::to_string(&run(2)).unwrap(),
                    "{spec}: a degraded run must not depend on the job count"
                );
            }
        }

        #[test]
        fn machine_outage_yields_partial_but_honest_tables() {
            let f = fleet();
            let plan = FaultPlan::parse_spec(7, "outage:ARL_Xeon").unwrap();
            let s = metasim_chaos::with_plan(Arc::new(plan), || {
                Study::run_with_store_jobs(&f, &ProbeSuite::new(), &GroundTruth::new(), None, 1).0
            });
            assert_eq!(s.observations.len(), 135, "9 machines x 15 workloads");
            let cov = s.coverage();
            assert!(!cov.is_complete());
            assert_eq!(cov.to_string(), "9/10 systems, 135/150 observations");
            assert_eq!(cov.missing_machines, vec![MachineId::ArlXeon]);
            assert_eq!(s.table5().len(), 9, "Table 5 omits the dead machine");
            assert_eq!(s.table4().len(), 9, "Table 4 still has all nine metrics");
            let report = s.audit_values();
            assert!(report.has_code("MS601"), "{report}");
            assert!(
                !report.has_errors(),
                "partial coverage is a warning, not an error: {report}"
            );
        }

        #[test]
        fn an_unmeasurable_base_system_is_an_error() {
            let plan = FaultPlan::parse_spec(3, "measure-fail:1.0").unwrap();
            let result = metasim_chaos::with_plan(Arc::new(plan), || {
                Study::try_run_with_store_jobs(
                    &fleet(),
                    &ProbeSuite::new(),
                    &GroundTruth::new(),
                    None,
                    1,
                )
            });
            let Err(StudyError::BaseUnavailable(failure)) = result else {
                panic!("expected BaseUnavailable, got {result:?}");
            };
            assert_eq!(failure.machine, MachineId::NavoP690Base);
            let line = StudyError::BaseUnavailable(failure).to_string();
            assert!(line.starts_with("the base system is required by Equation 1"));
        }
    }
}
