//! Subcommand implementations.

use std::path::PathBuf;
use std::sync::Arc;

use metasim_apps::groundtruth::GroundTruth;
use metasim_apps::paper_data;
use metasim_apps::registry::TestCase;
use metasim_apps::tracing::{trace_workload, TraceCache};
use metasim_audit::{AllowRule, AuditPolicy};
use metasim_cache::ArtifactStore;
use metasim_chaos::{FaultPlan, FaultSpec};
use metasim_core::balanced::{fit_weights, fit_weights_mae, idc_equal_weights, CATEGORY_NAMES};
use metasim_core::lint::LintModel;
use metasim_core::metric::MetricId;
use metasim_core::prediction::predict_all;
use metasim_core::ranking::rank_correlations;
use metasim_core::sensitivity::{SenseModel, SenseScope};
use metasim_core::study::{Study, StudyError};
use metasim_machines::{fleet, Fleet, MachineId};
use metasim_obs::diff::{diff_and_audit, DiffBudget};
use metasim_obs::manifest::{CacheSummary, ManifestMeta, RunManifest};
use metasim_obs::InMemoryRecorder;
use metasim_probes::suite::ProbeSuite;
use metasim_probes::Tier;
use metasim_report::chart::{ascii_bar_chart, ascii_line_chart, BarGroup, Series};
use metasim_report::svg::line_chart_svg;
use metasim_report::table::{f0, f1, Table};
use metasim_stats::error_metrics::percent_error;
use metasim_tracer::analysis::analyze_dependencies;
use metasim_tracer::trace::ApplicationTrace;
use metasim_units::Seconds;

/// The paper's Table 4 values for side-by-side printing.
const PAPER_TABLE4: [(f64, f64); 9] = [
    (63.0, 68.0),
    (43.0, 73.0),
    (33.0, 27.0),
    (63.0, 68.0),
    (50.0, 72.0),
    (22.0, 18.0),
    (24.0, 21.0),
    (22.0, 18.0),
    (18.0, 18.0),
];

/// Route a subcommand.
pub fn dispatch(cmd: &str, rest: &[String]) -> Result<(), String> {
    match cmd {
        "audit" => audit(rest),
        "lint" => lint(rest),
        "sense" => sense(rest),
        "study" => study(rest),
        "chaos" => chaos(rest),
        "fleet" => fleet_cmd(rest),
        "cache" => cache(rest),
        "obs" => obs(rest),
        "systems" => systems(&fleet()),
        "metrics" => metrics(),
        "probes" => probes(&Session::reports()),
        "fig1" => fig1(&Session::reports(), rest.first().map(String::as_str)),
        "table4" => table4(
            &Session::reports().study()?.0,
            rest.first().map(String::as_str),
        ),
        "table5" => table5(&Session::reports().study()?.0),
        "fig" => {
            let n: usize = rest
                .first()
                .ok_or("fig needs a figure number 3-7")?
                .parse()
                .map_err(|_| "figure number must be 3-7".to_string())?;
            let case = figure_case(n)?;
            figure(&Session::reports().study()?.0, n, case)
        }
        "appendix" => appendix(&Session::reports()),
        "balanced" => {
            let session = Session::reports();
            balanced(&session, &session.study()?.0)
        }
        "ranking" => ranking(&Session::reports().study()?.0),
        "superlatives" => superlatives(&Session::reports().study()?.0),
        "verify" => verify(&Session::reports().study()?.0),
        "predict" => predict(rest),
        "export-workload" => export_workload(rest),
        "predict-custom" => predict_custom(rest),
        "all" => {
            let session = Session::reports();
            let study = session.study()?.0;
            systems(&session.fleet)?;
            metrics()?;
            probes(&session)?;
            fig1(&session, None)?;
            table4(&study, None)?;
            table5(&study)?;
            for n in 3..=7 {
                figure(&study, n, figure_case(n)?)?;
            }
            appendix(&session)?;
            balanced(&session, &study)?;
            superlatives(&study)?;
            verify(&study)?;
            ranking(&study)
        }
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

const HELP: &str = "\
metasim — reproduce 'How Well Can Simple Metrics Represent the Performance of
HPC Applications?' (SC 2005)

commands:
  audit [--json] [--deny-warnings] [--allow RULE[@subject]]...
        [--manifest FILE.json] [--tier exact|analytic|auto]
                     statically verify every study artifact (fleet, probe
                     curves, workloads, traces) against the MSxxx rules;
                     with --manifest, also check a run manifest against the
                     MS4xx rules; a non-exact --tier additionally
                     cross-checks the analytic cache model against the
                     exact simulator on every machine (MS801); exits
                     non-zero on error-severity findings
  lint [--json] [--deny-warnings] [--allow RULE[@subject]]...
                     statically analyze the nine metric formulas (MS5xx):
                     prove every prediction reduces to seconds, flag
                     unmeasured quantities, unread measurements, unused
                     machines, and unreachable ENHANCED MAPS branches; also
                     screens the reference prediction's sensitivity
                     profile (MS9xx)
  sense [--json] [--deny-warnings] [--allow RULE[@subject]]... [--jobs N]
                     static sensitivity and error-propagation analysis over
                     the formula IR: abstract interpretation derives
                     interval bounds on all 150 cells' predictions under a
                     ±5% probe perturbation plus first-order elasticities
                     (condition numbers) per probe quantity, ranked
                     most-sensitive first, then cross-validates the
                     intervals against a seed-42 chaos probe-noise run at
                     the same amplitude (MS901 ill-conditioned, MS902
                     single-probe-dominated, MS903 non-Lipschitz
                     amplification, MS904 interval violated by the observed
                     run); `lint` screens the reference cell alone
  study [--jobs N] [--cache-dir DIR] [--no-cache]
        [--tier exact|analytic|auto] [--export FILE.csv] [--obs-out FILE.json]
                     run the full 1,350-prediction study; artifacts persist
                     in DIR (default .metasim-cache, or $METASIM_CACHE_DIR)
                     so warm re-runs load instead of re-measuring; --jobs N
                     shards the cold run's independent cells across N
                     worker threads — any N produces byte-identical
                     results; --tier picks the memory model behind the
                     probes: exact (default, address-level simulator),
                     analytic (closed-form model, orders of magnitude
                     faster), or auto (analytic when it passes the MS801
                     calibration budget, exact otherwise); non-exact tiers
                     gate on MS801 in preflight and cache under their own
                     store keys; --obs-out records spans + metrics and
                     writes a run manifest, the run's timing record
                     (`obs summarize` prints its phase wall times; per-shard
                     spans under --jobs; `obs export-trace` turns it into a
                     Chrome trace); --export writes all 150 observations x 9
                     predictions as CSV
  chaos run --seed N [--faults SPEC] [--export FILE.csv] [--obs-out FILE.json]
                     run the study under deterministic fault injection and
                     render partial-but-honest Tables 4/5 with coverage
                     annotations; SPEC is comma-separated, e.g.
                     probe-noise:0.05,measure-fail:0.2,cache-corrupt:0.1,
                     trace-drop:0.1,outage:ARL_Xeon — same seed + same
                     spec reproduces the run byte-for-byte; the spec is
                     checked (probabilities and sigma in [0, 1], a known
                     target machine, MS602) before anything runs
  obs summarize FILE.json [--top N]
                     render a run manifest (phases, span tree, slowest
                     spans, counters, latency quantiles) written by
                     study --obs-out; --top N limits the slowest-span
                     listing (0 hides it)
  obs export-trace FILE.json [TRACE.json]
                     convert a run manifest's span tree to Chrome Trace
                     Format JSON (stdout when TRACE.json is omitted);
                     the export is schema-validated before it is emitted
  obs diff BASELINE.json CANDIDATE.json [--budget FILE.json]
                     compare two run manifests: phase wall-time deltas,
                     counter drift, latency-quantile shifts, and span-kind
                     coverage; audits the deltas against a regression
                     budget (MS404 regression = non-zero exit, MS405/MS406
                     anomalies = warnings)
  fleet gen [--size N] [--seed S] [--spec FILE.json] [--out FILE.json]
        [--mutate NAME]
                     sample a fleet of N machines + synthetic applications
                     from a spec (built-in paper-derived space when --spec
                     is omitted) and print it as JSON; byte-reproducible
                     from (spec, seed) — same inputs, identical output
  fleet study [--size N] [--seed S] [--spec FILE] [--tier exact|analytic|auto]
        [--jobs N] [--out BENCH_fleet.json] [--mutate NAME] [--json]
                     rerun the Table 4/5 methodology per sampled
                     (machine, app) cell: MS1001-MS1004 preflights gate the
                     run, each sampled machine (its MS801 calibration, probes
                     and cells) is one work item that the next free of
                     --jobs N workers claims (any N is byte-identical), and
                     the report aggregates where in machine space each
                     metric's error exceeds the paper's thresholds; --out
                     writes the BENCH_fleet.json error distribution;
                     --mutate seeds a named fleet defect
                     (degenerate-hierarchy, unsatisfiable-spec,
                     seed-overlap, reference-collapse) to show its rule fire
  fleet report FILE.json
                     re-render the per-region breakdown tables from a saved
                     BENCH_fleet.json
  fleet spec [--out FILE.json]
                     dump the built-in paper-derived sampling space as an
                     editable JSON spec template
  cache stats|clear [--cache-dir DIR]
                     inspect or delete the persistent artifact store
  systems            Table 1/2: the study fleet
  metrics            Table 3: the nine synthetic metrics

The commands below read and fill the store a bare `study` uses (one job):
what the first run computes, later runs load.

  probes             probe summary for every machine
  fig1 [FILE.svg]    Figure 1: unit-stride MAPS curves (3 systems)
  table4             Table 4 / Figure 2: overall error per metric
  table5             Table 5: system-specific error
  fig N              Figures 3..7: per-application error assessment
  appendix           Tables 6-10: simulated vs. published runtimes
  balanced           IDC balanced rating and fitted weights (§4)
  ranking            Kendall-τ ranking quality per metric (extension)
  superlatives       §6: best/worst metric per (case, CPU count) group
  verify             checklist: which of the paper's claims hold here
  predict CASE CPUS MACHINE
                     one prediction (CASE like avus-standard; MACHINE like
                     ARL_Opteron)
  export-workload CASE CPUS FILE.json
                     dump a workload as an editable JSON template
  predict-custom FILE.json MACHINE
                     trace + predict a custom (JSON) workload
  all                run everything from one study";

/// Parse the value of the count flag `flag` (`--jobs`, `--size`) from
/// `args`: a positive integer, with one message for every command.
fn parse_count(flag: &str, args: &mut std::slice::Iter<'_, String>) -> Result<usize, String> {
    let value = args
        .next()
        .ok_or_else(|| format!("{flag} needs a positive integer"))?;
    value
        .parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("{flag} needs a positive integer, got `{value}`"))
}

/// Parse one of the flags `audit`, `lint` and `sense` share into `json`
/// and `policy`; `Ok(false)` when `arg` is not one of them.
fn parse_policy_flag(
    arg: &str,
    args: &mut std::slice::Iter<'_, String>,
    json: &mut bool,
    policy: &mut AuditPolicy,
) -> Result<bool, String> {
    match arg {
        "--json" => *json = true,
        "--deny-warnings" => policy.deny_warnings = true,
        "--allow" => {
            let spec = args
                .next()
                .ok_or("--allow needs RULE or RULE@subject-prefix")?;
            policy.allow.push(AllowRule::parse(spec)?);
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn audit(rest: &[String]) -> Result<(), String> {
    use metasim_audit::render;

    let mut json = false;
    let mut policy = AuditPolicy::default();
    let mut manifest_path: Option<String> = None;
    let mut tier = Tier::Exact;
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        if parse_policy_flag(arg, &mut args, &mut json, &mut policy)? {
            continue;
        }
        match arg.as_str() {
            "--manifest" => {
                manifest_path = Some(args.next().ok_or("--manifest needs a path")?.clone());
            }
            "--tier" => {
                let t = args.next().ok_or("--tier needs exact|analytic|auto")?;
                tier = t.parse().map_err(|e| format!("{e}"))?;
            }
            other => return Err(format!("unknown audit flag `{other}`")),
        }
    }

    let session = Session::new(None, tier, 1);
    let mut report = metasim_core::preflight_with_policy(
        &session.fleet,
        &session.suite,
        &session.traces,
        policy,
    );
    if let Some(path) = &manifest_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let manifest = RunManifest::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        report.diagnostics.extend(manifest.audit().diagnostics);
    }

    if json {
        print!("{}", render::jsonl(&report));
    } else {
        print!("{}", render::human(&report));
    }
    if report.has_errors() {
        Err(report.summary_line())
    } else {
        Ok(())
    }
}

fn lint(rest: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut policy = AuditPolicy::default();
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        if !parse_policy_flag(arg, &mut args, &mut json, &mut policy)? {
            return Err(format!("unknown lint flag `{arg}`"));
        }
    }
    // The sensitivity pass in `lint` covers the representative cell; the
    // full 150-cell grid is `metasim sense`.
    run_lint(
        &LintModel::shipped(),
        &SenseModel::shipped(SenseScope::Reference),
        json,
        policy,
    )
}

/// Lint `model` and `sense` and print the report; an error-severity
/// finding is the `Err`.
fn run_lint(
    model: &LintModel,
    sense: &SenseModel,
    json: bool,
    policy: AuditPolicy,
) -> Result<(), String> {
    use metasim_audit::render;
    use metasim_core::formula::cost_expr;
    use metasim_core::lint::lint_full_with_policy;

    let session = Session::new(None, Tier::Exact, 1);
    let report = lint_full_with_policy(model, sense, &session.suite, &session.traces, policy);

    if json {
        print!("{}", render::jsonl(&report));
    } else {
        // The dimensional reduction per metric — the statically proven part.
        println!("formula dimensions (cost -> base-calibrated prediction):");
        for (metric, expr) in &model.formulas {
            let cost = cost_expr(*metric);
            let cost_dim = cost
                .dim()
                .map_or_else(|e| format!("inconsistent ({e})"), |d| d.to_string());
            let pred_dim = expr
                .dim()
                .map_or_else(|e| format!("inconsistent ({e})"), |d| d.to_string());
            println!(
                "  {:<28} cost [{:>9}]  prediction [{}]",
                metric.to_string(),
                cost_dim,
                pred_dim,
            );
        }
        println!();
        print!("{}", render::human(&report));
    }
    if report.has_errors() {
        Err(report.summary_line())
    } else {
        Ok(())
    }
}

fn sense(rest: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut policy = AuditPolicy::default();
    let mut jobs: usize = 1;
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        if parse_policy_flag(arg, &mut args, &mut json, &mut policy)? {
            continue;
        }
        match arg.as_str() {
            "--jobs" => jobs = parse_count("--jobs", &mut args)?,
            other => return Err(format!("unknown sense flag `{other}`")),
        }
    }
    run_sense(
        &SenseModel::shipped(SenseScope::FullGrid),
        json,
        policy,
        jobs,
    )
}

/// Analyze `model` over `jobs` workers and print the report; an
/// error-severity finding is the `Err`.
fn run_sense(
    model: &SenseModel,
    json: bool,
    policy: AuditPolicy,
    jobs: usize,
) -> Result<(), String> {
    use metasim_audit::{render, Auditor};
    use metasim_core::sensitivity::{analyze_with_jobs, lint_report};

    let session = Session::new(None, Tier::Exact, jobs);
    let report = analyze_with_jobs(model, &session.suite, &session.traces, session.jobs);
    let mut a = Auditor::with_policy(policy);
    lint_report(model, &report, &mut a);
    let audit_report = a.finish();

    if json {
        println!(
            "{}",
            serde_json::to_string(&report).map_err(|e| format!("serializing report: {e}"))?
        );
        print!("{}", render::jsonl(&audit_report));
    } else {
        println!(
            "sensitivity: {} cell{} x 9 metrics, static band ±{:.1}%, \
             chaos cross-check seed {} at ±{:.1}%\n",
            report.cells,
            if report.cells == 1 { "" } else { "s" },
            report.epsilon * 100.0,
            report.seed,
            report.observed_epsilon * 100.0,
        );

        let mut summary = Table::new(vec![
            "Metric",
            "Most sensitive",
            "max |dlnT'/dlnq|",
            "Coherent cond",
            "Amplification",
            "Dominance",
            "Violations",
        ])
        .with_title("Per-metric sensitivity (condition numbers vs. the budget)");
        for m in &report.metrics {
            let top = m.ranked.first();
            summary.push_row(vec![
                m.metric.clone(),
                top.map_or(String::new(), |r| r.quantity.clone()),
                top.map_or(String::new(), |r| format!("{:.3}", r.max_elasticity)),
                format!("{:.3}", m.coherent_condition),
                if m.unbounded {
                    "unbounded".to_string()
                } else {
                    format!("{:.2}", m.amplification)
                },
                if m.ranked.len() >= 2 {
                    format!("{:.1}% {}", m.dominance * 100.0, m.dominant)
                } else {
                    "-".to_string()
                },
                format!("{}", m.violations.len()),
            ]);
        }
        println!("{}", summary.render());

        let mut ranking = Table::new(vec![
            "Metric",
            "Quantity",
            "max |elast|",
            "mean |elast|",
            "share",
            "potential",
        ])
        .with_title("Sensitivity ranking (per metric, most sensitive probe first)");
        for m in &report.metrics {
            for r in &m.ranked {
                ranking.push_row(vec![
                    m.metric.clone(),
                    r.quantity.clone(),
                    format!("{:.4}", r.max_elasticity),
                    format!("{:.4}", r.mean_elasticity),
                    format!("{:.1}%", r.share * 100.0),
                    format!("{:.1}%", r.potential_share * 100.0),
                ]);
            }
        }
        println!("{}", ranking.render());

        let total = report.cells * report.metrics.len();
        let violations = report.total_violations();
        if violations == 0 {
            println!(
                "chaos cross-check: all {total} observed predictions landed inside \
                 their static intervals\n"
            );
        } else {
            println!(
                "chaos cross-check: {violations} of {total} observed predictions \
                 escaped their static intervals (MS904)\n"
            );
        }
        print!("{}", render::human(&audit_report));
    }
    if audit_report.has_errors() {
        Err(audit_report.summary_line())
    } else {
        Ok(())
    }
}

/// The artifact-store location: `--cache-dir` beats `$METASIM_CACHE_DIR`
/// beats `.metasim-cache` in the working directory.
fn resolve_cache_dir(explicit: Option<PathBuf>) -> PathBuf {
    explicit
        .or_else(|| std::env::var_os("METASIM_CACHE_DIR").map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from(".metasim-cache"))
}

/// Everything one command reads about the study: the fleet, the optional
/// artifact store, and the one probe suite, ground-truth runner and trace
/// cache that every table the process prints shares, so no probe sweep,
/// execution or trace runs twice in one process.
struct Session {
    fleet: Fleet,
    store: Option<Arc<ArtifactStore>>,
    suite: ProbeSuite,
    gt: GroundTruth,
    traces: TraceCache,
    jobs: usize,
}

impl Session {
    /// A session over `store` (`None`: in-process memos only) whose probes
    /// run at `tier` and whose study shards across `jobs` workers.
    fn new(store: Option<Arc<ArtifactStore>>, tier: Tier, jobs: usize) -> Self {
        let (suite, gt, traces) = match &store {
            Some(s) => (
                ProbeSuite::with_store(Arc::clone(s)),
                GroundTruth::with_store(Arc::clone(s)),
                TraceCache::with_store(Arc::clone(s)),
            ),
            None => (ProbeSuite::new(), GroundTruth::new(), TraceCache::new()),
        };
        Self {
            fleet: fleet(),
            store,
            suite: suite.with_tier(tier),
            gt,
            traces,
            jobs,
        }
    }

    /// The report commands' session: the default store a bare `study`
    /// reads and fills, exact tier, one job.
    fn reports() -> Self {
        let store = ArtifactStore::open(resolve_cache_dir(None));
        Self::new(Some(Arc::new(store)), Tier::Exact, 1)
    }

    /// The study: one store read when warm, computed (and stored) when not;
    /// the `bool` is `true` when it was loaded. A study that cannot be
    /// computed is a one-line error; a failed preflight prints its report
    /// first.
    fn study(&self) -> Result<(Study, bool), String> {
        Study::try_run_with_store_jobs(
            &self.fleet,
            &self.suite,
            &self.gt,
            self.store.as_deref(),
            self.jobs,
        )
        .map_err(|e| {
            if let StudyError::Preflight(report) = &e {
                print!("{}", metasim_audit::render::human(report));
            }
            e.to_string()
        })
    }

    /// [`study`](Self::study) under an optional fault plan, recorded into
    /// `rec` when there is one.
    fn study_with(
        &self,
        plan: Option<Arc<FaultPlan>>,
        rec: Option<&Arc<InMemoryRecorder>>,
    ) -> Result<(Study, bool), String> {
        metasim_obs::with_recorder(rec.cloned(), || {
            metasim_chaos::with_plan(plan, || self.study())
        })
    }

    /// The nine predictions of `trace` on `machine`, scaled from the base
    /// system's runtime `base_seconds` (Equation 1).
    fn predict(
        &self,
        trace: &ApplicationTrace,
        machine: MachineId,
        base_seconds: f64,
    ) -> [Seconds; 9] {
        let labels = analyze_dependencies(&trace.blocks);
        let target = self.suite.measure(self.fleet.get(machine));
        let base = self.suite.measure(self.fleet.base());
        predict_all(trace, &labels, &target, &base, Seconds::new(base_seconds))
    }

    /// The run manifest of a study this session ran under `rec`, with the
    /// store's contents and this process's traffic when there is a store.
    fn manifest(&self, rec: &InMemoryRecorder, loaded_from_cache: bool) -> RunManifest {
        let cache = self.store.as_ref().map(|s| {
            let stats = s.stats();
            let traffic = s.traffic();
            CacheSummary {
                root: s.root().display().to_string(),
                schema: s.schema(),
                entries: stats.entries,
                bytes: stats.bytes,
                kinds: stats.kinds,
                session_hits: traffic.hits,
                session_misses: traffic.misses,
                session_evictions: traffic.evictions,
            }
        });
        let meta = ManifestMeta {
            tool: format!("metasim {}", env!("CARGO_PKG_VERSION")),
            config_digest: Study::store_key_tiered(&self.fleet, self.suite.tier()).to_string(),
            loaded_from_cache,
            cache,
        };
        RunManifest::build(rec, meta)
    }
}

/// Write a run manifest to `path` as JSON.
fn write_manifest(m: &RunManifest, path: &str) -> Result<(), String> {
    std::fs::write(path, m.to_json()?).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote run manifest to {path}");
    Ok(())
}

fn study(rest: &[String]) -> Result<(), String> {
    let mut no_cache = false;
    let mut cache_dir: Option<PathBuf> = None;
    let mut export_path: Option<String> = None;
    let mut obs_out: Option<String> = None;
    let mut jobs: usize = 1;
    let mut tier = Tier::Exact;
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--no-cache" => no_cache = true,
            "--tier" => {
                let t = args.next().ok_or("--tier needs exact|analytic|auto")?;
                tier = t.parse().map_err(|e| format!("{e}"))?;
            }
            "--jobs" => jobs = parse_count("--jobs", &mut args)?,
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(
                    args.next().ok_or("--cache-dir needs a directory")?,
                ));
            }
            "--export" => export_path = Some(args.next().ok_or("--export needs a path")?.clone()),
            "--obs-out" => {
                obs_out = Some(args.next().ok_or("--obs-out needs a path")?.clone());
            }
            other => return Err(format!("unknown study flag `{other}`")),
        }
    }

    let store = (!no_cache).then(|| Arc::new(ArtifactStore::open(resolve_cache_dir(cache_dir))));
    let session = Session::new(store, tier, jobs);

    // Recording is opt-in: only pay for span bookkeeping when a manifest
    // will be written.
    let recorder = obs_out.is_some().then(|| Arc::new(InMemoryRecorder::new()));
    let (study, loaded_from_cache) = session.study_with(None, recorder.as_ref())?;

    println!(
        "study: {} observations, {} predictions ({}{})",
        study.observations.len(),
        study.prediction_count(),
        if loaded_from_cache {
            "loaded from cache"
        } else {
            "computed"
        },
        // The exact tier keeps the historical output byte-identical; any
        // other tier announces itself so logs are self-describing.
        if tier == Tier::Exact {
            String::new()
        } else {
            format!(", tier {tier}")
        }
    );
    let t4 = study.table4();
    let best = t4
        .iter()
        .min_by(|a, b| a.mean_absolute.total_cmp(&b.mean_absolute))
        .expect("nine metrics");
    println!(
        "best metric: {} at {:.1}% average absolute error",
        best.metric, best.mean_absolute
    );

    if let Some(path) = export_path {
        export_study(&study, &path)?;
    }
    if let (Some(path), Some(rec)) = (obs_out, &recorder) {
        write_manifest(&session.manifest(rec, loaded_from_cache), &path)?;
    }
    Ok(())
}

/// `chaos run`: deterministic fault injection around the study.
fn chaos(rest: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: chaos run --seed N [--faults SPEC] [--export FILE.csv] [--obs-out FILE.json]";
    match rest.first().map(String::as_str) {
        Some("run") => chaos_run(&rest[1..]),
        Some(other) => Err(format!("unknown chaos subcommand `{other}`\n{USAGE}")),
        None => Err(USAGE.into()),
    }
}

/// The fault plan of `--seed` and `--faults`, checked before anything
/// runs: every spec entry parses and is in range, an outage names a
/// target machine, and the plan passes its own audit (MS602).
fn build_chaos_plan(seed: Option<u64>, faults: &str) -> Result<FaultPlan, String> {
    let seed = seed.ok_or("chaos needs --seed N (determinism is the point)")?;
    let plan = FaultPlan::parse_spec(seed, faults)?;
    for fault in &plan.faults {
        let FaultSpec::MachineOutage { machine } = fault else {
            continue;
        };
        if machine == MachineId::NavoP690Base.label() {
            return Err(format!(
                "outage:{machine} names the base system, which every prediction \
                 scales from (Equation 1); take out a target machine instead"
            ));
        }
        if !MachineId::TARGETS.iter().any(|m| m.label() == machine) {
            let labels: Vec<&str> = MachineId::TARGETS.iter().map(|m| m.label()).collect();
            return Err(format!(
                "unknown outage machine `{machine}`; the target machines are {}",
                labels.join(", ")
            ));
        }
    }
    let report = plan.audit();
    if !report.is_clean() {
        print!("{}", metasim_audit::render::human(&report));
    }
    if report.has_errors() {
        return Err(report.summary_line());
    }
    Ok(plan)
}

/// `chaos run --seed N [--faults SPEC] [--export FILE.csv] [--obs-out FILE]`:
/// run the full study under deterministic fault injection — no artifact
/// cache, so injected corruption can never leak into the store — and render
/// partial-but-honest tables. Same seed + same spec reproduces the output
/// byte-for-byte.
fn chaos_run(rest: &[String]) -> Result<(), String> {
    let mut seed: Option<u64> = None;
    let mut faults = String::new();
    let mut export_path: Option<String> = None;
    let mut obs_out: Option<String> = None;
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let v = args.next().ok_or("--seed needs an integer")?;
                seed = Some(v.parse().map_err(|_| format!("bad seed `{v}`"))?);
            }
            "--faults" => faults = args.next().ok_or("--faults needs a spec")?.clone(),
            "--export" => export_path = Some(args.next().ok_or("--export needs a path")?.clone()),
            "--obs-out" => obs_out = Some(args.next().ok_or("--obs-out needs a path")?.clone()),
            other => return Err(format!("unknown chaos run flag `{other}`")),
        }
    }
    let plan = build_chaos_plan(seed, &faults)?;
    println!(
        "chaos: seed {}, {} fault site(s), no artifact cache",
        plan.seed,
        plan.faults.len()
    );

    let recorder = obs_out.is_some().then(|| Arc::new(InMemoryRecorder::new()));
    let session = Session::new(None, Tier::Exact, 1);
    let study = session
        .study_with(Some(Arc::new(plan)), recorder.as_ref())?
        .0;

    let coverage = study.coverage();
    println!(
        "study: {coverage}{}",
        if coverage.is_complete() {
            " (complete)"
        } else {
            " (PARTIAL)"
        }
    );
    table4(&study, None)?;
    table5(&study)?;

    // MS601 (partial coverage) and friends: the degraded run must say so.
    let values = study.audit_values();
    if !values.is_clean() {
        print!("{}", metasim_audit::render::human(&values));
    }

    if let Some(path) = export_path {
        export_study(&study, &path)?;
    }
    if let Some(path) = obs_out {
        let rec = recorder
            .as_ref()
            .expect("recorder runs when --obs-out is set");
        write_manifest(&session.manifest(rec, false), &path)?;
    }
    if values.has_errors() {
        Err(values.summary_line())
    } else {
        Ok(())
    }
}

/// `obs summarize|export-trace|diff`: consume run manifests written by
/// `study --obs-out`.
fn obs(rest: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: obs summarize MANIFEST.json [--top N]\n       \
                         obs export-trace MANIFEST.json [TRACE.json]\n       \
                         obs diff BASELINE.json CANDIDATE.json [--budget FILE.json]";
    match rest.first().map(String::as_str) {
        Some("summarize") => obs_summarize(&rest[1..]),
        Some("export-trace") => obs_export_trace(&rest[1..]),
        Some("diff") => obs_diff(&rest[1..]),
        _ => Err(USAGE.into()),
    }
}

/// Read and parse a run manifest file.
fn load_manifest(path: &str) -> Result<RunManifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    RunManifest::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// `obs summarize MANIFEST.json [--top N]`: audit (MS4xx) and render.
fn obs_summarize(rest: &[String]) -> Result<(), String> {
    let mut path: Option<String> = None;
    let mut top = metasim_obs::summarize::DEFAULT_TOP_SPANS;
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => {
                let n = args.next().ok_or("--top needs a span count")?;
                top = n
                    .parse()
                    .map_err(|_| format!("--top needs a non-negative integer, got `{n}`"))?;
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(arg.clone()),
            other => return Err(format!("unknown obs summarize arg `{other}`")),
        }
    }
    let path = path.ok_or("usage: obs summarize MANIFEST.json [--top N]")?;
    let manifest = load_manifest(&path)?;
    let report = manifest.audit();
    if report.has_errors() {
        print!("{}", metasim_audit::render::human(&report));
        return Err(report.summary_line());
    }
    print!("{}", metasim_obs::summarize::render_top(&manifest, top));
    Ok(())
}

/// `obs export-trace MANIFEST.json [TRACE.json]`: render the manifest's
/// span tree as Chrome Trace Format JSON (stdout when no output path).
fn obs_export_trace(rest: &[String]) -> Result<(), String> {
    let (path, out) = match rest {
        [p] => (p, None),
        [p, o] => (p, Some(o)),
        _ => return Err("usage: obs export-trace MANIFEST.json [TRACE.json]".into()),
    };
    let manifest = load_manifest(path)?;
    let trace = metasim_obs::export::chrome_trace(&manifest);
    // Never emit a trace we would not accept back.
    let stats = metasim_obs::export::validate_chrome_trace(&trace)
        .map_err(|e| format!("exported trace failed validation: {e}"))?;
    match out {
        Some(o) => {
            std::fs::write(o, &trace).map_err(|e| format!("writing {o}: {e}"))?;
            println!(
                "wrote Chrome trace to {o} ({} events, {} spans, {} tracks)",
                stats.events, stats.pairs, stats.tracks
            );
        }
        None => println!("{trace}"),
    }
    Ok(())
}

/// `obs diff BASELINE.json CANDIDATE.json [--budget FILE.json]`: compare
/// two manifests and gate on MS404-MS406 (non-zero exit on MS404).
fn obs_diff(rest: &[String]) -> Result<(), String> {
    let mut paths: Vec<String> = Vec::new();
    let mut budget_path: Option<String> = None;
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--budget" => {
                budget_path = Some(args.next().ok_or("--budget needs a path")?.clone());
            }
            other if !other.starts_with("--") => paths.push(arg.clone()),
            other => return Err(format!("unknown obs diff arg `{other}`")),
        }
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        return Err("usage: obs diff BASELINE.json CANDIDATE.json [--budget FILE.json]".into());
    };
    let budget = match &budget_path {
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
            DiffBudget::from_json(&text).map_err(|e| format!("parsing {p}: {e}"))?
        }
        None => DiffBudget::default(),
    };
    let baseline = load_manifest(baseline_path)?;
    let candidate = load_manifest(candidate_path)?;
    let (diff, report) = diff_and_audit(&baseline, &candidate, &budget);
    print!("{}", diff.render());
    if report.is_clean() {
        println!("\ndiff is within budget");
    } else {
        print!("\n{}", metasim_audit::render::human(&report));
    }
    if report.has_errors() {
        let mut codes: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == metasim_audit::Severity::Error)
            .map(|d| d.rule.code)
            .collect();
        codes.dedup();
        return Err(format!(
            "regression gate failed ({}): {}",
            codes.join(", "),
            report.summary_line()
        ));
    }
    Ok(())
}

fn cache(rest: &[String]) -> Result<(), String> {
    let action = rest.first().map(String::as_str);
    let mut cache_dir: Option<PathBuf> = None;
    let mut args = rest.iter().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(
                    args.next().ok_or("--cache-dir needs a directory")?,
                ));
            }
            other => return Err(format!("unknown cache flag `{other}`")),
        }
    }
    let store = ArtifactStore::open(resolve_cache_dir(cache_dir));
    match action {
        Some("stats") => {
            let stats = store.stats();
            println!(
                "cache at {} (schema v{}): {} entries, {} bytes",
                store.root().display(),
                store.schema(),
                stats.entries,
                stats.bytes
            );
            for (kind, count) in &stats.kinds {
                println!("  {kind:<14} {count}");
            }
            let t = store.traffic();
            println!(
                "session traffic: {} hits, {} misses, {} evictions, {} writes",
                t.hits, t.misses, t.evictions, t.writes
            );
            Ok(())
        }
        Some("clear") => {
            store
                .clear()
                .map_err(|e| format!("clearing {}: {e}", store.root().display()))?;
            println!("cleared {}", store.root().display());
            Ok(())
        }
        _ => Err("usage: cache stats|clear [--cache-dir DIR]".into()),
    }
}

fn systems(f: &Fleet) -> Result<(), String> {
    let mut t = Table::new(vec![
        "System",
        "Architecture",
        "Site",
        "Interconnect",
        "CPUs",
        "role",
    ])
    .with_title("Tables 1 & 2. Architectures and systems used in the study.");
    for m in f.all() {
        t.push_row(vec![
            m.id.label().to_string(),
            m.id.architecture().to_string(),
            m.id.site().to_string(),
            m.id.interconnect().to_string(),
            m.id.total_processors().to_string(),
            if m.id.is_target() { "target" } else { "base" }.to_string(),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

fn metrics() -> Result<(), String> {
    let mut t = Table::new(vec!["#", "Type", "Name or Description"])
        .with_title("Table 3. Synthetic metrics used in study.");
    for m in MetricId::ALL {
        t.push_row(vec![
            m.number().to_string(),
            format!("{:?}", m.kind()),
            m.description().to_string(),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

fn probes(session: &Session) -> Result<(), String> {
    let mut t = Table::new(vec![
        "System",
        "Rmax GF/s",
        "STREAM GB/s",
        "GUPS",
        "net lat us",
        "net BW MB/s",
    ])
    .with_title("Probe measurements (per processor).");
    for m in session.fleet.all() {
        let p = session.suite.measure(m);
        t.push_row(vec![
            m.id.label().to_string(),
            format!("{:.2}", p.hpl.rmax_gflops_per_proc),
            format!("{:.2}", p.stream.gb_per_second()),
            format!("{:.4}", p.gups.gups()),
            format!("{:.1}", p.netbench.latency * 1e6),
            format!("{:.0}", p.netbench.bandwidth / 1e6),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

fn fig1(session: &Session, svg_path: Option<&str>) -> Result<(), String> {
    let systems = [
        MachineId::Navo655,
        MachineId::ArlAltix,
        MachineId::ArlOpteron,
    ];
    let series: Vec<Series> = systems
        .iter()
        .map(|&id| {
            let p = session.suite.measure(session.fleet.get(id));
            Series {
                name: id.label().to_string(),
                points: p
                    .maps
                    .unit
                    .points
                    .iter()
                    .map(|&(ws, bw)| (ws as f64, bw))
                    .collect(),
            }
        })
        .collect();
    println!(
        "{}",
        ascii_line_chart(
            "Figure 1. Unit-stride memory bandwidth versus message size (B/s vs bytes).",
            &series,
            72,
            20,
        )
    );
    if let Some(path) = svg_path {
        let svg = line_chart_svg(
            "Figure 1: unit-stride MAPS",
            "working set (bytes, log)",
            "bandwidth (B/s)",
            &series,
            800,
            480,
        );
        std::fs::write(path, svg).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `[partial: 9/10 systems, 135/150 observations]`, or `""` when complete.
/// Every table rendered from a degraded study carries this annotation so a
/// reader can never mistake a partial mean for the full 150-observation one.
fn coverage_note(study: &Study) -> String {
    let coverage = study.coverage();
    if coverage.is_complete() {
        String::new()
    } else {
        format!(" [partial: {coverage}]")
    }
}

fn table4(study: &Study, fig2_svg: Option<&str>) -> Result<(), String> {
    let mut t = Table::new(vec![
        "# & Type",
        "Metric Description",
        "AvgAbsErr %",
        "StdDev %",
        "paper err",
        "paper sd",
    ])
    .with_title(format!(
        "Table 4. Error assessment: metric results vs. application run time.{}",
        coverage_note(study)
    ));
    for (i, row) in study.table4().iter().enumerate() {
        t.push_row(vec![
            row.metric.short_label(),
            row.metric.name().to_string(),
            f0(row.mean_absolute),
            f0(row.stddev),
            f0(PAPER_TABLE4[i].0),
            f0(PAPER_TABLE4[i].1),
        ]);
    }
    println!("{}", t.render());

    // Figure 2 is the same data as a bar chart.
    let group = BarGroup {
        label: format!("all {} observations", study.observations.len()),
        bars: study
            .table4()
            .iter()
            .map(|r| {
                (
                    format!("#{} {}", r.metric.number(), r.metric.name()),
                    r.mean_absolute.get(),
                )
            })
            .collect(),
    };
    println!(
        "{}",
        ascii_bar_chart(
            "Figure 2. Average absolute error by metric (%).",
            &[group],
            50
        )
    );
    if let Some(path) = fig2_svg {
        let bars: Vec<(String, f64)> = study
            .table4()
            .iter()
            .map(|r| {
                (
                    format!("#{} {}", r.metric.number(), r.metric.name()),
                    r.mean_absolute.get(),
                )
            })
            .collect();
        let svg = metasim_report::svg::bar_chart_svg(
            "Figure 2: average absolute error by metric",
            "error (%)",
            &bars,
            800,
            480,
        );
        std::fs::write(path, svg).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn table5(study: &Study) -> Result<(), String> {
    let mut header = vec!["System".to_string()];
    header.extend((1..=9).map(|n| n.to_string()));
    let mut t = Table::new(header).with_title(format!(
        "Table 5. System-specific average absolute percent error (metric 1..9).{}",
        coverage_note(study)
    ));
    for row in study.table5() {
        let mut cells = vec![row.machine.label().to_string()];
        cells.extend(row.per_metric.iter().map(|v| f0(*v)));
        t.push_row(cells);
    }
    let mut overall = vec!["OVERALL".to_string()];
    overall.extend(study.table4().iter().map(|r| f0(r.mean_absolute)));
    t.push_row(overall);
    println!("{}", t.render());
    Ok(())
}

/// The test case Figure `n` assesses: Figures 3–7 take the five cases in
/// `TestCase::ALL` order.
fn figure_case(n: usize) -> Result<TestCase, String> {
    let case = n.checked_sub(3).and_then(|i| TestCase::ALL.get(i));
    case.copied()
        .ok_or_else(|| "figure number must be 3..=7".into())
}

fn figure(study: &Study, n: usize, case: TestCase) -> Result<(), String> {
    let groups: Vec<BarGroup> = study
        .errors_by_app(case)
        .into_iter()
        .map(|(cpus, errors)| BarGroup {
            label: format!("{cpus} CPUs"),
            bars: MetricId::ALL
                .iter()
                .zip(errors)
                .map(|(m, e)| (format!("#{}", m.number()), e.get()))
                .collect(),
        })
        .collect();
    println!(
        "{}",
        ascii_bar_chart(
            &format!(
                "Figure {n}. Error assessment for {} (avg abs %).",
                case.label()
            ),
            &groups,
            50,
        )
    );
    Ok(())
}

fn appendix(session: &Session) -> Result<(), String> {
    for (idx, case) in TestCase::ALL.iter().enumerate() {
        let cpus = case.cpu_counts();
        let mut header = vec!["Machine".to_string()];
        for p in cpus {
            header.push(format!("{p} sim"));
            header.push(format!("{p} paper"));
        }
        let mut t = Table::new(header).with_title(format!(
            "Table {}. {} times-to-solution (seconds): simulated vs. published.",
            idx + 6,
            case.label()
        ));
        for id in MachineId::TARGETS {
            let mut cells = vec![id.label().to_string()];
            for p in cpus {
                let sim = session.gt.run(*case, p, session.fleet.get(id)).seconds;
                cells.push(f0(sim));
                cells.push(
                    paper_data::observed_at(*case, id, p).map_or_else(|| "-".to_string(), f0),
                );
            }
            t.push_row(cells);
        }
        println!("{}", t.render());
    }
    Ok(())
}

fn balanced(session: &Session, study: &Study) -> Result<(), String> {
    let (suite, f) = (&session.suite, &session.fleet);
    let idc = idc_equal_weights(study, suite, f);
    let fitted = fit_weights(study, suite, f);
    let oracle = fit_weights_mae(study, suite, f);
    let mut t = Table::new(vec![
        "Rating",
        "HPL w",
        "STREAM w",
        "all_reduce w",
        "AvgAbsErr %",
        "StdDev %",
    ])
    .with_title("§4: balanced-rating composites (categories: HPL, STREAM, all_reduce).");
    for (name, r) in [
        ("IDC equal weights", &idc),
        ("regression-fitted", &fitted),
        ("oracle (MAE grid)", &oracle),
    ] {
        t.push_row(vec![
            name.to_string(),
            format!("{:.2}", r.weights[0]),
            format!("{:.2}", r.weights[1]),
            format!("{:.2}", r.weights[2]),
            f1(r.mean_absolute_error),
            f1(r.stddev),
        ]);
    }
    println!("{}", t.render());
    println!(
        "paper: equal weights 35% err (sd 25); fitted 5/50/45 -> 33% (sd 30).\n\
         categories are {CATEGORY_NAMES:?}; see EXPERIMENTS.md for the fit-objective discussion.\n"
    );
    Ok(())
}

fn ranking(study: &Study) -> Result<(), String> {
    let mut t = Table::new(vec!["Metric", "mean Kendall tau", "worst group tau"])
        .with_title("Extension: machine-ranking quality per metric (1.0 = perfect order).");
    for rc in rank_correlations(study) {
        t.push_row(vec![
            rc.metric.to_string(),
            format!("{:.3}", rc.mean_tau),
            format!("{:.3}", rc.min_tau),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

fn verify(study: &Study) -> Result<(), String> {
    let claims = metasim_core::verification::verify(study);
    println!("Verification of the paper's claims against this reproduction:\n");
    let mut failures = 0;
    for c in &claims {
        let mark = if c.pass { "PASS" } else { "FAIL" };
        if !c.pass {
            failures += 1;
        }
        println!(
            "  [{mark}] {}\n         {}\n         {}\n",
            c.name, c.statement, c.detail
        );
    }
    if failures == 0 {
        println!("all {} claims hold.", claims.len());
        Ok(())
    } else {
        Err(format!("{failures} of {} claims failed", claims.len()))
    }
}

fn superlatives(study: &Study) -> Result<(), String> {
    use metasim_core::superlatives::{census, group_errors};
    let mut t = Table::new(vec![
        "Case",
        "CPUs",
        "best",
        "best err %",
        "worst",
        "worst err %",
    ])
    .with_title("§6: best and worst predictor per (case, CPU count) group.");
    for g in group_errors(study) {
        t.push_row(vec![
            g.case.label().to_string(),
            g.cpus.to_string(),
            g.best().to_string(),
            f1(g.error_of(g.best())),
            g.worst().to_string(),
            f1(g.error_of(g.worst())),
        ]);
    }
    println!("{}", t.render());
    let c = census(study);
    println!(
        "census over {} groups: HPL worst in {}, STREAM beats HPL in {}, GUPS beats\n\
         STREAM in {}, #6 best-or-tied in {}, #9 best-or-tied in {}.\n\
         (paper: 14, 14, 11, 6, 10 of 15)\n",
        c.groups,
        c.hpl_worst,
        c.stream_beats_hpl,
        c.gups_beats_stream,
        c.metric6_best_or_tied,
        c.metric9_best_or_tied
    );
    Ok(())
}

fn export_study(study: &Study, path: &str) -> Result<(), String> {
    let mut w = metasim_report::csv::CsvWriter::new();
    let mut header = vec![
        "case".to_string(),
        "cpus".to_string(),
        "machine".to_string(),
        "actual_s".to_string(),
        "base_actual_s".to_string(),
    ];
    header.extend(
        MetricId::ALL
            .iter()
            .map(|m| format!("pred_{}", m.short_label())),
    );
    w.row(&header);
    for o in &study.observations {
        let mut cells = vec![
            o.case.label().to_string(),
            o.cpus.to_string(),
            o.machine.label().to_string(),
            format!("{}", o.actual),
            format!("{}", o.base_actual),
        ];
        cells.extend(o.predictions.iter().map(|p| format!("{p}")));
        w.row(&cells);
    }
    std::fs::write(path, w.finish()).map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "wrote {} observation rows to {path}",
        study.observations.len()
    );
    Ok(())
}

fn export_workload(rest: &[String]) -> Result<(), String> {
    let [case_s, cpus_s, path] = rest else {
        return Err("usage: export-workload CASE CPUS FILE.json".into());
    };
    let case = parse_case(case_s)?;
    let cpus: u64 = cpus_s.parse().map_err(|_| "CPUS must be an integer")?;
    let workload = case.workload(cpus);
    let json = serde_json::to_string_pretty(&workload).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "wrote {} ({} blocks, {} comm events) — edit and feed to predict-custom",
        path,
        workload.blocks.len(),
        workload.comm.events.len()
    );
    Ok(())
}

fn predict_custom(rest: &[String]) -> Result<(), String> {
    let [path, machine_s] = rest else {
        return Err("usage: predict-custom FILE.json MACHINE".into());
    };
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let workload: metasim_apps::workload::AppWorkload =
        serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    workload
        .validate()
        .map_err(|e| format!("invalid workload: {e}"))?;
    let machine = MachineId::ALL
        .into_iter()
        .find(|m| m.label().eq_ignore_ascii_case(machine_s))
        .ok_or_else(|| format!("unknown machine `{machine_s}`"))?;
    // The base system simulates each block's random stream, which its
    // caches can tag only up to `max_span` bytes.
    let max_span = fleet().base().memory.hierarchy().max_span();
    if let Some(b) = workload.blocks.iter().find(|b| b.working_set > max_span) {
        return Err(format!(
            "block {}: working set {} bytes exceeds the {max_span} bytes the base system's caches can simulate",
            b.name, b.working_set
        ));
    }

    let session = Session::reports();
    // A custom workload has no appendix ground truth; the base runtime is
    // simulated directly.
    let base_run = metasim_apps::groundtruth::execute(session.fleet.base(), &workload);
    let predictions = session.predict(&trace_workload(&workload), machine, base_run.seconds);
    println!(
        "custom workload {}/{} @ {} processes; base system: {:.0} s",
        workload.app, workload.case, workload.processes, base_run.seconds
    );
    let mut t = Table::new(vec!["Metric", "Predicted s"]);
    for (m, p) in MetricId::ALL.iter().zip(predictions) {
        t.push_row(vec![m.to_string(), f0(p)]);
    }
    println!("{}", t.render());
    Ok(())
}

fn parse_case(s: &str) -> Result<TestCase, String> {
    match s.to_lowercase().as_str() {
        "avus-standard" => Ok(TestCase::AvusStandard),
        "avus-large" => Ok(TestCase::AvusLarge),
        "hycom-standard" => Ok(TestCase::HycomStandard),
        "overflow2-standard" => Ok(TestCase::Overflow2Standard),
        "rfcth-standard" => Ok(TestCase::RfcthStandard),
        other => Err(format!("unknown case `{other}`")),
    }
}

fn predict(rest: &[String]) -> Result<(), String> {
    let [case_s, cpus_s, machine_s] = rest else {
        return Err(
            "usage: predict CASE CPUS MACHINE (e.g. predict avus-standard 64 ARL_Opteron)".into(),
        );
    };
    let case = parse_case(case_s)?;
    let cpus: u64 = cpus_s.parse().map_err(|_| "CPUS must be an integer")?;
    if !case.cpu_counts().contains(&cpus) {
        return Err(format!(
            "{} runs at {:?} CPUs",
            case.label(),
            case.cpu_counts()
        ));
    }
    let machine = MachineId::TARGETS
        .into_iter()
        .find(|m| m.label().eq_ignore_ascii_case(machine_s))
        .ok_or_else(|| format!("unknown machine `{machine_s}`"))?;

    let session = Session::reports();
    let (gt, f) = (&session.gt, &session.fleet);
    let base_actual = gt.run(case, cpus, f.base()).seconds;
    let trace = session.traces.trace(&case.workload(cpus));
    let predictions = session.predict(&trace, machine, base_actual);
    let actual = Seconds::new(gt.run(case, cpus, f.get(machine)).seconds);

    println!(
        "{} @ {cpus} CPUs on {}: base ({}) ran {:.0} s; target actually ran {:.0} s\n",
        case.label(),
        machine.label(),
        MachineId::NavoP690Base.label(),
        base_actual,
        actual
    );
    let mut t = Table::new(vec!["Metric", "Predicted s", "Error %"]);
    for (m, p) in MetricId::ALL.iter().zip(predictions) {
        t.push_row(vec![
            m.to_string(),
            f0(p),
            percent_error(p, actual).signed_one_decimal(),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

/// `metasim fleet gen|study|report|spec`: seeded scenario generation and
/// fleet-scale studies (see `metasim-fleet`).
fn fleet_cmd(rest: &[String]) -> Result<(), String> {
    use metasim_audit::{audit_value, render, Severity};
    use metasim_fleet::study::{render_report, run_fleet_study, FleetBench, FleetStudyConfig};
    use metasim_fleet::{
        audit_generated_fleet, audit_spec, FleetGenerator, FleetMutation, FleetSpec,
        SampledGenerator,
    };

    let sub = rest
        .first()
        .ok_or("fleet needs a subcommand: gen|study|report|spec")?;
    let rest = &rest[1..];

    // Shared flag state across `gen` and `study`.
    let mut cfg = FleetStudyConfig::default();
    let mut spec_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut json = false;
    let mut deny_warnings = false;

    let mut parse_flags = |allowed: &[&str]| -> Result<(), String> {
        let mut args = rest.iter();
        while let Some(arg) = args.next() {
            let flag = arg.as_str();
            if !allowed.contains(&flag) {
                return Err(format!("unknown fleet {sub} flag `{flag}`"));
            }
            match flag {
                "--size" => cfg.size = parse_count("--size", &mut args)?,
                "--seed" => {
                    cfg.seed = args
                        .next()
                        .ok_or("--seed needs an integer")?
                        .parse()
                        .map_err(|_| "--seed needs an unsigned integer".to_string())?;
                }
                "--jobs" => cfg.jobs = parse_count("--jobs", &mut args)?,
                "--tier" => {
                    let t = args.next().ok_or("--tier needs exact|analytic|auto")?;
                    cfg.tier = t.parse().map_err(|e| format!("{e}"))?;
                }
                "--spec" => {
                    spec_path = Some(args.next().ok_or("--spec needs a path")?.clone());
                }
                "--out" => out = Some(args.next().ok_or("--out needs a path")?.clone()),
                "--mutate" => {
                    let name = args.next().ok_or("--mutate needs a mutation name")?;
                    cfg.mutation = Some(FleetMutation::parse(name)?);
                }
                "--json" => json = true,
                "--deny-warnings" => deny_warnings = true,
                other => return Err(format!("unknown fleet {sub} flag `{other}`")),
            }
        }
        Ok(())
    };

    let load_spec = |spec_path: &Option<String>| -> Result<FleetSpec, String> {
        match spec_path {
            Some(p) => FleetSpec::from_file(p),
            None => Ok(FleetSpec::paper_space()),
        }
    };
    let emit = |out: &Option<String>, text: &str| -> Result<(), String> {
        match out {
            Some(path) => {
                std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("wrote {path}");
                Ok(())
            }
            None => {
                println!("{text}");
                Ok(())
            }
        }
    };

    match sub.as_str() {
        "gen" => {
            parse_flags(&["--size", "--seed", "--spec", "--out", "--mutate"])?;
            let mut spec = load_spec(&spec_path)?;
            if let Some(m) = cfg.mutation {
                m.apply_to_spec(&mut spec);
            }
            let mut report = audit_value(|a| audit_spec(&spec, a));
            if !report.has_errors() {
                let generator = SampledGenerator {
                    spec,
                    mutation: cfg.mutation,
                };
                let generated = generator.generate(cfg.size, cfg.seed);
                report.merge(audit_value(|a| audit_generated_fleet(&generated, a)));
                if !report.has_errors() {
                    return emit(&out, &generated.to_json_pretty());
                }
            }
            eprint!("{}", render::human(&report));
            Err(report.summary_line())
        }
        "study" => {
            parse_flags(&[
                "--size",
                "--seed",
                "--spec",
                "--tier",
                "--jobs",
                "--out",
                "--mutate",
                "--json",
                "--deny-warnings",
            ])?;
            let spec = load_spec(&spec_path)?;
            match run_fleet_study(&spec, &cfg) {
                Err(report) => {
                    eprint!("{}", render::human(&report));
                    Err(report.summary_line())
                }
                Ok(output) => {
                    if !output.report.diagnostics.is_empty() {
                        eprint!("{}", render::human(&output.report));
                    }
                    let bench_json = serde_json::to_string_pretty(&output.bench)
                        .map_err(|e| format!("cannot serialize bench: {e}"))?;
                    if let Some(path) = &out {
                        std::fs::write(path, &bench_json)
                            .map_err(|e| format!("writing {path}: {e}"))?;
                        eprintln!("wrote {path}");
                    }
                    if json {
                        println!("{bench_json}");
                    } else {
                        print!("{}", render_report(&output.bench));
                    }
                    if output.report.has_errors()
                        || (deny_warnings && output.report.count(Severity::Warn) > 0)
                    {
                        Err(output.report.summary_line())
                    } else {
                        Ok(())
                    }
                }
            }
        }
        "report" => {
            let path = rest
                .first()
                .ok_or("fleet report needs a BENCH_fleet.json path")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let bench: FleetBench =
                serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
            print!("{}", render_report(&bench));
            Ok(())
        }
        "spec" => {
            parse_flags(&["--out"])?;
            emit(&out, &FleetSpec::paper_space().to_json_pretty())
        }
        other => Err(format!(
            "unknown fleet subcommand `{other}` (try gen, study, report, spec)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_parsing_accepts_all_five() {
        assert_eq!(parse_case("avus-standard").unwrap(), TestCase::AvusStandard);
        assert_eq!(parse_case("AVUS-LARGE").unwrap(), TestCase::AvusLarge);
        assert_eq!(
            parse_case("hycom-standard").unwrap(),
            TestCase::HycomStandard
        );
        assert_eq!(
            parse_case("overflow2-standard").unwrap(),
            TestCase::Overflow2Standard
        );
        assert_eq!(
            parse_case("rfcth-standard").unwrap(),
            TestCase::RfcthStandard
        );
        assert!(parse_case("linpack").is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(dispatch("frobnicate", &[]).is_err());
    }

    #[test]
    fn audit_rejects_bad_flags() {
        assert!(dispatch("audit", &["--frobnicate".into()]).is_err());
        assert!(dispatch("audit", &["--allow".into()]).is_err());
        assert!(dispatch("audit", &["--allow".into(), "not-a-code".into()]).is_err());
    }

    #[test]
    fn lint_rejects_bad_flags() {
        assert!(dispatch("lint", &["--frobnicate".into()]).is_err());
        assert!(dispatch("lint", &["--allow".into(), "not-a-code".into()]).is_err());
        // Seeded defects are test fixtures, not a flag.
        let err = dispatch("lint", &["--mutate".into(), "eq1-multiply".into()]).unwrap_err();
        assert!(err.contains("unknown lint flag"), "{err}");
    }

    #[test]
    fn study_rejects_bad_jobs_values() {
        assert!(dispatch("study", &["--jobs".into()]).is_err());
        assert!(dispatch("study", &["--jobs".into(), "0".into()]).is_err());
        assert!(dispatch("study", &["--jobs".into(), "many".into()]).is_err());
        assert!(dispatch("study", &["--jobs".into(), "-2".into()]).is_err());
    }

    #[test]
    fn every_count_flag_rejects_non_positive_values_alike() {
        // One parser, one message: no command runs serially on `--jobs 0`
        // or samples an empty fleet on `--size 0`.
        let commands: [(&str, &[&str], &str); 5] = [
            ("study", &[], "--jobs"),
            ("sense", &[], "--jobs"),
            ("fleet", &["study"], "--jobs"),
            ("fleet", &["study"], "--size"),
            ("fleet", &["gen"], "--size"),
        ];
        for (cmd, sub, flag) in commands {
            for value in ["0", "many", "-2"] {
                let args: Vec<String> = sub
                    .iter()
                    .chain(&[flag, value])
                    .map(|a| (*a).to_string())
                    .collect();
                let err = dispatch(cmd, &args).expect_err("a non-positive count is rejected");
                assert_eq!(
                    err,
                    format!("{flag} needs a positive integer, got `{value}`"),
                    "{cmd} {sub:?} {flag} {value}"
                );
            }
        }
    }

    #[test]
    fn study_and_audit_reject_bad_tier_values() {
        assert!(dispatch("study", &["--tier".into()]).is_err());
        let err = dispatch("study", &["--tier".into(), "quantum".into()]).unwrap_err();
        assert!(err.contains("exact|analytic|auto"), "{err}");
        assert!(dispatch("audit", &["--tier".into()]).is_err());
        assert!(dispatch("audit", &["--tier".into(), "quantum".into()]).is_err());
    }

    /// A store-less session's study, computed once for the tests that
    /// only read it.
    fn session_study() -> &'static Study {
        static STUDY: std::sync::OnceLock<Study> = std::sync::OnceLock::new();
        STUDY.get_or_init(|| Session::new(None, Tier::Exact, 1).study().unwrap().0)
    }

    #[test]
    fn one_session_measures_and_executes_each_input_once() {
        // The study warms every probe set and ground-truth cell; the tables
        // rendered after it read the same session and measure nothing more.
        let session = Session::new(None, Tier::Exact, 1);
        let study = session.study().unwrap().0;
        probes(&session).unwrap();
        fig1(&session, None).unwrap();
        appendix(&session).unwrap();
        balanced(&session, &study).unwrap();
        assert_eq!(
            session.suite.measurements_performed(),
            11,
            "one sweep per machine"
        );
        assert_eq!(
            session.gt.executions_performed(),
            165,
            "150 targets + 15 base"
        );
    }

    #[test]
    fn complete_grids_render_without_a_partial_annotation() {
        let study = session_study();
        assert!(study.coverage().is_complete());
        assert_eq!(coverage_note(study), "");
        let title = format!(
            "Table 4. Error assessment: metric results vs. application run time.{}",
            coverage_note(study)
        );
        assert!(
            !title.contains("[partial:"),
            "complete grids carry no annotation: {title}"
        );
    }

    #[test]
    fn partial_grids_render_with_the_coverage_annotation() {
        let mut partial = session_study().clone();
        let dropped = MachineId::TARGETS[0];
        partial.observations.retain(|o| o.machine != dropped);
        let note = coverage_note(&partial);
        assert_eq!(note, " [partial: 9/10 systems, 135/150 observations]");
    }

    fn deny_warnings() -> AuditPolicy {
        AuditPolicy {
            deny_warnings: true,
            ..AuditPolicy::default()
        }
    }

    #[test]
    fn lint_passes_clean_and_catches_the_seeded_dimension_bug() {
        // The shipped formulas lint clean even under --deny-warnings...
        assert!(dispatch("lint", &["--deny-warnings".into()]).is_ok());
        // ...and Metric #1 without Equation 1's calibration, a prediction
        // in s/flop, exits non-zero with MS501.
        let mut model = LintModel::shipped();
        model.formulas[0].1 = metasim_core::formula::cost_expr(MetricId::S1Hpl);
        let sense = SenseModel::shipped(SenseScope::Reference);
        let err = run_lint(&model, &sense, false, AuditPolicy::default()).unwrap_err();
        assert!(err.contains("error"), "{err}");
    }

    #[test]
    fn lint_warn_mutations_fail_only_under_deny_warnings() {
        // A single-class dependency analyzer leaves two ENHANCED MAPS
        // flavors unreachable: an MS505 warning.
        let model = LintModel {
            emitted_classes: vec![metasim_tracer::block::DependencyClass::Independent],
            ..LintModel::shipped()
        };
        let sense = SenseModel::shipped(SenseScope::Reference);
        assert!(run_lint(&model, &sense, false, AuditPolicy::default()).is_ok());
        assert!(run_lint(&model, &sense, false, deny_warnings()).is_err());
    }

    #[test]
    fn sense_rejects_bad_flags() {
        assert!(dispatch("sense", &["--frobnicate".into()]).is_err());
        assert!(dispatch("sense", &["--jobs".into(), "0".into()]).is_err());
        // The thresholds, band and seed are fixed, and seeded defects are
        // test fixtures: no flag selects them.
        for (flag, value) in [
            ("--budget", "ci/sense-budget.json"),
            ("--epsilon", "0.05"),
            ("--seed", "42"),
            ("--mutate", "noise-blind"),
        ] {
            let err = dispatch("sense", &[flag.into(), value.into()]).unwrap_err();
            assert!(err.contains("unknown sense flag"), "{flag}: {err}");
        }
    }

    #[test]
    fn sense_reference_is_clean_and_seeded_defects_fail() {
        use metasim_core::formula::{cost_expr, prediction_expr, Expr, RateSource, TimeSource};

        let base_time = || Box::new(Expr::Time(TimeSource::BaseRuntime));
        let on_base = |cost: &Expr| Box::new(Expr::OnBase(Box::new(cost.clone())));

        // The shipped reference analysis is warning-free...
        let reference = SenseModel::shipped(SenseScope::Reference);
        assert!(run_sense(&reference, false, deny_warnings(), 1).is_ok());
        // ...each error-severity defect exits non-zero: Equation 1 with a
        // multiply on Metric #1 (MS901), a STREAM cost `1 / (s − 0.999·s)`
        // on Metric #2 (MS903), and a static band collapsed to a point
        // (MS904)...
        let mut uncancelled_bias = SenseModel::shipped(SenseScope::Reference);
        let hpl = cost_expr(MetricId::S1Hpl);
        uncancelled_bias.formulas[0].1 = Expr::Mul(
            Box::new(Expr::Mul(Box::new(hpl.clone()), on_base(&hpl))),
            base_time(),
        );
        let mut cancelling_denominator = SenseModel::shipped(SenseScope::Reference);
        let stream = Expr::Rate(RateSource::StreamBandwidth);
        let cost = Expr::Recip(Box::new(Expr::Sum(vec![
            stream.clone(),
            Expr::Mul(Box::new(Expr::Const(-0.999)), Box::new(stream)),
        ])));
        cancelling_denominator.formulas[1].1 = Expr::Mul(
            Box::new(Expr::Ratio(Box::new(cost.clone()), on_base(&cost))),
            base_time(),
        );
        let noise_blind = SenseModel {
            epsilon: 0.0,
            ..SenseModel::shipped(SenseScope::Reference)
        };
        for (code, model) in [
            ("MS901", &uncancelled_bias),
            ("MS903", &cancelling_denominator),
            ("MS904", &noise_blind),
        ] {
            let err = run_sense(model, false, AuditPolicy::default(), 1).unwrap_err();
            assert!(err.contains("error"), "{code}: {err}");
        }
        // ...and a zeroed HPL term, which leaves STREAM all the
        // sensitivity (an MS902 warning), fails only under --deny-warnings.
        let mut dead_hpl = SenseModel::shipped(SenseScope::Reference);
        dead_hpl.formulas[4].1 = Expr::Sum(vec![
            Expr::Mul(
                Box::new(Expr::Const(0.0)),
                Box::new(prediction_expr(MetricId::S1Hpl)),
            ),
            prediction_expr(MetricId::S2Stream),
        ]);
        assert!(run_sense(&dead_hpl, false, AuditPolicy::default(), 1).is_ok());
        assert!(run_sense(&dead_hpl, false, deny_warnings(), 1).is_err());
    }

    #[test]
    fn study_and_cache_reject_bad_flags() {
        assert!(dispatch("study", &["--frobnicate".into()]).is_err());
        assert!(dispatch("study", &["--cache-dir".into()]).is_err());
        assert!(dispatch("study", &["--export".into()]).is_err());
        assert!(dispatch("cache", &[]).is_err());
        assert!(dispatch("cache", &["defrag".into()]).is_err());
        assert!(dispatch("cache", &["stats".into(), "--frobnicate".into()]).is_err());
    }

    #[test]
    fn chaos_rejects_bad_args() {
        assert!(dispatch("chaos", &[]).is_err());
        assert!(dispatch("chaos", &["frobnicate".into()]).is_err());
        // --seed is mandatory: an accidental wall-clock seed would destroy
        // reproducibility, so there is no default.
        assert!(dispatch("chaos", &["run".into()]).is_err());
        assert!(dispatch("chaos", &["run".into(), "--seed".into()]).is_err());
        assert!(dispatch("chaos", &["run".into(), "--seed".into(), "x".into()]).is_err());
        let bad_spec = [
            "run".into(),
            "--seed".into(),
            "1".into(),
            "--faults".into(),
            "bogus:1".into(),
        ];
        assert!(dispatch("chaos", &bad_spec).is_err());
        let bad_flag = [
            "run".into(),
            "--seed".into(),
            "1".into(),
            "--frobnicate".into(),
        ];
        let err = dispatch("chaos", &bad_flag).unwrap_err();
        assert!(
            err.contains("unknown chaos run flag `--frobnicate`"),
            "{err}"
        );
        let repeated = [
            "run".into(),
            "--seed".into(),
            "1".into(),
            "--faults".into(),
            "probe-noise:0.05,probe-noise:0.9".into(),
        ];
        let err = dispatch("chaos", &repeated).unwrap_err();
        assert!(err.contains("repeats `probe-noise`"), "{err}");
    }

    #[test]
    fn an_unmeasurable_base_system_is_an_error_not_a_panic() {
        // Every probe attempt fails, the base system's too: the study
        // cannot scale any prediction (Equation 1), and says so.
        let args = [
            "run".into(),
            "--seed".into(),
            "3".into(),
            "--faults".into(),
            "measure-fail:1.0".into(),
        ];
        let err = dispatch("chaos", &args).unwrap_err();
        assert!(
            err.starts_with("the base system is required by Equation 1: probes unavailable for"),
            "{err}"
        );
        assert!(!err.contains('\n'), "one line: {err}");
    }

    #[test]
    fn chaos_outages_must_name_a_target_machine() {
        // A misspelt or miscased label would take nothing out and the run
        // would look complete; the base system cannot be taken out at all.
        for label in ["ARL_Xeonn", "arl_xeon"] {
            let err = build_chaos_plan(Some(1), &format!("outage:{label}")).unwrap_err();
            assert!(
                err.contains(&format!("unknown outage machine `{label}`")),
                "{err}"
            );
            for target in MachineId::TARGETS {
                assert!(err.contains(target.label()), "{err} names {target}");
            }
        }
        let err = build_chaos_plan(Some(1), "outage:ARL_Xeon,outage:ARL_Xeon").unwrap_err();
        assert!(err.contains("repeats the outage of `ARL_Xeon`"), "{err}");
        let base = MachineId::NavoP690Base.label();
        let err = build_chaos_plan(Some(1), &format!("outage:{base}")).unwrap_err();
        assert!(err.contains("base system"), "{err}");
        assert!(!err.contains("unknown outage machine"), "{err}");
        // Every target label is accepted.
        for target in MachineId::TARGETS {
            let plan = build_chaos_plan(Some(1), &format!("outage:{}", target.label())).unwrap();
            assert_eq!(plan.faults.len(), 1);
        }
    }

    #[test]
    fn obs_rejects_bad_args() {
        assert!(dispatch("obs", &[]).is_err());
        assert!(dispatch("obs", &["summarize".into()]).is_err());
        assert!(dispatch("obs", &["summarize".into(), "/nonexistent/m.json".into()]).is_err());
        assert!(dispatch("study", &["--obs-out".into()]).is_err());
        // Manifests have one encoding and traces one producer
        // (`obs export-trace`): the retired flags are unknown flags.
        let unknown = |cmd: &str, args: &[&str], what: &str| {
            let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
            let err = dispatch(cmd, &args).expect_err("retired flag is rejected");
            assert!(err.contains(what), "{err}");
        };
        unknown("study", &["--trace-out", "t.json"], "unknown study flag");
        unknown("study", &["--obs-format", "json"], "unknown study flag");
        unknown(
            "chaos",
            &["run", "--seed", "1", "--obs-format", "json"],
            "unknown chaos run flag",
        );
        // The manifest is the one timing record, `--faults` the one fault
        // plan and `chaos run` the one faulted run; `sense` covers the grid.
        unknown("study", &["--timings"], "unknown study flag `--timings`");
        unknown(
            "study",
            &["--bench-out", "b.json"],
            "unknown study flag `--bench-out`",
        );
        unknown(
            "study",
            &["--fault-plan", "p.json"],
            "unknown study flag `--fault-plan`",
        );
        unknown(
            "chaos",
            &["plan", "--seed", "1"],
            "unknown chaos subcommand `plan`",
        );
        unknown(
            "sense",
            &["--reference"],
            "unknown sense flag `--reference`",
        );
        assert!(dispatch("audit", &["--manifest".into()]).is_err());
        // The new subcommands validate their argument shapes too.
        assert!(dispatch("obs", &["frobnicate".into()]).is_err());
        assert!(dispatch(
            "obs",
            &["summarize".into(), "m.json".into(), "--top".into()]
        )
        .is_err());
        let bad_top = [
            "summarize".into(),
            "m.json".into(),
            "--top".into(),
            "-1".into(),
        ];
        assert!(dispatch("obs", &bad_top).is_err());
        assert!(dispatch("obs", &["export-trace".into()]).is_err());
        assert!(dispatch(
            "obs",
            &["export-trace".into(), "/nonexistent/m.json".into()]
        )
        .is_err());
        assert!(dispatch("obs", &["diff".into()]).is_err());
        assert!(dispatch("obs", &["diff".into(), "a.json".into()]).is_err());
        let missing_budget = [
            "diff".into(),
            "a.json".into(),
            "b.json".into(),
            "--budget".into(),
        ];
        assert!(dispatch("obs", &missing_budget).is_err());
    }

    /// Record a tiny two-phase run and write its manifest to `name` under a
    /// per-process temp dir. Returns the file path.
    fn write_test_manifest(name: &str) -> PathBuf {
        let rec = Arc::new(InMemoryRecorder::new());
        metasim_obs::with_recorder(Arc::clone(&rec), || {
            let study = metasim_obs::span("study");
            {
                let _pre = study.ctx().span("phase:preflight");
            }
            let pred = study.ctx().span("phase:predictions");
            let _shard = pred.ctx().span("shard:0");
        });
        let manifest = RunManifest::build(&rec, ManifestMeta::default());
        let dir = std::env::temp_dir().join(format!("metasim-obs-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, manifest.to_json().unwrap()).unwrap();
        path
    }

    #[test]
    fn obs_export_trace_round_trips_a_manifest() {
        let manifest_path = write_test_manifest("trace-source.json");
        let trace_path = manifest_path.with_file_name("out.trace.json");
        dispatch(
            "obs",
            &[
                "export-trace".into(),
                manifest_path.to_string_lossy().to_string(),
                trace_path.to_string_lossy().to_string(),
            ],
        )
        .unwrap();
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let stats = metasim_obs::export::validate_chrome_trace(&trace).unwrap();
        // study + 2 phases + 1 shard, the shard on its own track.
        assert_eq!(stats.pairs, 4);
        assert_eq!(stats.tracks, 2);
        std::fs::remove_file(&manifest_path).ok();
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn obs_diff_is_clean_against_itself_and_gates_a_regression() {
        let baseline = write_test_manifest("diff-baseline.json");
        let base_s = baseline.to_string_lossy().to_string();
        // A manifest is always within budget of itself.
        dispatch("obs", &["diff".into(), base_s.clone(), base_s.clone()]).unwrap();

        // Inflate one phase past the default budget (50% over, 0.1 s floor):
        // MS404 is error severity, so the diff exits non-zero.
        let mut slow =
            RunManifest::from_json(&std::fs::read_to_string(&baseline).unwrap()).unwrap();
        for phase in &mut slow.phases {
            if phase.name == "predictions" {
                phase.seconds = 10.0;
            }
        }
        slow.total_seconds += 10.0;
        let candidate = baseline.with_file_name("diff-candidate.json");
        std::fs::write(&candidate, slow.to_json().unwrap()).unwrap();
        let cand_s = candidate.to_string_lossy().to_string();
        let err = dispatch("obs", &["diff".into(), base_s.clone(), cand_s.clone()]).unwrap_err();
        assert!(err.contains("MS404"), "{err}");

        // A generous budget file absorbs the same regression.
        let budget = baseline.with_file_name("diff-budget.json");
        // The baseline phase is near-zero, so no relative fraction helps;
        // only a raised absolute floor absorbs the extra 10 seconds.
        let generous = metasim_obs::diff::DiffBudget {
            phase_floor_seconds: 100.0,
            ..metasim_obs::diff::DiffBudget::default()
        };
        std::fs::write(&budget, generous.to_json_pretty()).unwrap();
        dispatch(
            "obs",
            &[
                "diff".into(),
                base_s,
                cand_s,
                "--budget".into(),
                budget.to_string_lossy().to_string(),
            ],
        )
        .unwrap();
        std::fs::remove_file(&baseline).ok();
        std::fs::remove_file(&candidate).ok();
        std::fs::remove_file(&budget).ok();
    }

    #[test]
    fn obs_summarize_accepts_the_top_flag() {
        let path = write_test_manifest("summarize-top.json");
        dispatch(
            "obs",
            &[
                "summarize".into(),
                path.to_string_lossy().to_string(),
                "--top".into(),
                "0".into(),
            ],
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn obs_summarize_renders_a_written_manifest() {
        let rec = Arc::new(InMemoryRecorder::new());
        metasim_obs::with_recorder(Arc::clone(&rec), || {
            let study = metasim_obs::span("study");
            let _pre = study.ctx().span("phase:preflight");
        });
        let manifest = RunManifest::build(&rec, ManifestMeta::default());
        let dir = std::env::temp_dir().join(format!("metasim-obs-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        std::fs::write(&path, manifest.to_json().unwrap()).unwrap();
        dispatch(
            "obs",
            &["summarize".into(), path.to_string_lossy().to_string()],
        )
        .unwrap();
        // The same file satisfies `audit --manifest` (clean fleet + clean
        // manifest -> no error findings).
        dispatch(
            "audit",
            &["--manifest".into(), path.to_string_lossy().to_string()],
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cache_stats_and_clear_work_on_an_empty_dir() {
        let dir = std::env::temp_dir().join(format!("metasim-cli-cache-{}", std::process::id()));
        let dir_s = dir.to_string_lossy().to_string();
        dispatch(
            "cache",
            &["stats".into(), "--cache-dir".into(), dir_s.clone()],
        )
        .unwrap();
        dispatch("cache", &["clear".into(), "--cache-dir".into(), dir_s]).unwrap();
    }

    #[test]
    fn cache_dir_resolution_prefers_explicit() {
        assert_eq!(
            resolve_cache_dir(Some(PathBuf::from("/tmp/x"))),
            PathBuf::from("/tmp/x")
        );
    }

    #[test]
    fn help_and_cheap_tables_succeed() {
        dispatch("help", &[]).unwrap();
        dispatch("systems", &[]).unwrap();
        dispatch("metrics", &[]).unwrap();
    }

    #[test]
    fn predict_validates_arguments() {
        assert!(dispatch("predict", &[]).is_err());
        let bad_cpus = ["avus-standard".into(), "17".into(), "ARL_Opteron".into()];
        assert!(dispatch("predict", &bad_cpus).is_err());
        let bad_machine = ["avus-standard".into(), "32".into(), "Cray_T3E".into()];
        assert!(dispatch("predict", &bad_machine).is_err());
        assert!(dispatch("fig", &["9".into()]).is_err());
        assert!(dispatch("fig", &[]).is_err());
    }

    #[test]
    fn workload_json_round_trips_through_files() {
        let dir = std::env::temp_dir().join("metasim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("workload.json");
        let path_s = path.to_string_lossy().to_string();

        export_workload(&["rfcth-standard".into(), "16".into(), path_s.clone()]).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let workload: metasim_apps::workload::AppWorkload = serde_json::from_str(&json).unwrap();
        assert_eq!(workload.processes, 16);
        assert_eq!(workload.app, "RFCTH");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn predict_custom_refuses_a_working_set_past_the_tag_range() {
        let dir = std::env::temp_dir().join("metasim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("huge-working-set-{}.json", std::process::id()));
        let mut workload = TestCase::RfcthStandard.workload(16);
        workload.blocks[0].working_set = u64::MAX;
        std::fs::write(&path, serde_json::to_string(&workload).unwrap()).unwrap();
        let err = predict_custom(&[path.to_string_lossy().into(), "ARL_Xeon".into()]).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("working set"), "{err}");
    }

    #[test]
    fn export_workload_rejects_bad_args() {
        assert!(export_workload(&["rfcth-standard".into()]).is_err());
        assert!(predict_custom(&["/nonexistent/file.json".into(), "ARL_Xeon".into()]).is_err());
        // `export FILE.csv` is retired: `study --export FILE.csv` writes it.
        assert!(dispatch("export", &["grid.csv".into()]).is_err());
    }
}
