//! The fleet study driver: rerun the paper's Table 4/5 methodology per
//! sampled `(machine, application)` cell and aggregate *where in machine
//! space* each simple metric's error exceeds the paper's thresholds.
//!
//! Generated machines never touch the `MachineId`-keyed memo layers
//! ([`metasim_probes::suite::ProbeSuite`],
//! [`metasim_apps::groundtruth::GroundTruth`]) — they drive the pure
//! pipeline functions directly: [`MachineProbes::measure_tiered`] →
//! [`trace_workload`] / [`analyze_dependencies`] → [`execute`] →
//! [`predict_all`]. Each sampled machine is one work item of
//! [`metasim_core::executor::run_sharded`] (its `MS801` calibration when it
//! is in the subsample, its probes, then its cells), so any `--jobs N`
//! produces a byte-identical [`FleetBench`].

use std::collections::{BTreeMap, HashSet};

use metasim_apps::groundtruth::execute;
use metasim_apps::tracing::trace_workload;
use metasim_audit::{audit_value, AuditReport, Severity};
use metasim_core::executor::run_sharded;
use metasim_core::metric::MetricId;
use metasim_core::prediction::predict_all;
use metasim_machines::{fleet as paper_fleet, MachineConfig};
use metasim_memsim::analytic::{resolve_tier, Tier};
use metasim_obs::SpanCtx;
use metasim_probes::suite::MachineProbes;
use metasim_report::table::Table;
use metasim_tracer::analysis::analyze_dependencies;
use metasim_tracer::block::DependencyClass;
use metasim_tracer::trace::ApplicationTrace;
use metasim_units::Seconds;
use serde::{Deserialize, Serialize};

use crate::audit::{audit_generated_fleet, calibrate_tier, preflight_reference};
use crate::mutation::FleetMutation;
use crate::sampler::{
    FleetGenerator, GeneratedApp, GeneratedFleet, GeneratedMachine, SampledGenerator,
};
use crate::spec::{audit_spec, ErrorThresholds, FleetSpec};

/// Schema version of [`FleetBench`] / `BENCH_fleet.json`.
pub const FLEET_BENCH_SCHEMA: u32 = 1;

/// How many sampled machines the fleet-scale `MS801` guard calibrates
/// exhaustively (exact-vs-analytic) per study.
pub const MS801_SUBSAMPLE: usize = 4;

/// Ground-truth case label for a sampled app on a sampled machine: tagging
/// the case with the machine name individualizes the idiosyncrasy and
/// imbalance draws per generated machine (they are otherwise keyed by the
/// worn [`metasim_machines::MachineId`] slot, which all generated machines
/// share).
#[must_use]
pub fn tagged_case(case: &str, machine_name: &str) -> String {
    format!("{case}@{machine_name}")
}

/// Knobs of one fleet study run.
#[derive(Debug, Clone)]
pub struct FleetStudyConfig {
    /// Machines to sample.
    pub size: usize,
    /// User seed every sampling stream is rooted at.
    pub seed: u64,
    /// Memory-model tier for probe measurement.
    pub tier: Tier,
    /// Worker threads (`run_sharded`; byte-identical for any value).
    pub jobs: usize,
    /// Planted defect, if any.
    pub mutation: Option<FleetMutation>,
}

impl Default for FleetStudyConfig {
    fn default() -> Self {
        FleetStudyConfig {
            size: 100,
            seed: 42,
            tier: Tier::Analytic,
            jobs: 1,
            mutation: None,
        }
    }
}

/// One fleet study cell: the nine predictions and the ground truth for a
/// sampled `(machine, application)` pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetObservation {
    /// Sampled machine name.
    pub machine: String,
    /// Machine-space region the machine classifies into.
    pub region: String,
    /// Sampled application name.
    pub app: String,
    /// Processor count.
    pub processes: u64,
    /// Ground-truth runtime on the sampled machine, seconds.
    pub actual: f64,
    /// Ground-truth runtime on the reference machine, seconds.
    pub base_actual: f64,
    /// The nine metric predictions, seconds.
    pub predictions: [f64; 9],
}

impl FleetObservation {
    /// Signed relative error of metric `i` (Equation 2, as a fraction).
    #[must_use]
    pub fn signed_error(&self, i: usize) -> f64 {
        (self.predictions[i] - self.actual) / self.actual
    }
}

/// Error distribution of one metric over one set of cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricErrorStats {
    /// Metric short label (`HPL`, `HPL+MAPS`, …).
    pub metric: String,
    /// Mean `|error|` (fraction).
    pub mean_abs: f64,
    /// Median `|error|`.
    pub median_abs: f64,
    /// 90th-percentile `|error|`.
    pub p90_abs: f64,
    /// Worst `|error|`.
    pub worst_abs: f64,
    /// Share of cells with `|error| ≤ good` threshold.
    pub frac_good: f64,
    /// Share of cells between the thresholds.
    pub frac_marginal: f64,
    /// Share of cells with `|error| > poor` threshold.
    pub frac_poor: f64,
}

/// Error distributions for all nine metrics over one machine-space region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionBreakdown {
    /// Region name (`balanced/tight-network`, or `overall`).
    pub region: String,
    /// Distinct machines in the region.
    pub machines: u64,
    /// Cells (machine × app pairs) in the region.
    pub cells: u64,
    /// Per-metric error distributions, metric order.
    pub metrics: Vec<MetricErrorStats>,
}

/// One sampled application as the bench records it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchApp {
    /// Application name.
    pub name: String,
    /// Processor count.
    pub processes: u64,
    /// Basic blocks.
    pub blocks: u64,
    /// Reference-machine runtime, seconds.
    pub base_seconds: f64,
}

/// The `BENCH_fleet.json` payload: the paper's question answered as a
/// distribution over machine space. Contains no wall-clock or job-count
/// fields — the export is byte-identical across reruns and `--jobs`
/// values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetBench {
    /// Layout version ([`FLEET_BENCH_SCHEMA`]).
    pub schema: u32,
    /// Spec the fleet was drawn from.
    pub spec_name: String,
    /// Machines sampled.
    pub size: u64,
    /// User seed.
    pub seed: u64,
    /// Requested memory-model tier.
    pub tier: String,
    /// Error-bucket thresholds the fractions are computed against.
    pub thresholds: ErrorThresholds,
    /// The sampled applications.
    pub apps: Vec<BenchApp>,
    /// Error distribution over every cell.
    pub overall: RegionBreakdown,
    /// Per-region breakdowns, region name order.
    pub regions: Vec<RegionBreakdown>,
    /// Error-severity audit findings of the run (MS10xx + MS801 guard).
    pub audit_errors: u64,
    /// Warn-severity audit findings of the run.
    pub audit_warnings: u64,
}

/// Everything one fleet study run produces.
#[derive(Debug, Clone)]
pub struct FleetStudyOutput {
    /// The generated fleet.
    pub fleet: GeneratedFleet,
    /// Every cell, canonical (machine, app) order.
    pub observations: Vec<FleetObservation>,
    /// The aggregated export payload.
    pub bench: FleetBench,
    /// The full audit trail (MS10xx preflights + MS801 subsample).
    pub report: AuditReport,
}

/// Classify a sampled machine into a named region of machine space:
/// memory balance (DRAM bytes per peak flop) × interconnect tightness.
/// The regions are the report's unit of aggregation — "where in machine
/// space does each metric break down".
#[must_use]
pub fn region_of(machine: &GeneratedMachine) -> String {
    let p = &machine.config.processor;
    let peak = p.clock_ghz * 1e9 * p.flops_per_cycle;
    let balance = machine.config.memory.memory.stream_bandwidth / peak;
    let memory = if balance < 0.15 {
        "flop-rich"
    } else if balance > 0.4 {
        "bandwidth-rich"
    } else {
        "balanced"
    };
    let network = if machine.config.network.latency < 10e-6 {
        "tight-net"
    } else {
        "loose-net"
    };
    format!("{memory}/{network}")
}

/// What every cell of one sampled application shares, computed once on
/// the reference machine: the trace, its dependency labels and the base
/// runtime. The `MS1004` preflight and every target cell read the same
/// contexts.
#[derive(Debug, Clone)]
pub struct AppContext {
    /// The sampled application.
    pub app: GeneratedApp,
    /// Its trace (the tracer's output does not depend on the machine).
    pub trace: ApplicationTrace,
    /// Dependency labels of the trace's blocks.
    pub labels: Vec<DependencyClass>,
    /// Ground-truth runtime on the reference machine, seconds.
    pub t_base: f64,
}

impl AppContext {
    /// Trace `app` and run it on the reference machine `base`.
    #[must_use]
    pub fn new(base: &MachineConfig, app: &GeneratedApp) -> Self {
        let trace = trace_workload(&app.workload);
        let labels = analyze_dependencies(&trace.blocks);
        let t_base = execute(base, &app.workload).seconds;
        AppContext {
            app: app.clone(),
            trace,
            labels,
            t_base,
        }
    }
}

/// What one sampled machine contributes to a fleet study.
struct MachineRun {
    /// Its `MS801` calibration findings (none outside the subsample).
    calibration: AuditReport,
    /// Its cells, in sampled-application order.
    cells: Vec<FleetObservation>,
}

/// Run every sampled machine as one work item across `cfg.jobs` workers.
/// A machine among the first [`MS801_SUBSAMPLE`] is calibrated first;
/// then its probes are measured once and every sampled application runs
/// on it. Workers claim machines in index order and the runs come back in
/// that order, so merging them gives the same cells and findings at any
/// `jobs`. The machine stays the unit: splitting it into cells would let
/// two workers simulate one large hierarchy at once.
fn run_machines(
    parent: SpanCtx,
    cfg: &FleetStudyConfig,
    machines: &[GeneratedMachine],
    contexts: &[AppContext],
    base_probes: &MachineProbes,
) -> Vec<MachineRun> {
    run_sharded(
        parent,
        cfg.jobs,
        machines.iter().enumerate().collect(),
        |(index, machine)| {
            let calibration = if index < MS801_SUBSAMPLE {
                let _span = metasim_obs::span("audit:ms801");
                calibrate_tier(machine, cfg.tier)
            } else {
                AuditReport::default()
            };
            let tier = resolve_tier(&machine.config.memory, cfg.tier);
            let probes = MachineProbes::measure_tiered(&machine.config, tier);
            let region = region_of(machine);
            let cells = contexts
                .iter()
                .map(|ctx| {
                    let predictions = predict_all(
                        &ctx.trace,
                        &ctx.labels,
                        &probes,
                        base_probes,
                        Seconds::new(ctx.t_base),
                    );
                    let mut ground = ctx.app.workload.clone();
                    ground.case = tagged_case(&ground.case, &machine.name);
                    let actual = execute(&machine.config, &ground).seconds;
                    let mut preds = [0.0; 9];
                    for (slot, p) in preds.iter_mut().zip(predictions.iter()) {
                        *slot = p.get();
                    }
                    FleetObservation {
                        machine: machine.name.clone(),
                        region: region.clone(),
                        app: ctx.app.name.clone(),
                        processes: ctx.app.workload.processes,
                        actual,
                        base_actual: ctx.t_base,
                        predictions: preds,
                    }
                })
                .collect();
            MachineRun { calibration, cells }
        },
    )
}

/// Run a fleet study: sample, audit, preflight, predict, aggregate.
///
/// # Errors
/// The audit report, when a `MS10xx` gate fires at error severity before
/// any cell runs (unsatisfiable spec, degenerate machine, seed overlap,
/// failed reference preflight).
pub fn run_fleet_study(
    spec: &FleetSpec,
    cfg: &FleetStudyConfig,
) -> Result<FleetStudyOutput, AuditReport> {
    let mut spec = spec.clone();
    if let Some(m) = cfg.mutation {
        m.apply_to_spec(&mut spec);
    }
    let mut report = audit_value(|a| audit_spec(&spec, a));
    if report.has_errors() {
        return Err(report);
    }

    let generator = SampledGenerator {
        spec: spec.clone(),
        mutation: cfg.mutation,
    };
    let fleet = generator.generate(cfg.size, cfg.seed);
    report.merge(audit_value(|a| audit_generated_fleet(&fleet, a)));
    if report.has_errors() {
        return Err(report);
    }

    let paper = paper_fleet();
    let mut base = paper.base().clone();
    if cfg.mutation == Some(FleetMutation::ReferenceCollapse) {
        base.processor.app_flop_efficiency = 0.0;
    }
    // Base-side context, computed once per application and gated by the
    // reference preflight before any target cell runs.
    let root = metasim_obs::span("fleet-study");
    let base_tier = resolve_tier(&base.memory, cfg.tier);
    let base_probes = MachineProbes::measure_tiered(&base, base_tier);
    let contexts: Vec<AppContext> =
        run_sharded(root.ctx(), cfg.jobs, fleet.apps.iter().collect(), |app| {
            AppContext::new(&base, app)
        });
    report.merge(audit_value(|a| {
        preflight_reference(&base, &base_probes, &contexts, base_tier, a);
    }));
    if report.has_errors() {
        return Err(report);
    }

    let mut observations = Vec::with_capacity(fleet.machines.len() * contexts.len());
    for run in run_machines(root.ctx(), cfg, &fleet.machines, &contexts, &base_probes) {
        report.merge(run.calibration);
        observations.extend(run.cells);
    }
    drop(root);

    let bench = aggregate(&spec, &fleet, &contexts, &observations, &report, cfg);
    Ok(FleetStudyOutput {
        fleet,
        observations,
        bench,
        report,
    })
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn stats_for(
    metric: MetricId,
    i: usize,
    obs: &[&FleetObservation],
    t: ErrorThresholds,
) -> MetricErrorStats {
    let mut abs: Vec<f64> = obs.iter().map(|o| o.signed_error(i).abs()).collect();
    abs.sort_by(f64::total_cmp);
    let n = abs.len().max(1) as f64;
    let good = abs.iter().filter(|e| **e <= t.good).count() as f64 / n;
    let poor = abs.iter().filter(|e| **e > t.poor).count() as f64 / n;
    MetricErrorStats {
        metric: metric.short_label(),
        mean_abs: abs.iter().sum::<f64>() / n,
        median_abs: percentile(&abs, 0.5),
        p90_abs: percentile(&abs, 0.9),
        worst_abs: abs.last().copied().unwrap_or(0.0),
        frac_good: good,
        frac_marginal: (1.0 - good - poor).max(0.0),
        frac_poor: poor,
    }
}

fn breakdown(name: &str, obs: &[&FleetObservation], t: ErrorThresholds) -> RegionBreakdown {
    let machines: HashSet<&str> = obs.iter().map(|o| o.machine.as_str()).collect();
    RegionBreakdown {
        region: name.to_string(),
        machines: machines.len() as u64,
        cells: obs.len() as u64,
        metrics: MetricId::ALL
            .into_iter()
            .enumerate()
            .map(|(i, m)| stats_for(m, i, obs, t))
            .collect(),
    }
}

fn aggregate(
    spec: &FleetSpec,
    fleet: &GeneratedFleet,
    contexts: &[AppContext],
    observations: &[FleetObservation],
    report: &AuditReport,
    cfg: &FleetStudyConfig,
) -> FleetBench {
    let t = spec.thresholds;
    let all: Vec<&FleetObservation> = observations.iter().collect();
    let mut by_region: BTreeMap<&str, Vec<&FleetObservation>> = BTreeMap::new();
    for o in observations {
        by_region.entry(o.region.as_str()).or_default().push(o);
    }
    FleetBench {
        schema: FLEET_BENCH_SCHEMA,
        spec_name: fleet.spec_name.clone(),
        size: fleet.machines.len() as u64,
        seed: fleet.seed,
        tier: format!("{}", cfg.tier),
        thresholds: t,
        apps: contexts
            .iter()
            .map(|c| BenchApp {
                name: c.app.name.clone(),
                processes: c.app.workload.processes,
                blocks: c.app.workload.blocks.len() as u64,
                base_seconds: c.t_base,
            })
            .collect(),
        overall: breakdown("overall", &all, t),
        regions: by_region
            .iter()
            .map(|(name, obs)| breakdown(name, obs, t))
            .collect(),
        audit_errors: report.count(Severity::Error) as u64,
        audit_warnings: report.count(Severity::Warn) as u64,
    }
}

/// Render the per-region breakdown tables `fleet study` / `fleet report`
/// print: mean `|error|` per region × metric, then the overall error
/// buckets per metric.
#[must_use]
pub fn render_report(bench: &FleetBench) -> String {
    let pct = |v: f64| format!("{:.1}%", v * 100.0);
    let mut header: Vec<String> = vec![
        "region".to_string(),
        "machines".to_string(),
        "cells".to_string(),
    ];
    header.extend(MetricId::ALL.map(MetricId::short_label));
    let mut regions = Table::new(header).with_title(format!(
        "mean |error| by machine-space region ({} machines, seed {}, tier {})",
        bench.size, bench.seed, bench.tier
    ));
    for r in bench.regions.iter().chain(std::iter::once(&bench.overall)) {
        let mut row = vec![
            r.region.clone(),
            r.machines.to_string(),
            r.cells.to_string(),
        ];
        row.extend(r.metrics.iter().map(|m| pct(m.mean_abs)));
        regions.push_row(row);
    }

    let mut buckets = Table::new(vec![
        "metric", "mean", "median", "p90", "worst", "within", "marginal", "poor",
    ])
    .with_title(format!(
        "overall error buckets (within ≤ {:.0}% < marginal ≤ {:.0}% < poor)",
        bench.thresholds.good * 100.0,
        bench.thresholds.poor * 100.0
    ));
    for (m, s) in MetricId::ALL.iter().zip(&bench.overall.metrics) {
        buckets.push_row(vec![
            format!("{} {}", s.metric, m.name()),
            pct(s.mean_abs),
            pct(s.median_abs),
            pct(s.p90_abs),
            pct(s.worst_abs),
            pct(s.frac_good),
            pct(s.frac_marginal),
            pct(s.frac_poor),
        ]);
    }
    format!("{}\n{}", regions.render(), buckets.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim_memsim::analytic::{audit_tier_budget, ResolvedTier};

    // Calibrating each subsampled machine inside its own work item changes
    // nothing in the MS801 findings: the per-machine reports merge to
    // exactly what one serial auditor walking the machines in order
    // produces, findings and order alike.
    #[test]
    fn sharded_tier_subsample_matches_a_serial_walk() {
        let mut fleet = SampledGenerator::paper_space().generate(MS801_SUBSAMPLE, 42);
        // Two geometries the analytic model tracks poorly, so the reports
        // have findings from more than one machine to order.
        for level in &mut fleet.machines[2].config.memory.levels {
            level.line_bytes = 16;
        }
        for level in &mut fleet.machines[3].config.memory.levels {
            level.associativity = 1;
        }
        let serial = audit_value(|a| {
            for m in &fleet.machines {
                a.scope(m.name.clone(), |a| audit_tier_budget(&m.config.memory, a));
            }
        });
        assert!(
            serial.diagnostics.len() >= 2,
            "the doctored machines must fire MS801: {serial}"
        );

        let base = paper_fleet().base().clone();
        let base_probes = MachineProbes::measure_tiered(&base, ResolvedTier::Analytic);
        let contexts = [AppContext::new(&base, &fleet.apps[0])];
        for jobs in [1, 3] {
            let cfg = FleetStudyConfig {
                tier: Tier::Analytic,
                jobs,
                ..FleetStudyConfig::default()
            };
            let mut sharded = AuditReport::default();
            for run in run_machines(
                SpanCtx::root(),
                &cfg,
                &fleet.machines,
                &contexts,
                &base_probes,
            ) {
                assert_eq!(run.cells.len(), 1);
                sharded.merge(run.calibration);
            }
            assert_eq!(sharded, serial, "jobs {jobs}");
        }
    }
}
