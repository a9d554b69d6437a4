//! Static sensitivity and error-propagation analysis over the formula IR.
//!
//! The nine transfer functions are symbolic expression trees
//! ([`crate::formula::Expr`]), so two classical static analyses apply
//! without running the study:
//!
//! * **Interval abstraction** — re-interpret every probe-measured leaf as
//!   an interval covering a ±ε multiplicative perturbation of its nominal
//!   value (times the factor for rates and curve lookups, divided by it
//!   for the NETBENCH times, exactly the direction the chaos injector's
//!   `probe-noise` fault moves them), then fold the tree with interval
//!   arithmetic. The result is a sound over-approximation of every
//!   prediction the study could produce under that noise band: each
//!   leaf occurrence ranges independently, so any correlated (per-family)
//!   draw the injector makes lands inside the bounds.
//! * **Forward-mode differentiation** — carry `∂T′/∂ln q` for every
//!   [`ProbeQuantity`] alongside the value (a dual number with one
//!   derivative slot per quantity, split into target-side and base-side
//!   occurrences), giving first-order relative sensitivities
//!   (elasticities) and condition numbers per quantity, per prediction
//!   cell.
//!
//! Both run in a single pass per (cell, metric) through the formula IR's
//! own evaluator, folding this module's abstract value instead of `f64`,
//! so the nominal value component *is* the prediction
//! [`crate::formula::eval_prediction`] computes — not a parallel copy.
//!
//! Four lint rules consume the analysis, against the fixed thresholds
//! [`EPSILON`], [`MAX_CONDITION`], [`MAX_DOMINANCE`] and
//! [`MAX_AMPLIFICATION`]. As for MS501–MS505, the tests here pin each
//! rule with a shipped model that has one defect seeded into its fields:
//!
//! * **MS901** — a *coherent* probe miscalibration (the same relative
//!   bias on target and base machine) must cancel through Equation 1's
//!   base ratio; a condition number over budget means systematic probe
//!   bias reaches the prediction amplified.
//! * **MS902** — a multi-probe transfer function whose sensitivity mass
//!   collapses onto a single quantity has degenerated into a simple
//!   metric; the other measurements are dead inputs.
//! * **MS903** — a denominator that can vanish inside the ±ε band, or an
//!   interval that widens faster than the amplification budget: the
//!   prediction is not Lipschitz in its probe inputs.
//! * **MS904** — the empirical closure: a chaos probe-noise run at ±ε
//!   must land inside the static intervals, for every cell and metric.

use std::sync::Arc;

use serde::Serialize;

use metasim_apps::registry::{all_test_cases, TestCase};
use metasim_apps::tracing::TraceCache;
use metasim_audit::registry::{MS901, MS902, MS903, MS904};
use metasim_audit::Auditor;
use metasim_cache::SingleFlight;
use metasim_chaos::{FaultPlan, FaultSpec};
use metasim_machines::{fleet, MachineConfig, MachineId};
use metasim_probes::suite::{apply_probe_noise, MachineProbes, ProbeSuite};
use metasim_tracer::analysis::analyze_dependencies;
use metasim_tracer::block::DependencyClass;
use metasim_tracer::trace::ApplicationTrace;
use metasim_units::Seconds;

use crate::executor::run_sharded;
use crate::formula::{
    eval_prediction, eval_prediction_in, prediction_expr, Domain, Expr, ProbeQuantity,
};
use crate::metric::MetricId;

/// Number of derivative slots — one per [`ProbeQuantity::ALL`] entry.
const NQ: usize = ProbeQuantity::ALL.len();

/// Relative slack when testing interval containment: the static bounds and
/// the observed prediction follow the same operation order, so anything
/// beyond a few ulps of drift is a real violation.
const CONTAINMENT_SLACK: f64 = 1e-9;

// ---------------------------------------------------------------------------
// Model
// ---------------------------------------------------------------------------

/// How much of the 150-cell prediction grid the analysis walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenseScope {
    /// One representative cell: the first (case, CPUs) pair on the first
    /// target machine. Fast enough for `metasim lint` and unit tests.
    Reference,
    /// Every (case, CPUs) × target cell — all 150, as `metasim sense`
    /// runs by default.
    FullGrid,
}

/// The model the sensitivity lint analyzes: the nine prediction formulas
/// plus the perturbation band and the chaos cross-check configuration.
#[derive(Debug, Clone)]
pub struct SenseModel {
    /// The metric prediction formulas, in metric order.
    pub formulas: Vec<(MetricId, Expr)>,
    /// Half-width of the static perturbation band (±ε) the intervals
    /// cover.
    pub epsilon: f64,
    /// Sigma of the chaos probe-noise run the intervals are checked
    /// against (normally equal to [`epsilon`](Self::epsilon)).
    pub observed_epsilon: f64,
    /// Seed of the chaos cross-check draws.
    pub seed: u64,
    /// Grid coverage.
    pub scope: SenseScope,
}

impl SenseModel {
    /// The study as shipped: all nine formulas, a ±[`EPSILON`] band,
    /// seed-42 chaos cross-check. Lints clean.
    #[must_use]
    pub fn shipped(scope: SenseScope) -> Self {
        SenseModel {
            formulas: MetricId::ALL
                .into_iter()
                .map(|m| (m, prediction_expr(m)))
                .collect(),
            epsilon: EPSILON,
            observed_epsilon: EPSILON,
            seed: 42,
            scope,
        }
    }
}

// ---------------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------------

/// The abstract value folded through the tree: the nominal scalar, its ±ε
/// interval, one derivative slot per probe quantity split by which side
/// of [`Expr::OnBase`] the contributing leaves sit on, and whether any
/// denominator on the way could vanish.
#[derive(Clone, Copy)]
struct Val {
    /// Nominal value — the `f64` evaluation, operation for operation.
    v: f64,
    /// Interval lower bound under ±ε leaf perturbation.
    lo: f64,
    /// Interval upper bound under ±ε leaf perturbation.
    hi: f64,
    /// `∂/∂ln q` through target-side leaf occurrences.
    dt: [f64; NQ],
    /// `∂/∂ln q` through base-side (`OnBase`) leaf occurrences.
    db: [f64; NQ],
    /// Arm-optimistic potential sensitivity: an upper bound on
    /// `|∂/∂ln q|` under *any* resolution of the `Max` arms (both sides
    /// combined, magnitudes summed). Zero here means the quantity is
    /// structurally dead — no operating point revives it — which is what
    /// separates a `× 0`-killed term (MS902) from an input that merely
    /// loses every `Max` at the nominal point.
    pot: [f64; NQ],
    /// Some denominator's interval straddled zero (the bounds are the
    /// whole real line).
    vanished: bool,
}

fn combine(a: &[f64; NQ], b: &[f64; NQ], f: impl Fn(f64, f64) -> f64) -> [f64; NQ] {
    let mut out = [0.0; NQ];
    for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = f(*x, *y);
    }
    out
}

/// NaN-tolerant min/max of the four interval-product candidates
/// (`f64::min`/`max` skip a NaN operand, which only arises downstream of
/// an already-flagged vanishing denominator).
fn minmax4(a: f64, b: f64, c: f64, d: f64) -> (f64, f64) {
    (a.min(b).min(c).min(d), a.max(b).max(c).max(d))
}

impl Domain for Val {
    /// The band half-width ε.
    type Env = f64;

    fn exact(c: f64) -> Val {
        Val {
            v: c,
            lo: c,
            hi: c,
            dt: [0.0; NQ],
            db: [0.0; NQ],
            pot: [0.0; NQ],
            vanished: false,
        }
    }

    /// A probe leaf banded the way the chaos injector's `probe-noise`
    /// fault moves it, seeding the derivative slot for `q` on the active
    /// side. Rates and curve lookups are multiplied by the family factor,
    /// so their band is x·[1−ε, 1+ε] (HPL's clamp to peak only shrinks the
    /// reachable range; a curve lookup interpolates linearly in the point
    /// bandwidths, so it scales by the same factor). NETBENCH times scale
    /// *inversely* (a slower fabric takes longer), hence x/[1+ε, 1−ε].
    fn probe(eps: f64, x: f64, q: ProbeQuantity, on_base: bool) -> Val {
        let mut val = Val::exact(x);
        (val.lo, val.hi) = match q {
            ProbeQuantity::NetLatency | ProbeQuantity::NetAllreduce64 => {
                (x / (1.0 + eps), x / (1.0 - eps))
            }
            _ => (x * (1.0 - eps), x * (1.0 + eps)),
        };
        let qi = qindex(q);
        let side = if on_base { &mut val.db } else { &mut val.dt };
        side[qi] = x;
        val.pot[qi] = x.abs();
        val
    }

    fn add(self, o: Val) -> Val {
        Val {
            v: self.v + o.v,
            lo: self.lo + o.lo,
            hi: self.hi + o.hi,
            dt: combine(&self.dt, &o.dt, |x, y| x + y),
            db: combine(&self.db, &o.db, |x, y| x + y),
            pot: combine(&self.pot, &o.pot, |x, y| x + y),
            vanished: self.vanished || o.vanished,
        }
    }

    fn mul(self, o: Val) -> Val {
        let (lo, hi) = minmax4(
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        );
        Val {
            v: self.v * o.v,
            lo,
            hi,
            dt: combine(&self.dt, &o.dt, |x, y| x * o.v + self.v * y),
            db: combine(&self.db, &o.db, |x, y| x * o.v + self.v * y),
            pot: combine(&self.pot, &o.pot, |x, y| x * o.v.abs() + self.v.abs() * y),
            vanished: self.vanished || o.vanished,
        }
    }

    /// `self / o`. When `o`'s interval straddles zero the quotient is
    /// unbounded: the vanish flag is raised and the interval widens to
    /// the whole real line (sound, and trivially contains any
    /// observation).
    fn div(self, o: Val) -> Val {
        let straddles = o.lo <= 0.0 && o.hi >= 0.0;
        let (lo, hi) = if straddles {
            (f64::NEG_INFINITY, f64::INFINITY)
        } else {
            minmax4(
                self.lo / o.lo,
                self.lo / o.hi,
                self.hi / o.lo,
                self.hi / o.hi,
            )
        };
        let denom = o.v * o.v;
        Val {
            v: self.v / o.v,
            lo,
            hi,
            dt: combine(&self.dt, &o.dt, |x, y| (x * o.v - self.v * y) / denom),
            db: combine(&self.db, &o.db, |x, y| (x * o.v - self.v * y) / denom),
            pot: combine(&self.pot, &o.pot, |x, y| {
                (x * o.v.abs() + self.v.abs() * y) / denom
            }),
            vanished: straddles || self.vanished || o.vanished,
        }
    }

    /// `max(self, o)`: interval max is the pointwise max; the derivative
    /// follows the nominally winning arm (ties take the left arm, like
    /// `f64::max`'s left-biased use in the evaluator); the potential
    /// keeps the stronger of *both* arms, since either could win at some
    /// operating point.
    fn max(self, o: Val) -> Val {
        let left = self.v >= o.v;
        Val {
            v: self.v.max(o.v),
            lo: self.lo.max(o.lo),
            hi: self.hi.max(o.hi),
            dt: if left { self.dt } else { o.dt },
            db: if left { self.db } else { o.db },
            pot: combine(&self.pot, &o.pot, f64::max),
            vanished: self.vanished || o.vanished,
        }
    }
}

fn qindex(q: ProbeQuantity) -> usize {
    ProbeQuantity::ALL
        .iter()
        .position(|&x| x == q)
        .expect("every quantity appears in ProbeQuantity::ALL")
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct TraceData {
    trace: Arc<ApplicationTrace>,
    labels: Vec<DependencyClass>,
}

/// What one analysis of `model` reads: the caller's suite and traces, plus
/// two single-flight memos that live as long as the analysis — each
/// trace's dependency labels and each machine's noisy probe set.
struct Inputs<'a> {
    model: &'a SenseModel,
    suite: &'a ProbeSuite,
    traces: &'a TraceCache,
    labelled: SingleFlight<(TestCase, u64), Arc<TraceData>>,
    noisy: SingleFlight<MachineId, Arc<MachineProbes>>,
}

impl<'a> Inputs<'a> {
    fn new(model: &'a SenseModel, suite: &'a ProbeSuite, traces: &'a TraceCache) -> Self {
        Self {
            model,
            suite,
            traces,
            labelled: SingleFlight::new(),
            noisy: SingleFlight::new(),
        }
    }

    fn trace(&self, case: TestCase, cpus: u64) -> Arc<TraceData> {
        self.labelled.get_or_init((case, cpus), || {
            let trace = self.traces.trace(&case.workload(cpus));
            let labels = analyze_dependencies(&trace.blocks);
            Arc::new(TraceData { trace, labels })
        })
    }

    /// `machine`'s probes as the model's chaos probe-noise plan perturbs
    /// them — the observed side of the MS904 cross-check. The noise
    /// perturbs a raw measurement after the fact, so the suite's nominal
    /// sweep is reused, not repeated. A zero amplitude short-circuits to
    /// the nominal probes (the injector's factor is exactly 1.0 there).
    fn noisy(&self, machine: &MachineConfig) -> Arc<MachineProbes> {
        let nominal = self.suite.measure(machine);
        let (seed, sigma) = (self.model.seed, self.model.observed_epsilon);
        if sigma == 0.0 {
            return nominal;
        }
        self.noisy.get_or_init(machine.id, || {
            let plan = probe_noise_plan(seed, sigma);
            let raw = (*nominal).clone();
            Arc::new(metasim_chaos::with_plan(plan, || {
                apply_probe_noise(machine, raw)
            }))
        })
    }
}

fn probe_noise_plan(seed: u64, sigma: f64) -> Arc<FaultPlan> {
    Arc::new(FaultPlan {
        seed,
        faults: vec![FaultSpec::ProbeNoise { sigma }],
    })
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// One probe quantity's aggregated sensitivity for one metric, ranked.
#[derive(Debug, Clone, Serialize)]
pub struct QuantityRank {
    /// Quantity label (`hpl-rmax`, `stream-bandwidth`, …).
    pub quantity: String,
    /// Largest `|∂ln T′ / ∂ln q|` across the analyzed cells.
    pub max_elasticity: f64,
    /// Mean `|∂ln T′ / ∂ln q|` across the analyzed cells.
    pub mean_elasticity: f64,
    /// This quantity's share of the formula's total sensitivity mass at
    /// the nominal operating point.
    pub share: f64,
    /// This quantity's share of the formula's *potential* sensitivity
    /// mass — the arm-optimistic bound where every `Max` resolves in the
    /// quantity's favor. Exactly zero only for structurally dead inputs.
    pub potential_share: f64,
}

/// One observed chaos prediction that escaped its static interval.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// `case/cpus/machine` cell label.
    pub cell: String,
    /// The nominal (noise-free) prediction (seconds, at T₀ = 1 s).
    pub predicted: f64,
    /// The observed noisy prediction (seconds, at T₀ = 1 s).
    pub observed: f64,
    /// Static interval lower bound.
    pub lo: f64,
    /// Static interval upper bound.
    pub hi: f64,
}

/// Per-metric sensitivity summary.
#[derive(Debug, Clone, Serialize)]
pub struct MetricSensitivity {
    /// Display label (`#5 HPL+STREAM`).
    pub metric: String,
    /// Metric number 1–9.
    pub number: usize,
    /// Per-quantity elasticities, most sensitive first.
    pub ranked: Vec<QuantityRank>,
    /// Worst coherent condition number: `|∂ln T′ / ∂ln q|` when the same
    /// quantity is perturbed on target *and* base (systematic
    /// miscalibration). Equation 1 exists to keep this near zero.
    pub coherent_condition: f64,
    /// Worst relative interval amplification: half-width / (ε·|T′|).
    pub amplification: f64,
    /// A denominator interval straddled zero somewhere (the interval is
    /// unbounded).
    pub unbounded: bool,
    /// Largest *potential* sensitivity-mass share held by a single
    /// quantity (0 when the formula reads fewer than two quantities).
    /// Reaches 1.0 only when every other input is structurally dead —
    /// unreachable through any `Max` arm — not merely losing at the
    /// nominal operating point.
    pub dominance: f64,
    /// The quantity holding that share (empty when not applicable).
    pub dominant: String,
    /// Chaos observations outside the static interval (MS904 material).
    pub violations: Vec<Violation>,
}

/// The full analysis result: per-metric rankings plus the chaos
/// cross-check configuration it was validated against.
#[derive(Debug, Clone, Serialize)]
pub struct SensitivityReport {
    /// Static band half-width.
    pub epsilon: f64,
    /// Chaos cross-check sigma.
    pub observed_epsilon: f64,
    /// Chaos cross-check seed.
    pub seed: u64,
    /// Number of prediction cells analyzed.
    pub cells: usize,
    /// Per-metric results, in metric order.
    pub metrics: Vec<MetricSensitivity>,
}

impl SensitivityReport {
    /// Total MS904 interval violations across all metrics.
    #[must_use]
    pub fn total_violations(&self) -> usize {
        self.metrics.iter().map(|m| m.violations.len()).sum()
    }
}

/// Raw per-(cell, metric) analysis output, before aggregation.
struct CellOut {
    v: f64,
    lo: f64,
    hi: f64,
    elast_t: [f64; NQ],
    elast_c: [f64; NQ],
    pot_e: [f64; NQ],
    amp: f64,
    vanished: bool,
    observed: f64,
}

fn cells_for(scope: SenseScope) -> Vec<(TestCase, u64, MachineId)> {
    match scope {
        SenseScope::Reference => {
            let (case, cpus) = all_test_cases()[0];
            vec![(case, cpus, MachineId::TARGETS[0])]
        }
        SenseScope::FullGrid => all_test_cases()
            .into_iter()
            .flat_map(|(case, cpus)| MachineId::TARGETS.into_iter().map(move |m| (case, cpus, m)))
            .collect(),
    }
}

fn eval_cell(
    model: &SenseModel,
    f: &metasim_machines::Fleet,
    inputs: &Inputs<'_>,
    case: TestCase,
    cpus: u64,
    machine: MachineId,
) -> Vec<CellOut> {
    let td = inputs.trace(case, cpus);
    let target = inputs.suite.measure(f.get(machine));
    let base = inputs.suite.measure(f.base());
    let noisy_target = inputs.noisy(f.get(machine));
    let noisy_base = inputs.noisy(f.base());
    model
        .formulas
        .iter()
        .map(|(_, expr)| {
            // T₀ multiplies every prediction linearly, so containment and
            // elasticities are invariant to it; 1 s keeps the cross-check
            // free of ground-truth runs.
            let val: Val = eval_prediction_in(
                expr,
                &target,
                &base,
                &td.trace,
                &td.labels,
                Seconds::new(1.0),
                model.epsilon,
            );
            let observed = eval_prediction(
                expr,
                &noisy_target,
                &noisy_base,
                &td.trace,
                &td.labels,
                Seconds::new(1.0),
            )
            .get();
            let finite_nominal = val.v.is_finite() && val.v != 0.0;
            let (elast_t, elast_c, pot_e) = if finite_nominal {
                (
                    combine(&val.dt, &val.db, |t, _| t / val.v),
                    combine(&val.dt, &val.db, |t, b| (t + b) / val.v),
                    combine(&val.pot, &val.pot, |p, _| p / val.v.abs()),
                )
            } else {
                ([0.0; NQ], [0.0; NQ], [0.0; NQ])
            };
            let amp = if model.epsilon <= 0.0 {
                0.0
            } else if !(val.lo.is_finite() && val.hi.is_finite() && finite_nominal) {
                f64::INFINITY
            } else {
                (val.hi - val.v).max(val.v - val.lo) / (val.v.abs() * model.epsilon)
            };
            CellOut {
                v: val.v,
                lo: val.lo,
                hi: val.hi,
                elast_t,
                elast_c,
                pot_e,
                amp,
                vanished: val.vanished,
                observed,
            }
        })
        .collect()
}

fn outside(observed: f64, lo: f64, hi: f64) -> bool {
    observed < lo - lo.abs() * CONTAINMENT_SLACK || observed > hi + hi.abs() * CONTAINMENT_SLACK
}

/// Run the analysis, measuring probes through `suite` and tracing through
/// `traces`, sharded across up to `jobs` worker threads by the study's own
/// executor. Cells are independent and aggregated in canonical grid order,
/// so any `jobs` value produces a byte-identical report.
#[must_use]
pub fn analyze_with_jobs(
    model: &SenseModel,
    suite: &ProbeSuite,
    traces: &TraceCache,
    jobs: usize,
) -> SensitivityReport {
    let f = fleet();
    let cell_list = cells_for(model.scope);
    let inputs = Inputs::new(model, suite, traces);
    let outs: Vec<Vec<CellOut>> = run_sharded(
        metasim_obs::current_ctx(),
        jobs,
        cell_list.clone(),
        |(case, cpus, machine)| eval_cell(model, &f, &inputs, case, cpus, machine),
    );

    let mut metrics = Vec::with_capacity(model.formulas.len());
    for (mi, (metric, expr)) in model.formulas.iter().enumerate() {
        let quantities = expr.probe_quantities();
        let n = cell_list.len() as f64;
        let mut per_q: Vec<QuantityRank> = Vec::with_capacity(quantities.len());
        let mut masses: Vec<f64> = Vec::with_capacity(quantities.len());
        let mut pot_masses: Vec<f64> = Vec::with_capacity(quantities.len());
        for q in &quantities {
            let qi = qindex(*q);
            let mut max_e = 0.0f64;
            let mut mass = 0.0f64;
            let mut pot_mass = 0.0f64;
            for cell in &outs {
                let e = cell[mi].elast_t[qi].abs();
                max_e = max_e.max(e);
                mass += e;
                pot_mass += cell[mi].pot_e[qi];
            }
            per_q.push(QuantityRank {
                quantity: q.to_string(),
                max_elasticity: max_e,
                mean_elasticity: mass / n,
                share: 0.0,
                potential_share: 0.0,
            });
            masses.push(mass);
            pot_masses.push(pot_mass);
        }
        let total_mass: f64 = masses.iter().sum();
        if total_mass > 0.0 {
            for (rank, mass) in per_q.iter_mut().zip(&masses) {
                rank.share = mass / total_mass;
            }
        }
        let total_pot: f64 = pot_masses.iter().sum();
        if total_pot > 0.0 {
            for (rank, mass) in per_q.iter_mut().zip(&pot_masses) {
                rank.potential_share = mass / total_pot;
            }
        }
        per_q.sort_by(|a, b| b.max_elasticity.total_cmp(&a.max_elasticity));

        let mut coherent = 0.0f64;
        let mut amplification = 0.0f64;
        let mut unbounded = false;
        let mut violations = Vec::new();
        for (cell, &(case, cpus, machine)) in outs.iter().zip(&cell_list) {
            let o = &cell[mi];
            for q in &quantities {
                coherent = coherent.max(o.elast_c[qindex(*q)].abs());
            }
            amplification = amplification.max(o.amp);
            unbounded |= o.vanished;
            if outside(o.observed, o.lo, o.hi) {
                violations.push(Violation {
                    cell: format!("{}/{cpus}/{machine}", case.label()),
                    predicted: o.v,
                    observed: o.observed,
                    lo: o.lo,
                    hi: o.hi,
                });
            }
        }

        let (dominance, dominant) = if quantities.len() >= 2 {
            per_q
                .iter()
                .max_by(|a, b| a.potential_share.total_cmp(&b.potential_share))
                .map_or((0.0, String::new()), |r| {
                    (r.potential_share, r.quantity.clone())
                })
        } else {
            (0.0, String::new())
        };

        metrics.push(MetricSensitivity {
            metric: metric.to_string(),
            number: metric.number(),
            ranked: per_q,
            coherent_condition: coherent,
            amplification,
            unbounded,
            dominance,
            dominant,
            violations,
        });
    }

    let report = SensitivityReport {
        epsilon: model.epsilon,
        observed_epsilon: model.observed_epsilon,
        seed: model.seed,
        cells: cell_list.len(),
        metrics,
    };
    metasim_obs::counter_add("sense.cells", report.cells as u64);
    metasim_obs::counter_add(
        "sense.predictions",
        (report.cells * report.metrics.len()) as u64,
    );
    metasim_obs::counter_add("sense.violations", report.total_violations() as u64);
    report
}

// ---------------------------------------------------------------------------
// Lint rules
// ---------------------------------------------------------------------------

/// Half-width of the relative probe-perturbation band (±ε) the shipped
/// model's static intervals cover and its chaos cross-check perturbs at.
pub const EPSILON: f64 = 0.05;

/// MS901: maximum tolerated coherent condition number. Equation 1's base
/// ratio keeps it near zero; a multiply in place of the divide squares the
/// bias instead (condition 2).
pub const MAX_CONDITION: f64 = 1.25;

/// MS902: maximum tolerated share of one quantity in a multi-probe
/// formula's potential sensitivity mass.
pub const MAX_DOMINANCE: f64 = 0.985;

/// MS903: maximum tolerated interval amplification — relative interval
/// half-width divided by ε.
pub const MAX_AMPLIFICATION: f64 = 3.0;

/// Check an already-computed report against the fixed thresholds,
/// emitting MS901–MS904 findings into `a`.
pub fn lint_report(model: &SenseModel, report: &SensitivityReport, a: &mut Auditor) {
    a.scope("sense", |a| {
        for m in &report.metrics {
            let subject = format!("#{}", m.number);
            if m.coherent_condition > MAX_CONDITION {
                a.finding_at(
                    &MS901,
                    &subject,
                    format!(
                        "{}: a coherent probe miscalibration reaches the prediction \
                         amplified ×{:.2} (budget {:.2}) — Equation 1's base ratio \
                         is not cancelling it",
                        m.metric, m.coherent_condition, MAX_CONDITION
                    ),
                );
            }
            if m.ranked.len() >= 2 && m.dominance > MAX_DOMINANCE {
                a.finding_at(
                    &MS902,
                    &subject,
                    format!(
                        "{}: {} holds {:.1}% of the potential sensitivity mass \
                         (budget {:.1}%) — the formula's other probe inputs are dead weight",
                        m.metric,
                        m.dominant,
                        m.dominance * 100.0,
                        MAX_DOMINANCE * 100.0
                    ),
                );
            }
            if m.unbounded {
                a.finding_at(
                    &MS903,
                    &subject,
                    format!(
                        "{}: a denominator can vanish inside the ±{:.0}% probe band — \
                         the prediction interval is unbounded",
                        m.metric,
                        model.epsilon * 100.0
                    ),
                );
            } else if model.epsilon > 0.0 && m.amplification > MAX_AMPLIFICATION {
                a.finding_at(
                    &MS903,
                    &subject,
                    format!(
                        "{}: the static interval widens ×{:.2} per unit of probe \
                         perturbation (budget {:.2})",
                        m.metric, m.amplification, MAX_AMPLIFICATION
                    ),
                );
            }
            for v in &m.violations {
                a.finding_at(
                    &MS904,
                    format!("{subject}@{}", v.cell),
                    format!(
                        "{}: observed chaos prediction {:.6e} s escaped the static \
                         interval [{:.6e}, {:.6e}] (seed {}, noise ±{:.0}%, static \
                         band ±{:.0}%)",
                        m.metric,
                        v.observed,
                        v.lo,
                        v.hi,
                        model.seed,
                        model.observed_epsilon * 100.0,
                        model.epsilon * 100.0
                    ),
                );
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{calibrated, eq1_multiply, CountSource, RateSource};
    use metasim_audit::{AuditPolicy, AuditReport};
    use metasim_chaos::{site, NOISE_TOLERANCE};

    /// One suite and trace cache for every test in this binary: the
    /// analyses differ only in their models.
    fn shared() -> (&'static ProbeSuite, &'static TraceCache) {
        static SUITE: std::sync::OnceLock<ProbeSuite> = std::sync::OnceLock::new();
        static TRACES: std::sync::OnceLock<TraceCache> = std::sync::OnceLock::new();
        (
            SUITE.get_or_init(ProbeSuite::new),
            TRACES.get_or_init(TraceCache::new),
        )
    }

    fn run(model: &SenseModel) -> SensitivityReport {
        let (suite, traces) = shared();
        analyze_with_jobs(model, suite, traces, 1)
    }

    fn lint_model(model: &SenseModel) -> AuditReport {
        let mut a = Auditor::with_policy(AuditPolicy::default());
        lint_report(model, &run(model), &mut a);
        a.finish()
    }

    #[test]
    fn shipped_reference_cell_is_clean() {
        let report = lint_model(&SenseModel::shipped(SenseScope::Reference));
        assert!(
            report.diagnostics.is_empty(),
            "shipped sensitivity must lint clean: {:?}",
            report.diagnostics
        );
    }

    fn reference() -> SenseModel {
        SenseModel::shipped(SenseScope::Reference)
    }

    /// Equation 1 with a multiply instead of a divide on Metric #1: a
    /// coherent probe bias squares instead of cancelling (condition number
    /// 2 instead of 0), the conditioning view of the tree MS501 rejects by
    /// its dimension (MS901).
    fn uncancelled_bias() -> SenseModel {
        SenseModel {
            formulas: eq1_multiply(),
            ..reference()
        }
    }

    /// Metric #5's floating-point term multiplied by zero: the formula
    /// still reads HPL Rmax, but every derivative through it is
    /// identically zero, so the STREAM term owns all the sensitivity mass
    /// (MS902).
    fn dead_flop_term() -> SenseModel {
        let flop_t = Expr::Ratio(
            Box::new(Expr::Count(CountSource::CounterFlops)),
            Box::new(Expr::Rate(RateSource::HplRmax)),
        );
        let mem_t = Expr::Ratio(
            Box::new(Expr::Count(CountSource::CounterBytes)),
            Box::new(Expr::Rate(RateSource::StreamBandwidth)),
        );
        let mut model = reference();
        model.formulas[4].1 = calibrated(Expr::Sum(vec![
            Expr::Mul(Box::new(Expr::Const(0.0)), Box::new(flop_t)),
            mem_t,
        ]));
        model
    }

    /// Metric #2's cost rebuilt as `1 / (s − 0.999·s)`: the denominator's
    /// ±ε interval straddles zero, so the prediction is not Lipschitz in
    /// the STREAM bandwidth (MS903).
    fn cancelling_denominator() -> SenseModel {
        let stream = Expr::Rate(RateSource::StreamBandwidth);
        let near_zero = Expr::Sum(vec![
            stream.clone(),
            Expr::Mul(Box::new(Expr::Const(-0.999)), Box::new(stream)),
        ]);
        let mut model = reference();
        model.formulas[1].1 = calibrated(Expr::Recip(Box::new(near_zero)));
        model
    }

    /// The static band collapsed to ε = 0 while the chaos cross-check
    /// still perturbs at the observed sigma: every noisy prediction falls
    /// outside its point interval (MS904).
    fn noise_blind() -> SenseModel {
        SenseModel {
            epsilon: 0.0,
            ..reference()
        }
    }

    fn assert_trips_only(code: &str, model: &SenseModel) -> AuditReport {
        let report = lint_model(model);
        assert!(
            report.has_code(code),
            "defect must trip {code}: {:?}",
            report.diagnostics
        );
        for d in &report.diagnostics {
            assert_eq!(d.rule.code, code, "unexpected extra finding {d:?}");
        }
        report
    }

    #[test]
    fn every_sense_mutation_trips_exactly_its_rule() {
        // MS901, MS903 and MS904 are errors that fail `metasim sense`;
        // MS902 only warns.
        assert!(assert_trips_only("MS901", &uncancelled_bias()).has_errors());
        assert!(!assert_trips_only("MS902", &dead_flop_term()).has_errors());
        assert!(assert_trips_only("MS903", &cancelling_denominator()).has_errors());
        assert!(assert_trips_only("MS904", &noise_blind()).has_errors());
    }

    #[test]
    fn nominal_value_matches_the_concrete_evaluator_bitwise() {
        let model = SenseModel::shipped(SenseScope::Reference);
        let f = fleet();
        let (case, cpus) = all_test_cases()[0];
        let machine = MachineId::TARGETS[0];
        let (suite, traces) = shared();
        let trace = traces.trace(&case.workload(cpus));
        let labels = analyze_dependencies(&trace.blocks);
        let target = suite.measure(f.get(machine));
        let base = suite.measure(f.base());
        for (metric, expr) in &model.formulas {
            let val: Val = eval_prediction_in(
                expr,
                &target,
                &base,
                &trace,
                &labels,
                Seconds::new(1.0),
                model.epsilon,
            );
            let concrete =
                eval_prediction(expr, &target, &base, &trace, &labels, Seconds::new(1.0));
            assert_eq!(
                val.v.to_bits(),
                concrete.get().to_bits(),
                "{metric}: abstract nominal {:e} vs concrete {concrete}",
                val.v
            );
            assert!(
                val.lo <= val.v && val.v <= val.hi,
                "{metric}: nominal escapes its own interval"
            );
        }
    }

    #[test]
    fn simple_metric_elasticity_is_exactly_minus_one() {
        // T′(#1) = (r_base / r_target) · T₀: elasticity −1 in the target
        // rate, +1 in the base rate, 0 coherently.
        let model = SenseModel::shipped(SenseScope::Reference);
        let report = run(&model);
        let m1 = &report.metrics[0];
        assert_eq!(m1.ranked.len(), 1);
        assert_eq!(m1.ranked[0].quantity, "hpl-rmax");
        assert!(
            (m1.ranked[0].max_elasticity - 1.0).abs() < 1e-12,
            "elasticity {}",
            m1.ranked[0].max_elasticity
        );
        assert!(
            m1.coherent_condition < 1e-12,
            "Equation 1 must cancel coherent bias: {}",
            m1.coherent_condition
        );
    }

    #[test]
    fn noise_at_the_ms602_tolerance_boundary_stays_inside_the_intervals() {
        // Exactly at the chaos injector's largest lintable sigma (MS602
        // fires strictly above 0.25), the static intervals at ε = 0.25
        // must still contain every observed prediction: the injector's
        // factor 1 + σ(2u − 1) is strictly interior to [1−σ, 1+σ].
        let plan = FaultPlan {
            seed: 7,
            faults: vec![FaultSpec::ProbeNoise {
                sigma: NOISE_TOLERANCE,
            }],
        };
        assert!(
            plan.audit().diagnostics.is_empty(),
            "sigma at the tolerance boundary must not trip MS602"
        );
        for seed in [7, 42, 4242] {
            let mut model = SenseModel::shipped(SenseScope::Reference);
            model.epsilon = NOISE_TOLERANCE;
            model.observed_epsilon = NOISE_TOLERANCE;
            model.seed = seed;
            let report = run(&model);
            assert_eq!(
                report.total_violations(),
                0,
                "seed {seed}: at-budget noise must stay inside the static intervals"
            );
        }
    }

    #[test]
    fn noise_just_over_the_static_band_trips_the_interval_check() {
        // Observed noise at σ = 0.26 against a static band of ε = 0.25:
        // a violation needs the base and target memory-family factors to
        // land near opposite extremes, so search the deterministic
        // xorshift64* draws (pure arithmetic, no measurement) for the
        // first seed that pushes the STREAM ratio outside the static
        // bounds, then run the full cross-check once at that seed.
        let eps = NOISE_TOLERANCE;
        let sigma = 0.26;
        let base_label = MachineId::NavoP690Base.label();
        let target_label = MachineId::TARGETS[0].label();
        let bound = (1.0 + eps) / (1.0 - eps);
        let seed = (0u64..20_000)
            .find(|&seed| {
                let plan = FaultPlan {
                    seed,
                    faults: vec![FaultSpec::ProbeNoise { sigma }],
                };
                let f_base = plan.factor(site::PROBE_NOISE, &["memory", base_label]);
                let f_target = plan.factor(site::PROBE_NOISE, &["memory", target_label]);
                let ratio = f_base / f_target;
                ratio > bound * 1.001 || ratio < 1.001 / bound
            })
            .expect("some seed within 20k must push the memory factors past the band");
        let mut model = SenseModel::shipped(SenseScope::Reference);
        model.epsilon = eps;
        model.observed_epsilon = sigma;
        model.seed = seed;
        let report = run(&model);
        assert!(
            report.total_violations() > 0,
            "seed {seed}: just-over-band noise must escape some static interval"
        );
    }

    #[test]
    fn noisy_probes_equal_a_fresh_sweep_under_the_same_plan() {
        let f = fleet();
        let (suite, traces) = shared();
        for machine in [f.base(), f.get(MachineId::TARGETS[0])] {
            for sigma in [0.05, NOISE_TOLERANCE] {
                let mut model = SenseModel::shipped(SenseScope::Reference);
                model.seed = 42;
                model.observed_epsilon = sigma;
                let fresh = metasim_chaos::with_plan(probe_noise_plan(42, sigma), || {
                    ProbeSuite::new().measure(machine)
                });
                let noisy = Inputs::new(&model, suite, traces).noisy(machine);
                assert_eq!(*noisy, *fresh, "{} at sigma {sigma}", machine.id);
                assert_ne!(*noisy, *suite.measure(machine), "the plan perturbs");
            }
        }
    }

    #[test]
    fn analysis_is_deterministic_and_jobs_invariant() {
        let model = SenseModel::shipped(SenseScope::Reference);
        let (suite, traces) = shared();
        let a = serde_json::to_string(&analyze_with_jobs(&model, suite, traces, 1)).unwrap();
        let b = serde_json::to_string(&analyze_with_jobs(&model, suite, traces, 4)).unwrap();
        assert_eq!(a, b, "per-cell parallelism must not change the report");
    }
}
