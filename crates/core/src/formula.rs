//! A symbolic IR for the nine metric transfer functions — and the only
//! implementation of them.
//!
//! Every metric is written down here as an expression tree over
//! *dimensioned* leaves: probe-measured rates (FLOP/s, bytes/s,
//! updates/s), trace-derived operation counts (FLOPs, bytes), piecewise
//! MAPS curve lookups, and time sums over basic blocks and MPI census
//! entries. The same trees serve three purposes:
//!
//! * **Evaluation** ([`eval_cost`], [`eval_prediction`]) — the paper's
//!   convolver (§3): counts divided by probe rates, summed over blocks with
//!   flop/memory overlap. [`crate::prediction::predict_all`] runs exactly
//!   this, so every study number comes out of these trees. The walker is
//!   generic over the value it folds: plain `f64` for predictions, and the
//!   sensitivity analysis's banded, derivative-carrying value for
//!   `metasim sense` — whose nominal component is therefore the prediction
//!   by construction.
//! * **Dimension checking** ([`Expr::dim`]) — folds the exponent vector of
//!   every node and rejects sums, overlaps (`max`), or comm-op switches
//!   whose arms disagree. `metasim lint` uses this to prove that each
//!   metric's base-calibrated prediction (Equation 1 applied to the cost
//!   ratio) reduces to exactly seconds, and that a seeded wrong-unit
//!   formula (multiply instead of divide in Equation 1) cannot.
//! * **Dataflow extraction** ([`Expr::probe_quantities`]) — which probe
//!   measurements a formula actually consumes, so the lint can flag
//!   metrics referencing unmeasured quantities and measurements no metric
//!   reads.
//!
//! Overlap model: within a block, floating-point and memory work fully
//! overlap (`max`). That is deliberately more optimistic than the ground
//! truth's partial overlap — the convolver is a model, and the gap is one
//! of its honest error sources.

use std::fmt;

use metasim_probes::maps::DependencyFlavor;
use metasim_probes::suite::MachineProbes;
use metasim_tracer::block::{DependencyClass, TracedBlock};
use metasim_tracer::counters::HardwareCounters;
use metasim_tracer::trace::ApplicationTrace;
use metasim_units::Seconds;

use metasim_netsim::replay::{CommEvent, CommOp};

use crate::metric::MetricId;

/// Bytes per memory reference (double precision).
const REF_BYTES: f64 = 8.0;

// ---------------------------------------------------------------------------
// Dimensions
// ---------------------------------------------------------------------------

/// Exponent vector over the study's base dimensions.
///
/// A quantity's dimension is `s^time · flop^flop · B^byte · up^update`.
/// Rates carry negative time exponents: STREAM bandwidth is
/// `{ time: -1, byte: 1 }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim {
    /// Exponent of seconds.
    pub time: i8,
    /// Exponent of floating-point operations.
    pub flop: i8,
    /// Exponent of bytes.
    pub byte: i8,
    /// Exponent of GUPS-style memory updates.
    pub update: i8,
}

impl Dim {
    /// Dimensionless.
    pub const NONE: Dim = Dim::new(0, 0, 0, 0);
    /// Seconds — what every prediction must reduce to.
    pub const TIME: Dim = Dim::new(1, 0, 0, 0);
    /// Floating-point operations.
    pub const FLOPS: Dim = Dim::new(0, 1, 0, 0);
    /// Bytes.
    pub const BYTES: Dim = Dim::new(0, 0, 1, 0);
    /// FLOP/s (HPL Rmax).
    pub const FLOP_RATE: Dim = Dim::new(-1, 1, 0, 0);
    /// Bytes/s (STREAM, MAPS, NETBENCH bandwidth).
    pub const BYTE_RATE: Dim = Dim::new(-1, 0, 1, 0);
    /// Updates/s (GUPS).
    pub const UPDATE_RATE: Dim = Dim::new(-1, 0, 0, 1);

    const fn new(time: i8, flop: i8, byte: i8, update: i8) -> Self {
        Dim {
            time,
            flop,
            byte,
            update,
        }
    }

    /// Dimension of a reciprocal.
    #[must_use]
    pub fn recip(self) -> Dim {
        Dim::new(-self.time, -self.flop, -self.byte, -self.update)
    }
}

/// Dimension of a product.
impl std::ops::Mul for Dim {
    type Output = Dim;
    fn mul(self, rhs: Dim) -> Dim {
        Dim::new(
            self.time + rhs.time,
            self.flop + rhs.flop,
            self.byte + rhs.byte,
            self.update + rhs.update,
        )
    }
}

/// Dimension of a quotient.
impl std::ops::Div for Dim {
    type Output = Dim;
    fn div(self, rhs: Dim) -> Dim {
        Dim::new(
            self.time - rhs.time,
            self.flop - rhs.flop,
            self.byte - rhs.byte,
            self.update - rhs.update,
        )
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let units = [
            ("s", self.time),
            ("flop", self.flop),
            ("B", self.byte),
            ("up", self.update),
        ];
        let num: Vec<String> = units
            .iter()
            .filter(|(_, e)| *e > 0)
            .map(|(u, e)| {
                if *e == 1 {
                    (*u).to_string()
                } else {
                    format!("{u}^{e}")
                }
            })
            .collect();
        let den: Vec<String> = units
            .iter()
            .filter(|(_, e)| *e < 0)
            .map(|(u, e)| {
                if *e == -1 {
                    (*u).to_string()
                } else {
                    format!("{u}^{}", -e)
                }
            })
            .collect();
        match (num.is_empty(), den.is_empty()) {
            (true, true) => write!(f, "1"),
            (false, true) => write!(f, "{}", num.join("·")),
            (true, false) => write!(f, "1/{}", den.join("·")),
            (false, false) => write!(f, "{}/{}", num.join("·"), den.join("·")),
        }
    }
}

/// A dimension-checking failure, with a human-readable explanation of which
/// node disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimError(pub String);

impl fmt::Display for DimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

// ---------------------------------------------------------------------------
// Leaves
// ---------------------------------------------------------------------------

/// A probe-measured rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RateSource {
    /// HPL per-processor Rmax, FLOP/s.
    HplRmax,
    /// STREAM triad bandwidth, bytes/s.
    StreamBandwidth,
    /// GUPS update rate, updates/s.
    GupsUpdateRate,
    /// GUPS effective bandwidth, bytes/s.
    GupsEffectiveBandwidth,
    /// NETBENCH delivered bandwidth, bytes/s.
    NetBandwidth,
}

/// A probe-measured time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeSource {
    /// NETBENCH one-way small-message latency, seconds.
    NetLatency,
    /// NETBENCH 8-byte 64-process `all_reduce` score, seconds.
    NetAllreduce64,
    /// The measured base-system runtime (Equation 1's `T(X₀)`).
    BaseRuntime,
}

/// A trace-derived operation count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CountSource {
    /// Whole-trace FLOPs (basic-block structure visible).
    TracedFlops,
    /// Whole-run FLOPs as a hardware counter total (no block structure).
    CounterFlops,
    /// Whole-run memory traffic from counters: references × 8 bytes.
    CounterBytes,
    /// Whole-trace strided (unit + short) bytes from the stride bins.
    StridedBytes,
    /// Whole-trace random bytes from the stride bins.
    RandomBytes,
    /// Current block's FLOPs.
    BlockFlops,
    /// Current block's strided bytes.
    BlockStridedBytes,
    /// Current block's random bytes.
    BlockRandomBytes,
    /// Current block's invocation count (dimensionless weight).
    BlockInvocations,
    /// Current MPI census entry's occurrence count (dimensionless).
    EventCount,
    /// Current MPI census entry's payload bytes.
    EventBytes,
    /// `all_reduce` payload beyond the measured 8 bytes, scaled by the
    /// doubling-stage count — a byte total moved at NETBENCH bandwidth.
    AllreduceExtraBytes,
}

/// A dimensionless runtime scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleSource {
    /// `ceil(log2 p)` (0 when `p ≤ 1`): collective tree depth.
    LogProcs,
    /// `p − 1`: all-to-all fan-out.
    ProcsMinusOne,
    /// `max(log2(p)/6, 0.17)`: `all_reduce` score scaling from the measured
    /// 64-process configuration.
    AllreduceLogScale,
}

/// Which MPI operation an [`Expr::OpSwitch`] arm models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommOpKind {
    /// Send/recv pair.
    PointToPoint,
    /// Barrier.
    Barrier,
    /// All-reduce.
    AllReduce,
    /// Broadcast or reduce (same tree-of-p2p model).
    BroadcastOrReduce,
    /// All-to-all.
    AllToAll,
}

impl CommOpKind {
    pub(crate) fn matches(self, op: CommOp) -> bool {
        matches!(
            (self, op),
            (CommOpKind::PointToPoint, CommOp::PointToPoint { .. })
                | (CommOpKind::Barrier, CommOp::Barrier)
                | (CommOpKind::AllReduce, CommOp::AllReduce { .. })
                | (
                    CommOpKind::BroadcastOrReduce,
                    CommOp::Broadcast { .. } | CommOp::Reduce { .. }
                )
                | (CommOpKind::AllToAll, CommOp::AllToAll { .. })
        )
    }
}

/// A probe quantity a formula can reference — the unit of measurement the
/// lint reasons about. Coarser than the leaf enums: the five MAPS /
/// ENHANCED MAPS curves count as one measured artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeQuantity {
    /// HPL Rmax.
    HplRmax,
    /// STREAM bandwidth.
    StreamBandwidth,
    /// GUPS update rate.
    GupsUpdateRate,
    /// GUPS effective bandwidth.
    GupsEffectiveBandwidth,
    /// The MAPS / ENHANCED MAPS bandwidth curve set.
    MapsCurves,
    /// NETBENCH latency.
    NetLatency,
    /// NETBENCH bandwidth.
    NetBandwidth,
    /// NETBENCH 64-process `all_reduce` score.
    NetAllreduce64,
}

impl ProbeQuantity {
    /// Every quantity the shipped probe suite measures.
    pub const ALL: [ProbeQuantity; 8] = [
        ProbeQuantity::HplRmax,
        ProbeQuantity::StreamBandwidth,
        ProbeQuantity::GupsUpdateRate,
        ProbeQuantity::GupsEffectiveBandwidth,
        ProbeQuantity::MapsCurves,
        ProbeQuantity::NetLatency,
        ProbeQuantity::NetBandwidth,
        ProbeQuantity::NetAllreduce64,
    ];

    /// The probe that measures this quantity — used in lint messages.
    #[must_use]
    pub fn probe(self) -> &'static str {
        match self {
            ProbeQuantity::HplRmax => "HPL",
            ProbeQuantity::StreamBandwidth => "STREAM",
            ProbeQuantity::GupsUpdateRate | ProbeQuantity::GupsEffectiveBandwidth => "GUPS",
            ProbeQuantity::MapsCurves => "MAPS/ENHANCED MAPS",
            ProbeQuantity::NetLatency
            | ProbeQuantity::NetBandwidth
            | ProbeQuantity::NetAllreduce64 => "NETBENCH",
        }
    }
}

impl fmt::Display for ProbeQuantity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProbeQuantity::HplRmax => "hpl-rmax",
            ProbeQuantity::StreamBandwidth => "stream-bandwidth",
            ProbeQuantity::GupsUpdateRate => "gups-update-rate",
            ProbeQuantity::GupsEffectiveBandwidth => "gups-effective-bandwidth",
            ProbeQuantity::MapsCurves => "maps-curves",
            ProbeQuantity::NetLatency => "net-latency",
            ProbeQuantity::NetBandwidth => "net-bandwidth",
            ProbeQuantity::NetAllreduce64 => "net-allreduce-64p",
        };
        write!(f, "{s}")
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// One node of a metric formula.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A dimensionless constant.
    Const(f64),
    /// A trace-derived operation count.
    Count(CountSource),
    /// A probe-measured rate.
    Rate(RateSource),
    /// A probe-measured time.
    Time(TimeSource),
    /// A dimensionless runtime scalar.
    Scale(ScaleSource),
    /// Piecewise MAPS bandwidth-curve lookup at the current block's working
    /// set. The flavor (plain vs ENHANCED) comes from the enclosing
    /// [`Expr::BlockSum`]'s dependency label.
    Curve {
        /// `true` → random-access curve, `false` → unit-stride curve.
        random: bool,
    },
    /// `1 / x` — how simple-metric costs invert benchmark rates.
    Recip(Box<Expr>),
    /// `a / b` — a count divided by a rate, or Equation 1's cost ratio.
    Ratio(Box<Expr>, Box<Expr>),
    /// `a · b`.
    Mul(Box<Expr>, Box<Expr>),
    /// `Σ terms` — arms must agree dimensionally (a weighted sum once the
    /// dimensionless weights are folded into the terms).
    Sum(Vec<Expr>),
    /// `max(a, b)` — the full-overlap model; arms must agree dimensionally.
    Max(Box<Expr>, Box<Expr>),
    /// Time-sum over traced basic blocks. `labeled` selects ENHANCED MAPS
    /// curve flavors from the dependency labels (Metric #9); unlabeled
    /// sums use the independent curves (#7, #8).
    BlockSum {
        /// Whether dependency labels steer the curve selection.
        labeled: bool,
        /// Per-block cost.
        body: Box<Expr>,
    },
    /// Time-sum over the MPI census.
    CommSum(Box<Expr>),
    /// Per-operation dispatch inside a [`Expr::CommSum`]; every arm must
    /// reduce to the same dimension.
    OpSwitch(Vec<(CommOpKind, Expr)>),
    /// Re-evaluate the inner cost on the *base* machine's probes —
    /// Equation 1's denominator `C(metric, X₀)`.
    OnBase(Box<Expr>),
}

impl Expr {
    fn ratio(a: Expr, b: Expr) -> Expr {
        Expr::Ratio(Box::new(a), Box::new(b))
    }

    fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }

    fn max(a: Expr, b: Expr) -> Expr {
        Expr::Max(Box::new(a), Box::new(b))
    }

    /// The node's dimension, or an error naming the first inconsistent
    /// subexpression (a sum/overlap/switch whose arms disagree).
    pub fn dim(&self) -> Result<Dim, DimError> {
        match self {
            Expr::Const(_) | Expr::Scale(_) => Ok(Dim::NONE),
            Expr::Count(c) => Ok(match c {
                CountSource::TracedFlops | CountSource::CounterFlops | CountSource::BlockFlops => {
                    Dim::FLOPS
                }
                CountSource::CounterBytes
                | CountSource::StridedBytes
                | CountSource::RandomBytes
                | CountSource::BlockStridedBytes
                | CountSource::BlockRandomBytes
                | CountSource::EventBytes
                | CountSource::AllreduceExtraBytes => Dim::BYTES,
                CountSource::BlockInvocations | CountSource::EventCount => Dim::NONE,
            }),
            Expr::Rate(r) => Ok(match r {
                RateSource::HplRmax => Dim::FLOP_RATE,
                RateSource::StreamBandwidth
                | RateSource::GupsEffectiveBandwidth
                | RateSource::NetBandwidth => Dim::BYTE_RATE,
                RateSource::GupsUpdateRate => Dim::UPDATE_RATE,
            }),
            Expr::Time(_) => Ok(Dim::TIME),
            Expr::Curve { .. } => Ok(Dim::BYTE_RATE),
            Expr::Recip(e) => Ok(e.dim()?.recip()),
            Expr::Ratio(a, b) => Ok(a.dim()? / b.dim()?),
            Expr::Mul(a, b) => Ok(a.dim()? * b.dim()?),
            Expr::Sum(terms) => {
                let mut dims = terms.iter().map(Expr::dim);
                let first = dims
                    .next()
                    .ok_or_else(|| DimError("empty sum has no dimension".into()))??;
                for d in dims {
                    let d = d?;
                    if d != first {
                        return Err(DimError(format!(
                            "sum mixes incompatible dimensions: {first} vs {d}"
                        )));
                    }
                }
                Ok(first)
            }
            Expr::Max(a, b) => {
                let (da, db) = (a.dim()?, b.dim()?);
                if da != db {
                    return Err(DimError(format!(
                        "overlap max() compares incompatible dimensions: {da} vs {db}"
                    )));
                }
                Ok(da)
            }
            Expr::BlockSum { body, .. } | Expr::CommSum(body) | Expr::OnBase(body) => body.dim(),
            Expr::OpSwitch(arms) => {
                let mut dims = arms.iter().map(|(_, e)| e.dim());
                let first = dims
                    .next()
                    .ok_or_else(|| DimError("empty op switch has no dimension".into()))??;
                for d in dims {
                    let d = d?;
                    if d != first {
                        return Err(DimError(format!(
                            "comm-op switch arms disagree: {first} vs {d}"
                        )));
                    }
                }
                Ok(first)
            }
        }
    }

    /// Every probe quantity this formula reads, deduplicated, in first-use
    /// order — the probe→convolution edges the lint checks.
    #[must_use]
    pub fn probe_quantities(&self) -> Vec<ProbeQuantity> {
        let mut out = Vec::new();
        self.collect_quantities(&mut out);
        out
    }

    fn collect_quantities(&self, out: &mut Vec<ProbeQuantity>) {
        let push = |q: ProbeQuantity, out: &mut Vec<ProbeQuantity>| {
            if !out.contains(&q) {
                out.push(q);
            }
        };
        match self {
            Expr::Rate(r) => push(
                match r {
                    RateSource::HplRmax => ProbeQuantity::HplRmax,
                    RateSource::StreamBandwidth => ProbeQuantity::StreamBandwidth,
                    RateSource::GupsUpdateRate => ProbeQuantity::GupsUpdateRate,
                    RateSource::GupsEffectiveBandwidth => ProbeQuantity::GupsEffectiveBandwidth,
                    RateSource::NetBandwidth => ProbeQuantity::NetBandwidth,
                },
                out,
            ),
            Expr::Time(t) => match t {
                TimeSource::NetLatency => push(ProbeQuantity::NetLatency, out),
                TimeSource::NetAllreduce64 => push(ProbeQuantity::NetAllreduce64, out),
                TimeSource::BaseRuntime => {}
            },
            Expr::Curve { .. } => push(ProbeQuantity::MapsCurves, out),
            Expr::Const(_) | Expr::Count(_) | Expr::Scale(_) => {}
            Expr::Recip(e) | Expr::OnBase(e) | Expr::CommSum(e) => e.collect_quantities(out),
            Expr::BlockSum { body, .. } => body.collect_quantities(out),
            Expr::Ratio(a, b) | Expr::Mul(a, b) | Expr::Max(a, b) => {
                a.collect_quantities(out);
                b.collect_quantities(out);
            }
            Expr::Sum(terms) => {
                for t in terms {
                    t.collect_quantities(out);
                }
            }
            Expr::OpSwitch(arms) => {
                for (_, e) in arms {
                    e.collect_quantities(out);
                }
            }
        }
    }

    /// Whether the formula contains a label-steered (ENHANCED MAPS)
    /// block sum — the transfer function with per-dependency-class
    /// branches.
    #[must_use]
    pub fn has_labeled_curves(&self) -> bool {
        match self {
            Expr::BlockSum { labeled, body } => *labeled || body.has_labeled_curves(),
            Expr::Recip(e) | Expr::OnBase(e) | Expr::CommSum(e) => e.has_labeled_curves(),
            Expr::Ratio(a, b) | Expr::Mul(a, b) | Expr::Max(a, b) => {
                a.has_labeled_curves() || b.has_labeled_curves()
            }
            Expr::Sum(terms) => terms.iter().any(Expr::has_labeled_curves),
            Expr::OpSwitch(arms) => arms.iter().any(|(_, e)| e.has_labeled_curves()),
            _ => false,
        }
    }

    /// Transfer-function size of a cost tree evaluated on `trace`: one term
    /// per arm of a top-level `Sum`/`Max` (1 for any other root), where a
    /// block or census sum counts one term per iteration. The nine costs
    /// give 1/1/1/1/2/2/B/B+E/B+E for B blocks and E census entries.
    #[must_use]
    pub(crate) fn term_count(&self, trace: &ApplicationTrace) -> usize {
        let arm = |e: &Expr| match e {
            Expr::BlockSum { .. } => trace.blocks.len(),
            Expr::CommSum(_) => trace.mpi.events.len(),
            _ => 1,
        };
        match self {
            Expr::Sum(terms) => terms.iter().map(arm).sum(),
            Expr::Max(a, b) => arm(a) + arm(b),
            other => arm(other),
        }
    }
}

// ---------------------------------------------------------------------------
// The nine formulas
// ---------------------------------------------------------------------------

/// One block's convolved cost: `max(flop_t, mem_t) · invocations`, with the
/// memory time split across the unit-stride and random curves.
fn block_cost_expr() -> Expr {
    let flop_t = Expr::ratio(
        Expr::Count(CountSource::BlockFlops),
        Expr::Rate(RateSource::HplRmax),
    );
    let mem_t = Expr::Sum(vec![
        Expr::ratio(
            Expr::Count(CountSource::BlockStridedBytes),
            Expr::Curve { random: false },
        ),
        Expr::ratio(
            Expr::Count(CountSource::BlockRandomBytes),
            Expr::Curve { random: true },
        ),
    ]);
    Expr::mul(
        Expr::max(flop_t, mem_t),
        Expr::Count(CountSource::BlockInvocations),
    )
}

/// The per-block time sum of metrics #7–#9.
fn maps_cost_expr(labeled: bool) -> Expr {
    Expr::BlockSum {
        labeled,
        body: Box::new(block_cost_expr()),
    }
}

/// The MPI-census network term of metrics #8–#9: per-event counts times a
/// per-operation modelled time, all from NETBENCH's *measured* latency and
/// bandwidth (coarser than the machine's true network behaviour — an
/// honest modelling gap). `all_reduce` scales the measured 64-process
/// score logarithmically in `p`, and moves payload beyond the measured 8
/// bytes at NETBENCH bandwidth per doubling stage.
fn network_cost_expr() -> Expr {
    let p2p = || {
        Expr::Sum(vec![
            Expr::Time(TimeSource::NetLatency),
            Expr::ratio(
                Expr::Count(CountSource::EventBytes),
                Expr::Rate(RateSource::NetBandwidth),
            ),
        ])
    };
    let arms = vec![
        (CommOpKind::PointToPoint, p2p()),
        (
            CommOpKind::Barrier,
            Expr::mul(
                Expr::Scale(ScaleSource::LogProcs),
                Expr::Time(TimeSource::NetLatency),
            ),
        ),
        (
            CommOpKind::AllReduce,
            Expr::Sum(vec![
                Expr::mul(
                    Expr::Scale(ScaleSource::AllreduceLogScale),
                    Expr::Time(TimeSource::NetAllreduce64),
                ),
                Expr::ratio(
                    Expr::Count(CountSource::AllreduceExtraBytes),
                    Expr::Rate(RateSource::NetBandwidth),
                ),
            ]),
        ),
        (
            CommOpKind::BroadcastOrReduce,
            Expr::mul(Expr::Scale(ScaleSource::LogProcs), p2p()),
        ),
        (
            CommOpKind::AllToAll,
            Expr::mul(Expr::Scale(ScaleSource::ProcsMinusOne), p2p()),
        ),
    ];
    Expr::CommSum(Box::new(Expr::mul(
        Expr::Count(CountSource::EventCount),
        Expr::OpSwitch(arms),
    )))
}

/// The symbolic cost `C(metric, X)` of `metric`'s transfer function.
///
/// Simple metrics (#1–#3) are the reciprocal benchmark rate — a "cost"
/// whose base-calibrated ratio is exactly Equation 1. #5 adds its flop and
/// memory times: counters carry no basic-block structure, so it cannot
/// credit overlap, which is why it can be *worse* than STREAM alone
/// (Table 4's 50% vs 43%). #6–#9 overlap them with `max`.
#[must_use]
pub fn cost_expr(metric: MetricId) -> Expr {
    match metric {
        MetricId::S1Hpl => Expr::Recip(Box::new(Expr::Rate(RateSource::HplRmax))),
        MetricId::S2Stream => Expr::Recip(Box::new(Expr::Rate(RateSource::StreamBandwidth))),
        MetricId::S3Gups => Expr::Recip(Box::new(Expr::Rate(RateSource::GupsUpdateRate))),
        MetricId::P4Hpl => Expr::ratio(
            Expr::Count(CountSource::TracedFlops),
            Expr::Rate(RateSource::HplRmax),
        ),
        MetricId::P5HplStream => Expr::Sum(vec![
            Expr::ratio(
                Expr::Count(CountSource::CounterFlops),
                Expr::Rate(RateSource::HplRmax),
            ),
            Expr::ratio(
                Expr::Count(CountSource::CounterBytes),
                Expr::Rate(RateSource::StreamBandwidth),
            ),
        ]),
        MetricId::P6HplStreamGups => Expr::max(
            Expr::ratio(
                Expr::Count(CountSource::TracedFlops),
                Expr::Rate(RateSource::HplRmax),
            ),
            Expr::Sum(vec![
                Expr::ratio(
                    Expr::Count(CountSource::StridedBytes),
                    Expr::Rate(RateSource::StreamBandwidth),
                ),
                Expr::ratio(
                    Expr::Count(CountSource::RandomBytes),
                    Expr::Rate(RateSource::GupsEffectiveBandwidth),
                ),
            ]),
        ),
        MetricId::P7HplMaps => maps_cost_expr(false),
        MetricId::P8HplMapsNet => Expr::Sum(vec![maps_cost_expr(false), network_cost_expr()]),
        MetricId::P9HplMapsNetDep => Expr::Sum(vec![maps_cost_expr(true), network_cost_expr()]),
    }
}

/// The base-calibrated prediction formula (Equation 1 applied to the
/// metric's cost):
///
/// ```text
/// T′(metric, X) = C(metric, X) / C(metric, X₀) · T(X₀)
/// ```
///
/// Whatever dimension the cost carries, the ratio cancels it and the
/// base-runtime factor restores seconds — which is exactly what
/// `metasim lint` verifies. The test fixture `eq1_multiply` breaks it.
#[must_use]
pub fn prediction_expr(metric: MetricId) -> Expr {
    calibrated(cost_expr(metric))
}

/// Base-calibrate any cost tree with Equation 1's well-formed shape,
/// `cost / OnBase(cost) · T(X₀)`.
#[must_use]
pub(crate) fn calibrated(cost: Expr) -> Expr {
    Expr::mul(
        Expr::ratio(cost.clone(), Expr::OnBase(Box::new(cost))),
        Expr::Time(TimeSource::BaseRuntime),
    )
}

/// The nine prediction formulas with Equation 1 seeded wrong on Metric #1:
/// `T′ = C(X) · C(X₀) · T(X₀)`, a multiply where the divide belongs. The
/// prediction carries s³/flop² instead of seconds (MS501), and a coherent
/// probe bias squares instead of cancelling (MS901).
#[cfg(test)]
pub(crate) fn eq1_multiply() -> Vec<(MetricId, Expr)> {
    let mut formulas: Vec<(MetricId, Expr)> = MetricId::ALL
        .into_iter()
        .map(|m| (m, prediction_expr(m)))
        .collect();
    let cost = cost_expr(MetricId::S1Hpl);
    formulas[0].1 = Expr::mul(
        Expr::mul(cost.clone(), Expr::OnBase(Box::new(cost))),
        Expr::Time(TimeSource::BaseRuntime),
    );
    formulas
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// A value the evaluator folds an [`Expr`] into.
///
/// The tree walk — leaf reads, block and census iteration, comm-op
/// dispatch, the `OnBase` side switch — is shared by every domain; a domain
/// only says how leaves become values and how the four operations combine
/// them. Plain `f64` is the prediction domain; the sensitivity analysis
/// folds banded, derivative-carrying values through the same walk.
pub(crate) trait Domain: Copy {
    /// Per-evaluation parameters a probe leaf needs.
    type Env: Copy;
    /// An exactly known scalar: a constant, count, runtime scale, or the
    /// measured base runtime.
    fn exact(x: f64) -> Self;
    /// A probe-measured leaf of quantity `q` with nominal value `x`, read
    /// from the base machine's probes when `on_base`.
    fn probe(env: Self::Env, x: f64, q: ProbeQuantity, on_base: bool) -> Self;
    /// `self + o`.
    fn add(self, o: Self) -> Self;
    /// `self · o`.
    fn mul(self, o: Self) -> Self;
    /// `self / o`.
    fn div(self, o: Self) -> Self;
    /// `max(self, o)`.
    fn max(self, o: Self) -> Self;
}

impl Domain for f64 {
    type Env = ();
    fn exact(x: f64) -> f64 {
        x
    }
    fn probe((): (), x: f64, _: ProbeQuantity, _: bool) -> f64 {
        x
    }
    fn add(self, o: f64) -> f64 {
        self + o
    }
    fn mul(self, o: f64) -> f64 {
        self * o
    }
    fn div(self, o: f64) -> f64 {
        self / o
    }
    fn max(self, o: f64) -> f64 {
        f64::max(self, o)
    }
}

/// Evaluation context: the artifacts a formula's leaves read.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    probes: &'a MachineProbes,
    base_probes: Option<&'a MachineProbes>,
    trace: &'a ApplicationTrace,
    labels: &'a [DependencyClass],
    base_time: Option<Seconds>,
    /// Whether leaves read the base machine (inside an `OnBase`).
    on_base: bool,
    /// Current block and its curve flavor, inside a `BlockSum`.
    block: Option<(&'a TracedBlock, DependencyFlavor)>,
    /// Current census entry, inside a `CommSum`.
    event: Option<&'a CommEvent>,
}

impl<'a> Ctx<'a> {
    fn new(
        probes: &'a MachineProbes,
        base_probes: Option<&'a MachineProbes>,
        trace: &'a ApplicationTrace,
        labels: &'a [DependencyClass],
        base_time: Option<Seconds>,
    ) -> Self {
        Ctx {
            probes,
            base_probes,
            trace,
            labels,
            base_time,
            on_base: false,
            block: None,
            event: None,
        }
    }

    fn block(&self) -> (&TracedBlock, DependencyFlavor) {
        self.block.expect("block leaf outside a BlockSum")
    }

    fn event(&self) -> &CommEvent {
        self.event.expect("event leaf outside a CommSum")
    }

    fn event_bytes(&self) -> u64 {
        match self.event().op {
            CommOp::PointToPoint { bytes }
            | CommOp::AllReduce { bytes }
            | CommOp::Broadcast { bytes }
            | CommOp::Reduce { bytes }
            | CommOp::AllToAll { bytes } => bytes,
            CommOp::Barrier => 0,
        }
    }

    fn processes(&self) -> u64 {
        self.trace.mpi.processes
    }

    fn log_procs(&self) -> f64 {
        let p = self.processes();
        if p <= 1 {
            0.0
        } else {
            (p as f64).log2().ceil()
        }
    }
}

/// The convolved cost of a [`cost_expr`] tree on one machine: the
/// transfer function evaluated against that machine's probes and the
/// application trace (`labels` are the static dependency verdicts,
/// parallel to `trace.blocks`, read only by label-steered block sums).
#[must_use]
pub fn eval_cost(
    expr: &Expr,
    probes: &MachineProbes,
    trace: &ApplicationTrace,
    labels: &[DependencyClass],
) -> f64 {
    eval(expr, &Ctx::new(probes, None, trace, labels, None), ())
}

/// Interpret a [`prediction_expr`] tree: the target/base cost ratio times
/// the measured base runtime.
#[must_use]
pub fn eval_prediction(
    expr: &Expr,
    target: &MachineProbes,
    base: &MachineProbes,
    trace: &ApplicationTrace,
    labels: &[DependencyClass],
    base_time: Seconds,
) -> Seconds {
    Seconds::new(eval_prediction_in(
        expr,
        target,
        base,
        trace,
        labels,
        base_time,
        (),
    ))
}

/// [`eval_prediction`] folded into any [`Domain`].
pub(crate) fn eval_prediction_in<V: Domain>(
    expr: &Expr,
    target: &MachineProbes,
    base: &MachineProbes,
    trace: &ApplicationTrace,
    labels: &[DependencyClass],
    base_time: Seconds,
    env: V::Env,
) -> V {
    let ctx = Ctx::new(target, Some(base), trace, labels, Some(base_time));
    eval(expr, &ctx, env)
}

/// The one tree walker behind every evaluation.
fn eval<V: Domain>(expr: &Expr, ctx: &Ctx<'_>, env: V::Env) -> V {
    let probe = |x: f64, q: ProbeQuantity| V::probe(env, x, q, ctx.on_base);
    match expr {
        Expr::Const(c) => V::exact(*c),
        Expr::Rate(r) => match r {
            RateSource::HplRmax => probe(
                ctx.probes.hpl.rmax_flops_per_proc().get(),
                ProbeQuantity::HplRmax,
            ),
            RateSource::StreamBandwidth => probe(
                ctx.probes.stream.bandwidth.get(),
                ProbeQuantity::StreamBandwidth,
            ),
            RateSource::GupsUpdateRate => probe(
                ctx.probes.gups.updates_per_second.get(),
                ProbeQuantity::GupsUpdateRate,
            ),
            RateSource::GupsEffectiveBandwidth => probe(
                ctx.probes.gups.effective_bandwidth().get(),
                ProbeQuantity::GupsEffectiveBandwidth,
            ),
            RateSource::NetBandwidth => probe(
                ctx.probes.netbench.bandwidth.get(),
                ProbeQuantity::NetBandwidth,
            ),
        },
        Expr::Time(t) => match t {
            TimeSource::NetLatency => {
                probe(ctx.probes.netbench.latency.get(), ProbeQuantity::NetLatency)
            }
            TimeSource::NetAllreduce64 => probe(
                ctx.probes.netbench.allreduce_64p.get(),
                ProbeQuantity::NetAllreduce64,
            ),
            TimeSource::BaseRuntime => V::exact(
                ctx.base_time
                    .expect("BaseRuntime leaf in a cost-only evaluation")
                    .get(),
            ),
        },
        Expr::Scale(s) => V::exact(match s {
            ScaleSource::LogProcs => ctx.log_procs(),
            ScaleSource::ProcsMinusOne => ctx.processes().saturating_sub(1) as f64,
            ScaleSource::AllreduceLogScale => ((ctx.processes() as f64).log2() / 6.0).max(0.17),
        }),
        Expr::Count(c) => V::exact(match c {
            CountSource::TracedFlops => ctx.trace.total_flops() as f64,
            CountSource::CounterFlops => HardwareCounters::from_trace(ctx.trace).flops as f64,
            CountSource::CounterBytes => {
                HardwareCounters::from_trace(ctx.trace).mem_refs as f64 * REF_BYTES
            }
            CountSource::StridedBytes => {
                let bins = ctx.trace.aggregate_bins();
                (bins.stride1 + bins.short) as f64 * REF_BYTES
            }
            CountSource::RandomBytes => ctx.trace.aggregate_bins().random as f64 * REF_BYTES,
            CountSource::BlockFlops => ctx.block().0.flops as f64,
            CountSource::BlockStridedBytes => {
                let bins = &ctx.block().0.bins;
                (bins.stride1 + bins.short) as f64 * REF_BYTES
            }
            CountSource::BlockRandomBytes => ctx.block().0.bins.random as f64 * REF_BYTES,
            CountSource::BlockInvocations => ctx.block().0.invocations as f64,
            CountSource::EventCount => ctx.event().count as f64,
            CountSource::EventBytes => ctx.event_bytes() as f64,
            CountSource::AllreduceExtraBytes => {
                let extra = ctx.event_bytes().saturating_sub(8) as f64;
                (ctx.processes() as f64).log2().ceil() * extra
            }
        }),
        Expr::Curve { random } => {
            let (block, flavor) = ctx.block();
            probe(
                ctx.probes
                    .maps
                    .curve(*random, flavor)
                    .bandwidth_at(block.working_set.max(1))
                    .get(),
                ProbeQuantity::MapsCurves,
            )
        }
        Expr::Recip(e) => V::exact(1.0).div(eval(e, ctx, env)),
        Expr::Ratio(a, b) => eval::<V>(a, ctx, env).div(eval(b, ctx, env)),
        Expr::Mul(a, b) => eval::<V>(a, ctx, env).mul(eval(b, ctx, env)),
        // Left fold; `reduce` keeps two-term sums literally `a + b`.
        Expr::Sum(terms) => terms
            .iter()
            .map(|t| eval(t, ctx, env))
            .reduce(V::add)
            .unwrap_or_else(|| V::exact(0.0)),
        Expr::Max(a, b) => eval::<V>(a, ctx, env).max(eval(b, ctx, env)),
        Expr::BlockSum { labeled, body } => {
            if *labeled {
                assert_eq!(
                    ctx.labels.len(),
                    ctx.trace.blocks.len(),
                    "dependency labels must be parallel to blocks"
                );
            }
            let mut total = V::exact(0.0);
            for (i, block) in ctx.trace.blocks.iter().enumerate() {
                let flavor = if *labeled {
                    match ctx.labels[i] {
                        DependencyClass::Independent => DependencyFlavor::Independent,
                        DependencyClass::Chained => DependencyFlavor::Chained,
                        DependencyClass::Branchy => DependencyFlavor::Branchy,
                    }
                } else {
                    DependencyFlavor::Independent
                };
                let mut inner = *ctx;
                inner.block = Some((block, flavor));
                total = total.add(eval(body, &inner, env));
            }
            total
        }
        Expr::CommSum(body) => {
            let mut total = V::exact(0.0);
            for event in &ctx.trace.mpi.events {
                let mut inner = *ctx;
                inner.event = Some(event);
                total = total.add(eval(body, &inner, env));
            }
            total
        }
        Expr::OpSwitch(arms) => {
            let op = ctx.event().op;
            // A single process has no all_reduce partner: it costs nothing.
            if matches!(op, CommOp::AllReduce { .. }) && ctx.processes() <= 1 {
                return V::exact(0.0);
            }
            let (_, body) = arms
                .iter()
                .find(|(kind, _)| kind.matches(op))
                .expect("comm-op switch missing an arm for a traced operation");
            eval(body, ctx, env)
        }
        Expr::OnBase(e) => {
            let mut inner = *ctx;
            inner.probes = ctx
                .base_probes
                .expect("OnBase leaf in a single-machine evaluation");
            inner.on_base = true;
            eval(e, &inner, env)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim_apps::registry::TestCase;
    use metasim_apps::tracing::trace_workload;
    use metasim_machines::{fleet, MachineId};
    use metasim_probes::suite::ProbeSuite;
    use metasim_tracer::analysis::analyze_dependencies;
    use proptest::prelude::*;

    #[test]
    fn every_prediction_reduces_to_seconds() {
        for m in MetricId::ALL {
            let dim = prediction_expr(m).dim().unwrap_or_else(|e| {
                panic!("{m}: formula is dimensionally inconsistent: {e}");
            });
            assert_eq!(dim, Dim::TIME, "{m} reduces to {dim}, not seconds");
        }
    }

    #[test]
    fn cost_dimensions_match_the_transfer_functions() {
        // Simple metrics invert a rate; predictive metrics are real times.
        assert_eq!(
            cost_expr(MetricId::S1Hpl).dim().unwrap(),
            Dim::FLOP_RATE.recip()
        );
        assert_eq!(
            cost_expr(MetricId::S2Stream).dim().unwrap(),
            Dim::BYTE_RATE.recip()
        );
        assert_eq!(
            cost_expr(MetricId::S3Gups).dim().unwrap(),
            Dim::UPDATE_RATE.recip()
        );
        for m in [
            MetricId::P4Hpl,
            MetricId::P5HplStream,
            MetricId::P6HplStreamGups,
            MetricId::P7HplMaps,
            MetricId::P8HplMapsNet,
            MetricId::P9HplMapsNetDep,
        ] {
            assert_eq!(cost_expr(m).dim().unwrap(), Dim::TIME, "{m}");
        }
    }

    #[test]
    fn dimension_errors_name_the_offending_node() {
        let bad = Expr::Sum(vec![
            Expr::Time(TimeSource::NetLatency),
            Expr::Count(CountSource::EventBytes),
        ]);
        let err = bad.dim().unwrap_err();
        assert!(err.0.contains("s vs B"), "{err}");
    }

    #[test]
    fn dim_display_is_readable() {
        assert_eq!(Dim::TIME.to_string(), "s");
        assert_eq!(Dim::NONE.to_string(), "1");
        assert_eq!(Dim::FLOP_RATE.to_string(), "flop/s");
        assert_eq!(Dim::FLOP_RATE.recip().to_string(), "s/flop");
    }

    #[test]
    fn probe_dataflow_per_metric() {
        use ProbeQuantity as Q;
        assert_eq!(
            cost_expr(MetricId::S1Hpl).probe_quantities(),
            vec![Q::HplRmax]
        );
        assert_eq!(
            cost_expr(MetricId::P6HplStreamGups).probe_quantities(),
            vec![Q::HplRmax, Q::StreamBandwidth, Q::GupsEffectiveBandwidth]
        );
        let nine = cost_expr(MetricId::P9HplMapsNetDep).probe_quantities();
        for q in [
            Q::HplRmax,
            Q::MapsCurves,
            Q::NetLatency,
            Q::NetBandwidth,
            Q::NetAllreduce64,
        ] {
            assert!(nine.contains(&q), "#9 must consume {q}");
        }
        assert!(cost_expr(MetricId::P9HplMapsNetDep).has_labeled_curves());
        assert!(!cost_expr(MetricId::P8HplMapsNet).has_labeled_curves());
    }

    fn setup(id: MachineId) -> (MachineProbes, ApplicationTrace, Vec<DependencyClass>) {
        let probes = (*ProbeSuite::new().measure(fleet().get(id))).clone();
        let trace = trace_workload(&TestCase::AvusStandard.workload(64));
        let labels = analyze_dependencies(&trace.blocks);
        (probes, trace, labels)
    }

    fn cost(m: MetricId, setup: &(MachineProbes, ApplicationTrace, Vec<DependencyClass>)) -> f64 {
        let (probes, trace, labels) = setup;
        eval_cost(&cost_expr(m), probes, trace, labels)
    }

    #[test]
    fn costs_are_positive_and_finite_for_all_metrics() {
        let s = setup(MachineId::MhpccP3);
        for m in MetricId::ALL {
            let c = cost(m, &s);
            assert!(c > 0.0 && c.is_finite(), "{m}: {c}");
        }
    }

    #[test]
    fn memory_terms_dominate_flop_terms_for_these_apps() {
        // The TI-05 suite is memory-bound: #5's cost must exceed #4's.
        let s = setup(MachineId::ArlXeon);
        let (c4, c5) = (cost(MetricId::P4Hpl, &s), cost(MetricId::P5HplStream, &s));
        assert!(c5 > 2.0 * c4, "#5 {c5} should dwarf #4 {c4}");
    }

    #[test]
    fn random_discrimination_raises_cost_above_stream_only() {
        // GUPS rates are far below STREAM: #6's cost must exceed #5's.
        let s = setup(MachineId::Navo655);
        let (c5, c6) = (
            cost(MetricId::P5HplStream, &s),
            cost(MetricId::P6HplStreamGups, &s),
        );
        assert!(c6 > c5, "#6 {c6} vs #5 {c5}");
    }

    #[test]
    fn maps_sees_cache_residency_that_stream_does_not() {
        // #7 rates cache-resident blocks faster than #6's main-memory
        // rates; with this workload's mix, #7's cost is below #6's.
        let s = setup(MachineId::ArlAltix);
        let (c6, c7) = (
            cost(MetricId::P6HplStreamGups, &s),
            cost(MetricId::P7HplMaps, &s),
        );
        assert!(c7 < c6, "#7 {c7} vs #6 {c6}");
    }

    #[test]
    fn network_term_adds_to_metric8() {
        let s = setup(MachineId::MhpccP3);
        let (c7, c8) = (
            cost(MetricId::P7HplMaps, &s),
            cost(MetricId::P8HplMapsNet, &s),
        );
        assert!(c8 > c7);
        let net = eval_cost(&network_cost_expr(), &s.0, &s.1, &s.2);
        assert!((c8 - c7 - net).abs() / net < 1e-9);
    }

    #[test]
    fn metric4_ratio_equals_hpl_ratio() {
        // The flop count cancels in the ratio, reproducing Equation 1.
        let (a, b) = (setup(MachineId::ArlOpteron), setup(MachineId::AscSc45));
        let ratio = |m| cost(m, &a) / cost(m, &b);
        let (conv, hpl) = (ratio(MetricId::P4Hpl), ratio(MetricId::S1Hpl));
        assert!((conv - hpl).abs() / hpl < 1e-12, "{conv} vs {hpl}");
    }

    /// [`network_cost_expr`] over a one-event census at `processes`.
    fn net_cost(probes: &MachineProbes, op: CommOp, processes: u64) -> f64 {
        let trace = ApplicationTrace {
            app: "synthetic".into(),
            case: "one-event".into(),
            processes,
            blocks: Vec::new(),
            mpi: metasim_tracer::MpiTrace {
                processes,
                events: vec![CommEvent::new(op, 1)],
            },
        };
        eval_cost(&network_cost_expr(), probes, &trace, &[])
    }

    #[test]
    fn p2p_cost_is_latency_plus_bytes_over_bandwidth() {
        let (probes, _, _) = setup(MachineId::AscSc45);
        let net = probes.netbench;
        let t0 = net_cost(&probes, CommOp::PointToPoint { bytes: 0 }, 64);
        assert!((t0 - net.latency.get()).abs() < 1e-15, "{t0}");
        let t1 = net_cost(&probes, CommOp::PointToPoint { bytes: 1 << 20 }, 64);
        let affine = net.latency.get() + (1u64 << 20) as f64 / net.bandwidth.get();
        assert!(t1 > t0 && (t1 - affine).abs() / affine < 1e-12, "{t1}");
    }

    #[test]
    fn allreduce_cost_scales_with_processes_and_payload() {
        let (probes, _, _) = setup(MachineId::ArlOpteron);
        let ar = |p, bytes| net_cost(&probes, CommOp::AllReduce { bytes }, p);
        assert_eq!(ar(1, 8), 0.0);
        assert_eq!(ar(1, 1 << 20), 0.0);
        assert!(ar(16, 8) > 0.0);
        assert!(ar(256, 8) > ar(64, 8) && ar(64, 8) > ar(16, 8));
        assert!(ar(256, 1 << 20) > ar(64, 1 << 20) && ar(64, 1 << 20) > ar(16, 1 << 20));
        for p in [16, 64, 256] {
            assert!(ar(p, 1 << 20) > ar(p, 8), "p={p}");
        }
        // At the measured configuration the cost is the measurement.
        let measured = probes.netbench.allreduce_64p.get();
        assert!((ar(64, 8) - measured).abs() / measured < 1e-9);
    }

    #[test]
    fn dependency_term_slows_chained_blocks() {
        let s = setup(MachineId::Navo655);
        let (c8, c9) = (
            cost(MetricId::P8HplMapsNet, &s),
            cost(MetricId::P9HplMapsNetDep, &s),
        );
        assert!(
            c9 > c8,
            "enhanced curves must slow the dependency-flagged blocks: {c9} vs {c8}"
        );
    }

    #[test]
    #[should_panic(expected = "parallel to blocks")]
    fn mismatched_labels_panic() {
        let (probes, trace, _) = setup(MachineId::ArlXeon);
        let _ = eval_cost(&cost_expr(MetricId::P9HplMapsNetDep), &probes, &trace, &[]);
    }

    #[test]
    fn term_counts_follow_the_cost_shapes() {
        let trace = trace_workload(&TestCase::AvusStandard.workload(64));
        let (b, e) = (trace.blocks.len(), trace.mpi.events.len());
        let counts: Vec<usize> = MetricId::ALL
            .into_iter()
            .map(|m| cost_expr(m).term_count(&trace))
            .collect();
        assert_eq!(counts, [1, 1, 1, 1, 2, 2, b, b + e, b + e]);
    }

    /// Reference traversal: every quantity occurrence in evaluation
    /// order, duplicates included.
    fn all_occurrences(expr: &Expr, out: &mut Vec<ProbeQuantity>) {
        match expr {
            Expr::Rate(r) => out.push(match r {
                RateSource::HplRmax => ProbeQuantity::HplRmax,
                RateSource::StreamBandwidth => ProbeQuantity::StreamBandwidth,
                RateSource::GupsUpdateRate => ProbeQuantity::GupsUpdateRate,
                RateSource::GupsEffectiveBandwidth => ProbeQuantity::GupsEffectiveBandwidth,
                RateSource::NetBandwidth => ProbeQuantity::NetBandwidth,
            }),
            Expr::Time(t) => match t {
                TimeSource::NetLatency => out.push(ProbeQuantity::NetLatency),
                TimeSource::NetAllreduce64 => out.push(ProbeQuantity::NetAllreduce64),
                TimeSource::BaseRuntime => {}
            },
            Expr::Curve { .. } => out.push(ProbeQuantity::MapsCurves),
            Expr::Const(_) | Expr::Count(_) | Expr::Scale(_) => {}
            Expr::Recip(e) | Expr::OnBase(e) | Expr::CommSum(e) => all_occurrences(e, out),
            Expr::BlockSum { body, .. } => all_occurrences(body, out),
            Expr::Ratio(a, b) | Expr::Mul(a, b) | Expr::Max(a, b) => {
                all_occurrences(a, out);
                all_occurrences(b, out);
            }
            Expr::Sum(terms) => {
                for t in terms {
                    all_occurrences(t, out);
                }
            }
            Expr::OpSwitch(arms) => {
                for (_, e) in arms {
                    all_occurrences(e, out);
                }
            }
        }
    }

    fn dedup_first_use(occurrences: &[ProbeQuantity]) -> Vec<ProbeQuantity> {
        let mut out = Vec::new();
        for q in occurrences {
            if !out.contains(q) {
                out.push(*q);
            }
        }
        out
    }

    #[test]
    fn probe_quantities_is_deduplicated_and_first_use_ordered_for_every_metric() {
        for m in MetricId::ALL {
            for expr in [cost_expr(m), prediction_expr(m)] {
                let qs = expr.probe_quantities();
                let unique: std::collections::HashSet<ProbeQuantity> = qs.iter().copied().collect();
                assert_eq!(unique.len(), qs.len(), "{m}: duplicates in {qs:?}");
                let mut occurrences = Vec::new();
                all_occurrences(&expr, &mut occurrences);
                assert_eq!(
                    qs,
                    dedup_first_use(&occurrences),
                    "{m}: probe_quantities must be the occurrence list deduplicated \
                     in first-use order"
                );
                assert_eq!(qs, expr.probe_quantities(), "{m}: unstable across calls");
            }
        }
    }

    /// A deterministic expression tree built from integer draws, covering
    /// every structural node kind `probe_quantities` recurses through.
    fn expr_from(draws: &[u64], lo: usize, hi: usize) -> Expr {
        if hi - lo <= 1 {
            return match draws.get(lo).copied().unwrap_or(0) % 9 {
                0 => Expr::Rate(RateSource::HplRmax),
                1 => Expr::Rate(RateSource::StreamBandwidth),
                2 => Expr::Rate(RateSource::GupsUpdateRate),
                3 => Expr::Rate(RateSource::GupsEffectiveBandwidth),
                4 => Expr::Rate(RateSource::NetBandwidth),
                5 => Expr::Time(TimeSource::NetLatency),
                6 => Expr::Time(TimeSource::NetAllreduce64),
                7 => Expr::Curve {
                    random: draws[lo].is_multiple_of(2),
                },
                _ => Expr::Const(1.0),
            };
        }
        let mid = lo + 1 + (hi - lo - 1) / 2;
        let a = expr_from(draws, lo + 1, mid);
        let b = expr_from(draws, mid, hi);
        match draws[lo] % 7 {
            0 => Expr::Sum(vec![a, b]),
            1 => Expr::Mul(Box::new(a), Box::new(b)),
            2 => Expr::Ratio(Box::new(a), Box::new(b)),
            3 => Expr::Max(Box::new(a), Box::new(b)),
            4 => Expr::Recip(Box::new(Expr::Sum(vec![a, b]))),
            5 => Expr::OnBase(Box::new(Expr::Sum(vec![a, b]))),
            _ => Expr::BlockSum {
                labeled: draws[lo].is_multiple_of(2),
                body: Box::new(Expr::Sum(vec![a, b])),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // The dedup/ordering contract holds for arbitrary trees, not just
        // the nine shipped formulas: no duplicates, first-use order, and
        // byte-stable across repeated calls.
        #[test]
        fn probe_quantities_contract_holds_for_arbitrary_trees(
            draws in prop::collection::vec(0u64..1_000_000, 1..48),
        ) {
            let expr = expr_from(&draws, 0, draws.len());
            let qs = expr.probe_quantities();
            let unique: std::collections::HashSet<ProbeQuantity> = qs.iter().copied().collect();
            prop_assert_eq!(unique.len(), qs.len(), "duplicates in {:?}", qs);
            let mut occurrences = Vec::new();
            all_occurrences(&expr, &mut occurrences);
            prop_assert_eq!(qs.clone(), dedup_first_use(&occurrences));
            prop_assert_eq!(qs, expr.probe_quantities());
        }
    }
}
