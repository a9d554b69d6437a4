//! The fleet specification: a serde description of a *sampled design
//! space* over machines and applications.
//!
//! A [`FleetSpec`] does not list machines — it lists the distributions
//! machines are drawn from. Together with a seed it fully determines a
//! generated fleet: `(spec, seed) → byte-identical fleet` is the
//! determinism contract the [`crate::sampler`] upholds and the CI
//! byte-compare enforces (see `docs/FLEET.md`).
//!
//! Spec files are JSON ([`FleetSpec::from_json`],
//! [`FleetSpec::from_file`]). Every field is required — [`FleetSpec::paper_space`] emits
//! a complete, editable default modeled on the paper's 2005-era fleet.
//!
//! Spec well-posedness is an audited property, not an assertion:
//! [`audit_spec`] emits [`MS1002`] findings for inverted ranges, empty
//! choice lists, weights that cannot be normalized, and working sets too
//! large for the cache simulator to tag.

use metasim_apps::workload::WorkingSetModel;
use metasim_audit::registry::MS1002;
use metasim_audit::Auditor;
use metasim_machines::fleet as paper_fleet;
use metasim_memsim::spec::{CacheGeometry, MAX_TLB_ENTRIES};
use metasim_stats::rng::SeededRng;
use serde::{Deserialize, Serialize};

/// A one-dimensional sampling distribution over `f64`.
///
/// Integer-valued fields round the draw ([`Dist::sample_int`]); power-of-two
/// fields draw an exponent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// Log-uniform on `[lo, hi]` (both strictly positive): uniform in
    /// `ln x`, so each decade is equally likely.
    LogUniform {
        /// Lower bound (inclusive, `> 0`).
        lo: f64,
        /// Upper bound (inclusive, `> 0`).
        hi: f64,
    },
    /// Equal-probability choice from an explicit list.
    Choice {
        /// The candidate values; must be non-empty.
        values: Vec<f64>,
    },
}

impl Dist {
    /// Draw one value.
    #[must_use]
    pub fn sample(&self, rng: &mut SeededRng) -> f64 {
        match self {
            Dist::Uniform { lo, hi } => rng.uniform(*lo, *hi),
            Dist::LogUniform { lo, hi } => rng.uniform(lo.ln(), hi.ln()).exp(),
            Dist::Choice { values } => *rng.choose(values),
        }
    }

    /// Draw one value and round it to the nearest integer.
    #[must_use]
    pub fn sample_int(&self, rng: &mut SeededRng) -> i64 {
        self.sample(rng).round() as i64
    }

    /// The smallest and the largest value a draw can take.
    fn bounds(&self) -> (f64, f64) {
        match self {
            Dist::Uniform { lo, hi } | Dist::LogUniform { lo, hi } => (*lo, *hi),
            Dist::Choice { values } => values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                }),
        }
    }

    /// Emit [`MS1002`] findings when the distribution is unsatisfiable.
    pub fn audit(&self, field: &str, a: &mut Auditor) {
        match self {
            Dist::Uniform { lo, hi } => {
                if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
                    a.finding_at(&MS1002, field, format!("inverted range [{lo}, {hi}]"));
                }
            }
            Dist::LogUniform { lo, hi } => {
                if !(lo.is_finite() && hi.is_finite() && *lo > 0.0 && lo <= hi) {
                    a.finding_at(
                        &MS1002,
                        field,
                        format!("log-uniform needs 0 < lo <= hi, got [{lo}, {hi}]"),
                    );
                }
            }
            Dist::Choice { values } => {
                if values.is_empty() {
                    a.finding_at(&MS1002, field, "empty choice list");
                } else if values.iter().any(|v| !v.is_finite()) {
                    a.finding_at(&MS1002, field, "non-finite choice value");
                }
            }
        }
    }
}

/// One interconnect family machines can draw: a named region of network
/// space (think "NUMALink-class" vs. "gigabit-class").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricSpec {
    /// Fabric family name; lands in the generated machine's description
    /// and the per-region report.
    pub name: String,
    /// MPI zero-byte latency, microseconds.
    pub latency_us: Dist,
    /// Peak point-to-point bandwidth, MB/s.
    pub bandwidth_mbs: Dist,
    /// Per-message software overhead, microseconds.
    pub overhead_us: Dist,
    /// Eager→rendezvous protocol switch sizes, bytes (choice list).
    pub rendezvous_bytes: Vec<u64>,
    /// Bisection factor in `(0, 1]`.
    pub bisection: Dist,
}

/// The samplable machine space: every processor, cache-hierarchy, TLB and
/// network parameter a generated [`metasim_machines::MachineConfig`] needs.
///
/// Cache capacities are drawn as powers of two and grown strictly outward,
/// bandwidths shrink outward and latencies grow outward, so sampled
/// hierarchies satisfy the `MS003`/`MS004` physics audits *by
/// construction* — [`crate::audit::audit_generated_fleet`] still checks
/// every machine ([`metasim_audit::registry::MS1001`]) because a
/// hand-edited spec can push a range outside the constructive envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpace {
    /// Core clock, GHz.
    pub clock_ghz: Dist,
    /// Floating-point operations per cycle (choice of 1/2/4-class FPUs).
    pub flops_per_cycle: Dist,
    /// HPL efficiency (fraction of peak the LINPACK submission sustains).
    pub hpl_efficiency: Dist,
    /// Application flop efficiency as a *share of* HPL efficiency, so the
    /// `MS002` ordering `app ≤ HPL ≤ 1` holds by construction.
    pub app_efficiency_share: Dist,
    /// Number of cache levels (choice from 1..=3).
    pub cache_levels: Vec<u64>,
    /// Cache line sizes, bytes (powers of two; one line size per machine).
    pub line_bytes: Vec<u64>,
    /// Set associativities (powers of two).
    pub associativity: Vec<u64>,
    /// L1 capacity exponent: capacity = 2^k bytes.
    pub l1_capacity_log2: Dist,
    /// Capacity exponent step per additional level (≥ 1 keeps `MS004`
    /// strict growth).
    pub level_capacity_step_log2: Dist,
    /// L1 load bandwidth in bytes per core cycle.
    pub l1_bytes_per_cycle: Dist,
    /// Outward bandwidth ratio per level, in `(0, 1]`.
    pub level_bandwidth_ratio: Dist,
    /// L1 load-to-use latency, nanoseconds.
    pub l1_latency_ns: Dist,
    /// Outward latency ratio per level, `≥ 1`.
    pub level_latency_ratio: Dist,
    /// DRAM stream bandwidth as a fraction of the last cache level's.
    pub memory_bandwidth_ratio: Dist,
    /// DRAM latency as a multiple of the last cache level's.
    pub memory_latency_ratio: Dist,
    /// TLB entry counts (choice).
    pub tlb_entries: Vec<u64>,
    /// Page sizes, bytes (powers of two).
    pub page_bytes: Vec<u64>,
    /// TLB miss penalty, nanoseconds.
    pub tlb_miss_penalty_ns: Dist,
    /// Memory-level parallelism (sustainable outstanding misses, ≥ 1).
    pub mlp: Dist,
    /// Short-stride prefetcher efficiency in `[0, 1]`.
    pub short_stride_prefetch: Dist,
    /// Dependency-chain serialization latency, nanoseconds.
    pub dependency_chain_latency_ns: Dist,
    /// Unpredictable-branch penalty, nanoseconds.
    pub branch_penalty_ns: Dist,
    /// Interconnect families machines draw from (uniform choice).
    pub fabrics: Vec<FabricSpec>,
    /// Node count exponent: nodes = 2^k.
    pub nodes_log2: Dist,
}

/// The samplable application space: synthetic TI-05-style applications as
/// block censuses plus an MPI event census, mirroring how the shipped
/// applications are built from [`metasim_apps::workload::BlockTemplate`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpace {
    /// Applications sampled per fleet study.
    pub count: u64,
    /// Basic blocks per application.
    pub blocks: Dist,
    /// Problem size: total cells = 10^x.
    pub cells_log10: Dist,
    /// Time steps.
    pub steps: Dist,
    /// Per-step reference intensity (references per cell per step).
    pub refs_per_cell_step: Dist,
    /// Unit-stride share of each block's reference mix.
    pub stride1_share: Dist,
    /// Random share *of the non-unit remainder* (rest is short-stride).
    pub random_share_of_rest: Dist,
    /// Weights for the working-set models `[PerProcess, Plane, Fixed]`.
    pub ws_weights: Vec<f64>,
    /// Bytes of state per cell (PerProcess working sets).
    pub bytes_per_cell: Dist,
    /// Bytes per point of the active plane (Plane working sets).
    pub plane_bytes_per_point: Dist,
    /// Fixed working-set exponent: bytes = 2^k (Fixed working sets).
    pub fixed_ws_log2: Dist,
    /// Weights for dependency classes `[Independent, Chained, Branchy]`.
    pub dependency_weights: Vec<f64>,
    /// Floating-point operations per memory reference.
    pub flops_per_ref: Dist,
    /// Processor counts applications run at (uniform choice).
    pub processes: Vec<u64>,
    /// Halo exchange size exponent: point-to-point bytes = 2^k.
    pub p2p_bytes_log2: Dist,
    /// Point-to-point events per step.
    pub p2p_per_step: Dist,
    /// All-reduce events per step.
    pub allreduce_per_step: Dist,
    /// A barrier every this many steps.
    pub barrier_every_steps: Dist,
}

/// The paper-derived error buckets the per-region report aggregates into
/// (Figure 2 buckets the same way: good / acceptable / poor).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorThresholds {
    /// `|error|` at or below this is "within tolerance" (paper: 10%).
    pub good: f64,
    /// `|error|` above this is "poor" (paper: 30%); between is "marginal".
    pub poor: f64,
}

/// A complete fleet specification: name, machine space, application space
/// and the error thresholds the report buckets against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Spec name; seeds every sampling stream, so two specs that differ
    /// only by name generate different fleets.
    pub name: String,
    /// The machine design space.
    pub machines: MachineSpace,
    /// The application design space.
    pub apps: AppSpace,
    /// Error buckets for the regional report.
    pub thresholds: ErrorThresholds,
}

impl FleetSpec {
    /// The built-in design space: a widened version of the paper's Table 1
    /// fleet — 2005-era clocks, one-to-three-level hierarchies, four
    /// interconnect families from NUMALink-class to gigabit-class.
    #[must_use]
    pub fn paper_space() -> Self {
        let fabric = |name: &str,
                      lat: (f64, f64),
                      bw: (f64, f64),
                      ovh: (f64, f64),
                      rz: Vec<u64>,
                      bis: (f64, f64)| FabricSpec {
            name: name.to_string(),
            latency_us: Dist::Uniform {
                lo: lat.0,
                hi: lat.1,
            },
            bandwidth_mbs: Dist::Uniform { lo: bw.0, hi: bw.1 },
            overhead_us: Dist::Uniform {
                lo: ovh.0,
                hi: ovh.1,
            },
            rendezvous_bytes: rz,
            bisection: Dist::Uniform {
                lo: bis.0,
                hi: bis.1,
            },
        };
        FleetSpec {
            name: "paper-space".to_string(),
            machines: MachineSpace {
                clock_ghz: Dist::Uniform { lo: 0.4, hi: 2.0 },
                flops_per_cycle: Dist::Choice {
                    values: vec![1.0, 2.0, 4.0],
                },
                hpl_efficiency: Dist::Uniform { lo: 0.45, hi: 0.85 },
                app_efficiency_share: Dist::Uniform { lo: 0.08, hi: 0.4 },
                cache_levels: vec![1, 2, 2, 3],
                line_bytes: vec![32, 64, 128],
                associativity: vec![1, 2, 4, 8],
                l1_capacity_log2: Dist::Uniform { lo: 14.0, hi: 17.0 },
                level_capacity_step_log2: Dist::Uniform { lo: 3.0, hi: 6.0 },
                l1_bytes_per_cycle: Dist::Uniform { lo: 4.0, hi: 16.0 },
                level_bandwidth_ratio: Dist::Uniform { lo: 0.3, hi: 0.8 },
                l1_latency_ns: Dist::Uniform { lo: 0.8, hi: 4.0 },
                level_latency_ratio: Dist::Uniform { lo: 3.0, hi: 8.0 },
                memory_bandwidth_ratio: Dist::Uniform { lo: 0.15, hi: 0.7 },
                memory_latency_ratio: Dist::Uniform { lo: 3.0, hi: 10.0 },
                tlb_entries: vec![64, 128, 256, 512],
                page_bytes: vec![4096, 8192, 16384],
                tlb_miss_penalty_ns: Dist::Uniform {
                    lo: 30.0,
                    hi: 120.0,
                },
                mlp: Dist::Uniform { lo: 1.0, hi: 8.0 },
                short_stride_prefetch: Dist::Uniform { lo: 0.2, hi: 0.9 },
                dependency_chain_latency_ns: Dist::Uniform { lo: 2.0, hi: 12.0 },
                branch_penalty_ns: Dist::Uniform { lo: 1.0, hi: 10.0 },
                fabrics: vec![
                    fabric(
                        "numalink-class",
                        (1.0, 2.5),
                        (800.0, 3200.0),
                        (0.3, 0.8),
                        vec![16384, 32768],
                        (0.7, 1.0),
                    ),
                    fabric(
                        "quadrics-class",
                        (4.0, 9.0),
                        (250.0, 900.0),
                        (0.8, 2.0),
                        vec![32768, 65536],
                        (0.5, 0.9),
                    ),
                    fabric(
                        "federation-class",
                        (12.0, 30.0),
                        (150.0, 500.0),
                        (2.0, 6.0),
                        vec![65536],
                        (0.4, 0.8),
                    ),
                    fabric(
                        "gigabit-class",
                        (40.0, 90.0),
                        (60.0, 120.0),
                        (8.0, 20.0),
                        vec![65536, 131072],
                        (0.3, 0.6),
                    ),
                ],
                nodes_log2: Dist::Uniform { lo: 7.0, hi: 12.0 },
            },
            apps: AppSpace {
                count: 3,
                blocks: Dist::Uniform { lo: 2.0, hi: 5.0 },
                cells_log10: Dist::Uniform { lo: 6.0, hi: 7.5 },
                steps: Dist::Uniform {
                    lo: 40.0,
                    hi: 200.0,
                },
                refs_per_cell_step: Dist::Uniform {
                    lo: 20.0,
                    hi: 120.0,
                },
                stride1_share: Dist::Uniform { lo: 0.45, hi: 0.9 },
                random_share_of_rest: Dist::Uniform { lo: 0.1, hi: 0.7 },
                ws_weights: vec![0.5, 0.3, 0.2],
                bytes_per_cell: Dist::Uniform {
                    lo: 16.0,
                    hi: 200.0,
                },
                plane_bytes_per_point: Dist::Uniform {
                    lo: 500.0,
                    hi: 5000.0,
                },
                fixed_ws_log2: Dist::Uniform { lo: 17.0, hi: 24.0 },
                dependency_weights: vec![0.6, 0.3, 0.1],
                flops_per_ref: Dist::Uniform { lo: 0.5, hi: 4.0 },
                processes: vec![32, 64, 128],
                p2p_bytes_log2: Dist::Uniform { lo: 12.0, hi: 18.0 },
                p2p_per_step: Dist::Uniform { lo: 2.0, hi: 12.0 },
                allreduce_per_step: Dist::Uniform { lo: 1.0, hi: 3.0 },
                barrier_every_steps: Dist::Uniform { lo: 5.0, hi: 20.0 },
            },
            thresholds: ErrorThresholds {
                good: 0.10,
                poor: 0.30,
            },
        }
    }

    /// Parse a spec from JSON text.
    ///
    /// # Errors
    /// A human-readable message when the text is not valid JSON or does not
    /// match the spec schema.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("fleet spec: {e}"))
    }

    /// Load a JSON spec file.
    ///
    /// # Errors
    /// A human-readable message when the file is unreadable or unparseable.
    pub fn from_file(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("fleet spec {path}: {e}"))?;
        Self::from_json(&text)
    }

    /// Serialize the spec as pretty JSON (the editable starting point
    /// `metasim fleet spec` prints).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }
}

fn audit_weights(weights: &[f64], n: usize, field: &str, a: &mut Auditor) {
    if weights.len() != n {
        a.finding_at(&MS1002, field, format!("expected {n} weights"));
        return;
    }
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) || weights.iter().sum::<f64>() <= 0.0 {
        a.finding_at(
            &MS1002,
            field,
            "weights must be non-negative, finite, and sum to a positive total",
        );
    }
}

/// Emit an [`MS1002`] finding on each working-set field whose largest draw
/// spans more than some cache level of the study can simulate
/// ([`CacheGeometry::max_span`]): a random stream over it would need a tag
/// beyond the simulator's 32-bit ways. The tightest sampled level is the
/// L1 at its least capacity with the shortest line and the most ways,
/// built as the sampler builds it; the base machine's levels run every
/// application too. Each has at least two sets and so a range of at least
/// 2 × (2^32 − 1) bytes, which the probes' random streams (at most
/// 512 MiB) and fixed working sets (at most 1 GiB) always fit.
fn audit_tag_range(spec: &FleetSpec, a: &mut Auditor) {
    let (m, ap) = (&spec.machines, &spec.apps);
    // Only lists that pass the checks above define a smallest level.
    let (Some(&line), Some(&ways), Some(&processes), &[per_process, plane, _]) = (
        m.line_bytes.iter().min(),
        m.associativity.iter().max(),
        ap.processes.iter().min(),
        &ap.ws_weights[..],
    ) else {
        return;
    };
    let (Ok(associativity), Some(least)) = (
        u32::try_from(ways),
        line.checked_mul(ways).and_then(|b| b.checked_mul(2)),
    ) else {
        return;
    };
    if processes == 0 || ways == 0 || !line.is_power_of_two() {
        return;
    }
    let cap_log2 = (m.l1_capacity_log2.bounds().0.round() as i64).clamp(10, 40);
    let sampled = CacheGeometry {
        capacity_bytes: (1u64 << cap_log2).max(least),
        line_bytes: line,
        associativity,
    };
    let max_span = sampled
        .max_span()
        .min(paper_fleet().base().memory.hierarchy().max_span());
    let cells = 10f64.powf(ap.cells_log10.bounds().1) as u64;
    for (weight, field, model) in [
        (
            per_process,
            "bytes_per_cell",
            WorkingSetModel::PerProcess {
                bytes_per_cell: ap.bytes_per_cell.bounds().1.max(1.0),
            },
        ),
        (
            plane,
            "plane_bytes_per_point",
            WorkingSetModel::Plane {
                bytes_per_point: ap.plane_bytes_per_point.bounds().1.max(1.0),
            },
        ),
    ] {
        let working_set = model.bytes(cells, processes);
        if weight > 0.0 && working_set > max_span {
            a.finding_at(
                &MS1002,
                field,
                format!(
                    "working sets up to {working_set} bytes (with cells_log10 and processes) \
                     exceed the {max_span} bytes the study's tightest cache level can tag \
                     in 32 bits"
                ),
            );
        }
    }
}

fn audit_choice_u64(values: &[u64], field: &str, pow2: bool, a: &mut Auditor) {
    if values.is_empty() {
        a.finding_at(&MS1002, field, "empty choice list");
    } else if pow2 && values.iter().any(|v| !v.is_power_of_two()) {
        a.finding_at(&MS1002, field, "choice values must be powers of two");
    }
}

/// Emit [`MS1002`] findings for every unsatisfiable corner of a spec: the
/// well-posedness preflight both `fleet gen` and `fleet study` run before
/// drawing anything.
pub fn audit_spec(spec: &FleetSpec, a: &mut Auditor) {
    a.scope("spec", |a| {
        if spec.name.is_empty() {
            a.finding_at(&MS1002, "name", "spec name must be non-empty");
        }
        let m = &spec.machines;
        a.scope("machines", |a| {
            m.clock_ghz.audit("clock_ghz", a);
            m.flops_per_cycle.audit("flops_per_cycle", a);
            m.hpl_efficiency.audit("hpl_efficiency", a);
            m.app_efficiency_share.audit("app_efficiency_share", a);
            audit_choice_u64(&m.cache_levels, "cache_levels", false, a);
            if m.cache_levels.iter().any(|&l| l == 0 || l > 3) {
                a.finding_at(&MS1002, "cache_levels", "cache levels must be in 1..=3");
            }
            audit_choice_u64(&m.line_bytes, "line_bytes", true, a);
            audit_choice_u64(&m.associativity, "associativity", true, a);
            if m.associativity.iter().any(|&w| u32::try_from(w).is_err()) {
                a.finding_at(
                    &MS1002,
                    "associativity",
                    "associativity must be below 2^32, the most ways a cache level holds",
                );
            }
            // The sampler sizes a level at least `2 × line × ways` bytes.
            let widest = m.line_bytes.iter().max().zip(m.associativity.iter().max());
            if widest.is_some_and(|(&line, &ways)| {
                line.checked_mul(ways)
                    .and_then(|b| b.checked_mul(2))
                    .is_none()
            }) {
                a.finding_at(
                    &MS1002,
                    "line_bytes",
                    "2 × line_bytes × associativity must fit in 64 bits, the bytes of the smallest level",
                );
            }
            m.l1_capacity_log2.audit("l1_capacity_log2", a);
            m.level_capacity_step_log2
                .audit("level_capacity_step_log2", a);
            m.l1_bytes_per_cycle.audit("l1_bytes_per_cycle", a);
            m.level_bandwidth_ratio.audit("level_bandwidth_ratio", a);
            m.l1_latency_ns.audit("l1_latency_ns", a);
            m.level_latency_ratio.audit("level_latency_ratio", a);
            m.memory_bandwidth_ratio.audit("memory_bandwidth_ratio", a);
            m.memory_latency_ratio.audit("memory_latency_ratio", a);
            audit_choice_u64(&m.tlb_entries, "tlb_entries", false, a);
            if m.tlb_entries.iter().any(|&e| e > MAX_TLB_ENTRIES as u64) {
                a.finding_at(
                    &MS1002,
                    "tlb_entries",
                    format!("TLB entries must be at most {MAX_TLB_ENTRIES}, the model's cap"),
                );
            }
            audit_choice_u64(&m.page_bytes, "page_bytes", true, a);
            m.tlb_miss_penalty_ns.audit("tlb_miss_penalty_ns", a);
            m.mlp.audit("mlp", a);
            m.short_stride_prefetch.audit("short_stride_prefetch", a);
            m.dependency_chain_latency_ns
                .audit("dependency_chain_latency_ns", a);
            m.branch_penalty_ns.audit("branch_penalty_ns", a);
            if m.fabrics.is_empty() {
                a.finding_at(&MS1002, "fabrics", "at least one fabric family required");
            }
            for f in &m.fabrics {
                a.scope(format!("fabrics.{}", f.name), |a| {
                    f.latency_us.audit("latency_us", a);
                    f.bandwidth_mbs.audit("bandwidth_mbs", a);
                    f.overhead_us.audit("overhead_us", a);
                    audit_choice_u64(&f.rendezvous_bytes, "rendezvous_bytes", false, a);
                    f.bisection.audit("bisection", a);
                });
            }
            m.nodes_log2.audit("nodes_log2", a);
        });
        let ap = &spec.apps;
        a.scope("apps", |a| {
            if ap.count == 0 {
                a.finding_at(&MS1002, "count", "at least one application required");
            }
            ap.blocks.audit("blocks", a);
            ap.cells_log10.audit("cells_log10", a);
            ap.steps.audit("steps", a);
            ap.refs_per_cell_step.audit("refs_per_cell_step", a);
            ap.stride1_share.audit("stride1_share", a);
            ap.random_share_of_rest.audit("random_share_of_rest", a);
            audit_weights(&ap.ws_weights, 3, "ws_weights", a);
            ap.bytes_per_cell.audit("bytes_per_cell", a);
            ap.plane_bytes_per_point.audit("plane_bytes_per_point", a);
            ap.fixed_ws_log2.audit("fixed_ws_log2", a);
            audit_weights(&ap.dependency_weights, 3, "dependency_weights", a);
            ap.flops_per_ref.audit("flops_per_ref", a);
            audit_choice_u64(&ap.processes, "processes", false, a);
            if ap.processes.contains(&0) {
                a.finding_at(&MS1002, "processes", "zero-process application");
            }
            ap.p2p_bytes_log2.audit("p2p_bytes_log2", a);
            ap.p2p_per_step.audit("p2p_per_step", a);
            ap.allreduce_per_step.audit("allreduce_per_step", a);
            ap.barrier_every_steps.audit("barrier_every_steps", a);
            audit_tag_range(spec, a);
        });
        if !(spec.thresholds.good > 0.0
            && spec.thresholds.poor > spec.thresholds.good
            && spec.thresholds.poor.is_finite())
        {
            a.finding_at(
                &MS1002,
                "thresholds",
                "error buckets need 0 < good < poor < inf",
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim_audit::audit_value;
    use proptest::prelude::*;

    #[test]
    fn an_associativity_beyond_u32_is_an_ms1002_finding_on_its_field() {
        let mut spec = FleetSpec::paper_space();
        spec.machines.associativity = vec![4, u64::from(u32::MAX) + 1];
        let report = audit_value(|a| audit_spec(&spec, a));
        assert!(report.has_errors());
        assert_eq!(report.diagnostics.len(), 1, "{}", report.summary_line());
        let finding = &report.diagnostics[0];
        assert_eq!(finding.rule.code, "MS1002");
        assert!(
            finding.subject.ends_with("associativity"),
            "the finding names its field: {}",
            finding.subject
        );

        spec.machines.associativity = vec![4, 1 << 31];
        assert!(audit_value(|a| audit_spec(&spec, a)).is_clean());
    }

    #[test]
    fn a_line_and_associativity_past_64_bits_are_an_ms1002_finding() {
        let mut spec = FleetSpec::paper_space();
        spec.machines.line_bytes = vec![32, 1 << 40];
        spec.machines.associativity = vec![4, 1 << 23];
        let report = audit_value(|a| audit_spec(&spec, a));
        assert_eq!(report.diagnostics.len(), 1, "{}", report.summary_line());
        let finding = &report.diagnostics[0];
        assert_eq!(finding.rule.code, "MS1002");
        assert!(
            finding.subject.ends_with("line_bytes"),
            "{}",
            finding.subject
        );

        spec.machines.associativity = vec![4, 1 << 22];
        assert!(audit_value(|a| audit_spec(&spec, a)).is_clean());
    }

    #[test]
    fn tlb_entries_beyond_the_cap_are_an_ms1002_finding_on_their_field() {
        let mut spec = FleetSpec::paper_space();
        for entries in [MAX_TLB_ENTRIES as u64 + 1, 1 << 32, u64::MAX] {
            spec.machines.tlb_entries = vec![64, entries];
            let report = audit_value(|a| audit_spec(&spec, a));
            assert_eq!(report.diagnostics.len(), 1, "{}", report.summary_line());
            let finding = &report.diagnostics[0];
            assert_eq!(finding.rule.code, "MS1002");
            assert!(
                finding.subject.ends_with("tlb_entries"),
                "the finding names its field: {}",
                finding.subject
            );
        }
        spec.machines.tlb_entries = vec![64, MAX_TLB_ENTRIES as u64];
        assert!(audit_value(|a| audit_spec(&spec, a)).is_clean());
    }

    #[test]
    fn working_sets_past_the_tag_range_are_an_ms1002_finding_on_their_field() {
        // The tightest level is a sampled 16 KiB, 8-way L1 of 32-byte
        // lines: 2 KiB per tag, so spans up to about 8.8e12 bytes fit.
        // 10^7.5 cells over 32 processes reach 7.9e12 bytes at 8e6 bytes
        // per cell and 9.9e12 at 1e7; planes reach about 9.9e3 points.
        let mut spec = FleetSpec::paper_space();
        assert!(audit_value(|a| audit_spec(&spec, a)).is_clean());
        for (per_cell, per_point, fields) in [
            (8e6, 8e8, vec![]),
            (1e7, 8e8, vec!["bytes_per_cell"]),
            (8e6, 1e9, vec!["plane_bytes_per_point"]),
            (1e7, 1e9, vec!["bytes_per_cell", "plane_bytes_per_point"]),
        ] {
            spec.apps.bytes_per_cell = Dist::Uniform {
                lo: 16.0,
                hi: per_cell,
            };
            spec.apps.plane_bytes_per_point = Dist::Choice {
                values: vec![per_point, 500.0],
            };
            let report = audit_value(|a| audit_spec(&spec, a));
            let subjects: Vec<&str> = report
                .diagnostics
                .iter()
                .map(|d| d.subject.as_str())
                .collect();
            assert_eq!(subjects.len(), fields.len(), "{}", report.summary_line());
            for (finding, field) in report.diagnostics.iter().zip(&fields) {
                assert_eq!(finding.rule.code, "MS1002");
                assert!(finding.subject.ends_with(field), "{subjects:?}");
            }
        }
        // A working-set model drawn with weight 0 is never drawn.
        spec.apps.ws_weights = vec![0.0, 0.0, 1.0];
        assert!(audit_value(|a| audit_spec(&spec, a)).is_clean());
    }

    /// Stand-ins for a number of the spec template: each type's extremes,
    /// one past them, and the spellings JSON forbids.
    const EXTREMES: [&str; 16] = [
        "0",
        "-0",
        "-1",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775809",
        "1e308",
        "-1e308",
        "1e309",
        "5e-324",
        "1e-400",
        "99999999999999999999999999999999",
        "NaN",
        "-",
        "1e",
    ];

    /// Text spliced in at a random place.
    const SPLICES: [&str; 8] = ["{", "}", "[", "]", ",", ":", "\"", "\\u0000"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Arbitrary bytes, read as lossy UTF-8, never make the loader
        /// panic.
        #[test]
        fn arbitrary_text_never_panics(bytes in prop::collection::vec(0u8..=255, 0..256)) {
            let text = String::from_utf8_lossy(&bytes);
            let _ = FleetSpec::from_json(&text);
        }

        /// The `fleet spec` template with characters inserted or deleted
        /// and numbers swapped for extremes never makes the loader panic,
        /// nor the MS1002 audit of whatever it accepts.
        #[test]
        fn mutated_spec_text_never_panics(
            edits in prop::collection::vec((0u8..3, 0usize..1 << 16, 0usize..16), 1..6),
        ) {
            let mut text: Vec<char> = FleetSpec::paper_space().to_json_pretty().chars().collect();
            for (op, at, pick) in edits {
                match op {
                    0 => {
                        let at = at % (text.len() + 1);
                        text.splice(at..at, SPLICES[pick % SPLICES.len()].chars());
                    }
                    1 if !text.is_empty() => {
                        text.remove(at % text.len());
                    }
                    _ => {
                        // The starts of the numbers: a digit or minus sign
                        // after a non-number character.
                        let is_num = |c: char| c.is_ascii_digit() || "-+.eE".contains(c);
                        let starts: Vec<usize> = (0..text.len())
                            .filter(|&i| {
                                (text[i].is_ascii_digit() || text[i] == '-')
                                    && (i == 0 || !is_num(text[i - 1]))
                            })
                            .collect();
                        if let Some(&start) = starts.get(at % starts.len().max(1)) {
                            let end = (start..text.len()).find(|&i| !is_num(text[i])).unwrap_or(text.len());
                            text.splice(start..end, EXTREMES[pick].chars());
                        }
                    }
                }
            }
            let text: String = text.into_iter().collect();
            if let Ok(spec) = FleetSpec::from_json(&text) {
                let _ = audit_value(|a| audit_spec(&spec, a));
            }
        }
    }
}
