//! A closed-form analytic cache/TLB model, tiered against the exact
//! simulator.
//!
//! The exact path ([`measure_bandwidth`]) counts each sweep period by
//! period and drives tens of thousands of simulated addresses per random
//! MAPS point. This module predicts the same
//! [`AccessProfile`] without touching a single address, from the geometry of
//! the sweep alone — the paper's own question (how well does a cheap proxy
//! track a faithful model?) applied to our own internals.
//!
//! The model reproduces the *measurement discipline* of the exact path, not
//! an idealized textbook curve: a warm-up pass capped at
//! [`MAX_MEASURED_ACCESSES`] accesses, a cleared profile, and a measured pass
//! of `clamp(per_pass, 2^13, 2^15)` accesses. That cap matters — for working
//! sets past `stride × 2^15` bytes the measured pass touches only
//! never-before-seen addresses, so the exact simulator reports cold-miss
//! plateaus that a steady-state model would miss entirely.
//!
//! * **Strided sweeps** split the measured pass into a *fresh* segment
//!   (addresses beyond the warm-up's reach: cold misses at every level) and
//!   a *cyclic* segment (revisits of the warmed working set, which hit a
//!   level exactly when that level's per-set occupancy fits its
//!   associativity — a cyclic sweep under true LRU is all-or-nothing per
//!   set). Within either segment, accesses that share a line with their
//!   predecessor hit the innermost level.
//! * **Random streams** use the uniform-IRM identity for LRU: the hit
//!   probability at any instant is `resident_lines / N`, where residency
//!   grows along the coupon-collector curve `D(t) = N·(1 − e^(−t/N))` until
//!   it saturates at capacity. Integrating that curve over the measured
//!   window gives a closed-form expected hit count, including the
//!   warm-up-truncation effects the exact path exhibits.
//!
//! Fidelity is not assumed; it is audited. [`audit_tier_budget`] cross-checks
//! analytic against exact per-level fractions over a calibration grid and
//! fires [`MS801`] when any component drifts beyond [`TIER_ERROR_BUDGET`].
//! The [`Tier::Auto`] tier runs that calibration once per spec (memoized) and
//! falls back to the exact path — counted via `memsim.tier.fallback` — when
//! the budget is not met.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use metasim_audit::registry::MS801;
use metasim_audit::Auditor;
use metasim_stats::rng::fnv1a;

use crate::bandwidth::{
    measure_bandwidth, measure_bandwidth_memo, BandwidthSample, ProfileMemo, Workload,
    ELEMENT_BYTES, MAX_MEASURED_ACCESSES, MIN_MEASURED_ACCESSES,
};
use crate::hierarchy::AccessProfile;
use crate::spec::MemorySpec;
use crate::timing::{AccessKind, TimingModel};

/// Maximum tolerated absolute difference between analytic and exact served
/// fractions (per level, memory, and TLB-miss rate) at any calibration point.
///
/// The analytic strided model is near-exact; the budget is set by the random
/// model near capacity boundaries, where the exact simulator's single seeded
/// stream wanders around the smooth expectation the closed form computes.
/// Empirically the worst divergence across the shipped eleven-machine fleet
/// is just under 0.03, so 0.05 leaves real headroom while still catching a
/// model regression of any consequence.
pub const TIER_ERROR_BUDGET: f64 = 0.05;

/// Which cache model services a measurement request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Tier {
    /// Always drive the exact address-level simulator.
    Exact,
    /// Always use the closed-form analytic model.
    Analytic,
    /// Calibrate the analytic model against the exact simulator once per
    /// spec; use it when it meets [`TIER_ERROR_BUDGET`], else fall back.
    #[default]
    Auto,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tier::Exact => "exact",
            Tier::Analytic => "analytic",
            Tier::Auto => "auto",
        })
    }
}

/// Error for an unrecognized tier name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTierError(String);

impl fmt::Display for ParseTierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown tier `{}` (expected exact|analytic|auto)",
            self.0
        )
    }
}

impl std::error::Error for ParseTierError {}

impl FromStr for Tier {
    type Err = ParseTierError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(Tier::Exact),
            "analytic" => Ok(Tier::Analytic),
            "auto" => Ok(Tier::Auto),
            other => Err(ParseTierError(other.to_string())),
        }
    }
}

/// The model a tiered measurement actually ran with (what [`Tier::Auto`]
/// resolved to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResolvedTier {
    /// The exact address-level simulator ran.
    Exact,
    /// The closed-form analytic model ran.
    Analytic,
}

impl ResolvedTier {
    /// The (non-`Auto`) tier that re-requests this resolution. Lets callers
    /// resolve `Auto` once per spec, then measure many workloads without
    /// re-consulting the calibration memo.
    #[must_use]
    pub fn as_tier(self) -> Tier {
        match self {
            ResolvedTier::Exact => Tier::Exact,
            ResolvedTier::Analytic => Tier::Analytic,
        }
    }
}

impl fmt::Display for ResolvedTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_tier().fmt(f)
    }
}

/// Measure under an explicit tier, recording
/// `memsim.tier.{exact,analytic,fallback}` counters. Returns the sample and
/// the tier that actually ran. The exact tier reads its simulated profile
/// through `memo` ([`measure_bandwidth_memo`]); the counter counts calls,
/// hit or miss.
#[must_use]
pub fn measure_bandwidth_tiered(
    spec: &MemorySpec,
    workload: &Workload,
    tier: Tier,
    memo: &ProfileMemo,
) -> (BandwidthSample, ResolvedTier) {
    let resolved = resolve_tier(spec, tier);
    match resolved {
        ResolvedTier::Exact => {
            metasim_obs::counter_add("memsim.tier.exact", 1);
            (measure_bandwidth_memo(spec, workload, memo), resolved)
        }
        ResolvedTier::Analytic => {
            metasim_obs::counter_add("memsim.tier.analytic", 1);
            (analytic_bandwidth(spec, workload), resolved)
        }
    }
}

/// Resolve `tier` for `spec`: [`Tier::Auto`] calibrates once per spec
/// (memoized process-wide) and falls back to exact — counted via
/// `memsim.tier.fallback` — when the analytic model misses the budget.
#[must_use]
pub fn resolve_tier(spec: &MemorySpec, tier: Tier) -> ResolvedTier {
    match tier {
        Tier::Exact => ResolvedTier::Exact,
        Tier::Analytic => ResolvedTier::Analytic,
        Tier::Auto => {
            if analytic_within_budget(spec) {
                ResolvedTier::Analytic
            } else {
                metasim_obs::counter_add("memsim.tier.fallback", 1);
                ResolvedTier::Exact
            }
        }
    }
}

/// True when the analytic model's worst calibration-grid divergence on
/// `spec` stays within [`TIER_ERROR_BUDGET`]. Memoized per spec content.
#[must_use]
pub fn analytic_within_budget(spec: &MemorySpec) -> bool {
    static MEMO: OnceLock<Mutex<HashMap<u64, bool>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let key = spec_key(spec);
    if let Some(&ok) = memo.lock().expect("calibration memo poisoned").get(&key) {
        return ok;
    }
    // Calibrate outside the lock: the grid runs 21 exact measurements and
    // must not serialize concurrent probe sweeps on other specs. A racing
    // duplicate computes the same deterministic answer.
    let ok = tier_divergence(spec)
        .iter()
        .all(|d| d.delta() <= TIER_ERROR_BUDGET);
    memo.lock()
        .expect("calibration memo poisoned")
        .insert(key, ok);
    ok
}

/// Content key of a spec for the calibration memo (FNV-1a over every field).
fn spec_key(spec: &MemorySpec) -> u64 {
    let mut bytes = Vec::with_capacity(256);
    let push_u64 = |b: &mut Vec<u8>, v: u64| b.extend_from_slice(&v.to_le_bytes());
    for l in &spec.levels {
        push_u64(&mut bytes, l.capacity_bytes);
        push_u64(&mut bytes, l.line_bytes);
        push_u64(&mut bytes, u64::from(l.associativity));
        push_u64(&mut bytes, l.load_bandwidth.to_bits());
        push_u64(&mut bytes, l.latency.to_bits());
    }
    push_u64(&mut bytes, spec.memory.stream_bandwidth.to_bits());
    push_u64(&mut bytes, spec.memory.latency.to_bits());
    push_u64(&mut bytes, spec.tlb.entries as u64);
    push_u64(&mut bytes, spec.tlb.page_bytes);
    push_u64(&mut bytes, spec.tlb.miss_penalty.to_bits());
    push_u64(&mut bytes, spec.mlp.to_bits());
    push_u64(&mut bytes, spec.short_stride_prefetch.to_bits());
    push_u64(&mut bytes, spec.dependency_chain_latency.to_bits());
    push_u64(&mut bytes, spec.branch_penalty.to_bits());
    fnv1a(&bytes)
}

/// Predict the bandwidth sample for `workload` on `spec` without simulating
/// a single address. Deterministic; same timing model as the exact path.
#[must_use]
pub fn analytic_bandwidth(spec: &MemorySpec, workload: &Workload) -> BandwidthSample {
    let profile = analytic_profile(spec, workload);
    let model = TimingModel::new(spec.clone(), ELEMENT_BYTES);
    let seconds = model.time(&profile, workload.kind, workload.deps);
    BandwidthSample {
        workload: *workload,
        seconds,
        bytes: profile.requested_bytes,
        profile,
    }
}

/// Closed-form prediction of the [`AccessProfile`] the exact measurement
/// pass of [`measure_bandwidth`] would record.
#[must_use]
pub fn analytic_profile(spec: &MemorySpec, workload: &Workload) -> AccessProfile {
    let ws = workload.working_set.max(ELEMENT_BYTES);
    let per_pass = workload.accesses_per_pass();
    let measured = per_pass.clamp(MIN_MEASURED_ACCESSES, MAX_MEASURED_ACCESSES);
    let warmup = per_pass.min(MAX_MEASURED_ACCESSES);

    let (mut hit_fracs, tlb_miss_frac): (Vec<f64>, f64) = match workload.kind {
        AccessKind::Sequential | AccessKind::Strided(_) => strided_fractions(
            spec,
            ws,
            workload.stride_bytes(),
            per_pass,
            warmup,
            measured,
        ),
        AccessKind::Random => random_fractions(spec, ws, warmup, measured),
    };

    // Cascade: an access is *served* by the innermost level that hits, so
    // cumulative hit fractions must be non-decreasing outward before they
    // are differenced into per-level served fractions.
    let mut prev = 0.0_f64;
    for h in &mut hit_fracs {
        *h = h.clamp(prev, 1.0);
        prev = *h;
    }
    let mut served: Vec<f64> = Vec::with_capacity(hit_fracs.len() + 1);
    let mut below = 0.0;
    for &h in &hit_fracs {
        served.push(h - below);
        below = h;
    }
    served.push(1.0 - below); // memory

    let counts = apportion(measured, &served);
    let (level_hits, memory_hits) = counts.split_at(hit_fracs.len());
    AccessProfile {
        level_hits: level_hits.to_vec(),
        memory_hits: memory_hits[0],
        tlb_misses: ((tlb_miss_frac * measured as f64).round() as u64).min(measured),
        requested_bytes: measured * ELEMENT_BYTES,
    }
}

/// Per-level hit fractions plus TLB miss fraction for a cyclic
/// constant-stride sweep, mirroring the warm-up-then-measure discipline.
fn strided_fractions(
    spec: &MemorySpec,
    ws: u64,
    stride: u64,
    per_pass: u64,
    warmup: u64,
    measured: u64,
) -> (Vec<f64>, f64) {
    let m = measured as f64;
    // The measured pass resumes the sweep where warm-up stopped: indices
    // `[warmup, per_pass)` are *fresh* (never touched — cold misses
    // everywhere), the wrap-around remainder is *cyclic* (revisits).
    let fresh = (per_pass.saturating_sub(warmup)).min(measured) as f64;
    let cyclic = m - fresh;

    let hit_fracs = spec
        .levels
        .iter()
        .map(|l| {
            // Accesses per distinct line: the spatial-locality factor.
            let g = (l.line_bytes as f64 / stride as f64).max(1.0);
            // Distinct level lines in the full sweep footprint.
            let lines = per_pass.min(ws.div_ceil(l.line_bytes));
            let surv = cyclic_survival(
                lines,
                effective_sets(l.sets(), stride, l.line_bytes),
                u64::from(l.associativity),
            );
            // Run leaders: fresh ones are cold misses, cyclic ones hit iff
            // the line survived a full sweep; every non-leader hits here.
            ((m - m / g) + (cyclic / g) * surv) / m
        })
        .collect();

    let pg = (spec.tlb.page_bytes as f64 / stride as f64).max(1.0);
    let pages = per_pass.min(ws.div_ceil(spec.tlb.page_bytes));
    let tlb_surv = cyclic_survival(pages, 1, spec.tlb.entries as u64);
    let tlb_miss = (fresh / pg + (cyclic / pg) * (1.0 - tlb_surv)) / m;
    (hit_fracs, tlb_miss)
}

/// Fraction of a warmed working set's lines that survive one full cyclic
/// LRU sweep in a set-associative cache: per set the outcome is
/// all-or-nothing (a set holding more lines than ways re-evicts every one
/// of them, in sweep order, before it returns), so partial survival appears
/// only from sets below the mean occupancy.
fn cyclic_survival(lines: u64, sets: u64, assoc: u64) -> f64 {
    if lines == 0 {
        return 1.0;
    }
    let per_set = lines / sets;
    let heavy = lines % sets; // sets holding one extra line
    if per_set + u64::from(heavy > 0) <= assoc {
        1.0
    } else if per_set > assoc {
        0.0
    } else {
        // per_set == assoc exactly: the `heavy` sets thrash, the rest fit.
        ((sets - heavy) * assoc) as f64 / lines as f64
    }
}

/// Distinct sets a stride-`stride` sweep can reach: strides that are a
/// multiple of the line size skip line numbers in steps of `stride / line`,
/// folding the (power-of-two) set index space by their common factor.
fn effective_sets(sets: u64, stride: u64, line: u64) -> u64 {
    if stride <= line || !stride.is_multiple_of(line) {
        return sets;
    }
    sets / gcd(stride / line, sets)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

/// Per-level hit fractions plus TLB miss fraction for a uniform random
/// stream, from the IRM/LRU identity `P(hit at t) = resident(t) / N` with
/// coupon-collector residency growth capped at capacity.
fn random_fractions(spec: &MemorySpec, ws: u64, warmup: u64, measured: u64) -> (Vec<f64>, f64) {
    let m = measured as f64;
    let hit_fracs = spec
        .levels
        .iter()
        .map(|l| {
            let n = ws.div_ceil(l.line_bytes).max(1);
            let c = l.sets() * u64::from(l.associativity);
            expected_random_hits(n, c, warmup as f64, m) / m
        })
        .collect();
    let n_pages = ws.div_ceil(spec.tlb.page_bytes).max(1);
    let tlb_hits = expected_random_hits(n_pages, spec.tlb.entries as u64, warmup as f64, m);
    (hit_fracs, (m - tlb_hits) / m)
}

/// Expected hits among `m` uniform references over `n` lines through an LRU
/// cache of `c` lines, after `w` warm-up references: integrate
/// `min(D(t), c) / n` over the measured window, with
/// `D(t) = n·(1 − e^(−t/n))` the expected distinct lines after `t` draws.
fn expected_random_hits(n: u64, c: u64, w: f64, m: f64) -> f64 {
    let nf = n as f64;
    let decay = |t: f64| (-t / nf).exp();
    if n <= c {
        // Residency never saturates: the whole set eventually fits.
        return m + nf * (decay(w + m) - decay(w));
    }
    let cf = c as f64;
    // Instant at which residency reaches capacity.
    let t_star = -nf * (1.0 - cf / nf).ln();
    if w >= t_star {
        return m * cf / nf;
    }
    let t1 = t_star.min(w + m);
    let growth = (t1 - w) + nf * (decay(t1) - decay(w));
    let steady = (w + m - t1).max(0.0) * cf / nf;
    growth + steady
}

/// Largest-remainder apportionment of `total` into integer counts
/// proportional to `weights` (non-negative, roughly summing to one). The
/// result partitions `total` exactly — the property MS204 checks on every
/// profile — with deterministic lowest-index tie-breaking.
fn apportion(total: u64, weights: &[f64]) -> Vec<u64> {
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 {
        let mut out = vec![0; weights.len()];
        if let Some(last) = out.last_mut() {
            *last = total;
        }
        return out;
    }
    let mut counts: Vec<u64> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        let exact = (w.max(0.0) / sum) * total as f64;
        let floor = exact.floor() as u64;
        counts.push(floor);
        assigned += floor;
        remainders.push((i, exact - floor as f64));
    }
    // Hand the leftover units to the largest fractional parts.
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut leftover = total.saturating_sub(assigned);
    for (i, _) in remainders {
        if leftover == 0 {
            break;
        }
        counts[i] += 1;
        leftover -= 1;
    }
    counts
}

/// One analytic-vs-exact comparison from the calibration grid: a profile
/// component (`level0`, `level1`, …, `memory`, `tlb`) at one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierDelta {
    /// The calibration workload compared.
    pub workload: Workload,
    /// Profile component name.
    pub component: String,
    /// Exact simulator's fraction.
    pub exact: f64,
    /// Analytic model's fraction.
    pub analytic: f64,
}

impl TierDelta {
    /// Absolute analytic-vs-exact divergence of this component.
    #[must_use]
    pub fn delta(&self) -> f64 {
        (self.analytic - self.exact).abs()
    }
}

/// The calibration grid: working-set sizes spanning L1-resident through
/// far-beyond-last-level, crossed with the stride families the probes
/// drive (unit stride, short stride, uniform random).
#[must_use]
pub fn calibration_workloads() -> Vec<Workload> {
    let sizes: [u64; 7] = [
        16 << 10,
        64 << 10,
        256 << 10,
        1 << 20,
        4 << 20,
        16 << 20,
        64 << 20,
    ];
    let kinds = [
        AccessKind::Sequential,
        AccessKind::Strided(4),
        AccessKind::Random,
    ];
    let mut out = Vec::with_capacity(sizes.len() * kinds.len());
    for kind in kinds {
        for ws in sizes {
            out.push(Workload::new(
                ws,
                kind,
                crate::timing::DependencyMode::Independent,
            ));
        }
    }
    out
}

/// Compare analytic against exact served fractions (per level, memory, and
/// TLB-miss rate) across the whole calibration grid.
#[must_use]
pub fn tier_divergence(spec: &MemorySpec) -> Vec<TierDelta> {
    let mut out = Vec::new();
    for w in calibration_workloads() {
        let exact = measure_bandwidth(spec, &w).profile;
        let analytic = analytic_profile(spec, &w);
        for i in 0..spec.levels.len() {
            out.push(TierDelta {
                workload: w,
                component: format!("level{i}"),
                exact: exact.level_fraction(i),
                analytic: analytic.level_fraction(i),
            });
        }
        out.push(TierDelta {
            workload: w,
            component: "memory".into(),
            exact: exact.memory_fraction(),
            analytic: analytic.memory_fraction(),
        });
        let miss_frac = |p: &AccessProfile| {
            let total = p.total_accesses();
            if total == 0 {
                0.0
            } else {
                p.tlb_misses as f64 / total as f64
            }
        };
        out.push(TierDelta {
            workload: w,
            component: "tlb".into(),
            exact: miss_frac(&exact),
            analytic: miss_frac(&analytic),
        });
    }
    out
}

/// Worst analytic-vs-exact divergence for `spec` over the calibration grid.
#[must_use]
pub fn max_tier_divergence(spec: &MemorySpec) -> f64 {
    tier_divergence(spec)
        .iter()
        .map(TierDelta::delta)
        .fold(0.0, f64::max)
}

/// Audit the analytic model's fidelity on `spec` against
/// [`TIER_ERROR_BUDGET`], firing [`MS801`] per out-of-budget component.
pub fn audit_tier_budget(spec: &MemorySpec, a: &mut Auditor) {
    for d in tier_divergence(spec) {
        if d.delta() > TIER_ERROR_BUDGET {
            a.finding_at(
                &MS801,
                format!(
                    "{:?}.{}KiB.{}",
                    d.workload.kind,
                    d.workload.working_set >> 10,
                    d.component
                ),
                format!(
                    "analytic fraction {:.4} vs exact {:.4} (|Δ| {:.4} > budget {TIER_ERROR_BUDGET})",
                    d.analytic,
                    d.exact,
                    d.delta()
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::DependencyMode;

    fn spec() -> MemorySpec {
        MemorySpec::example_two_level()
    }

    #[test]
    fn tier_parses_and_displays() {
        for t in [Tier::Exact, Tier::Analytic, Tier::Auto] {
            assert_eq!(t.to_string().parse::<Tier>().unwrap(), t);
        }
        assert!("warp-drive".parse::<Tier>().is_err());
        assert_eq!(Tier::default(), Tier::Auto);
    }

    #[test]
    fn analytic_profile_partitions_measured_accesses() {
        for w in calibration_workloads() {
            let p = analytic_profile(&spec(), &w);
            let measured = w
                .accesses_per_pass()
                .clamp(MIN_MEASURED_ACCESSES, MAX_MEASURED_ACCESSES);
            assert_eq!(p.total_accesses(), measured, "{w:?}");
            assert_eq!(p.requested_bytes, measured * ELEMENT_BYTES);
            assert!(p.tlb_misses <= measured);
        }
    }

    #[test]
    fn l1_resident_sweep_is_all_l1() {
        let w = Workload::new(8 << 10, AccessKind::Sequential, DependencyMode::Independent);
        let p = analytic_profile(&spec(), &w);
        assert_eq!(p.memory_hits, 0);
        assert_eq!(p.level_hits[1], 0);
        assert!(p.level_hits[0] > 0);
    }

    #[test]
    fn oversized_sweep_reproduces_the_cold_plateau() {
        // Past stride * 2^15 the measured pass is all fresh addresses: 1/8
        // of unit-stride accesses (the line leaders) go to memory, the rest
        // hit L1 — the exact simulator's plateau, not the textbook curve.
        let w = Workload::new(
            64 << 20,
            AccessKind::Sequential,
            DependencyMode::Independent,
        );
        let p = analytic_profile(&spec(), &w);
        let total = p.total_accesses() as f64;
        assert!((p.memory_fraction() - 0.125).abs() < 1e-3, "{p:?}");
        assert!((p.level_hits[0] as f64 / total - 0.875).abs() < 1e-3);
    }

    #[test]
    fn random_large_working_set_mostly_misses() {
        let w = Workload::new(64 << 20, AccessKind::Random, DependencyMode::Independent);
        let p = analytic_profile(&spec(), &w);
        assert!(p.memory_fraction() > 0.9, "{p:?}");
        assert!(p.tlb_misses > p.total_accesses() / 2, "{p:?}");
    }

    #[test]
    fn example_spec_is_within_budget() {
        let worst = max_tier_divergence(&spec());
        assert!(
            worst <= TIER_ERROR_BUDGET,
            "worst calibration divergence {worst} exceeds budget"
        );
    }

    #[test]
    fn audit_is_clean_on_the_example_spec() {
        let report = metasim_audit::audit_value(|a| audit_tier_budget(&spec(), a));
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn auto_resolves_to_analytic_on_the_example_spec() {
        assert_eq!(resolve_tier(&spec(), Tier::Auto), ResolvedTier::Analytic);
        assert_eq!(resolve_tier(&spec(), Tier::Exact), ResolvedTier::Exact);
        assert_eq!(
            resolve_tier(&spec(), Tier::Analytic),
            ResolvedTier::Analytic
        );
    }

    #[test]
    fn tiered_measurement_matches_its_model() {
        let w = Workload::new(1 << 20, AccessKind::Random, DependencyMode::Independent);
        let s = spec();
        let (exact, rt) = measure_bandwidth_tiered(&s, &w, Tier::Exact, &ProfileMemo::new());
        assert_eq!(rt, ResolvedTier::Exact);
        assert_eq!(exact, measure_bandwidth(&s, &w));
        let (analytic, rt) = measure_bandwidth_tiered(&s, &w, Tier::Analytic, &ProfileMemo::new());
        assert_eq!(rt, ResolvedTier::Analytic);
        assert_eq!(analytic, analytic_bandwidth(&s, &w));
    }

    #[test]
    fn apportion_is_exact_and_deterministic() {
        let counts = apportion(10, &[0.335, 0.335, 0.33]);
        assert_eq!(counts.iter().sum::<u64>(), 10);
        assert_eq!(counts, vec![4, 3, 3], "lowest index wins ties");
        assert_eq!(apportion(7, &[0.0, 0.0]), vec![0, 7], "degenerate weights");
    }

    #[test]
    fn cyclic_survival_cases() {
        assert_eq!(cyclic_survival(0, 8, 2), 1.0);
        assert_eq!(cyclic_survival(16, 8, 2), 1.0, "exactly fits");
        assert_eq!(cyclic_survival(32, 8, 2), 0.0, "2x overcommit thrashes");
        // 20 lines over 8 sets of 2: 4 heavy sets thrash, 4 light survive.
        let s = cyclic_survival(20, 8, 2);
        assert!((s - 8.0 / 20.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn effective_sets_folds_power_of_two_strides() {
        assert_eq!(effective_sets(256, 8, 64), 256, "short stride");
        assert_eq!(effective_sets(256, 128, 64), 128, "stride 2 lines");
        assert_eq!(effective_sets(256, 64 * 256 * 2, 64), 1, "huge stride");
        assert_eq!(effective_sets(256, 96, 64), 256, "non-multiple stride");
    }

    #[test]
    fn analytic_is_deterministic() {
        let w = Workload::new(2 << 20, AccessKind::Random, DependencyMode::Independent);
        assert_eq!(
            analytic_bandwidth(&spec(), &w),
            analytic_bandwidth(&spec(), &w)
        );
    }

    #[test]
    fn analytic_bandwidth_orders_like_the_simulator() {
        let s = spec();
        let bw = |ws, kind| {
            analytic_bandwidth(&s, &Workload::new(ws, kind, DependencyMode::Independent))
                .bytes_per_second()
        };
        // L1-resident beats memory-resident; sequential beats random.
        assert!(bw(8 << 10, AccessKind::Sequential) > bw(64 << 20, AccessKind::Sequential));
        assert!(bw(64 << 20, AccessKind::Sequential) > bw(64 << 20, AccessKind::Random));
    }
}
