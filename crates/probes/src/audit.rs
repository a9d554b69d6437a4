//! Probe-layer audit rules: the `MS1xx` block plus [`MS204`].
//!
//! The `MS1xx` rules verify *measured* artifacts — MAPS/ENHANCED MAPS
//! curves and HPL results — against the physical invariants the paper's
//! convolution leans on: bandwidth falls as working sets outgrow caches
//! (§3, Figure 1), dependence never speeds a loop up (ENHANCED MAPS), random
//! access never beats unit stride, and HPL never beats peak (Table 1).
//! [`audit_probes`] runs them on one probe set; it is cheap and reads only
//! the stored values, so it is also the store's audit-on-load gate.
//!
//! [`MS204`] checks the cache *simulator* for a memory spec, not a probe
//! set: [`audit_hit_fractions`] takes two simulated samples, so the study
//! preflight runs it once per machine rather than on every probe load, and
//! reads the samples through the probe suite's profile memo, which
//! simulates them once per distinct cache hierarchy.

use metasim_audit::registry::{MS101, MS102, MS103, MS104, MS105, MS106, MS204};
use metasim_audit::Auditor;
use metasim_machines::MachineConfig;
use metasim_memsim::bandwidth::{measure_bandwidth_memo, ProfileMemo, Workload};
use metasim_memsim::spec::MemorySpec;
use metasim_memsim::timing::{AccessKind, DependencyMode};

use crate::maps::MapsCurve;
use crate::suite::MachineProbes;

/// Tolerance for [`MS102`] monotonicity: measured curves may wobble a few
/// percent at plateau boundaries without being wrong.
const MONOTONE_TOLERANCE: f64 = 1.05;

/// Tolerance for the cross-curve dominance rules ([`MS103`], [`MS104`]).
const DOMINANCE_TOLERANCE: f64 = 1.01;

/// [`MS106`]: the L1 plateau should sit at least this far above the
/// main-memory plateau (the paper's fleet spans 3–100×).
const MIN_PLATEAU_RATIO: f64 = 1.5;

/// [`MS101`] shape + [`MS102`] monotonicity for one curve, relative to the
/// auditor's current scope.
pub fn audit_curve(curve: &MapsCurve, a: &mut Auditor) {
    if curve.points.len() < 2 {
        a.finding_at(
            &MS101,
            "points",
            format!("curve has {} point(s), need at least 2", curve.points.len()),
        );
        return;
    }
    for (i, &(size, bw)) in curve.points.iter().enumerate() {
        if !(bw.is_finite() && bw > 0.0) {
            a.finding_at(
                &MS101,
                format!("points[{i}]"),
                format!("bandwidth {bw} at {size} B must be finite and positive"),
            );
        }
    }
    for (i, w) in curve.points.windows(2).enumerate() {
        if w[1].0 <= w[0].0 {
            a.finding_at(
                &MS101,
                format!("points[{}]", i + 1),
                format!("sizes must strictly increase: {} then {}", w[0].0, w[1].0),
            );
        }
        if w[1].1 > w[0].1 * MONOTONE_TOLERANCE {
            a.finding_at(
                &MS102,
                format!("points[{}]", i + 1),
                format!(
                    "bandwidth rises {:.3e} -> {:.3e} as the working set grows {} -> {}",
                    w[0].1, w[1].1, w[0].0, w[1].0
                ),
            );
        }
    }
}

/// `upper` must dominate `lower` (pointwise, within tolerance) on the shared
/// sweep grid; emit `rule` findings where it does not.
fn audit_dominance(
    a: &mut Auditor,
    rule: &'static metasim_audit::registry::Rule,
    lower_name: &str,
    lower: &MapsCurve,
    upper_name: &str,
    upper: &MapsCurve,
) {
    if lower.points.len() != upper.points.len() {
        a.finding(
            rule,
            format!(
                "{lower_name} and {upper_name} were swept on different grids ({} vs {} points)",
                lower.points.len(),
                upper.points.len()
            ),
        );
        return;
    }
    for (&(size, lo), &(usize_, up)) in lower.points.iter().zip(&upper.points) {
        if size != usize_ {
            a.finding(
                rule,
                format!("{lower_name}/{upper_name} grids diverge at {size} vs {usize_}"),
            );
            return;
        }
        if lo > up * DOMINANCE_TOLERANCE {
            a.finding_at(
                rule,
                lower_name,
                format!("{lower_name} {lo:.3e} beats {upper_name} {up:.3e} at working set {size}"),
            );
        }
    }
}

/// Audit one machine's full probe set, relative to the auditor's current
/// scope. Covers [`MS101`]–[`MS106`]; reads only the probe values, no
/// simulation.
pub fn audit_probes(machine: &MachineConfig, probes: &MachineProbes, a: &mut Auditor) {
    let maps = &probes.maps;
    for (name, curve) in [
        ("maps.unit", &maps.unit),
        ("maps.random", &maps.random),
        ("maps.unit_chained", &maps.unit_chained),
        ("maps.unit_branchy", &maps.unit_branchy),
        ("maps.random_chained", &maps.random_chained),
    ] {
        a.scope(name.to_string(), |a| audit_curve(curve, a));
    }

    a.scope("maps".to_string(), |a| {
        // MS104: random access never beats unit stride at the same size.
        audit_dominance(a, &MS104, "random", &maps.random, "unit", &maps.unit);
        audit_dominance(
            a,
            &MS104,
            "random_chained",
            &maps.random_chained,
            "unit_chained",
            &maps.unit_chained,
        );
        // MS103: dependence limits MLP, it cannot add bandwidth.
        audit_dominance(
            a,
            &MS103,
            "unit_chained",
            &maps.unit_chained,
            "unit",
            &maps.unit,
        );
        audit_dominance(
            a,
            &MS103,
            "unit_branchy",
            &maps.unit_branchy,
            "unit",
            &maps.unit,
        );
        audit_dominance(
            a,
            &MS103,
            "random_chained",
            &maps.random_chained,
            "random",
            &maps.random,
        );

        // MS106: the curve should actually have a cache cliff.
        if let (Some(&(_, l1)), plateau) = (maps.unit.points.first(), maps.unit.plateau().get()) {
            if plateau > 0.0 && l1 / plateau < MIN_PLATEAU_RATIO {
                a.finding_at(
                    &MS106,
                    "unit",
                    format!(
                        "L1 plateau {l1:.3e} is only {:.2}x the memory plateau {plateau:.3e}",
                        l1 / plateau
                    ),
                );
            }
        }
    });

    // MS105: HPL cannot beat theoretical peak.
    let peak = machine.processor.peak_gflops();
    if probes.hpl.rmax_gflops_per_proc > peak * (1.0 + 1e-9) {
        a.finding_at(
            &MS105,
            "hpl.rmax_gflops_per_proc",
            format!(
                "measured Rmax {:.3} GFLOP/s exceeds peak {peak:.3} GFLOP/s",
                probes.hpl.rmax_gflops_per_proc
            ),
        );
    }
}

/// The two exact samples [`MS204`] takes, by name: an L1-resident
/// sequential sweep and a DRAM-resident random sweep, bracketing the
/// hierarchy.
#[must_use]
pub fn hit_fraction_samples() -> [(&'static str, Workload); 2] {
    [
        (
            "cache_resident",
            Workload::new(
                16 << 10,
                AccessKind::Sequential,
                DependencyMode::Independent,
            ),
        ),
        (
            "memory_resident",
            Workload::new(64 << 20, AccessKind::Random, DependencyMode::Independent),
        ),
    ]
}

/// [`MS204`], relative to the auditor's current scope: the cache
/// simulator's hit fractions for `memory` must partition the access
/// stream, on each of the [`hit_fraction_samples`], whose profiles are read
/// through `profiles`.
pub fn audit_hit_fractions(memory: &MemorySpec, profiles: &ProfileMemo, a: &mut Auditor) {
    for (name, workload) in hit_fraction_samples() {
        let sample = measure_bandwidth_memo(memory, &workload, profiles);
        let profile = &sample.profile;
        let mut sum = profile.memory_fraction();
        let mut in_range = (0.0..=1.0).contains(&sum);
        for i in 0..profile.level_hits.len() {
            let f = profile.level_fraction(i);
            in_range &= (0.0..=1.0).contains(&f);
            sum += f;
        }
        if !in_range || (sum - 1.0).abs() > 1e-9 {
            a.finding_at(
                &MS204,
                format!("hit_fractions.{name}"),
                format!("level + memory hit fractions sum to {sum}, expected exactly 1"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maps::DependencyFlavor;
    use metasim_audit::audit_value;
    use metasim_machines::{fleet, MachineId};
    use metasim_memsim::analytic::ResolvedTier;

    fn curve(points: Vec<(u64, f64)>) -> MapsCurve {
        MapsCurve::new(
            AccessKind::Sequential,
            DependencyFlavor::Independent,
            points,
        )
    }

    #[test]
    fn good_curve_is_clean() {
        let c = curve(vec![(4096, 10e9), (8192, 9e9), (16384, 4e9)]);
        let report = audit_value(|a| audit_curve(&c, a));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn short_curve_fires_ms101() {
        let c = curve(vec![(4096, 10e9)]);
        let report = audit_value(|a| audit_curve(&c, a));
        assert!(report.has_code("MS101"), "{report}");
    }

    #[test]
    fn nonpositive_bandwidth_fires_ms101() {
        let c = curve(vec![(4096, 10e9), (8192, -1.0)]);
        let report = audit_value(|a| audit_curve(&c, a));
        assert!(report.has_code("MS101"), "{report}");
    }

    #[test]
    fn unsorted_sizes_fire_ms101() {
        let c = curve(vec![(8192, 10e9), (4096, 9e9)]);
        let report = audit_value(|a| audit_curve(&c, a));
        assert!(report.has_code("MS101"), "{report}");
    }

    #[test]
    fn rising_curve_fires_ms102() {
        let c = curve(vec![(4096, 2e9), (8192, 4e9)]);
        let report = audit_value(|a| audit_curve(&c, a));
        assert!(report.has_code("MS102"), "{report}");
    }

    #[test]
    fn doctored_probes_fire_cross_curve_rules() {
        let f = fleet();
        let m = f.get(MachineId::ArlXeon);
        let mut probes = MachineProbes::measure(m);
        // Random suddenly beats unit stride: MS104.
        for p in &mut probes.maps.random.points {
            p.1 *= 100.0;
        }
        // HPL beats peak: MS105.
        probes.hpl.rmax_gflops_per_proc =
            metasim_units::Gflops::new(m.processor.peak_gflops() * 2.0);
        let report = audit_value(|a| audit_probes(m, &probes, a));
        assert!(report.has_code("MS104"), "{report}");
        assert!(report.has_code("MS105"), "{report}");
    }

    #[test]
    fn doctored_chained_curve_fires_ms103() {
        let f = fleet();
        let m = f.get(MachineId::ArlXeon);
        let mut probes = MachineProbes::measure(m);
        for p in &mut probes.maps.unit_chained.points {
            p.1 *= 100.0;
        }
        let report = audit_value(|a| audit_probes(m, &probes, a));
        assert!(report.has_code("MS103"), "{report}");
    }

    #[test]
    fn flat_curve_fires_ms106_warning() {
        let f = fleet();
        let m = f.get(MachineId::ArlXeon);
        let mut probes = MachineProbes::measure(m);
        let plateau = probes.maps.unit.plateau().get();
        for p in &mut probes.maps.unit.points {
            p.1 = plateau;
        }
        // Flatten the dominated curves too so only MS106 is in question.
        probes.maps.random = probes.maps.unit.clone();
        probes.maps.unit_chained = probes.maps.unit.clone();
        probes.maps.unit_branchy = probes.maps.unit.clone();
        probes.maps.random_chained = probes.maps.unit.clone();
        let report = audit_value(|a| audit_probes(m, &probes, a));
        assert!(report.has_code("MS106"), "{report}");
        assert!(!report.has_errors(), "MS106 is a warning: {report}");
    }

    #[test]
    fn shipped_fleet_probes_are_clean() {
        let f = fleet();
        let profiles = ProfileMemo::new();
        for m in f.all() {
            let probes = MachineProbes::measure_memo(m, ResolvedTier::Exact, &profiles);
            let report = audit_value(|a| {
                a.scope(m.id.to_string(), |a| {
                    audit_probes(m, &probes, a);
                    audit_hit_fractions(&m.memory, &profiles, a);
                });
            });
            assert!(report.is_clean(), "{}:\n{report}", m.id);
        }
    }
}
