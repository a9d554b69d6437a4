//! The `MS10xx` audits that gate generated fleets.
//!
//! Three layers, mirroring how the shipped study is gated:
//!
//! * **MS1001** — every sampled machine must pass the `MS0xx` physics
//!   audits (a sampler may widen the paper's grid, never break it);
//! * **MS1003** — every fleet sampling stream must be disjoint from the
//!   study RNG streams the ground truth draws from;
//! * **MS1004** — the study's reference (base) cell must pass an
//!   `MS9xx`-style preflight: finite positive base runtimes and base-side
//!   costs, and bounded amplification of a coherent ±ε probe band.
//!
//! (`MS1002`, spec well-posedness, lives with the spec itself:
//! [`crate::spec::audit_spec`].) Each rule is pinned by a seeded
//! [`crate::mutation::FleetMutation`] firing exactly that rule.

use std::collections::HashSet;

use metasim_apps::groundtruth::noise_seeds;
use metasim_audit::registry::{MS1001, MS1003, MS1004};
use metasim_audit::{audit_value, AuditReport, Auditor};
use metasim_core::prediction::predict_all;
use metasim_machines::MachineConfig;
use metasim_memsim::analytic::{audit_tier_budget, resolve_tier, ResolvedTier, Tier};
use metasim_probes::suite::MachineProbes;
use metasim_stats::rng::seed_from_labels;
use metasim_units::Seconds;

use crate::sampler::{GeneratedFleet, GeneratedMachine};
use crate::study::{tagged_case, AppContext};

/// Relative half-width of the coherent probe band the `MS1004` preflight
/// pushes through the reference cell: the `MS9xx` band.
pub const PREFLIGHT_EPSILON: f64 = metasim_core::sensitivity::EPSILON;

/// Maximum tolerated amplification of that band by any metric's base-side
/// cost: the `MS903` bound.
pub const PREFLIGHT_MAX_AMPLIFICATION: f64 = metasim_core::sensitivity::MAX_AMPLIFICATION;

/// Audit every sampled machine's physics (**MS1001**) and the sampling
/// streams' disjointness from the study RNG namespace (**MS1003**).
pub fn audit_generated_fleet(fleet: &GeneratedFleet, a: &mut Auditor) {
    a.scope("fleet", |a| {
        for m in &fleet.machines {
            let inner = audit_value(|ia| m.config.audit(ia));
            if inner.has_errors() {
                a.finding_at(
                    &MS1001,
                    &m.name,
                    format!(
                        "sampled machine fails the MS0xx physics audits ({})",
                        inner.summary_line()
                    ),
                );
            }
        }
        audit_seed_disjointness(fleet, a);
    });
}

/// The study RNG streams a fleet study will actually draw from, as seeds:
/// per-cell idiosyncrasy / imbalance / run-jitter streams (tagged and
/// untagged cases, base and target machines) and per-block workblock
/// streams.
fn study_stream_seeds(fleet: &GeneratedFleet, base_label: &str) -> HashSet<u64> {
    let mut seeds = HashSet::new();
    for app in &fleet.apps {
        let w = &app.workload;
        let mut cases: Vec<String> = vec![w.case.clone()];
        for m in &fleet.machines {
            cases.push(tagged_case(&w.case, &m.name));
        }
        let mut labels: Vec<&str> = vec![base_label];
        labels.extend(fleet.machines.iter().map(|m| m.config.id.label()));
        labels.dedup();
        for case in &cases {
            for label in &labels {
                let s = noise_seeds(&w.app, case, label, w.processes);
                seeds.extend([s.idiosyncrasy, s.imbalance, s.run_jitter]);
            }
        }
        for block in &w.blocks {
            seeds.insert(seed_from_labels(&[
                "workblock",
                &block.name,
                "trace-stream",
            ]));
        }
    }
    seeds
}

/// **MS1003**: no fleet sampling stream may share a seed with any study
/// RNG stream this fleet's study will draw.
fn audit_seed_disjointness(fleet: &GeneratedFleet, a: &mut Auditor) {
    let study = study_stream_seeds(fleet, "NAVO_690_BASE");
    for stream in &fleet.streams {
        if study.contains(&stream.seed) {
            a.finding_at(
                &MS1003,
                "streams",
                format!(
                    "sampling stream [{}] collides with a study RNG stream (seed {:#x})",
                    stream.labels.join(", "),
                    stream.seed
                ),
            );
        }
        if stream
            .labels
            .first()
            .is_some_and(|root| root != crate::sampler::FLEET_STREAM_ROOT)
        {
            a.finding_at(
                &MS1003,
                "streams",
                format!(
                    "sampling stream [{}] is rooted outside the `fleet` namespace",
                    stream.labels.join(", ")
                ),
            );
        }
    }
}

/// A coherently perturbed copy of a machine: bandwidths scaled down by
/// `eps`, latencies up by `eps` — the worst coherent direction for every
/// cost.
fn perturbed(machine: &MachineConfig, eps: f64) -> MachineConfig {
    let mut m = machine.clone();
    for level in &mut m.memory.levels {
        level.load_bandwidth *= 1.0 - eps;
        level.latency *= 1.0 + eps;
    }
    m.memory.memory.stream_bandwidth *= 1.0 - eps;
    m.memory.memory.latency *= 1.0 + eps;
    m.network.bandwidth *= 1.0 - eps;
    m.network.latency *= 1.0 + eps;
    m.processor.clock_ghz *= 1.0 - eps;
    m
}

/// **MS1004**: preflight the reference (base) cell of a fleet study.
///
/// For each sampled application, the base runtime must be finite and
/// positive, and every metric's Equation-1 ratio must amplify a coherent
/// ±ε probe perturbation of the base machine by at most
/// [`PREFLIGHT_MAX_AMPLIFICATION`] — the same bound the `MS903`
/// sensitivity lint enforces statically on the shipped grid.
///
/// `nominal` is the base machine's probe set measured at `tier`, and `apps`
/// the per-application base contexts: the ones the study's cells then read,
/// so the gate checks exactly the runtimes and traces the study uses.
pub fn preflight_reference(
    base: &MachineConfig,
    nominal: &MachineProbes,
    apps: &[AppContext],
    tier: ResolvedTier,
    a: &mut Auditor,
) {
    let banded = MachineProbes::measure_tiered(&perturbed(base, PREFLIGHT_EPSILON), tier);
    a.scope("reference", |a| {
        for ctx in apps {
            let t_base = ctx.t_base;
            if !(t_base.is_finite() && t_base > 0.0) {
                a.finding_at(
                    &MS1004,
                    &ctx.app.name,
                    format!("base runtime {t_base} is not finite and positive"),
                );
                continue;
            }
            // With `banded` as the "target", each prediction is exactly the
            // ratio of banded to nominal base-side cost.
            let ratios = predict_all(&ctx.trace, &ctx.labels, &banded, nominal, Seconds::new(1.0));
            for (metric, ratio) in ratios.iter().enumerate() {
                let r = ratio.get();
                let amplification = if r.is_finite() && r > 0.0 {
                    r.ln().abs() / PREFLIGHT_EPSILON
                } else {
                    f64::INFINITY
                };
                if amplification > PREFLIGHT_MAX_AMPLIFICATION {
                    a.finding_at(
                        &MS1004,
                        format!("{}.metric{}", ctx.app.name, metric + 1),
                        format!(
                            "coherent ±{:.0}% band amplified {amplification:.2}x (budget {PREFLIGHT_MAX_AMPLIFICATION})",
                            PREFLIGHT_EPSILON * 100.0
                        ),
                    );
                }
            }
        }
    });
}

/// The fleet-scale `MS801` guard on one sampled machine: cross-check the
/// analytic memory tier against the exact simulator on its hierarchy.
/// No-op unless the machine actually resolves to the analytic tier. A
/// study calibrates only its first [`MS801_SUBSAMPLE`] machines, since
/// exhaustive calibration at size 10,000 would dwarf the study itself.
///
/// [`MS801_SUBSAMPLE`]: crate::study::MS801_SUBSAMPLE
pub(crate) fn calibrate_tier(machine: &GeneratedMachine, tier: Tier) -> AuditReport {
    audit_value(|a| {
        if resolve_tier(&machine.config.memory, tier) == ResolvedTier::Analytic {
            a.scope(machine.name.clone(), |a| {
                audit_tier_budget(&machine.config.memory, a);
            });
        }
    })
}
