//! Determinism, fixture, and mutation-pinning tests for fleet generation
//! and fleet studies.

use std::collections::HashSet;

use metasim_audit::audit_value;
use metasim_fleet::study::{run_fleet_study, FleetStudyConfig};
use metasim_fleet::{
    audit_generated_fleet, audit_spec, FleetGenerator, FleetMutation, FleetSpec, SampledGenerator,
};
use metasim_machines::MachineId;
use metasim_memsim::analytic::Tier;
use proptest::prelude::*;

fn analytic_cfg(size: usize, seed: u64, mutation: Option<FleetMutation>) -> FleetStudyConfig {
    FleetStudyConfig {
        size,
        seed,
        tier: Tier::Analytic,
        jobs: 1,
        mutation,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The determinism contract: equal (spec, seed) means byte-identical
    // serialized fleets.
    #[test]
    fn equal_spec_and_seed_generate_identical_fleets(
        seed in 0u64..1_000_000,
        size in 1usize..12,
    ) {
        let g = SampledGenerator::paper_space();
        let a = g.generate(size, seed);
        let b = g.generate(size, seed);
        prop_assert_eq!(a.to_json_pretty(), b.to_json_pretty());
    }

    // Distinct seeds must drive disjoint sampling streams (and, with
    // overwhelming probability, distinct fleets).
    #[test]
    fn distinct_seeds_use_disjoint_streams(seed in 0u64..1_000_000) {
        let g = SampledGenerator::paper_space();
        let a = g.generate(6, seed);
        let b = g.generate(6, seed ^ 0x9e37_79b9_7f4a_7c15);
        let sa: HashSet<u64> = a.streams.iter().map(|s| s.seed).collect();
        let sb: HashSet<u64> = b.streams.iter().map(|s| s.seed).collect();
        prop_assert_eq!(sa.len(), a.streams.len(), "stream seeds collide within a fleet");
        prop_assert!(sa.is_disjoint(&sb));
        prop_assert_ne!(a.to_json_pretty(), b.to_json_pretty());
    }

    // Every sampled fleet passes its own audits: the constructive sampler
    // never emits a machine the MS0xx physics rules reject, and its
    // streams never leave the `fleet` namespace.
    #[test]
    fn sampled_fleets_audit_clean(seed in 0u64..1_000_000) {
        let g = SampledGenerator::paper_space();
        let fleet = g.generate(8, seed);
        let report = audit_value(|a| audit_generated_fleet(&fleet, a));
        prop_assert!(!report.has_errors(), "{}", report.summary_line());
    }
}

// The shipped paper grid is recoverable as the degenerate size-10 fleet:
// the ten Table 5 targets, audit-clean, with nothing sampled.
#[test]
fn paper_grid_is_a_degenerate_size_10_fleet() {
    let grid = metasim_fleet::GeneratedFleet::paper_grid();
    assert_eq!(grid.machines.len(), 10);
    assert_eq!(grid.apps.len(), 5);
    assert!(
        grid.streams.is_empty(),
        "nothing is drawn for the paper grid"
    );
    let labels: Vec<&str> = grid.machines.iter().map(|m| m.name.as_str()).collect();
    let expected: Vec<&str> = MachineId::TARGETS.iter().map(|id| id.label()).collect();
    assert_eq!(labels, expected);
    let report = audit_value(|a| audit_generated_fleet(&grid, a));
    assert!(!report.has_errors(), "{}", report.summary_line());
}

// The built-in sampling space is well-posed.
#[test]
fn paper_space_spec_audits_clean() {
    let report = audit_value(|a| audit_spec(&FleetSpec::paper_space(), a));
    assert!(!report.has_errors(), "{}", report.summary_line());
}

// The spec round-trips through its own JSON template (the `fleet spec`
// output is a faithful, editable description of the space).
#[test]
fn spec_round_trips_through_json() {
    let spec = FleetSpec::paper_space();
    let back = FleetSpec::from_json(&spec.to_json_pretty()).expect("template parses");
    assert_eq!(spec, back);
}

// Each seeded fleet mutation trips exactly its own MS10xx rule and the
// study refuses to run.
#[test]
fn each_mutation_fires_exactly_its_rule() {
    let all_codes = ["MS1001", "MS1002", "MS1003", "MS1004"];
    for mutation in FleetMutation::ALL {
        let spec = FleetSpec::paper_space();
        let report = run_fleet_study(&spec, &analytic_cfg(4, 3, Some(mutation)))
            .err()
            .unwrap_or_else(|| panic!("{}: study must refuse to run", mutation.name()));
        assert!(
            report.has_code(mutation.expected_code()),
            "{}: expected {} in `{}`",
            mutation.name(),
            mutation.expected_code(),
            report.summary_line()
        );
        for other in all_codes {
            if other != mutation.expected_code() {
                assert!(
                    !report.has_code(other),
                    "{}: stray {other} in `{}`",
                    mutation.name(),
                    report.summary_line()
                );
            }
        }
    }
}

// A clean small study: runs, audit-clean, byte-identical across --jobs
// on both memory tiers (its export and its full audit report), and
// structurally complete (every cell present, buckets partition).
#[test]
fn clean_study_is_jobs_invariant_and_complete() {
    let spec = FleetSpec::paper_space();
    for tier in [Tier::Analytic, Tier::Exact] {
        let cfg = |jobs| FleetStudyConfig {
            tier,
            jobs,
            ..analytic_cfg(5, 11, None)
        };
        let serial = run_fleet_study(&spec, &cfg(1)).expect("clean study runs");
        assert!(
            !serial.report.has_errors(),
            "{tier}: {}",
            serial.report.summary_line()
        );
        for jobs in [2, 3] {
            let sharded = run_fleet_study(&spec, &cfg(jobs)).expect("sharded study runs");
            assert_eq!(
                serde_json::to_string_pretty(&serial.bench).unwrap(),
                serde_json::to_string_pretty(&sharded.bench).unwrap(),
                "{tier}: --jobs {jobs} must not change the bench"
            );
            assert_eq!(serial.observations, sharded.observations);
            assert_eq!(
                serial.report, sharded.report,
                "{tier}: --jobs {jobs} must not change a single diagnostic or their order"
            );
        }

        let apps = serial.fleet.apps.len();
        assert_eq!(serial.observations.len(), 5 * apps);
        assert_eq!(serial.bench.overall.cells, (5 * apps) as u64);
        assert_eq!(serial.bench.overall.machines, 5);
        assert_eq!(serial.bench.overall.metrics.len(), 9);
        let region_cells: u64 = serial.bench.regions.iter().map(|r| r.cells).sum();
        assert_eq!(region_cells, serial.bench.overall.cells);
        for stats in &serial.bench.overall.metrics {
            let total = stats.frac_good + stats.frac_marginal + stats.frac_poor;
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{}: buckets sum to {total}",
                stats.metric
            );
            assert!(stats.mean_abs.is_finite() && stats.mean_abs >= 0.0);
            assert!(stats.worst_abs >= stats.p90_abs && stats.p90_abs >= stats.median_abs);
        }
        for obs in &serial.observations {
            assert!(obs.actual.is_finite() && obs.actual > 0.0);
            assert!(obs.predictions.iter().all(|p| p.is_finite() && *p > 0.0));
        }
    }
}

// A spec written as JSON and read back through `FleetSpec::from_file` is
// the spec that was written.
#[test]
fn spec_file_round_trips_through_json() {
    let spec = FleetSpec::paper_space();
    let dir = std::env::temp_dir().join("metasim-fleet-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.json");
    std::fs::write(&path, spec.to_json_pretty()).unwrap();
    let loaded = FleetSpec::from_file(&path.to_string_lossy()).expect("json spec loads");
    assert_eq!(spec, loaded);
    std::fs::remove_file(&path).ok();
}
