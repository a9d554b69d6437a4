//! Seeded scenario generation: from the paper's 10-machine grid to
//! 10,000-machine fleets.
//!
//! The paper answers "how well do simple metrics predict performance?"
//! for ten real HPC machines and four real applications (Tables 4–5).
//! This crate generalizes the question to a *distribution* over machine
//! and application space:
//!
//! * [`spec`] — [`spec::FleetSpec`], a declarative description of the
//!   sampled space (cache hierarchies, fabrics, node counts; stride and
//!   op mixes, working sets), loaded from JSON;
//! * [`sampler`] — [`sampler::SampledGenerator`], which draws a
//!   [`sampler::GeneratedFleet`] from a spec. Every draw is keyed by
//!   `metasim_stats::rng` label streams rooted at `"fleet"`, so a fleet
//!   is **byte-reproducible from `(spec, seed)`** on any machine, at any
//!   `--jobs` value;
//! * [`study`] — [`study::run_fleet_study`], which reruns the paper's
//!   Table 4/5 methodology per sampled `(machine, application)` cell and
//!   aggregates *where in machine space* each metric's error exceeds the
//!   paper's thresholds ([`study::FleetBench`] / `BENCH_fleet.json`);
//! * [`audit`] — the `MS10xx` gates (degenerate sampled machine, seed
//!   overlap with study RNG streams, failed reference preflight; spec
//!   well-posedness lives in [`spec::audit_spec`]);
//! * [`mutation`] — seeded defects pinning each `MS10xx` rule to a test.
//!
//! The shipped paper grid itself is recoverable as a degenerate fleet of
//! size 10: [`sampler::GeneratedFleet::paper_grid`].

pub mod audit;
pub mod mutation;
pub mod sampler;
pub mod spec;
pub mod study;

pub use audit::{audit_generated_fleet, preflight_reference};
pub use mutation::FleetMutation;
pub use sampler::{FleetGenerator, GeneratedFleet, GeneratedMachine, SampledGenerator};
pub use spec::{audit_spec, Dist, FleetSpec};
pub use study::{render_report, run_fleet_study, FleetBench, FleetStudyConfig, FleetStudyOutput};
