//! # metasim
//!
//! A full reproduction of *"How Well Can Simple Metrics Represent the
//! Performance of HPC Applications?"* (Carrington, Laurenzano, Snavely,
//! Campbell, Davis — SC 2005): trace-convolution performance prediction for
//! HPC systems, with every substrate the study depends on built in —
//! simulated machines standing in for the ten DoD HPCMP systems, synthetic
//! probes (HPL, STREAM, GUPS, MAPS, ENHANCED MAPS, NETBENCH), a MetaSim-style
//! tracer with stride detection, the convolver implementing the paper's nine
//! metrics as one evaluated formula IR, and synthetic TI-05 applications with a detailed ground-truth
//! execution model.
//!
//! This crate is the facade: it re-exports the workspace crates under stable
//! module names and hosts the runnable examples and cross-crate integration
//! tests.
//!
//! ## Quickstart
//!
//! ```no_run
//! use metasim::machines::{fleet, MachineId};
//! use metasim::probes::suite::ProbeSuite;
//! use metasim::apps::registry::TestCase;
//! use metasim::apps::tracing::trace_workload;
//! use metasim::apps::groundtruth::GroundTruth;
//! use metasim::core::prediction::predict_all;
//! use metasim::tracer::analysis::analyze_dependencies;
//! use metasim::units::Seconds;
//!
//! let fleet = fleet();
//! let suite = ProbeSuite::new();
//! let gt = GroundTruth::new();
//!
//! // Trace HYCOM once on the base system...
//! let workload = TestCase::HycomStandard.workload(96);
//! let trace = trace_workload(&workload);
//! let labels = analyze_dependencies(&trace.blocks);
//! let t_base = Seconds::new(gt.run(TestCase::HycomStandard, 96, fleet.base()).seconds);
//!
//! // ...then predict any target machine from probe measurements alone.
//! let target = fleet.get(MachineId::ArlOpteron);
//! let predictions = predict_all(
//!     &trace,
//!     &labels,
//!     &suite.measure(target),
//!     &suite.measure(fleet.base()),
//!     t_base,
//! );
//! println!("metric #9 predicts {:.0} s", predictions[8]);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`audit`] | `metasim-audit` | `MSxxx` diagnostics: rules, auditor, renderers |
//! | [`units`] | `metasim-units` | dimension-tagged quantities (`Seconds`, `Gflops`, …) |
//! | [`obs`] | `metasim-obs` | spans, metrics, run manifests (zero-cost when off) |
//! | [`cache`] | `metasim-cache` | content-addressed on-disk artifact store |
//! | [`chaos`] | `metasim-chaos` | seeded fault injection + graceful degradation |
//! | [`stats`] | `metasim-stats` | statistics, regression, deterministic RNG |
//! | [`memsim`] | `metasim-memsim` | cache-hierarchy simulator |
//! | [`netsim`] | `metasim-netsim` | interconnect model |
//! | [`machines`] | `metasim-machines` | the 11-system HPCMP fleet |
//! | [`probes`] | `metasim-probes` | HPL/STREAM/GUPS/MAPS/NETBENCH |
//! | [`tracer`] | `metasim-tracer` | MetaSim tracer + MPIDTRACE equivalents |
//! | [`apps`] | `metasim-apps` | TI-05 applications + ground truth |
//! | [`core`] | `metasim-core` | formula IR (the convolver), nine metrics, dataflow graph, sharded study driver |
//! | [`fleet`] | `metasim-fleet` | seeded scenario generation: sampled machine/app spaces, fleet studies |
//! | [`report`] | `metasim-report` | tables, CSV, charts, SVG |

pub use metasim_apps as apps;
pub use metasim_audit as audit;
pub use metasim_cache as cache;
pub use metasim_chaos as chaos;
pub use metasim_core as core;
pub use metasim_fleet as fleet;
pub use metasim_machines as machines;
pub use metasim_memsim as memsim;
pub use metasim_netsim as netsim;
pub use metasim_obs as obs;
pub use metasim_probes as probes;
pub use metasim_report as report;
pub use metasim_stats as stats;
pub use metasim_tracer as tracer;
pub use metasim_units as units;
