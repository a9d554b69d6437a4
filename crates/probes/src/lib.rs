//! Synthetic benchmark probes: the paper's measurement layer.
//!
//! Table 3 of the paper builds its nine metrics out of six measurement
//! sources: HPL, STREAM, GUPS (HPC Challenge Random Access), MEMBENCH MAPS,
//! ENHANCED MAPS, and NETBENCH. This crate implements each one as a probe
//! that *runs against* a simulated machine rather than reading its
//! configuration:
//!
//! * [`hpl`] models a blocked LU factorization (flops at the machine's dense
//!   kernel efficiency plus panel broadcasts over the simulated network) and
//!   reports per-processor `Rmax`.
//! * [`stream`] and [`gups`] drive unit-stride and random address streams
//!   through the cache simulator at main-memory-sized working sets.
//! * [`maps`] sweeps working-set sizes from L1-resident to DRAM-resident for
//!   unit and random stride, producing the bandwidth-versus-size curves of
//!   the paper's Figure 1; ENHANCED MAPS repeats the sweep under
//!   loop-carried-dependency and branchy issue modes.
//! * [`netbench`] runs ping-pong and `all_reduce` measurements over the
//!   network model and reports *measured* latency/bandwidth (the software
//!   overhead folds into the measured numbers, just as it does on real
//!   fabrics — one of the organic error sources for Metric #8).
//!
//! [`suite::ProbeSuite`] measures and memoizes the full set per machine with
//! single-flight semantics — concurrent cold callers coalesce onto one
//! measurement per machine (see [`suite`]). Within one measurement, each
//! MAPS curve's *working-set sweep* runs serially over the sweep sizes
//! ([`maps::sweep_sizes`]), the five curves one after another, as are the
//! other probes; parallelism lives one level up, across machines. Under an
//! installed `metasim-chaos` fault plan, acquisition can fail — see
//! [`suite::ProbeSuite::try_measure`] and [`suite::ProbeFailure`].
//!
//! ```
//! use metasim_machines::{fleet, MachineId};
//! use metasim_probes::suite::ProbeSuite;
//!
//! let fleet = fleet();
//! let suite = ProbeSuite::new();
//! let probes = suite.measure(fleet.get(MachineId::ArlOpteron));
//! assert!(probes.stream.gb_per_second() > 1.0);
//! assert!(probes.hpl.rmax_gflops_per_proc < probes.hpl.rpeak_gflops_per_proc);
//! ```

pub mod audit;
pub mod gups;
pub mod hpl;
pub mod maps;
pub mod netbench;
pub mod stream;
pub mod suite;

pub use audit::{audit_curve, audit_hit_fractions, audit_probes};
pub use gups::{measure_gups, GupsResult};
pub use hpl::{measure_hpl, HplResult};
pub use maps::{measure_maps, DependencyFlavor, MapsCurve, MapsSet};
pub use netbench::{measure_netbench, NetbenchResult};
pub use stream::{measure_stream, StreamResult};
pub use suite::{MachineProbes, ProbeFailure, ProbeSuite};

// The tier vocabulary is part of this crate's public API (ProbeSuite::with_tier
// and the tiered probe functions take it); re-export so downstream crates can
// name it without depending on the simulator crate directly.
pub use metasim_memsim::analytic::{ResolvedTier, Tier};
