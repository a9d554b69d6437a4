//! Memory-hierarchy simulator for the `metasim` workspace.
//!
//! The SC'05 study measures memory behaviour on real machines with STREAM,
//! GUPS, and the MAPS working-set sweeps, and its ground truth is real
//! application execution. We have neither the 2001–2005 DoD fleet nor its
//! applications, so this crate supplies the substitute: an exact model of
//! set-associative LRU caches and a fully associative LRU TLB, and a
//! timing model ([`timing`]) that converts the per-level hit profile
//! ([`AccessProfile`](hierarchy::AccessProfile)) into seconds, accounting
//! for:
//!
//! * per-level sustainable load bandwidth (streaming accesses),
//! * per-level latency with bounded memory-level parallelism (random
//!   accesses),
//! * hardware-prefetch efficiency as a function of stride (unit stride fully
//!   prefetched, short strides partially, random not at all) — this is what
//!   gives short-stride accesses their cache-line-utilization penalty,
//! * loop-carried-dependency serialization and in-loop branch penalties —
//!   the effects the paper's ENHANCED MAPS probe was built to expose,
//! * a small TLB model for large random working sets.
//!
//! A measurement ([`measure_bandwidth`]) profiles one [`Workload`] on one
//! [`Hierarchy`], exactly, in one of two ways ([`bandwidth`] gives the
//! rules):
//!
//! * a sequential or strided sweep is *counted*: its profile is arithmetic
//!   in its period, its stride and each level's geometry, with no address
//!   generated;
//! * a random stream is *simulated*: its warm-up is settled (the caches and
//!   TLB are built in the state the warm-up leaves, read backwards from its
//!   addresses) and its measured pass is driven through them, every
//!   address simulated.
//!
//! Machines that share a hierarchy share profiles ([`ProfileMemo`]), and an
//! analytic tier ([`analytic`]) can stand in for the exact profile within a
//! checked error budget.
//!
//! The same engine serves two roles: the *probes* crate measures machines
//! through it (STREAM/GUPS/MAPS results are measured, not read from config),
//! and the *apps* crate's ground-truth model executes application blocks
//! through it. Prediction error in the reproduced study is therefore organic:
//! the coarse metrics genuinely fail to capture behaviour the simulator
//! genuinely has.
//!
//! ```
//! use metasim_memsim::spec::MemorySpec;
//! use metasim_memsim::bandwidth::{measure_bandwidth, Workload};
//! use metasim_memsim::timing::{AccessKind, DependencyMode};
//!
//! let spec = MemorySpec::example_two_level();
//! // STREAM-like: unit stride from a main-memory-sized working set.
//! let stream = measure_bandwidth(
//!     &spec,
//!     &Workload::new(64 << 20, AccessKind::Sequential, DependencyMode::Independent),
//! );
//! // L1-resident unit stride is far faster.
//! let l1 = measure_bandwidth(
//!     &spec,
//!     &Workload::new(16 << 10, AccessKind::Sequential, DependencyMode::Independent),
//! );
//! assert!(l1.bytes_per_second() > 2.0 * stream.bytes_per_second());
//! ```

pub mod analytic;
pub mod bandwidth;
mod cache;
pub mod hierarchy;
pub mod spec;
mod streams;
mod tag_pool;
pub mod timing;
mod tlb;

pub use analytic::{
    analytic_bandwidth, audit_tier_budget, measure_bandwidth_tiered, ResolvedTier, Tier,
    TIER_ERROR_BUDGET,
};
pub use bandwidth::{
    measure_bandwidth, measure_bandwidth_memo, BandwidthSample, ProfileMemo, Workload,
};
pub use hierarchy::Hierarchy;
pub use spec::{CacheGeometry, LevelSpec, MainMemorySpec, MemorySpec, TlbGeometry};
pub use timing::{AccessKind, DependencyMode, TimingModel};
