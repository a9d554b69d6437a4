//! Memory-hierarchy simulator for the `metasim` workspace.
//!
//! The SC'05 study measures memory behaviour on real machines with STREAM,
//! GUPS, and the MAPS working-set sweeps, and its ground truth is real
//! application execution. We have neither the 2001–2005 DoD fleet nor its
//! applications, so this crate supplies the substitute: an execution-driven
//! memory system simulator. Synthetic probes and application workloads
//! generate *real address streams*; those streams run through set-associative
//! LRU caches ([`cache::Cache`]) organised into a hierarchy
//! ([`hierarchy::HierarchySim`]); and a timing model ([`timing`]) converts the
//! per-level hit profile into seconds, accounting for:
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
pub mod cache;
pub mod hierarchy;
pub mod spec;
pub mod streams;
mod tag_pool;
pub mod timing;
pub mod tlb;

pub use analytic::{
    analytic_bandwidth, audit_tier_budget, measure_bandwidth_tiered, ResolvedTier, Tier,
    TIER_ERROR_BUDGET,
};
pub use bandwidth::{
    measure_bandwidth, measure_bandwidth_memo, BandwidthSample, ProfileMemo, Workload,
};
pub use hierarchy::{Hierarchy, HierarchySim, LevelHit};
pub use spec::{CacheGeometry, LevelSpec, MainMemorySpec, MemorySpec, TlbGeometry};
pub use timing::{AccessKind, DependencyMode, TimingModel};
