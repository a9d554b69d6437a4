//! MetaSim Tracer and MPIDTRACE equivalents.
//!
//! The paper's predictive metrics (#4–#9) consume an application *signature*
//! collected once on the base system:
//!
//! * **Operation counts per basic block** — floating-point operations and
//!   memory references ([`block::TracedBlock`]).
//! * **Memory reference classification** — MetaSim Tracer "parses the
//!   address stream with a stride detector, thus determining what portion of
//!   memory references are stride-1, non-unit short strides (up to
//!   stride-8), and random stride" (§3). [`stride::StrideDetector`]
//!   implements exactly that, over real address sequences.
//! * **Working-set estimates per block** — distinct lines touched, which the
//!   MAPS-based metrics (#7–#9) use to pick a point on the bandwidth curve.
//! * **Communication events** — MPIDTRACE's counts of MPI operations and
//!   sizes ([`mpi::MpiTrace`], built on `metasim_netsim` event types).
//! * **Dependency flags** — the static binary analysis (§3, Metric #9) that
//!   identifies ILP-limited basic blocks ([`analysis`]).
//!
//! The crate also models what tracing *costs* ([`dilation`]): MetaSim
//! imposes ~30× dilation, the number the paper weighs when asking whether a
//! metric's accuracy gain was worth its collection effort. The
//! performance-counter mode ([`counters`]) is the cheap alternative that
//! suffices for Metrics #4–#5.

pub mod analysis;
pub mod block;
pub mod counters;
pub mod dilation;
pub mod mpi;
pub mod stride;
pub mod trace;

pub use analysis::analyze_dependencies;
pub use block::{DependencyClass, StrideBins, TracedBlock};
pub use counters::HardwareCounters;
pub use dilation::TracingCost;
pub use mpi::MpiTrace;
pub use stride::StrideDetector;
pub use trace::ApplicationTrace;
