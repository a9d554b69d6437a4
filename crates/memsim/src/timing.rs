//! The timing model: converts an [`AccessProfile`] plus an access-pattern
//! description into seconds.
//!
//! Two regimes are modelled, blended by prefetcher efficiency:
//!
//! * **Streaming (bandwidth-bound).** A detectable stride lets the hardware
//!   prefetcher hide latency; throughput is the serving level's sustainable
//!   load bandwidth applied to the *line* traffic it supplies. Non-unit
//!   strides still move whole lines, so their delivered bandwidth per
//!   requested byte degrades by the line-utilization factor — exactly the
//!   effect visible in the paper's MAPS curves.
//! * **Random (latency-bound).** Each miss costs the serving level's latency
//!   divided by the machine's sustainable memory-level parallelism, plus TLB
//!   miss penalties.
//!
//! Loop-carried dependencies serialize: MLP collapses to 1 and every access
//! additionally pays the dependency-chain latency. In-loop unpredictable
//! branches add a per-access penalty. These are the behaviours the paper's
//! ENHANCED MAPS probe measures and its Metric #9 exploits.

use serde::{Deserialize, Serialize};

use crate::hierarchy::AccessProfile;
use crate::spec::MemorySpec;

/// Spatial pattern of an access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Unit stride (consecutive elements).
    Sequential,
    /// Constant short stride, expressed in *elements* (2–8 typical). The
    /// prefetcher partially covers these; line utilization suffers.
    Strided(u32),
    /// No exploitable locality; latency-bound.
    Random,
}

impl AccessKind {
    /// Prefetcher coverage in `[0, 1]` for this pattern on a machine with
    /// the given short-stride prefetch efficiency.
    #[must_use]
    pub fn prefetch_efficiency(self, short_stride_prefetch: f64) -> f64 {
        match self {
            AccessKind::Sequential => 1.0,
            AccessKind::Strided(_) => short_stride_prefetch,
            AccessKind::Random => 0.0,
        }
    }
}

/// Dependency structure of the loop issuing the accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DependencyMode {
    /// Iterations are independent; the machine may overlap misses.
    #[default]
    Independent,
    /// A loop-carried dependency chains the accesses: no miss overlap, and
    /// each access pays the dependency-chain latency.
    Chained,
    /// The loop body contains a poorly-predicted branch: per-access branch
    /// penalty on top of independent-mode costs.
    Branchy,
}

/// Converts access profiles to time for one machine's memory system.
#[derive(Debug, Clone)]
pub struct TimingModel {
    spec: MemorySpec,
    element_bytes: u64,
}

impl TimingModel {
    /// Build a timing model for a validated spec. `element_bytes` is the
    /// per-access request size (8 for double-precision codes).
    ///
    /// # Panics
    /// Panics if the spec is invalid or `element_bytes` is zero.
    #[must_use]
    pub fn new(spec: MemorySpec, element_bytes: u64) -> Self {
        spec.validate().expect("invalid memory spec");
        assert!(element_bytes > 0, "element size must be nonzero");
        Self {
            spec,
            element_bytes,
        }
    }

    /// The underlying spec.
    #[must_use]
    pub fn spec(&self) -> &MemorySpec {
        &self.spec
    }

    /// Seconds consumed by the accesses described in `profile`, issued with
    /// pattern `kind` under dependency mode `deps`.
    #[must_use]
    pub fn time(&self, profile: &AccessProfile, kind: AccessKind, deps: DependencyMode) -> f64 {
        let total = profile.total_accesses();
        if total == 0 {
            return 0.0;
        }

        let pe = kind.prefetch_efficiency(self.spec.short_stride_prefetch);
        let stream_t = self.streaming_time(profile);
        let latency_t = self.latency_time(profile, 1.0);
        // Prefetch-covered fraction streams; the rest pays latency.
        let mut t = pe * stream_t + (1.0 - pe) * latency_t;

        match deps {
            DependencyMode::Independent => {}
            DependencyMode::Chained => {
                // Serialized: misses cannot overlap (MLP=1) and every access
                // pays the chain latency. The loop runs at whichever is
                // slower: the serial chain or the memory system.
                let serial = total as f64 * self.spec.dependency_chain_latency
                    + self.latency_time_no_mlp(profile);
                t = t.max(serial);
            }
            DependencyMode::Branchy => {
                t += total as f64 * self.spec.branch_penalty;
            }
        }
        t
    }

    /// Effective delivered bandwidth (requested bytes / time), B/s.
    #[must_use]
    pub fn effective_bandwidth(
        &self,
        profile: &AccessProfile,
        kind: AccessKind,
        deps: DependencyMode,
    ) -> f64 {
        let t = self.time(profile, kind, deps);
        if t <= 0.0 {
            return 0.0;
        }
        profile.requested_bytes as f64 / t
    }

    /// Bandwidth-regime time: line traffic from each serving level at that
    /// level's sustainable load bandwidth.
    ///
    /// An access served by L1 is a within-line hit: `element_bytes` at L1
    /// bandwidth. An access served by an outer level is a fill of the
    /// *inner* level's line (that is the transfer granularity into the
    /// missing cache); an access served by memory fills a full last-level
    /// line. Whole lines move regardless of how much of them the stride
    /// will use — which is exactly where non-unit strides lose delivered
    /// bandwidth.
    fn streaming_time(&self, profile: &AccessProfile) -> f64 {
        let elem = self.element_bytes as f64;
        let mut t = 0.0;
        for (i, level) in self.spec.levels.iter().enumerate() {
            let served = profile.level_hits.get(i).copied().unwrap_or(0) as f64;
            let bytes = if i == 0 {
                elem * served
            } else {
                self.spec.levels[i - 1].line_bytes as f64 * served
            };
            t += bytes / level.load_bandwidth;
        }
        let line = self.spec.levels.last().map_or(64, |l| l.line_bytes) as f64;
        t += line * profile.memory_hits as f64 / self.spec.memory.stream_bandwidth;
        t
    }

    /// Latency-regime time with the machine's MLP applied (`mlp_scale`
    /// lets callers damp MLP further).
    fn latency_time(&self, profile: &AccessProfile, mlp_scale: f64) -> f64 {
        let mlp = (self.spec.mlp * mlp_scale).max(1.0);
        let mut t = 0.0;
        for (i, level) in self.spec.levels.iter().enumerate() {
            let served = profile.level_hits.get(i).copied().unwrap_or(0) as f64;
            t += served * level.latency / mlp;
        }
        t += profile.memory_hits as f64 * self.spec.memory.latency / mlp;
        t += profile.tlb_misses as f64 * self.spec.tlb.miss_penalty / mlp;
        t
    }

    /// Latency-regime time with MLP forced to 1 (dependency chains).
    fn latency_time_no_mlp(&self, profile: &AccessProfile) -> f64 {
        let mut t = 0.0;
        for (i, level) in self.spec.levels.iter().enumerate() {
            let served = profile.level_hits.get(i).copied().unwrap_or(0) as f64;
            t += served * level.latency;
        }
        t += profile.memory_hits as f64 * self.spec.memory.latency;
        t += profile.tlb_misses as f64 * self.spec.tlb.miss_penalty;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MemorySpec;

    fn model() -> TimingModel {
        TimingModel::new(MemorySpec::example_two_level(), 8)
    }

    fn profile(l1: u64, l2: u64, mem: u64) -> AccessProfile {
        AccessProfile {
            level_hits: vec![l1, l2],
            memory_hits: mem,
            tlb_misses: 0,
            requested_bytes: (l1 + l2 + mem) * 8,
        }
    }

    #[test]
    fn empty_profile_takes_no_time() {
        let m = model();
        assert_eq!(
            m.time(
                &AccessProfile::default(),
                AccessKind::Sequential,
                DependencyMode::Independent
            ),
            0.0
        );
        assert_eq!(
            m.effective_bandwidth(
                &AccessProfile::default(),
                AccessKind::Sequential,
                DependencyMode::Independent
            ),
            0.0
        );
    }

    #[test]
    fn l1_sequential_hits_run_at_l1_bandwidth() {
        let m = model();
        let p = profile(1000, 0, 0);
        let bw = m.effective_bandwidth(&p, AccessKind::Sequential, DependencyMode::Independent);
        let l1bw = m.spec().levels[0].load_bandwidth;
        assert!((bw - l1bw).abs() / l1bw < 1e-9, "bw {bw} vs {l1bw}");
    }

    #[test]
    fn memory_sequential_runs_at_stream_bandwidth() {
        let m = model();
        // Streaming from memory: the filled-line accesses dominate; within-
        // line L1 hits make effective bandwidth slightly below the pure
        // memory rate (realistic).
        let p = AccessProfile {
            level_hits: vec![7000, 0],
            memory_hits: 1000, // 1 fill per 64B line, 8 accesses/line
            tlb_misses: 0,
            requested_bytes: 8000 * 8,
        };
        let bw = m.effective_bandwidth(&p, AccessKind::Sequential, DependencyMode::Independent);
        let mem = m.spec().memory.stream_bandwidth;
        assert!(bw < mem, "effective {bw} must be below pure stream {mem}");
        assert!(bw > 0.6 * mem, "but not catastrophically: {bw} vs {mem}");
    }

    #[test]
    fn random_is_latency_bound_and_far_slower() {
        let m = model();
        let p = profile(0, 0, 1000);
        let t_seq = m.time(&p, AccessKind::Sequential, DependencyMode::Independent);
        let t_rand = m.time(&p, AccessKind::Random, DependencyMode::Independent);
        assert!(
            t_rand > t_seq,
            "random {t_rand} should exceed sequential {t_seq} on the same fill profile"
        );
        // Expected: 1000 * latency / mlp
        let expect = 1000.0 * m.spec().memory.latency / m.spec().mlp;
        assert!((t_rand - expect).abs() / expect < 1e-9);
        // The realistic gap (sequential streams mostly hit L1 within lines)
        // is asserted end-to-end in bandwidth::tests.
    }

    #[test]
    fn short_stride_sits_between_sequential_and_random() {
        let m = model();
        let p = profile(0, 0, 1000);
        let t_seq = m.time(&p, AccessKind::Sequential, DependencyMode::Independent);
        let t_s4 = m.time(&p, AccessKind::Strided(4), DependencyMode::Independent);
        let t_rand = m.time(&p, AccessKind::Random, DependencyMode::Independent);
        assert!(t_seq < t_s4, "stride-4 slower than unit: {t_seq} vs {t_s4}");
        assert!(
            t_s4 < t_rand,
            "stride-4 faster than random: {t_s4} vs {t_rand}"
        );
    }

    #[test]
    fn stride_line_utilization_caps_at_one_line() {
        let m = model();
        let p = profile(0, 0, 1000);
        // Stride 8 elements * 8 B = 64 B = exactly one line; stride 100 would
        // exceed it but is capped.
        let t8 = m.time(&p, AccessKind::Strided(8), DependencyMode::Independent);
        let t100 = m.time(&p, AccessKind::Strided(100), DependencyMode::Independent);
        assert!(
            (t8 - t100).abs() < 1e-15,
            "line cap should equalize: {t8} vs {t100}"
        );
    }

    #[test]
    fn chained_dependency_serializes() {
        let m = model();
        let p = profile(1000, 0, 0);
        let t_ind = m.time(&p, AccessKind::Sequential, DependencyMode::Independent);
        let t_dep = m.time(&p, AccessKind::Sequential, DependencyMode::Chained);
        assert!(
            t_dep > 3.0 * t_ind,
            "L1-resident chained loop should be much slower: {t_dep} vs {t_ind}"
        );
        // Serial bound: chain latency + L1 latency per access.
        let expect = 1000.0 * (m.spec().dependency_chain_latency + m.spec().levels[0].latency);
        assert!((t_dep - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn branchy_adds_per_access_penalty() {
        let m = model();
        let p = profile(1000, 0, 0);
        let t_ind = m.time(&p, AccessKind::Sequential, DependencyMode::Independent);
        let t_br = m.time(&p, AccessKind::Sequential, DependencyMode::Branchy);
        let delta = t_br - t_ind;
        let expect = 1000.0 * m.spec().branch_penalty;
        assert!((delta - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn tlb_misses_cost_time_on_random_path() {
        let m = model();
        let mut p = profile(0, 0, 1000);
        let t0 = m.time(&p, AccessKind::Random, DependencyMode::Independent);
        p.tlb_misses = 1000;
        let t1 = m.time(&p, AccessKind::Random, DependencyMode::Independent);
        assert!(t1 > t0);
        let expect = 1000.0 * m.spec().tlb.miss_penalty / m.spec().mlp;
        assert!(((t1 - t0) - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn deeper_levels_are_slower_for_streams() {
        let m = model();
        let t_l1 = m.time(
            &profile(1000, 0, 0),
            AccessKind::Sequential,
            DependencyMode::Independent,
        );
        let t_l2 = m.time(
            &profile(0, 1000, 0),
            AccessKind::Sequential,
            DependencyMode::Independent,
        );
        let t_mem = m.time(
            &profile(0, 0, 1000),
            AccessKind::Sequential,
            DependencyMode::Independent,
        );
        assert!(t_l1 < t_l2 && t_l2 < t_mem, "{t_l1} {t_l2} {t_mem}");
    }

    #[test]
    #[should_panic(expected = "element size")]
    fn zero_element_size_panics() {
        let _ = TimingModel::new(MemorySpec::example_two_level(), 0);
    }
}
