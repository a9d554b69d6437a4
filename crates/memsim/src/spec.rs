//! Hardware specification types for the memory-hierarchy simulator.
//!
//! A [`MemorySpec`] describes one processor's view of its memory system: up
//! to three cache levels plus main memory, together with the microarchitecture
//! parameters the timing model needs (memory-level parallelism, prefetcher
//! short-stride efficiency, dependency-chain and branch penalties). The
//! `machines` crate instantiates these for the eleven HPCMP systems.

use metasim_audit::registry::{MS003, MS004, MS005};
use metasim_audit::{audit_value, AuditReport, Auditor};
use serde::{Deserialize, Serialize};

use crate::hierarchy::Hierarchy;

/// True when `x` is a finite, strictly positive number (NaN-rejecting).
fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// True when `x` is a finite, non-negative number (NaN-rejecting).
fn non_negative(x: f64) -> bool {
    x.is_finite() && x >= 0.0
}

/// Description of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelSpec {
    /// Total capacity in bytes (per processor share for shared caches).
    pub capacity_bytes: u64,
    /// Cache line size in bytes (power of two).
    pub line_bytes: u64,
    /// Set associativity (ways).
    pub associativity: u32,
    /// Sustainable load bandwidth for unit-stride streams hitting this
    /// level, in bytes/second.
    pub load_bandwidth: f64,
    /// Load-to-use latency for a dependent access served by this level, in
    /// seconds.
    pub latency: f64,
}

impl LevelSpec {
    /// The part of this level the cache simulator reads.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        CacheGeometry {
            capacity_bytes: self.capacity_bytes,
            line_bytes: self.line_bytes,
            associativity: self.associativity,
        }
    }

    /// Emit [`MS003`] diagnostics for this level: its geometry first, then
    /// its timing.
    pub fn audit(&self, a: &mut Auditor) {
        self.geometry().audit(a);
        if !positive(self.load_bandwidth) {
            a.finding_at(&MS003, "load_bandwidth", "load bandwidth must be positive");
        }
        if !positive(self.latency) {
            a.finding_at(&MS003, "latency", "latency must be positive");
        }
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    /// The audit report, when any error-severity finding fires.
    pub fn validate(&self) -> Result<(), AuditReport> {
        audit_value(|a| self.audit(a)).into_result().map(|_| ())
    }

    /// Number of sets implied by capacity/line/associativity.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.geometry().sets()
    }
}

/// The shape of one cache level: every [`LevelSpec`] field the cache
/// simulator reads, and none of the timing fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Cache line size in bytes (power of two).
    pub line_bytes: u64,
    /// Set associativity (ways).
    pub associativity: u32,
}

impl CacheGeometry {
    /// Emit [`MS003`] cache-geometry diagnostics.
    pub(crate) fn audit(&self, a: &mut Auditor) {
        if self.capacity_bytes == 0 {
            a.finding_at(&MS003, "capacity_bytes", "cache capacity must be nonzero");
        }
        if !self.line_bytes.is_power_of_two() {
            a.finding_at(
                &MS003,
                "line_bytes",
                format!("line size {} must be a power of two", self.line_bytes),
            );
        }
        if self.associativity == 0 {
            a.finding_at(&MS003, "associativity", "associativity must be nonzero");
        }
        let line_capacity = self.line_bytes * u64::from(self.associativity);
        if line_capacity > 0 {
            if !self.capacity_bytes.is_multiple_of(line_capacity) {
                a.finding_at(
                    &MS003,
                    "capacity_bytes",
                    format!(
                        "capacity {} not divisible by line*assoc {}",
                        self.capacity_bytes, line_capacity
                    ),
                );
            } else {
                let sets = self.capacity_bytes / line_capacity;
                if !sets.is_power_of_two() {
                    a.finding_at(
                        &MS003,
                        "capacity_bytes",
                        format!("set count {sets} must be a power of two"),
                    );
                }
            }
        }
    }

    /// Validate the geometry.
    ///
    /// # Errors
    /// The audit report, when any error-severity finding fires.
    pub(crate) fn validate(&self) -> Result<(), AuditReport> {
        audit_value(|a| self.audit(a)).into_result().map(|_| ())
    }

    /// Number of sets implied by capacity/line/associativity.
    #[must_use]
    pub(crate) fn sets(&self) -> u64 {
        self.capacity_bytes / (self.line_bytes * u64::from(self.associativity))
    }
}

/// Main-memory parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MainMemorySpec {
    /// Sustainable unit-stride bandwidth from DRAM, bytes/second (the
    /// quantity STREAM observes).
    pub stream_bandwidth: f64,
    /// Full load-to-use latency of a DRAM access, seconds (the quantity that
    /// dominates GUPS).
    pub latency: f64,
}

impl MainMemorySpec {
    /// Emit [`MS005`] diagnostics for the DRAM parameters.
    pub fn audit(&self, a: &mut Auditor) {
        if !positive(self.stream_bandwidth) {
            a.finding_at(
                &MS005,
                "stream_bandwidth",
                "memory stream bandwidth must be positive",
            );
        }
        if !positive(self.latency) {
            a.finding_at(&MS005, "latency", "memory latency must be positive");
        }
    }
}

/// Most entries a TLB may have ([`MS005`] on `tlb.entries`, and MS1002
/// on a fleet spec's `tlb_entries`). Shipped TLBs hold 64–1,024; the
/// simulator reserves a slot per entry up front.
pub const MAX_TLB_ENTRIES: usize = 1 << 16;

/// TLB parameters: a fully associative, true-LRU TLB over pages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TlbSpec {
    /// Number of TLB entries (fully associative model).
    pub entries: usize,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
    /// Penalty of a TLB miss, seconds.
    pub miss_penalty: f64,
}

impl TlbSpec {
    /// The part of the TLB the simulator reads: everything but the miss
    /// penalty.
    #[must_use]
    pub fn geometry(&self) -> TlbGeometry {
        TlbGeometry {
            entries: self.entries,
            page_bytes: self.page_bytes,
        }
    }
}

/// The shape of a TLB: every [`TlbSpec`] field the simulator reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbGeometry {
    /// Number of TLB entries (fully associative model).
    pub entries: usize,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
}

impl Default for TlbSpec {
    fn default() -> Self {
        Self {
            entries: 128,
            page_bytes: 4096,
            miss_penalty: 60e-9,
        }
    }
}

/// Complete per-processor memory system description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemorySpec {
    /// Cache levels ordered L1 first. One to three levels supported.
    pub levels: Vec<LevelSpec>,
    /// Main-memory behaviour.
    pub memory: MainMemorySpec,
    /// TLB behaviour.
    pub tlb: TlbSpec,
    /// Sustainable outstanding misses (memory-level parallelism) for
    /// independent access streams. Random-access throughput is
    /// `mlp / latency` lines per second.
    pub mlp: f64,
    /// Prefetcher efficiency for short non-unit strides (2–8 elements), in
    /// `[0, 1]`: 1 means short strides stream as well as unit stride (modulo
    /// line utilization), 0 means they pay full latency. Early-2000s
    /// prefetchers sat in between.
    pub short_stride_prefetch: f64,
    /// Extra serialization latency per access, seconds, when a loop's
    /// accesses form a dependency chain (loop-carried dependence): roughly
    /// L1 latency plus functional-unit latency.
    pub dependency_chain_latency: f64,
    /// Penalty per in-loop branch when the loop body branches unpredictably,
    /// seconds (≈ misprediction penalty × miss rate).
    pub branch_penalty: f64,
}

impl MemorySpec {
    /// Emit diagnostics for the full specification: [`MS003`] per-level
    /// geometry, [`MS004`] hierarchy monotonicity, [`MS005`]
    /// microarchitecture parameter ranges.
    pub fn audit(&self, a: &mut Auditor) {
        if self.levels.is_empty() || self.levels.len() > 3 {
            a.finding_at(
                &MS003,
                "levels",
                format!("expected 1..=3 cache levels, got {}", self.levels.len()),
            );
        }
        for (i, l) in self.levels.iter().enumerate() {
            a.scope(format!("levels[{i}]"), |a| l.audit(a));
        }
        for (i, pair) in self.levels.windows(2).enumerate() {
            let outer = format!("levels[{}]", i + 1);
            if pair[1].capacity_bytes <= pair[0].capacity_bytes {
                a.finding_at(
                    &MS004,
                    &outer,
                    format!(
                        "cache levels must strictly grow in capacity ({} <= {})",
                        pair[1].capacity_bytes, pair[0].capacity_bytes
                    ),
                );
            }
            if pair[1].line_bytes < pair[0].line_bytes {
                a.finding_at(
                    &MS004,
                    &outer,
                    "cache line sizes must be non-decreasing outward",
                );
            }
            if pair[1].load_bandwidth > pair[0].load_bandwidth {
                a.finding_at(
                    &MS004,
                    &outer,
                    "outer levels must not be faster than inner levels",
                );
            }
            if pair[1].latency < pair[0].latency {
                a.finding_at(&MS004, &outer, "outer levels must not have lower latency");
            }
        }
        a.scope("memory", |a| self.memory.audit(a));
        if let Some(last) = self.levels.last() {
            if self.memory.stream_bandwidth > last.load_bandwidth {
                a.finding_at(
                    &MS004,
                    "memory.stream_bandwidth",
                    "main memory must not out-stream the last cache level",
                );
            }
            if self.memory.latency < last.latency {
                a.finding_at(
                    &MS004,
                    "memory.latency",
                    "main memory latency must exceed last cache level",
                );
            }
        }
        if !(self.mlp.is_finite() && self.mlp >= 1.0) {
            a.finding_at(
                &MS005,
                "mlp",
                format!("mlp {} must be at least 1", self.mlp),
            );
        }
        if !(0.0..=1.0).contains(&self.short_stride_prefetch) {
            a.finding_at(
                &MS005,
                "short_stride_prefetch",
                format!(
                    "short_stride_prefetch {} must be in [0,1]",
                    self.short_stride_prefetch
                ),
            );
        }
        if !non_negative(self.dependency_chain_latency) {
            a.finding_at(
                &MS005,
                "dependency_chain_latency",
                "dependency_chain_latency must be non-negative",
            );
        }
        if !non_negative(self.branch_penalty) {
            a.finding_at(
                &MS005,
                "branch_penalty",
                "branch_penalty must be non-negative",
            );
        }
        if self.tlb.entries == 0 {
            a.finding_at(&MS005, "tlb.entries", "TLB must have at least one entry");
        } else if self.tlb.entries > MAX_TLB_ENTRIES {
            a.finding_at(
                &MS005,
                "tlb.entries",
                format!(
                    "{} TLB entries exceed the model's {MAX_TLB_ENTRIES}",
                    self.tlb.entries
                ),
            );
        }
        if !self.tlb.page_bytes.is_power_of_two() {
            a.finding_at(
                &MS005,
                "tlb.page_bytes",
                format!("page size {} must be a power of two", self.tlb.page_bytes),
            );
        }
        if !non_negative(self.tlb.miss_penalty) {
            a.finding_at(
                &MS005,
                "tlb.miss_penalty",
                "TLB miss penalty must be non-negative",
            );
        }
    }

    /// Validate the full specification.
    ///
    /// # Errors
    /// The audit report, when any error-severity finding fires.
    pub fn validate(&self) -> Result<(), AuditReport> {
        audit_value(|a| self.audit(a)).into_result().map(|_| ())
    }

    /// The hierarchy geometry: everything the cache and TLB simulator
    /// reads of this spec, and nothing the timing model alone reads.
    #[must_use]
    pub fn hierarchy(&self) -> Hierarchy {
        Hierarchy {
            levels: self.levels.iter().map(LevelSpec::geometry).collect(),
            tlb: self.tlb.geometry(),
        }
    }

    /// Innermost cache line size in bytes.
    #[must_use]
    pub fn l1_line(&self) -> u64 {
        self.levels[0].line_bytes
    }

    /// A small, fast, two-level example configuration used by doc-tests and
    /// unit tests (not one of the study machines).
    #[must_use]
    pub fn example_two_level() -> Self {
        Self {
            levels: vec![
                LevelSpec {
                    capacity_bytes: 32 << 10,
                    line_bytes: 64,
                    associativity: 2,
                    load_bandwidth: 16e9,
                    latency: 2e-9,
                },
                LevelSpec {
                    capacity_bytes: 1 << 20,
                    line_bytes: 64,
                    associativity: 8,
                    load_bandwidth: 8e9,
                    latency: 10e-9,
                },
            ],
            memory: MainMemorySpec {
                stream_bandwidth: 2e9,
                latency: 150e-9,
            },
            tlb: TlbSpec::default(),
            mlp: 4.0,
            short_stride_prefetch: 0.6,
            dependency_chain_latency: 5e-9,
            branch_penalty: 8e-9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_level() -> LevelSpec {
        LevelSpec {
            capacity_bytes: 32 << 10,
            line_bytes: 64,
            associativity: 2,
            load_bandwidth: 10e9,
            latency: 1e-9,
        }
    }

    #[test]
    fn example_spec_validates() {
        MemorySpec::example_two_level().validate().unwrap();
        let report = audit_value(|a| MemorySpec::example_two_level().audit(a));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn level_validation_catches_bad_geometry() {
        good_level().validate().unwrap();

        let mut l = good_level();
        l.line_bytes = 48;
        let report = l.validate().unwrap_err();
        assert!(report.has_code("MS003"), "{report}");
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.message.contains("power of two")),
            "{report}"
        );

        let mut l = good_level();
        l.capacity_bytes = 0;
        assert!(l.validate().unwrap_err().has_code("MS003"));

        let mut l = good_level();
        l.associativity = 0;
        assert!(l.validate().unwrap_err().has_code("MS003"));

        let mut l = good_level();
        l.capacity_bytes = 100; // not divisible by 128
        let report = l.validate().unwrap_err();
        assert!(report.diagnostics[0].message.contains("divisible"));

        let mut l = good_level();
        // capacity/(line*assoc) = 3 sets: not a power of two
        l.capacity_bytes = 64 * 2 * 3;
        assert!(l.validate().unwrap_err().has_code("MS003"));
    }

    #[test]
    fn sets_computation() {
        let l = good_level();
        assert_eq!(l.sets(), (32 << 10) / (64 * 2));
    }

    #[test]
    fn spec_rejects_non_monotone_hierarchy() {
        let mut s = MemorySpec::example_two_level();
        s.levels[1].capacity_bytes = s.levels[0].capacity_bytes;
        let report = s.validate().unwrap_err();
        assert!(report.has_code("MS004"), "{report}");
        assert!(report.diagnostics[0].message.contains("grow"));
        assert_eq!(report.diagnostics[0].subject, "levels[1]");

        let mut s = MemorySpec::example_two_level();
        s.levels[1].load_bandwidth = s.levels[0].load_bandwidth * 2.0;
        assert!(s.validate().unwrap_err().has_code("MS004"));

        let mut s = MemorySpec::example_two_level();
        s.levels[1].latency = s.levels[0].latency / 2.0;
        assert!(s.validate().unwrap_err().has_code("MS004"));
    }

    #[test]
    fn spec_rejects_memory_outpacing_cache() {
        let mut s = MemorySpec::example_two_level();
        s.memory.stream_bandwidth = 100e9;
        let report = s.validate().unwrap_err();
        assert!(report.has_code("MS004"));
        assert!(report.diagnostics[0].message.contains("out-stream"));

        let mut s = MemorySpec::example_two_level();
        s.memory.latency = 1e-12;
        assert!(s.validate().unwrap_err().has_code("MS004"));
    }

    #[test]
    fn spec_rejects_bad_scalars() {
        let mut s = MemorySpec::example_two_level();
        s.mlp = 0.5;
        assert!(s.validate().unwrap_err().has_code("MS005"));

        let mut s = MemorySpec::example_two_level();
        s.short_stride_prefetch = 1.5;
        assert!(s.validate().unwrap_err().has_code("MS005"));

        let mut s = MemorySpec::example_two_level();
        s.levels.clear();
        assert!(s.validate().unwrap_err().has_code("MS003"));

        let mut s = MemorySpec::example_two_level();
        s.dependency_chain_latency = -1.0;
        assert!(s.validate().unwrap_err().has_code("MS005"));

        let mut s = MemorySpec::example_two_level();
        s.branch_penalty = f64::NAN;
        assert!(s.validate().unwrap_err().has_code("MS005"));

        let mut s = MemorySpec::example_two_level();
        s.tlb.page_bytes = 3000;
        assert!(s.validate().unwrap_err().has_code("MS005"));

        let mut s = MemorySpec::example_two_level();
        s.tlb.entries = MAX_TLB_ENTRIES;
        assert!(s.validate().is_ok());
        for entries in [MAX_TLB_ENTRIES + 1, 1 << 32, usize::MAX] {
            s.tlb.entries = entries;
            let report = s.validate().unwrap_err();
            assert_eq!(report.diagnostics.len(), 1, "{}", report.summary_line());
            assert_eq!(report.diagnostics[0].rule.code, "MS005");
            assert!(report.diagnostics[0].subject.ends_with("tlb.entries"));
        }
    }

    #[test]
    fn tlb_default_is_sane() {
        let t = TlbSpec::default();
        assert!(t.entries > 0);
        assert!(t.page_bytes.is_power_of_two());
        assert!(t.miss_penalty > 0.0);
    }
}
