//! The ground-truth execution model: what "actually running" an application
//! on a machine produces.
//!
//! The paper's Tables 6–10 are measured times-to-solution on real systems.
//! Our substitute executes the synthetic workload at *full detail* — more
//! detail than any of the nine prediction metrics sees:
//!
//! * Each block's references run through the machine's cache hierarchy per
//!   stride class, with the block's own short stride (2–8) and its true
//!   dependency mode; short strides pay their real line-utilization cost.
//! * Flop work runs at the machine's *application* flop efficiency
//!   (`app_flop_efficiency`), which is below HPL efficiency — a bias every
//!   HPL-based flop term inherits.
//! * Memory and flop time overlap only partially
//!   ([`OVERLAP_RECOVERY`]); the convolver assumes perfect overlap.
//! * Communication replays the MPI trace with a synchronization-imbalance
//!   factor that grows with process count (strongest for the AMR code).
//! * A per-(machine, application) idiosyncrasy factor — deterministic,
//!   lognormal, median 1 — stands in for compiler maturity, OS jitter, and
//!   everything else no methodology captures. This sets the error floor that
//!   keeps even the best metric near the paper's ≈18%.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use metasim_cache::{content_key, ArtifactKey, ArtifactStore, SingleFlight};
use metasim_machines::{MachineConfig, MachineId};
use metasim_memsim::bandwidth::{measure_bandwidth_memo, ProfileMemo, Workload as MemWorkload};
use metasim_memsim::timing::{AccessKind, DependencyMode};
use metasim_netsim::replay::replay;
use metasim_stats::rng::{seed_from_labels, SeededRng};
use metasim_tracer::block::DependencyClass;

use crate::registry::TestCase;
use crate::workload::{AppWorkload, WorkBlock};

/// Fraction of the shorter of (memory time, flop time) that does *not*
/// overlap with the longer — real codes never achieve perfect overlap.
pub const OVERLAP_RECOVERY: f64 = 0.25;

/// Log-space standard deviation of the per-(machine, application)
/// idiosyncrasy factor.
pub const IDIOSYNCRASY_SIGMA: f64 = 0.13;

/// Additional per-(machine, application, p) jitter.
pub const RUN_JITTER_SIGMA: f64 = 0.04;

/// Result of one ground-truth execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Total wall-clock seconds.
    pub seconds: f64,
    /// Compute (memory + flop) component.
    pub compute_seconds: f64,
    /// Communication component (after imbalance).
    pub comm_seconds: f64,
    /// The idiosyncrasy factor that was applied.
    pub idiosyncrasy: f64,
}

fn dependency_mode(class: DependencyClass) -> DependencyMode {
    match class {
        DependencyClass::Independent => DependencyMode::Independent,
        DependencyClass::Chained => DependencyMode::Chained,
        DependencyClass::Branchy => DependencyMode::Branchy,
    }
}

/// Memory time for one block across all invocations: each stride class runs
/// through the cache simulator at the block's working set, its profile read
/// through `profiles`.
fn block_memory_seconds(machine: &MachineConfig, block: &WorkBlock, profiles: &ProfileMemo) -> f64 {
    let (s1, short, random) = block.class_refs();
    let deps = dependency_mode(block.dependency);
    let classes = [
        (s1, AccessKind::Sequential),
        (short, AccessKind::Strided(block.short_stride())),
        (random, AccessKind::Random),
    ];
    let mut seconds = 0.0;
    for (refs, kind) in classes {
        if refs == 0 {
            continue;
        }
        let sample = measure_bandwidth_memo(
            &machine.memory,
            &MemWorkload::new(block.working_set, kind, deps),
            profiles,
        );
        let bw = sample.bytes_per_second();
        debug_assert!(bw > 0.0, "zero bandwidth for {kind:?}");
        let bytes = refs as f64 * 8.0 * block.invocations as f64;
        seconds += (metasim_units::Bytes::new(bytes) / bw).get();
    }
    seconds
}

/// Flop time for one block across all invocations.
fn block_flop_seconds(machine: &MachineConfig, block: &WorkBlock) -> f64 {
    let rate = machine.processor.peak_flops() * machine.processor.app_flop_efficiency;
    block.flops as f64 * block.invocations as f64 / rate
}

/// The seeds of the three noise streams one ground-truth run draws from.
#[derive(Debug, Clone, Copy)]
pub struct NoiseSeeds {
    /// The per-(machine, case) idiosyncrasy draw, shared by every CPU
    /// count of the case.
    pub idiosyncrasy: u64,
    /// The per-(machine, case, p) run jitter on top of it.
    pub run_jitter: u64,
    /// The per-(machine, case, p) synchronization-imbalance jitter.
    pub imbalance: u64,
}

/// The one place the noise-stream labels are spelled: the seeds
/// [`imbalance_factor`] and [`idiosyncrasy_factor`] draw from for a run of
/// `app`/`case` at `p` processes on the machine labelled `machine`.
#[must_use]
pub fn noise_seeds(app: &str, case: &str, machine: &str, p: u64) -> NoiseSeeds {
    let p = p.to_string();
    NoiseSeeds {
        idiosyncrasy: seed_from_labels(&["idiosyncrasy", app, case, machine]),
        run_jitter: seed_from_labels(&["run-jitter", app, case, machine, &p]),
        imbalance: seed_from_labels(&["imbalance", app, case, machine, &p]),
    }
}

/// Synchronization-imbalance multiplier for the communication component.
///
/// Grows with process count (more ranks, more waiting on the slowest) and
/// with the application's inherent imbalance (AMR worst). A small seeded
/// jitter individualizes each (machine, app, p) run.
#[must_use]
pub fn imbalance_factor(app: &str, case: &str, machine: &MachineConfig, p: u64) -> f64 {
    let inherent = match app {
        "RFCTH" => 0.10,
        "AVUS" => 0.05,
        "OVERFLOW2" => 0.05,
        "HYCOM" => 0.03,
        _ => 0.04,
    };
    let seeds = noise_seeds(app, case, machine.id.label(), p);
    let jitter = SeededRng::new(seeds.imbalance).lognormal_factor(0.05);
    (1.0 + inherent * (p as f64).log2()) * jitter
}

/// The per-(machine, application) idiosyncrasy factor: everything the
/// methodology cannot see, frozen deterministically.
#[must_use]
pub fn idiosyncrasy_factor(app: &str, case: &str, machine: &MachineConfig, p: u64) -> f64 {
    let seeds = noise_seeds(app, case, machine.id.label(), p);
    SeededRng::new(seeds.idiosyncrasy).lognormal_factor(IDIOSYNCRASY_SIGMA)
        * SeededRng::new(seeds.run_jitter).lognormal_factor(RUN_JITTER_SIGMA)
}

/// Execute a workload on a machine at full detail.
#[must_use]
pub fn execute(machine: &MachineConfig, workload: &AppWorkload) -> RunResult {
    execute_memo(machine, workload, &ProfileMemo::new())
}

/// [`execute`], reading the blocks' simulated memory profiles through
/// `profiles`, so executions on machines that share a cache hierarchy
/// simulate each (working set, pattern) once. Identical results.
#[must_use]
pub fn execute_memo(
    machine: &MachineConfig,
    workload: &AppWorkload,
    profiles: &ProfileMemo,
) -> RunResult {
    let mut compute = 0.0;
    for block in &workload.blocks {
        let mem = block_memory_seconds(machine, block, profiles);
        let flop = block_flop_seconds(machine, block);
        let overlapped = mem.max(flop) + OVERLAP_RECOVERY * mem.min(flop);
        compute += overlapped;
    }

    let raw_comm = replay(&machine.network, workload.processes, &workload.comm.events);
    let comm = raw_comm.get()
        * imbalance_factor(&workload.app, &workload.case, machine, workload.processes);

    let idio = idiosyncrasy_factor(&workload.app, &workload.case, machine, workload.processes);
    RunResult {
        seconds: (compute + comm) * idio,
        compute_seconds: compute,
        comm_seconds: comm,
        idiosyncrasy: idio,
    }
}

/// Artifact-store kind directory for persisted ground-truth results.
pub const GROUND_TRUTH_KIND: &str = "groundtruth";

/// Memoizing ground-truth runner for the study grid, with single-flight
/// semantics (concurrent cold callers on the same cell coalesce onto one
/// full-detail execution) and an optional persistent backing store.
#[derive(Debug, Default)]
pub struct GroundTruth {
    /// One cell per (case, processors, machine).
    cells: SingleFlight<(TestCase, u64, MachineId), RunResult>,
    /// The exact memory profiles the executions simulate, shared by every
    /// cell of this runner and by no other runner.
    profiles: ProfileMemo,
    store: Option<Arc<ArtifactStore>>,
    executions: AtomicUsize,
}

impl GroundTruth {
    /// Fresh runner with an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Runner backed by a persistent artifact store: cell results load from
    /// (and write back to) disk, surviving across processes.
    #[must_use]
    pub fn with_store(store: Arc<ArtifactStore>) -> Self {
        Self {
            store: Some(store),
            ..Self::default()
        }
    }

    /// The content key one cell's result is stored under: the full machine
    /// configuration plus the (case, p) labels that deterministically define
    /// the workload, so any spec or grid edit is a cache miss.
    #[must_use]
    pub fn store_key(case: TestCase, p: u64, machine: &MachineConfig) -> ArtifactKey {
        content_key(
            &[GROUND_TRUTH_KIND, &format!("{case:?}"), &p.to_string()],
            machine,
        )
    }

    /// Observed time-to-solution for one (case, p, machine) cell.
    #[must_use]
    pub fn run(&self, case: TestCase, p: u64, machine: &MachineConfig) -> RunResult {
        self.cells.get_or_init((case, p, machine.id), || {
            if let Some(cached) = self.load_cached(case, p, machine) {
                return cached;
            }
            let _span = metasim_obs::recording()
                .then(|| metasim_obs::span(format!("execute:{case}@{p}:{}", machine.id)));
            let workload = case.workload(p);
            let result = execute_memo(machine, &workload, &self.profiles);
            self.executions.fetch_add(1, Ordering::Relaxed);
            metasim_obs::counter_add("groundtruth.executions", 1);
            if let Some(store) = &self.store {
                let _ = store.store(
                    GROUND_TRUTH_KIND,
                    Self::store_key(case, p, machine),
                    &result,
                );
            }
            result
        })
    }

    /// Audit-on-load: a persisted result must be finite, physically sensible
    /// (positive total, non-negative components), and internally consistent
    /// with its own idiosyncrasy factor. Anything else is evicted and the
    /// cell re-executed.
    fn load_cached(&self, case: TestCase, p: u64, machine: &MachineConfig) -> Option<RunResult> {
        let store = self.store.as_ref()?;
        store.load_validated(
            GROUND_TRUTH_KIND,
            Self::store_key(case, p, machine),
            |r: &RunResult| {
                let finite = r.seconds.is_finite()
                    && r.compute_seconds.is_finite()
                    && r.comm_seconds.is_finite()
                    && r.idiosyncrasy.is_finite();
                if !finite {
                    return Err("non-finite field".to_string());
                }
                if !(r.seconds > 0.0 && r.idiosyncrasy > 0.0) {
                    return Err(format!(
                        "non-positive seconds {} or idiosyncrasy {}",
                        r.seconds, r.idiosyncrasy
                    ));
                }
                if r.compute_seconds < 0.0 || r.comm_seconds < 0.0 {
                    return Err("negative component".to_string());
                }
                let expect = (r.compute_seconds + r.comm_seconds) * r.idiosyncrasy;
                if (r.seconds - expect).abs() > 1e-9 * expect.max(1.0) {
                    return Err(format!(
                        "seconds {} inconsistent with components ({expect})",
                        r.seconds
                    ));
                }
                Ok(())
            },
        )
    }

    /// Number of full-detail executions actually performed by this runner
    /// (cache loads do not count).
    #[must_use]
    pub fn executions_performed(&self) -> usize {
        self.executions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TestCase;
    use metasim_machines::{fleet, MachineId};

    #[test]
    fn faster_machine_runs_faster() {
        let f = fleet();
        let w = TestCase::AvusStandard.workload(64);
        let p3 = execute(f.get(MachineId::NavoP3), &w);
        let p655 = execute(f.get(MachineId::Navo655), &w);
        assert!(
            p655.seconds < p3.seconds / 2.0,
            "p655 {} vs Power3 {}",
            p655.seconds,
            p3.seconds
        );
    }

    #[test]
    fn one_memo_across_a_shared_hierarchy_changes_no_result() {
        // The four Power4/Power4+ systems share one cache hierarchy; with
        // one memo, every execution after the first simulates nothing new
        // and still matches a fresh execution bit for bit.
        let f = fleet();
        let w = TestCase::HycomStandard.workload(96);
        let profiles = ProfileMemo::new();
        let simulated = || profiles.count_ready(|_| true);
        let base = f.get(MachineId::NavoP690Base);
        assert_eq!(execute_memo(base, &w, &profiles), execute(base, &w));
        let shared = simulated();
        for id in [
            MachineId::Mhpcc690_13,
            MachineId::Arl690_17,
            MachineId::Navo655,
        ] {
            let m = f.get(id);
            assert_eq!(execute_memo(m, &w, &profiles), execute(m, &w), "{id}");
            assert_eq!(simulated(), shared, "{id} shares the base hierarchy");
        }
        let p3 = f.get(MachineId::NavoP3);
        assert_eq!(execute_memo(p3, &w, &profiles), execute(p3, &w));
        assert!(simulated() > shared, "a new hierarchy simulates");
    }

    #[test]
    fn strong_scaling_reduces_runtime() {
        let f = fleet();
        let m = f.get(MachineId::AscSc45);
        let t32 = execute(m, &TestCase::AvusStandard.workload(32)).seconds;
        let t64 = execute(m, &TestCase::AvusStandard.workload(64)).seconds;
        let t128 = execute(m, &TestCase::AvusStandard.workload(128)).seconds;
        assert!(t32 > t64 && t64 > t128, "{t32} {t64} {t128}");
        // Mild superlinearity is expected (working sets drop into cache as
        // p grows — visible in the paper's own Table 6, e.g. ERDC O3800's
        // 12737 → 5881 s), but not runaway.
        assert!(t64 > t32 / 2.5, "runaway superlinear: {t32} -> {t64}");
    }

    #[test]
    fn base_runtimes_are_in_the_appendix_ballpark() {
        // The paper's 32-CPU AVUS-standard times span ~5,500–18,000 s; our
        // base p690 should land inside an order-of-magnitude band of that.
        let f = fleet();
        let r = execute(f.base(), &TestCase::AvusStandard.workload(32));
        assert!(
            r.seconds > 3_000.0 && r.seconds < 40_000.0,
            "AVUS std @32 on base: {} s",
            r.seconds
        );
    }

    #[test]
    fn communication_is_minor_but_nonzero() {
        // §6: "these application cases are not communication bound".
        let f = fleet();
        for id in [MachineId::MhpccP3, MachineId::ArlOpteron] {
            let r = execute(f.get(id), &TestCase::HycomStandard.workload(96));
            assert!(r.comm_seconds > 0.0, "{id}");
            assert!(
                r.comm_seconds < 0.35 * r.seconds,
                "{id}: comm {} of {}",
                r.comm_seconds,
                r.seconds
            );
        }
    }

    #[test]
    fn execution_is_deterministic() {
        let f = fleet();
        let w = TestCase::RfcthStandard.workload(32);
        let a = execute(f.get(MachineId::ArlXeon), &w);
        let b = execute(f.get(MachineId::ArlXeon), &w);
        assert_eq!(a, b);
    }

    #[test]
    fn idiosyncrasy_is_stable_per_machine_app() {
        let f = fleet();
        let m = f.get(MachineId::ErdcO3800);
        let a = idiosyncrasy_factor("AVUS", "standard", m, 32);
        let b = idiosyncrasy_factor("AVUS", "standard", m, 32);
        assert_eq!(a, b);
        // Different apps draw different factors.
        let c = idiosyncrasy_factor("HYCOM", "standard", m, 32);
        assert_ne!(a, c);
        // Factors stay in a plausible band.
        assert!(a > 0.6 && a < 1.6, "{a}");
    }

    #[test]
    fn imbalance_grows_with_p_and_is_worst_for_amr() {
        let f = fleet();
        let m = f.get(MachineId::ArlOpteron);
        let small = imbalance_factor("RFCTH", "standard", m, 16);
        let big = imbalance_factor("RFCTH", "standard", m, 256);
        assert!(big > small);
        let cfd = imbalance_factor("HYCOM", "standard", m, 64);
        let amr = imbalance_factor("RFCTH", "standard", m, 64);
        assert!(amr > cfd * 1.1, "AMR {amr} vs ocean {cfd}");
    }

    #[test]
    fn noise_seed_streams_are_disjoint_over_the_paper_grid() {
        // The (app, case, p) strings `execute` passes, for every cell of
        // the grid on every machine of the fleet, base included.
        let f = fleet();
        let mut idiosyncrasy = std::collections::HashSet::new();
        let mut run_jitter = std::collections::HashSet::new();
        let mut imbalance = std::collections::HashSet::new();
        let mut all = std::collections::HashSet::new();
        for (case, p) in crate::registry::all_test_cases() {
            let w = case.workload(p);
            for m in f.all() {
                let seeds = noise_seeds(&w.app, &w.case, m.id.label(), w.processes);
                idiosyncrasy.insert(seeds.idiosyncrasy);
                run_jitter.insert(seeds.run_jitter);
                imbalance.insert(seeds.imbalance);
                all.extend([seeds.idiosyncrasy, seeds.run_jitter, seeds.imbalance]);
            }
        }
        assert_eq!(run_jitter.len(), 165, "one run-jitter stream per cell");
        assert_eq!(imbalance.len(), 165, "one imbalance stream per cell");
        // Shared across CPU counts by design: one per (case, machine).
        assert_eq!(idiosyncrasy.len(), 55, "one per (case, machine)");
        assert_eq!(all.len(), 165 + 165 + 55, "no seed shared across families");
    }

    #[test]
    fn ground_truth_cache_returns_identical_results() {
        let f = fleet();
        let gt = GroundTruth::new();
        let a = gt.run(TestCase::Overflow2Standard, 48, f.get(MachineId::ArlAltix));
        let b = gt.run(TestCase::Overflow2Standard, 48, f.get(MachineId::ArlAltix));
        assert_eq!(a, b);
        assert_eq!(gt.executions_performed(), 1);
    }

    #[test]
    fn concurrent_cold_cells_execute_exactly_once() {
        let f = std::sync::Arc::new(fleet());
        let gt = std::sync::Arc::new(GroundTruth::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let f = std::sync::Arc::clone(&f);
                let gt = std::sync::Arc::clone(&gt);
                std::thread::spawn(move || {
                    gt.run(TestCase::HycomStandard, 64, f.get(MachineId::Mhpcc690_13))
                })
            })
            .collect();
        let results: Vec<RunResult> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(
            gt.executions_performed(),
            1,
            "racing cold callers must coalesce onto one execution"
        );
    }

    #[test]
    fn store_backed_ground_truth_round_trips_bit_identically() {
        let dir = std::env::temp_dir().join(format!("metasim-gt-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = std::sync::Arc::new(ArtifactStore::open(&dir));
        let f = fleet();
        let m = f.get(MachineId::Navo655);
        let (case, p) = (TestCase::AvusStandard, 32);

        let cold = GroundTruth::with_store(std::sync::Arc::clone(&store));
        let fresh = cold.run(case, p, m);
        assert_eq!(cold.executions_performed(), 1);

        let warm = GroundTruth::with_store(std::sync::Arc::clone(&store));
        let loaded = warm.run(case, p, m);
        assert_eq!(warm.executions_performed(), 0, "warm run must not execute");
        // Bit-identical through the JSON round trip, not merely approximate.
        assert_eq!(fresh.seconds.to_bits(), loaded.seconds.to_bits());
        assert_eq!(fresh, loaded);

        // A truncated entry is evicted and the cell re-executed.
        let path = store.entry_path(GROUND_TRUTH_KIND, GroundTruth::store_key(case, p, m));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let repaired = GroundTruth::with_store(std::sync::Arc::clone(&store));
        assert_eq!(repaired.run(case, p, m), fresh);
        assert_eq!(repaired.executions_performed(), 1);

        // A physically impossible entry (negative runtime) fails the
        // audit-on-load and is likewise re-executed.
        let mut bad = fresh;
        bad.seconds = -1.0;
        store
            .store(GROUND_TRUTH_KIND, GroundTruth::store_key(case, p, m), &bad)
            .unwrap();
        let audited = GroundTruth::with_store(std::sync::Arc::clone(&store));
        assert_eq!(audited.run(case, p, m), fresh);
        assert_eq!(audited.executions_performed(), 1);
        store.clear().unwrap();
    }

    #[test]
    fn dependency_classes_map_to_modes() {
        assert_eq!(
            dependency_mode(DependencyClass::Independent),
            DependencyMode::Independent
        );
        assert_eq!(
            dependency_mode(DependencyClass::Chained),
            DependencyMode::Chained
        );
        assert_eq!(
            dependency_mode(DependencyClass::Branchy),
            DependencyMode::Branchy
        );
    }
}
