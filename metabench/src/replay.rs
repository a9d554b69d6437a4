//! The traced run: replay a workload's pipeline through each layer's public
//! functions and time every call from outside.
//!
//! The replay follows the order of calls `Study::run_with_store_jobs` (at
//! one job) and `run_fleet_study` make, but composes each layer from its
//! public pieces so that the calls *below* it can be timed too:
//! `MachineProbes::measure_tiered` becomes HPL + STREAM + GUPS + five MAPS
//! sweeps + NETBENCH, `execute` becomes its per-block `measure_bandwidth`
//! calls plus the netsim `replay`, and the `MS204`/`MS801` audits issue
//! their exact samples through the same timer. The caller checks that the
//! replay reproduces the untraced observations bit for bit, so its numbers
//! describe the same program.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use metasim_apps::groundtruth::{
    idiosyncrasy_factor, imbalance_factor, RunResult, GROUND_TRUTH_KIND, OVERLAP_RECOVERY,
};
use metasim_apps::registry::{all_test_cases, TestCase};
use metasim_apps::tracing::{trace_workload, TraceCache, SAMPLE_REFS, TRACE_KIND};
use metasim_apps::workload::AppWorkload;
use metasim_audit::registry::{MS1004, MS204, MS801};
use metasim_audit::{audit_value, AuditPolicy, Auditor};
use metasim_cache::{ArtifactKey, ArtifactStore};
use metasim_core::executor::run_sharded;
use metasim_core::prediction::predict_all;
use metasim_core::study::{Observation, Study, STUDY_KIND};
use metasim_fleet::audit::{audit_generated_fleet, PREFLIGHT_EPSILON, PREFLIGHT_MAX_AMPLIFICATION};
use metasim_fleet::sampler::GeneratedApp;
use metasim_fleet::study::{region_of, tagged_case, FleetObservation, MS801_SUBSAMPLE};
use metasim_fleet::{audit_spec, FleetGenerator, FleetSpec, FleetStudyConfig, SampledGenerator};
use metasim_machines::{fleet as paper_fleet, Fleet, MachineConfig, MachineId};
use metasim_memsim::analytic::{
    analytic_bandwidth, analytic_profile, calibration_workloads, resolve_tier, ResolvedTier, Tier,
    TIER_ERROR_BUDGET,
};
use metasim_memsim::bandwidth::{
    measure_bandwidth, BandwidthSample, Workload, MAX_MEASURED_ACCESSES, MIN_MEASURED_ACCESSES,
};
use metasim_memsim::hierarchy::AccessProfile;
use metasim_memsim::spec::MemorySpec;
use metasim_memsim::timing::{AccessKind, DependencyMode};
use metasim_netsim::replay::replay;
use metasim_obs::SpanCtx;
use metasim_probes::audit::audit_curve;
use metasim_probes::gups::{gups_table_bytes, GupsResult};
use metasim_probes::hpl::measure_hpl;
use metasim_probes::maps::{sweep_sizes, DependencyFlavor, MapsCurve, MapsSet};
use metasim_probes::netbench::measure_netbench;
use metasim_probes::stream::{stream_working_set, StreamResult};
use metasim_probes::suite::{MachineProbes, ProbeSuite, HPL_PROCESSES, PROBES_KIND};
use metasim_tracer::analysis::analyze_dependencies;
use metasim_tracer::block::DependencyClass;
use metasim_tracer::trace::ApplicationTrace;
use metasim_units::{Bytes, Seconds, UpdatesPerSec};

use crate::workloads::Output;

/// Who issued an exact memsim call (the repeat census splits by this).
pub const CALLERS: [&str; 4] = ["probes", "groundtruth", "ms204", "ms801"];

thread_local! {
    /// How many timed calls enclose the current one on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Rec {
    /// Layer name (`memsim.exact`, `probes`, `cache.load`, ...).
    pub layer: &'static str,
    /// Issuing caller, for exact memsim calls.
    pub caller: &'static str,
    /// Content key of the call's inputs, for exact memsim calls.
    pub key: u64,
    /// Wall seconds inside the call.
    pub secs: f64,
    /// Whether no other timed call encloses this one.
    pub top: bool,
    /// Work units done (simulated accesses, traced references, events).
    pub units: f64,
}

/// Collects [`Rec`]s from every thread of a traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    recs: Mutex<Vec<Rec>>,
    preflight_secs: Mutex<f64>,
    workers: Mutex<HashMap<ThreadId, f64>>,
    sharded_wall: Mutex<f64>,
    bytes_written: AtomicU64,
}

impl Tracer {
    /// Time `f` as one call into `layer`.
    pub fn time<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        self.time_with(layer, "", 0, 0.0, f)
    }

    /// [`time`](Self::time) with a caller, an input key and a unit count.
    pub fn time_with<R>(
        &self,
        layer: &'static str,
        caller: &'static str,
        key: u64,
        units: f64,
        f: impl FnOnce() -> R,
    ) -> R {
        let top = DEPTH.with(|d| {
            d.set(d.get() + 1);
            d.get() == 1
        });
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        DEPTH.with(|d| d.set(d.get() - 1));
        self.recs.lock().expect("tracer lock").push(Rec {
            layer,
            caller,
            key,
            secs,
            top,
            units,
        });
        out
    }

    /// Every record so far.
    pub fn records(&self) -> Vec<Rec> {
        self.recs.lock().expect("tracer lock").clone()
    }

    /// Per-worker busy seconds of the sharded region, and its wall time.
    pub fn executor(&self) -> (Vec<f64>, f64) {
        let workers = self.workers.lock().expect("tracer lock");
        (
            workers.values().copied().collect(),
            *self.sharded_wall.lock().expect("tracer lock"),
        )
    }

    /// Bytes the run wrote to the artifact store.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Time one artifact-store load.
    fn load<T: serde::Deserialize>(
        &self,
        store: &ArtifactStore,
        kind: &str,
        key: ArtifactKey,
        validate: impl Fn(&T) -> Result<(), String>,
    ) -> Option<T> {
        self.time("cache.load", || store.load_validated(kind, key, validate))
    }

    /// Time one artifact-store write and count the bytes it put on disk.
    fn store<T: serde::Serialize + ?Sized>(
        &self,
        store: &ArtifactStore,
        kind: &str,
        key: ArtifactKey,
        value: &T,
    ) {
        if let Ok(path) = self.time("cache.store", || store.store(kind, key, value)) {
            let len = std::fs::metadata(path).map_or(0, |m| m.len());
            self.bytes_written.fetch_add(len, Ordering::Relaxed);
        }
    }
}

/// Replay the paper grid against `store`, as
/// `Study::run_with_store_jobs(.., 1)` runs it.
pub fn paper(t: &Tracer, store: &ArtifactStore) -> Output {
    let fleet = paper_fleet();
    let study_key = Study::store_key_tiered(&fleet, Tier::Exact);
    let expected = all_test_cases().len() * MachineId::TARGETS.len();
    let cached: Option<Study> = t.load(store, STUDY_KIND, study_key, |s: &Study| {
        if s.observations.len() != expected || s.audit_values().has_errors() {
            return Err("invalid study entry".to_string());
        }
        Ok(())
    });
    if let Some(study) = cached {
        return Output::Paper(study.observations);
    }

    // The preflight is a phase, not a layer: the calls inside it still
    // count as top-level.
    let start = Instant::now();
    let probes = preflight(t, store, &fleet);
    *t.preflight_secs.lock().expect("tracer lock") = start.elapsed().as_secs_f64();
    let base = fleet.base();

    let mut truth: HashMap<(TestCase, u64, MachineId), RunResult> = HashMap::new();
    for (case, cpus) in all_test_cases() {
        for machine in std::iter::once(base).chain(fleet.targets()) {
            let result = ground_truth(t, store, case, cpus, machine);
            truth.insert((case, cpus, machine.id), result);
        }
    }

    let mut observations = Vec::new();
    for (case, cpus) in all_test_cases() {
        let workload = case.workload(cpus);
        let trace = cached_trace(t, store, &workload);
        let labels = t.time("tracer.analysis", || analyze_dependencies(&trace.blocks));
        let base_actual = Seconds::new(truth[&(case, cpus, base.id)].seconds);
        for machine in MachineId::TARGETS {
            let predictions = t.time("prediction", || {
                predict_all(
                    &trace,
                    &labels,
                    &probes[&machine],
                    &probes[&base.id],
                    base_actual,
                )
            });
            observations.push(Observation {
                case,
                cpus,
                machine,
                actual: Seconds::new(truth[&(case, cpus, machine)].seconds),
                base_actual,
                predictions,
            });
        }
    }
    observations.sort_by_key(|o| (o.case, o.cpus, o.machine));
    let study = Study { observations };
    t.store(store, STUDY_KIND, study_key, &study);
    Output::Paper(study.observations)
}

/// `core::audit::preflight` at the exact tier, acquiring each machine's
/// probe set (store load, else sweep and write) on the way.
fn preflight(
    t: &Tracer,
    store: &ArtifactStore,
    fleet: &Fleet,
) -> HashMap<MachineId, MachineProbes> {
    let mut a = Auditor::with_policy(AuditPolicy::default());
    t.time("audit", || fleet.audit(&mut a));
    let mut probes = HashMap::new();
    for m in fleet.all() {
        let key = ProbeSuite::store_key_tiered(m, ResolvedTier::Exact);
        let p = t
            .load(store, PROBES_KIND, key, |p: &MachineProbes| {
                let report = audit_value(|a| audit_probes(t, m, p, a));
                if p.id != m.id || report.has_errors() {
                    return Err("invalid probe entry".to_string());
                }
                Ok(())
            })
            .unwrap_or_else(|| {
                let p = measure_probes(t, m, ResolvedTier::Exact);
                t.store(store, PROBES_KIND, key, &p);
                p
            });
        t.time("audit", || {
            a.scope("probes", |a| {
                a.scope(m.id.to_string(), |a| audit_probes(t, m, &p, a))
            });
        });
        probes.insert(m.id, p);
    }
    for (case, cpus) in all_test_cases() {
        let workload = case.workload(cpus);
        t.time("audit", || {
            a.scope(format!("workloads.{case}.{cpus}cpu"), |a| workload.audit(a));
        });
        let trace = traced(t, &workload);
        t.time("audit", || {
            a.scope(format!("traces.{case}.{cpus}cpu"), |a| trace.audit(a));
        });
    }
    let report = a.finish();
    assert!(
        !report.has_errors(),
        "replayed preflight found errors:\n{report}"
    );
    probes
}

/// `GroundTruth::run` for one cell: store load, else execute and write.
fn ground_truth(
    t: &Tracer,
    store: &ArtifactStore,
    case: TestCase,
    p: u64,
    m: &MachineConfig,
) -> RunResult {
    let key = metasim_apps::groundtruth::GroundTruth::store_key(case, p, m);
    t.load(store, GROUND_TRUTH_KIND, key, |r: &RunResult| {
        let expect = (r.compute_seconds + r.comm_seconds) * r.idiosyncrasy;
        let finite = [r.seconds, r.compute_seconds, r.comm_seconds, r.idiosyncrasy]
            .iter()
            .all(|x| x.is_finite());
        if !(finite && r.seconds > 0.0 && r.idiosyncrasy > 0.0)
            || r.compute_seconds < 0.0
            || r.comm_seconds < 0.0
            || (r.seconds - expect).abs() > 1e-9 * expect.max(1.0)
        {
            return Err("invalid ground-truth entry".to_string());
        }
        Ok(())
    })
    .unwrap_or_else(|| {
        let result = execute(t, m, &case.workload(p));
        t.store(store, GROUND_TRUTH_KIND, key, &result);
        result
    })
}

/// `TraceCache::try_trace` with a store: load, else trace and write.
fn cached_trace(t: &Tracer, store: &ArtifactStore, w: &AppWorkload) -> ApplicationTrace {
    let key = TraceCache::store_key(w);
    t.load(store, TRACE_KIND, key, |tr: &ApplicationTrace| {
        if tr.app != w.app || tr.case != w.case || tr.processes != w.processes {
            return Err("entry traces another workload".to_string());
        }
        tr.validate().map_err(|r| r.to_string())
    })
    .unwrap_or_else(|| {
        let trace = traced(t, w);
        t.store(store, TRACE_KIND, key, &trace);
        trace
    })
}

/// Replay `run_fleet_study` for `cfg` (no planted mutation).
pub fn fleet(t: &Tracer, spec: &FleetSpec, cfg: &FleetStudyConfig) -> Output {
    let mut report = t.time("fleet.audit", || audit_value(|a| audit_spec(spec, a)));
    let generated = t.time("fleet.generate", || {
        SampledGenerator {
            spec: spec.clone(),
            mutation: None,
        }
        .generate(cfg.size, cfg.seed)
    });
    report.merge(t.time("fleet.audit", || {
        audit_value(|a| audit_generated_fleet(&generated, a))
    }));
    let base = paper_fleet().base().clone();
    report.merge(t.time("fleet.audit", || {
        audit_value(|a| preflight_reference(t, &base, &generated.apps, cfg.tier, a))
    }));
    if report.has_errors() {
        return Output::Fleet(Vec::new(), true);
    }

    let base_probes = measure_probes(t, &base, resolve_tier(&base.memory, cfg.tier));
    let contexts: Vec<(ApplicationTrace, Vec<DependencyClass>, f64)> = generated
        .apps
        .iter()
        .map(|app| {
            let trace = traced(t, &app.workload);
            let labels = t.time("tracer.analysis", || analyze_dependencies(&trace.blocks));
            let t_base = execute(t, &base, &app.workload).seconds;
            (trace, labels, t_base)
        })
        .collect();

    let start = Instant::now();
    let per_machine: Vec<Vec<FleetObservation>> = run_sharded(
        SpanCtx::root(),
        cfg.jobs,
        generated.machines.clone(),
        |machine| {
            let busy = Instant::now();
            let probes = measure_probes(
                t,
                &machine.config,
                resolve_tier(&machine.config.memory, cfg.tier),
            );
            let region = region_of(&machine);
            let cells = generated
                .apps
                .iter()
                .zip(&contexts)
                .map(|(app, (trace, labels, t_base))| {
                    let predictions = t.time("prediction", || {
                        predict_all(trace, labels, &probes, &base_probes, Seconds::new(*t_base))
                    });
                    let mut ground = app.workload.clone();
                    ground.case = tagged_case(&ground.case, &machine.name);
                    FleetObservation {
                        machine: machine.name.clone(),
                        region: region.clone(),
                        app: app.name.clone(),
                        processes: app.workload.processes,
                        actual: execute(t, &machine.config, &ground).seconds,
                        base_actual: *t_base,
                        predictions: predictions.map(Seconds::get),
                    }
                })
                .collect();
            let id = std::thread::current().id();
            *t.workers
                .lock()
                .expect("tracer lock")
                .entry(id)
                .or_default() += busy.elapsed().as_secs_f64();
            cells
        },
    );
    *t.sharded_wall.lock().expect("tracer lock") = start.elapsed().as_secs_f64();

    // The fleet-scale MS801 guard on a deterministic subsample.
    report.merge(t.time("fleet.audit", || {
        audit_value(|a| {
            for m in generated
                .machines
                .iter()
                .take(MS801_SUBSAMPLE.min(cfg.size))
            {
                if resolve_tier(&m.config.memory, cfg.tier) == ResolvedTier::Analytic {
                    a.scope(m.name.clone(), |a| {
                        audit_tier_budget(t, &m.config.memory, a)
                    });
                }
            }
        })
    }));
    Output::Fleet(
        per_machine.into_iter().flatten().collect(),
        report.has_errors(),
    )
}

/// `fleet::audit::preflight_reference`: the MS1004 gate on the base cell.
fn preflight_reference(
    t: &Tracer,
    base: &MachineConfig,
    apps: &[GeneratedApp],
    tier: Tier,
    a: &mut Auditor,
) {
    let resolved = resolve_tier(&base.memory, tier);
    let nominal = measure_probes(t, base, resolved);
    let banded = measure_probes(t, &perturbed(base, PREFLIGHT_EPSILON), resolved);
    a.scope("reference", |a| {
        for app in apps {
            let w = &app.workload;
            let t_base = execute(t, base, w).seconds;
            if !(t_base.is_finite() && t_base > 0.0) {
                a.finding_at(
                    &MS1004,
                    &app.name,
                    format!("base runtime {t_base} is not finite and positive"),
                );
                continue;
            }
            let trace = traced(t, w);
            let labels = t.time("tracer.analysis", || analyze_dependencies(&trace.blocks));
            let ratios = t.time("prediction", || {
                predict_all(&trace, &labels, &banded, &nominal, Seconds::new(1.0))
            });
            for (metric, ratio) in ratios.iter().enumerate() {
                let r = ratio.get();
                let amplification = if r.is_finite() && r > 0.0 {
                    r.ln().abs() / PREFLIGHT_EPSILON
                } else {
                    f64::INFINITY
                };
                if amplification > PREFLIGHT_MAX_AMPLIFICATION {
                    a.finding_at(
                        &MS1004,
                        format!("{}.metric{}", app.name, metric + 1),
                        format!("coherent band amplified {amplification:.2}x"),
                    );
                }
            }
        }
    });
}

/// The coherently perturbed base machine MS1004 measures against.
fn perturbed(machine: &MachineConfig, eps: f64) -> MachineConfig {
    let mut m = machine.clone();
    for level in &mut m.memory.levels {
        level.load_bandwidth *= 1.0 - eps;
        level.latency *= 1.0 + eps;
    }
    m.memory.memory.stream_bandwidth *= 1.0 - eps;
    m.memory.memory.latency *= 1.0 + eps;
    m.network.bandwidth *= 1.0 - eps;
    m.network.latency *= 1.0 + eps;
    m.processor.clock_ghz *= 1.0 - eps;
    m
}

/// `audit_tier_budget`: the MS801 calibration grid, exact against analytic.
fn audit_tier_budget(t: &Tracer, spec: &MemorySpec, a: &mut Auditor) {
    let miss_frac = |p: &AccessProfile| match p.total_accesses() {
        0 => 0.0,
        total => p.tlb_misses as f64 / total as f64,
    };
    for w in calibration_workloads() {
        let exact = exact_sample(t, "ms801", spec, &w).profile;
        let analytic = t.time("memsim.analytic", || analytic_profile(spec, &w));
        let mut pairs: Vec<(String, f64, f64)> = (0..spec.levels.len())
            .map(|i| {
                (
                    format!("level{i}"),
                    exact.level_fraction(i),
                    analytic.level_fraction(i),
                )
            })
            .collect();
        pairs.push((
            "memory".into(),
            exact.memory_fraction(),
            analytic.memory_fraction(),
        ));
        pairs.push(("tlb".into(), miss_frac(&exact), miss_frac(&analytic)));
        for (component, e, an) in pairs {
            if (an - e).abs() > TIER_ERROR_BUDGET {
                a.finding_at(
                    &MS801,
                    format!("{:?}.{}", w.kind, component),
                    "analytic outside budget",
                );
            }
        }
    }
}

/// `audit_probes`, with its MS204 samples timed. The MS103–MS106 checks
/// compare curves already in memory and are left out.
fn audit_probes(t: &Tracer, machine: &MachineConfig, probes: &MachineProbes, a: &mut Auditor) {
    let maps = &probes.maps;
    for (name, curve) in [
        ("maps.unit", &maps.unit),
        ("maps.random", &maps.random),
        ("maps.unit_chained", &maps.unit_chained),
        ("maps.unit_branchy", &maps.unit_branchy),
        ("maps.random_chained", &maps.random_chained),
    ] {
        a.scope(name.to_string(), |a| audit_curve(curve, a));
    }
    for (name, ws, kind) in [
        ("cache_resident", 16u64 << 10, AccessKind::Sequential),
        ("memory_resident", 64 << 20, AccessKind::Random),
    ] {
        let sample = exact_sample(
            t,
            "ms204",
            &machine.memory,
            &Workload::new(ws, kind, DependencyMode::Independent),
        );
        let profile = &sample.profile;
        let mut sum = profile.memory_fraction();
        let mut in_range = (0.0..=1.0).contains(&sum);
        for i in 0..profile.level_hits.len() {
            let f = profile.level_fraction(i);
            in_range &= (0.0..=1.0).contains(&f);
            sum += f;
        }
        if !in_range || (sum - 1.0).abs() > 1e-9 {
            a.finding_at(
                &MS204,
                format!("hit_fractions.{name}"),
                format!("fractions sum to {sum}"),
            );
        }
    }
}

/// `MachineProbes::measure_tiered`, one memsim call at a time.
fn measure_probes(t: &Tracer, machine: &MachineConfig, tier: ResolvedTier) -> MachineProbes {
    t.time("probes", || {
        let mem = |w: Workload| tiered_sample(t, &machine.memory, &w, tier);
        let working_set = stream_working_set(machine);
        let stream = mem(Workload::new(
            working_set,
            AccessKind::Sequential,
            DependencyMode::Independent,
        ));
        let table_bytes = gups_table_bytes(machine);
        let gups = mem(Workload::new(
            table_bytes,
            AccessKind::Random,
            DependencyMode::Independent,
        ));
        let curve = |kind: AccessKind, flavor: DependencyFlavor| {
            let mode = match flavor {
                DependencyFlavor::Independent => DependencyMode::Independent,
                DependencyFlavor::Chained => DependencyMode::Chained,
                DependencyFlavor::Branchy => DependencyMode::Branchy,
            };
            let points = sweep_sizes()
                .iter()
                .map(|&ws| {
                    (
                        ws,
                        mem(Workload::new(ws, kind, mode)).bytes_per_second().get(),
                    )
                })
                .collect();
            MapsCurve::new(kind, flavor, points)
        };
        let unit = curve(AccessKind::Sequential, DependencyFlavor::Independent);
        let mut random = curve(AccessKind::Random, DependencyFlavor::Independent);
        let unit_chained = curve(AccessKind::Sequential, DependencyFlavor::Chained);
        let unit_branchy = curve(AccessKind::Sequential, DependencyFlavor::Branchy);
        let mut random_chained = curve(AccessKind::Random, DependencyFlavor::Chained);
        cap_curve(&mut random, &unit);
        cap_curve(&mut random_chained, &unit_chained);
        cap_curve(&mut random_chained, &random);
        MachineProbes {
            id: machine.id,
            hpl: measure_hpl(machine, HPL_PROCESSES),
            stream: StreamResult {
                working_set,
                bandwidth: stream.bytes_per_second(),
            },
            gups: GupsResult {
                table_bytes,
                updates_per_second: if gups.seconds > 0.0 {
                    UpdatesPerSec::new(gups.profile.total_accesses() as f64 / gups.seconds)
                } else {
                    UpdatesPerSec::new(0.0)
                },
            },
            maps: MapsSet {
                unit,
                random,
                unit_chained,
                unit_branchy,
                random_chained,
            },
            netbench: measure_netbench(machine),
        }
    })
}

fn cap_curve(curve: &mut MapsCurve, bound: &MapsCurve) {
    for (p, b) in curve.points.iter_mut().zip(&bound.points) {
        p.1 = p.1.min(b.1);
    }
}

/// `groundtruth::execute`, one memsim call at a time.
fn execute(t: &Tracer, machine: &MachineConfig, workload: &AppWorkload) -> RunResult {
    t.time("groundtruth", || {
        let mut compute = 0.0;
        for block in &workload.blocks {
            let (s1, short, random) = block.class_refs();
            let deps = match block.dependency {
                DependencyClass::Independent => DependencyMode::Independent,
                DependencyClass::Chained => DependencyMode::Chained,
                DependencyClass::Branchy => DependencyMode::Branchy,
            };
            let mut mem = 0.0;
            for (refs, kind) in [
                (s1, AccessKind::Sequential),
                (short, AccessKind::Strided(block.short_stride())),
                (random, AccessKind::Random),
            ] {
                if refs == 0 {
                    continue;
                }
                let w = Workload::new(block.working_set, kind, deps);
                let bw = exact_sample(t, "groundtruth", &machine.memory, &w).bytes_per_second();
                let bytes = refs as f64 * 8.0 * block.invocations as f64;
                mem += (Bytes::new(bytes) / bw).get();
            }
            let rate = machine.processor.peak_flops() * machine.processor.app_flop_efficiency;
            let flop = block.flops as f64 * block.invocations as f64 / rate;
            compute += mem.max(flop) + OVERLAP_RECOVERY * mem.min(flop);
        }
        let events = &workload.comm.events;
        let raw_comm = t.time_with("netsim", "", 0, events.len() as f64, || {
            replay(&machine.network, workload.processes, events)
        });
        let comm = raw_comm.get()
            * imbalance_factor(&workload.app, &workload.case, machine, workload.processes);
        let idio = idiosyncrasy_factor(&workload.app, &workload.case, machine, workload.processes);
        RunResult {
            seconds: (compute + comm) * idio,
            compute_seconds: compute,
            comm_seconds: comm,
            idiosyncrasy: idio,
        }
    })
}

/// `trace_workload`, counting the references the stride detector sees.
fn traced(t: &Tracer, w: &AppWorkload) -> ApplicationTrace {
    let refs: usize = w
        .blocks
        .iter()
        .map(|b| SAMPLE_REFS.min(b.refs.max(1) as usize))
        .sum();
    t.time_with("tracer", "", 0, refs as f64, || trace_workload(w))
}

fn tiered_sample(
    t: &Tracer,
    spec: &MemorySpec,
    w: &Workload,
    tier: ResolvedTier,
) -> BandwidthSample {
    match tier {
        ResolvedTier::Exact => exact_sample(t, "probes", spec, w),
        ResolvedTier::Analytic => t.time("memsim.analytic", || analytic_bandwidth(spec, w)),
    }
}

/// One exact `measure_bandwidth` call, keyed by its full inputs and
/// counted in simulated accesses (warm-up plus measured pass).
fn exact_sample(
    t: &Tracer,
    caller: &'static str,
    spec: &MemorySpec,
    w: &Workload,
) -> BandwidthSample {
    let key = debug_hash(&(spec, w));
    let per_pass = w.accesses_per_pass();
    let accesses = per_pass.min(MAX_MEASURED_ACCESSES)
        + per_pass.clamp(MIN_MEASURED_ACCESSES, MAX_MEASURED_ACCESSES);
    t.time_with("memsim.exact", caller, key, accesses as f64, || {
        measure_bandwidth(spec, w)
    })
}

/// FNV-1a over a value's `Debug` text, streamed so that keying a call
/// allocates nothing between the simulator's own allocations.
fn debug_hash(value: &impl std::fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let _ = std::fmt::write(&mut h, format_args!("{value:?}"));
    h.0
}

/// Nearest-rank quantile of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1]
}

/// One per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The per-layer metrics of one replay (all but `replay_coverage`, which
/// needs the untraced runs around it).
pub fn layer_metrics(t: &Tracer, store_traffic: Option<(u64, u64)>) -> Vec<Metric> {
    let recs = t.records();
    let of = |layer: &'static str| recs.iter().filter(move |r| r.layer == layer);
    let secs = |layer: &'static str| of(layer).map(|r| r.secs).collect::<Vec<_>>();
    let busy = |layer: &'static str| of(layer).map(|r| r.secs).sum::<f64>();
    let rate = |layer: &'static str| {
        let (units, s) = of(layer).fold((0.0, 0.0), |(u, s), r| (u + r.units, s + r.secs));
        if s > 0.0 {
            units / s
        } else {
            0.0
        }
    };
    let count = |layer: &'static str| of(layer).count() as f64;
    let mut m: Vec<Metric> = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));

    // Exact memsim calls and the repeat census: a call repeats when its
    // (MemorySpec, Workload) key was already seen earlier in the run.
    let mut seen = HashSet::new();
    let mut by_caller: HashMap<&str, (f64, f64)> = HashMap::new();
    for r in of("memsim.exact") {
        let repeat = !seen.insert(r.key);
        let e = by_caller.entry(r.caller).or_default();
        e.0 += 1.0;
        e.1 += f64::from(u8::from(repeat));
    }
    let frac = |(calls, repeats): (f64, f64)| if calls > 0.0 { repeats / calls } else { 0.0 };
    let total = by_caller
        .values()
        .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
    push("memsim.exact.calls", total.0, "count");
    push("memsim.exact.repeat_frac", frac(total), "frac");
    let exact_ms: Vec<f64> = secs("memsim.exact").iter().map(|s| s * 1e3).collect();
    push("memsim.exact.call_ms_p50", quantile(&exact_ms, 0.5), "ms");
    push("memsim.exact.call_ms_p90", quantile(&exact_ms, 0.9), "ms");
    push("memsim.exact.accesses_per_s", rate("memsim.exact"), "1/s");
    for caller in CALLERS {
        let c = by_caller.get(caller).copied().unwrap_or_default();
        push(&format!("memsim.exact.calls.{caller}"), c.0, "count");
        push(
            &format!("memsim.exact.repeat_frac.{caller}"),
            frac(c),
            "frac",
        );
    }
    let analytic_us: Vec<f64> = secs("memsim.analytic").iter().map(|s| s * 1e6).collect();
    push(
        "memsim.analytic.query_us_p50",
        quantile(&analytic_us, 0.5),
        "us",
    );

    push("probes.machine_s_p50", quantile(&secs("probes"), 0.5), "s");
    push("probes.busy_s", busy("probes"), "s");

    let gt_ms: Vec<f64> = secs("groundtruth").iter().map(|s| s * 1e3).collect();
    push("groundtruth.executions", count("groundtruth"), "count");
    push("groundtruth.execute_ms_p50", quantile(&gt_ms, 0.5), "ms");
    push("groundtruth.execute_ms_p90", quantile(&gt_ms, 0.9), "ms");
    push("groundtruth.busy_s", busy("groundtruth"), "s");

    let net_us: Vec<f64> = secs("netsim").iter().map(|s| s * 1e6).collect();
    push("netsim.replay_us_p50", quantile(&net_us, 0.5), "us");
    push("netsim.events_per_s", rate("netsim"), "1/s");

    let trace_ms: Vec<f64> = secs("tracer").iter().map(|s| s * 1e3).collect();
    push("tracer.traces", count("tracer"), "count");
    push("tracer.trace_ms_p50", quantile(&trace_ms, 0.5), "ms");
    push("tracer.refs_per_s", rate("tracer"), "1/s");

    push(
        "audit.preflight_s",
        *t.preflight_secs.lock().expect("tracer lock"),
        "s",
    );

    let cell_us: Vec<f64> = secs("prediction").iter().map(|s| s * 1e6).collect();
    push("prediction.cell_us_p50", quantile(&cell_us, 0.5), "us");
    push("prediction.busy_s", busy("prediction"), "s");

    let load_us: Vec<f64> = secs("cache.load").iter().map(|s| s * 1e6).collect();
    let store_us: Vec<f64> = secs("cache.store").iter().map(|s| s * 1e6).collect();
    push("cache.load_us_p50", quantile(&load_us, 0.5), "us");
    push("cache.store_us_p50", quantile(&store_us, 0.5), "us");
    let (hits, misses) = store_traffic.unwrap_or_default();
    push(
        "cache.hit_frac",
        if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
        "frac",
    );
    push("cache.bytes_written", t.bytes_written() as f64, "bytes");

    // The paper workloads run inline at one job: one worker, never idle.
    let (workers, wall) = t.executor();
    let (imbalance, idle) = if workers.len() > 1 && wall > 0.0 {
        let sum: f64 = workers.iter().sum();
        let max = workers.iter().copied().fold(0.0, f64::max);
        (
            max / (sum / workers.len() as f64),
            1.0 - sum / (workers.len() as f64 * wall),
        )
    } else {
        (1.0, 0.0)
    };
    push("executor.shard_imbalance", imbalance, "ratio");
    push("executor.idle_frac", idle, "frac");

    push("fleet.generate_s", busy("fleet.generate"), "s");
    push("fleet.audit_s", busy("fleet.audit"), "s");
    m
}

/// Busy seconds of the calls no other timed call encloses, summed over
/// threads: the part of the run the per-layer rows account for.
pub fn top_level_secs(t: &Tracer) -> f64 {
    t.records().iter().filter(|r| r.top).map(|r| r.secs).sum()
}

/// Calls and busy seconds per layer, plus the top-level share: the detail
/// block a traced result carries next to its metrics.
pub fn layer_table(t: &Tracer) -> Vec<(&'static str, u64, f64, f64)> {
    let mut table: Vec<(&'static str, u64, f64, f64)> = Vec::new();
    for r in t.records() {
        let i = match table.iter().position(|row| row.0 == r.layer) {
            Some(i) => i,
            None => {
                table.push((r.layer, 0, 0.0, 0.0));
                table.len() - 1
            }
        };
        table[i].1 += 1;
        table[i].2 += r.secs;
        if r.top {
            table[i].3 += r.secs;
        }
    }
    table.sort_by(|a, b| a.0.cmp(b.0));
    table
}
