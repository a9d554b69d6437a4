//! The seeded samplers: draw machines and applications from a
//! [`FleetSpec`]'s design space.
//!
//! Determinism contract: every draw comes from a [`SeededRng`] stream
//! rooted at `fnv1a_labels(seed, ["fleet", spec.name, kind, index])`, one
//! stream per sampled entity. `(spec, seed)` therefore fixes every byte of
//! the generated fleet — independent of sampling order, thread count, and
//! prior draws — and distinct entities never share a stream. The stream
//! roots are recorded on the fleet so the `MS1003` seed-overlap audit can
//! prove the `fleet` namespace stays disjoint from the study RNG streams
//! (`idiosyncrasy` / `imbalance` / `run-jitter` / `workblock`).

use metasim_apps::registry::TestCase;
use metasim_apps::workload::{AppWorkload, WorkBlock, WorkingSetModel};
use metasim_machines::{fleet as paper_fleet, MachineConfig, MachineId, ProcessorSpec};
use metasim_memsim::spec::{LevelSpec, MainMemorySpec, MemorySpec, TlbSpec};
use metasim_netsim::replay::{CommEvent, CommOp};
use metasim_netsim::spec::NetworkSpec;
use metasim_stats::rng::{fnv1a_labels, seed_from_labels, SeededRng};
use metasim_tracer::block::DependencyClass;
use metasim_tracer::mpi::MpiTrace;
use serde::{Deserialize, Serialize};

use crate::mutation::FleetMutation;
use crate::spec::FleetSpec;

/// The case label every sampled application carries (the study driver tags
/// it per machine for ground-truth individuality; see
/// [`crate::study::tagged_case`]).
pub const SAMPLED_CASE: &str = "sampled";

/// The label namespace every fleet sampling stream is rooted in — the
/// `MS1003` disjointness invariant is "fleet streams start here, study
/// streams never do".
pub const FLEET_STREAM_ROOT: &str = "fleet";

/// One recorded sampling stream: the labels it was derived from and the
/// 64-bit seed that derivation produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedStream {
    /// Label path hashed into the seed.
    pub labels: Vec<String>,
    /// The resulting FNV-1a stream seed.
    pub seed: u64,
}

/// One sampled machine: a full [`MachineConfig`] plus the fleet-level
/// metadata the report aggregates by.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratedMachine {
    /// Stable name (`m0042`).
    pub name: String,
    /// Interconnect family the network was drawn from.
    pub fabric: String,
    /// Node count (a power of two).
    pub nodes: u64,
    /// The complete configuration. Generated machines wear the base
    /// [`MachineId`] slot — identity lives in
    /// [`name`](GeneratedMachine::name), and the study driver never routes
    /// them through the id-keyed memo layers.
    pub config: MachineConfig,
}

/// One sampled application: a complete workload at one processor count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratedApp {
    /// Stable name (`SYN-2`).
    pub name: String,
    /// The block and communication census.
    pub workload: AppWorkload,
}

/// A generated fleet: the sampled machines and applications plus the
/// sampling streams that produced them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratedFleet {
    /// Name of the spec this fleet was drawn from.
    pub spec_name: String,
    /// User seed the streams were rooted at.
    pub seed: u64,
    /// Sampled machines, in index order.
    pub machines: Vec<GeneratedMachine>,
    /// Sampled applications, in index order.
    pub apps: Vec<GeneratedApp>,
    /// Every sampling stream used, for the `MS1003` disjointness audit.
    pub streams: Vec<SeedStream>,
}

impl GeneratedFleet {
    /// Serialize the fleet as pretty JSON — the `fleet gen` export format
    /// CI byte-compares across reruns.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet serializes")
    }

    /// The shipped paper grid expressed as the degenerate `size = 10`
    /// fleet: the ten Table 5 target machines and the five TI-05 test
    /// cases at their middle processor count, with no sampling streams
    /// (nothing was drawn).
    #[must_use]
    pub fn paper_grid() -> Self {
        let f = paper_fleet();
        let machines = MachineId::TARGETS
            .into_iter()
            .map(|id| GeneratedMachine {
                name: id.label().to_string(),
                fabric: id.interconnect().to_string(),
                nodes: u64::from(id.total_processors()),
                config: f.get(id).clone(),
            })
            .collect();
        let apps = TestCase::ALL
            .into_iter()
            .map(|case| {
                let counts = case.cpu_counts();
                let p = counts[counts.len() / 2];
                GeneratedApp {
                    name: format!("{case:?}"),
                    workload: case.workload(p),
                }
            })
            .collect();
        GeneratedFleet {
            spec_name: "paper-grid".to_string(),
            seed: 0,
            machines,
            apps,
            streams: Vec::new(),
        }
    }
}

/// A scenario generator: anything that turns `(size, seed)` into a
/// [`GeneratedFleet`]. The random sampler ([`SampledGenerator`]) and the
/// degenerate paper grid both satisfy it; a config-file fleet is a
/// [`SampledGenerator`] over a loaded [`FleetSpec`].
pub trait FleetGenerator {
    /// Generate a fleet of `size` machines from `seed`. Must be a pure
    /// function of `(self, size, seed)`.
    fn generate(&self, size: usize, seed: u64) -> GeneratedFleet;
}

/// The random sampler over a [`FleetSpec`]'s machine and application
/// spaces.
#[derive(Debug, Clone)]
pub struct SampledGenerator {
    /// The design space to draw from.
    pub spec: FleetSpec,
    /// An optional planted defect (see [`FleetMutation`]).
    pub mutation: Option<FleetMutation>,
}

impl SampledGenerator {
    /// A generator over the built-in paper-derived space.
    #[must_use]
    pub fn paper_space() -> Self {
        SampledGenerator {
            spec: FleetSpec::paper_space(),
            mutation: None,
        }
    }

    /// Stream labels for machine `i` (owned form).
    fn machine_labels(&self, i: usize) -> Vec<String> {
        vec![
            FLEET_STREAM_ROOT.to_string(),
            self.spec.name.clone(),
            "machine".to_string(),
            i.to_string(),
        ]
    }

    /// Stream labels for app `j` (owned form).
    fn app_labels(&self, j: usize) -> Vec<String> {
        vec![
            FLEET_STREAM_ROOT.to_string(),
            self.spec.name.clone(),
            "app".to_string(),
            j.to_string(),
        ]
    }
}

/// Derive the stream seed for a label path under the user seed.
#[must_use]
pub fn stream_seed(user_seed: u64, labels: &[String]) -> u64 {
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    fnv1a_labels(user_seed, &refs, 0x1f)
}

impl FleetGenerator for SampledGenerator {
    fn generate(&self, size: usize, seed: u64) -> GeneratedFleet {
        let mut streams = Vec::new();
        let mut machines = Vec::with_capacity(size);
        for i in 0..size {
            let name = format!("m{i:04}");
            let (labels, stream) = if i == 0 && self.mutation == Some(FleetMutation::SeedOverlap) {
                // The planted defect: machine 0's stream is the study's own
                // idiosyncrasy stream for the first app's base cell.
                let labels: Vec<String> = ["idiosyncrasy", "SYN-0", SAMPLED_CASE, "NAVO_690_BASE"]
                    .iter()
                    .map(ToString::to_string)
                    .collect();
                let s = {
                    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                    seed_from_labels(&refs)
                };
                (labels, s)
            } else {
                let labels = self.machine_labels(i);
                let s = stream_seed(seed, &labels);
                (labels, s)
            };
            streams.push(SeedStream {
                labels,
                seed: stream,
            });
            let mut rng = SeededRng::new(stream);
            let mut machine = sample_machine(&self.spec, &mut rng, name);
            if i == 0 && self.mutation == Some(FleetMutation::DegenerateHierarchy) {
                let mem = &mut machine.config.memory;
                if mem.levels.len() >= 2 {
                    let c0 = mem.levels[0].capacity_bytes;
                    mem.levels[0].capacity_bytes = mem.levels[1].capacity_bytes;
                    mem.levels[1].capacity_bytes = c0;
                } else {
                    mem.levels[0].line_bytes = 48;
                }
            }
            machines.push(machine);
        }

        let mut apps = Vec::with_capacity(self.spec.apps.count as usize);
        for j in 0..self.spec.apps.count as usize {
            let labels = self.app_labels(j);
            let stream = stream_seed(seed, &labels);
            streams.push(SeedStream {
                labels,
                seed: stream,
            });
            let mut rng = SeededRng::new(stream);
            apps.push(sample_app(&self.spec, &mut rng, format!("SYN-{j}")));
        }

        GeneratedFleet {
            spec_name: self.spec.name.clone(),
            seed,
            machines,
            apps,
            streams,
        }
    }
}

/// Draw one machine. Hierarchies are built constructively: capacities
/// strictly grow, bandwidths never rise, latencies never fall outward, so
/// a well-posed spec yields `MS003`/`MS004`-clean configs.
fn sample_machine(spec: &FleetSpec, rng: &mut SeededRng, name: String) -> GeneratedMachine {
    let m = &spec.machines;
    let clock_ghz = m.clock_ghz.sample(rng);
    let flops_per_cycle = m.flops_per_cycle.sample(rng);
    let hpl_efficiency = m.hpl_efficiency.sample(rng).clamp(0.05, 1.0);
    let app_flop_efficiency =
        (hpl_efficiency * m.app_efficiency_share.sample(rng).clamp(0.01, 1.0)).max(1e-4);

    let level_count = *rng.choose(&m.cache_levels) as usize;
    let line = *rng.choose(&m.line_bytes);
    let mut cap_log2 = u32::try_from(m.l1_capacity_log2.sample_int(rng).clamp(10, 40)).unwrap();
    let mut bandwidth = clock_ghz * 1e9 * m.l1_bytes_per_cycle.sample(rng);
    let mut latency = m.l1_latency_ns.sample(rng) * 1e-9;
    let mut levels = Vec::with_capacity(level_count);
    for depth in 0..level_count {
        if depth > 0 {
            cap_log2 +=
                u32::try_from(m.level_capacity_step_log2.sample_int(rng).clamp(1, 10)).unwrap();
            bandwidth *= m.level_bandwidth_ratio.sample(rng).clamp(0.05, 1.0);
            latency *= m.level_latency_ratio.sample(rng).max(1.0);
        }
        let associativity =
            u32::try_from(*rng.choose(&m.associativity)).expect("MS1002 bounds associativity");
        let capacity_bytes = (1u64 << cap_log2.min(40)).max(line * u64::from(associativity) * 2);
        levels.push(LevelSpec {
            capacity_bytes,
            line_bytes: line,
            associativity,
            load_bandwidth: bandwidth,
            latency,
        });
    }

    let memory = MainMemorySpec {
        stream_bandwidth: bandwidth * m.memory_bandwidth_ratio.sample(rng).clamp(0.01, 1.0),
        latency: latency * m.memory_latency_ratio.sample(rng).max(1.0),
    };
    let tlb = TlbSpec {
        entries: *rng.choose(&m.tlb_entries) as usize,
        page_bytes: *rng.choose(&m.page_bytes),
        miss_penalty: m.tlb_miss_penalty_ns.sample(rng).max(0.0) * 1e-9,
    };

    let fabric = &m.fabrics[rng.next_below(m.fabrics.len() as u64) as usize];
    let network = NetworkSpec {
        latency: fabric.latency_us.sample(rng) * 1e-6,
        bandwidth: fabric.bandwidth_mbs.sample(rng) * 1e6,
        per_message_overhead: fabric.overhead_us.sample(rng) * 1e-6,
        rendezvous_threshold: *rng.choose(&fabric.rendezvous_bytes),
        bisection_factor: fabric.bisection.sample(rng).clamp(0.05, 1.0),
    };
    let nodes = 1u64 << m.nodes_log2.sample_int(rng).clamp(0, 20);

    GeneratedMachine {
        name,
        fabric: fabric.name.clone(),
        nodes,
        config: MachineConfig {
            id: MachineId::NavoP690Base,
            processor: ProcessorSpec {
                clock_ghz,
                flops_per_cycle,
                hpl_efficiency,
                app_flop_efficiency,
            },
            memory: MemorySpec {
                levels,
                memory,
                tlb,
                mlp: m.mlp.sample(rng).max(1.0),
                short_stride_prefetch: m.short_stride_prefetch.sample(rng).clamp(0.0, 1.0),
                dependency_chain_latency: m.dependency_chain_latency_ns.sample(rng).max(0.0) * 1e-9,
                branch_penalty: m.branch_penalty_ns.sample(rng).max(0.0) * 1e-9,
            },
            network,
        },
    }
}

/// Draw one application: a block census plus an MPI event census, the same
/// shape the shipped TI-05 applications instantiate from templates.
fn sample_app(spec: &FleetSpec, rng: &mut SeededRng, name: String) -> GeneratedApp {
    let ap = &spec.apps;
    let block_count = ap.blocks.sample_int(rng).clamp(1, 8) as usize;
    let cells = 10f64.powf(ap.cells_log10.sample(rng)) as u64;
    let steps = u64::try_from(ap.steps.sample_int(rng).max(1)).unwrap();
    let processes = *rng.choose(&ap.processes);
    let refs_per_cell_step = ap.refs_per_cell_step.sample(rng).max(1.0);

    let mut shares: Vec<f64> = (0..block_count).map(|_| rng.uniform(0.5, 1.5)).collect();
    let total: f64 = shares.iter().sum();
    for s in &mut shares {
        *s /= total;
    }

    let refs_per_step_per_proc = cells as f64 * refs_per_cell_step / processes as f64;
    let lower = name.to_lowercase();
    let blocks: Vec<WorkBlock> = shares
        .iter()
        .enumerate()
        .map(|(k, share)| {
            let stride1 = ap.stride1_share.sample(rng).clamp(0.0, 1.0);
            let random = (1.0 - stride1) * ap.random_share_of_rest.sample(rng).clamp(0.0, 1.0);
            let short = 1.0 - stride1 - random;
            let ws = match rng.weighted_index(&ap.ws_weights) {
                0 => WorkingSetModel::PerProcess {
                    bytes_per_cell: ap.bytes_per_cell.sample(rng).max(1.0),
                },
                1 => WorkingSetModel::Plane {
                    bytes_per_point: ap.plane_bytes_per_point.sample(rng).max(1.0),
                },
                _ => WorkingSetModel::Fixed(1u64 << ap.fixed_ws_log2.sample_int(rng).clamp(12, 30)),
            };
            let dependency = match rng.weighted_index(&ap.dependency_weights) {
                0 => DependencyClass::Independent,
                1 => DependencyClass::Chained,
                _ => DependencyClass::Branchy,
            };
            let flops_per_ref = ap.flops_per_ref.sample(rng).max(0.0);
            let refs = (refs_per_step_per_proc * share).max(1.0) as u64;
            WorkBlock {
                name: format!("{lower}::b{k}"),
                refs,
                mix: (stride1, short, random),
                working_set: ws.bytes(cells, processes),
                dependency,
                flops: (refs as f64 * flops_per_ref) as u64,
                invocations: steps,
            }
        })
        .collect();

    let p2p_bytes = 1u64 << ap.p2p_bytes_log2.sample_int(rng).clamp(8, 26);
    let p2p_count = steps * u64::try_from(ap.p2p_per_step.sample_int(rng).max(0)).unwrap();
    let allreduce_count =
        steps * u64::try_from(ap.allreduce_per_step.sample_int(rng).max(0)).unwrap();
    let barrier_count =
        steps / u64::try_from(ap.barrier_every_steps.sample_int(rng).max(1)).unwrap();
    let mut events = Vec::new();
    if p2p_count > 0 {
        events.push(CommEvent::new(
            CommOp::PointToPoint { bytes: p2p_bytes },
            p2p_count,
        ));
    }
    if allreduce_count > 0 {
        events.push(CommEvent::new(
            CommOp::AllReduce { bytes: 8 },
            allreduce_count,
        ));
    }
    if barrier_count > 0 {
        events.push(CommEvent::new(CommOp::Barrier, barrier_count));
    }

    GeneratedApp {
        name: name.clone(),
        workload: AppWorkload {
            app: name,
            case: SAMPLED_CASE.to_string(),
            processes,
            blocks,
            comm: MpiTrace { processes, events },
        },
    }
}
