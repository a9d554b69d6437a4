//! `core::dataflow`: the whole-study dataflow graph and the static
//! parallel-safety analysis (`MS701`–`MS705`) that certifies sharded
//! execution.
//!
//! The study is a fixed pipeline — probe acquisitions feed predictions,
//! trace replays feed predictions, ground-truth runs feed both the
//! prediction (Equation 1's base runtime) and the error comparison, and
//! table reductions fold every prediction — so the whole run can be written
//! down as a dataflow graph *before* anything executes. [`StudyGraph`]
//! builds that graph from the study plan (the fleet, the 15 (case, CPUs)
//! workloads) with its edges derived from the formula IR's leaves:
//! a probe edge exists because [`Expr::probe_quantities`] says some
//! transfer function reads that probe, and the base ground-truth edge
//! exists because [`Expr::uses_base_runtime`] finds Equation 1's `T(X₀)`
//! leaf. The graph is not a drawing of what we hope the study does; it is
//! computed from the same IR the predictions are evaluated from.
//!
//! On top of the graph, [`lint_dataflow`] proves the properties a sharded
//! executor needs, exactly the way `metasim lint` proves dimensional
//! safety:
//!
//! * **MS701** — every reduction that crosses a shard boundary merges in
//!   canonical `(case, cpus, machine)` order, never arrival order. Float
//!   addition does not reassociate silently.
//! * **MS702** — every per-task RNG/chaos seed stream (idiosyncrasy,
//!   run-jitter, imbalance, probe-noise, fault draws) derives from the
//!   task's *full* coordinate labels, so no two tasks share a stream.
//! * **MS703** — no two distinct dataflow nodes hash to the same content
//!   key under the one shared FNV-1a (`metasim_stats::rng::fnv1a`).
//! * **MS704** — every piece of mutable state reachable from more than one
//!   shard sits behind a single-flight or atomic guard.
//! * **MS705** — the graph is acyclic and the shard cut (the prediction
//!   nodes) has no internal edges: nothing hides a barrier inside the
//!   "embarrassingly parallel" part.
//!
//! [`DataflowModel::shipped`] describes the study as built and lints
//! clean; [`DataflowMutation`]s seed one defect each — an arrival-order
//! merge, a dropped seed label, untagged node keys, an unguarded memo
//! table, a cross-shard edge — and each is caught by exactly the rule that
//! owns it, pinned by the tests here and exercised from the CLI via
//! `metasim lint --mutate NAME`.
//!
//! [`Expr::probe_quantities`]: crate::formula::Expr::probe_quantities
//! [`Expr::uses_base_runtime`]: crate::formula::Expr::uses_base_runtime

use std::collections::HashMap;

use metasim_apps::registry::{all_test_cases, TestCase};
use metasim_audit::registry::{MS701, MS702, MS703, MS704, MS705};
use metasim_audit::{AuditPolicy, AuditReport, Auditor};
use metasim_machines::MachineId;
use metasim_stats::rng::{fnv1a_labels, FNV_OFFSET};

use crate::formula::{prediction_expr, Expr, ProbeQuantity};
use crate::metric::MetricId;

/// One node of the study's dataflow graph: a unit of work the sharded
/// executor may schedule independently, identified by its coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// Measure every probe (HPL, STREAM, GUPS, MAPS, NETBENCH) on one
    /// machine.
    ProbeAcquisition {
        /// The machine swept.
        machine: MachineId,
    },
    /// Trace one workload (collected once, on the base system).
    TraceReplay {
        /// The application test case.
        case: TestCase,
        /// Processor count.
        cpus: u64,
    },
    /// Execute one workload at full detail on one machine.
    GroundTruthRun {
        /// The application test case.
        case: TestCase,
        /// Processor count.
        cpus: u64,
        /// The machine executed on (base or target).
        machine: MachineId,
    },
    /// Convolve the nine predictions for one grid cell.
    Prediction {
        /// The application test case.
        case: TestCase,
        /// Processor count.
        cpus: u64,
        /// The target machine.
        machine: MachineId,
    },
    /// Fold every prediction into one published table.
    TableReduction {
        /// Which table ("table4", "table5").
        table: &'static str,
    },
}

/// Separator byte for node-id label hashing: the same unit separator the
/// RNG seed derivation uses, so a collision here means a collision there.
const NODE_ID_SEPARATOR: u8 = 0x1f;

impl Node {
    /// The node's kind tag — the label that keeps a ground-truth run and a
    /// prediction at the same `(case, cpus, machine)` coordinate from
    /// hashing identically.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Node::ProbeAcquisition { .. } => "probes",
            Node::TraceReplay { .. } => "trace",
            Node::GroundTruthRun { .. } => "groundtruth",
            Node::Prediction { .. } => "prediction",
            Node::TableReduction { .. } => "reduction",
        }
    }

    /// The node's coordinate labels (without the kind tag).
    #[must_use]
    pub fn labels(&self) -> Vec<String> {
        match self {
            Node::ProbeAcquisition { machine } => vec![machine.label().to_string()],
            Node::TraceReplay { case, cpus } => vec![case.to_string(), cpus.to_string()],
            Node::GroundTruthRun {
                case,
                cpus,
                machine,
            }
            | Node::Prediction {
                case,
                cpus,
                machine,
            } => vec![
                case.to_string(),
                cpus.to_string(),
                machine.label().to_string(),
            ],
            Node::TableReduction { table } => vec![(*table).to_string()],
        }
    }

    /// Content id under the workspace-shared FNV-1a. `include_kind`
    /// controls whether the kind tag participates — the shipped study
    /// always includes it; the `untagged-node-keys` mutation drops it to
    /// show `MS703` fire.
    #[must_use]
    pub fn id(&self, include_kind: bool) -> u64 {
        let labels = self.labels();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let seed = if include_kind {
            fnv1a_labels(FNV_OFFSET, &[self.kind()], NODE_ID_SEPARATOR)
        } else {
            FNV_OFFSET
        };
        fnv1a_labels(seed, &refs, NODE_ID_SEPARATOR)
    }

    /// Human-readable coordinate, e.g. `prediction:avus-standard/64/ARL_Xeon`.
    #[must_use]
    pub fn describe(&self) -> String {
        format!("{}:{}", self.kind(), self.labels().join("/"))
    }
}

/// The whole-study dataflow graph: nodes are units of work, and an edge
/// `(from, to)` (indices into [`nodes`](Self::nodes)) means `to` consumes
/// data `from` produces.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyGraph {
    /// Every node, in canonical plan order (probes, traces, ground truth,
    /// predictions, reductions; each block sorted by its coordinates).
    pub nodes: Vec<Node>,
    /// Data-dependency edges as `(producer, consumer)` index pairs.
    pub edges: Vec<(usize, usize)>,
}

impl StudyGraph {
    /// Build the graph for the shipped study plan from the nine shipped
    /// formulas.
    #[must_use]
    pub fn shipped() -> Self {
        let formulas: Vec<(MetricId, Expr)> = MetricId::ALL
            .into_iter()
            .map(|m| (m, prediction_expr(m)))
            .collect();
        Self::from_plan(&formulas)
    }

    /// Build the graph for the full study plan, deriving the prediction
    /// nodes' input edges from the formula IR: probe edges from
    /// [`Expr::probe_quantities`](crate::formula::Expr::probe_quantities)
    /// and the base ground-truth edge from
    /// [`Expr::uses_base_runtime`](crate::formula::Expr::uses_base_runtime).
    #[must_use]
    pub fn from_plan(formulas: &[(MetricId, Expr)]) -> Self {
        let cells = all_test_cases();
        let base = MachineId::NavoP690Base;

        let mut nodes = Vec::new();
        let mut index: HashMap<Node, usize> = HashMap::new();
        let push = |nodes: &mut Vec<Node>, index: &mut HashMap<Node, usize>, n: Node| {
            let i = nodes.len();
            nodes.push(n);
            index.insert(n, i);
        };
        for machine in MachineId::ALL {
            push(&mut nodes, &mut index, Node::ProbeAcquisition { machine });
        }
        for &(case, cpus) in &cells {
            push(&mut nodes, &mut index, Node::TraceReplay { case, cpus });
        }
        for &(case, cpus) in &cells {
            for machine in MachineId::ALL {
                push(
                    &mut nodes,
                    &mut index,
                    Node::GroundTruthRun {
                        case,
                        cpus,
                        machine,
                    },
                );
            }
        }
        for &(case, cpus) in &cells {
            for machine in MachineId::TARGETS {
                push(
                    &mut nodes,
                    &mut index,
                    Node::Prediction {
                        case,
                        cpus,
                        machine,
                    },
                );
            }
        }
        for table in ["table4", "table5"] {
            push(&mut nodes, &mut index, Node::TableReduction { table });
        }

        // What the formula IR actually reads — the cross-check that keeps
        // the graph honest instead of hand-drawn.
        let probe_reads: Vec<ProbeQuantity> = formulas
            .iter()
            .flat_map(|(_, e)| e.probe_quantities())
            .collect();
        let reads_probes = !probe_reads.is_empty();
        let reads_base_runtime = formulas.iter().any(|(_, e)| e.uses_base_runtime());

        let mut edges = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            let Node::Prediction {
                case,
                cpus,
                machine,
            } = *node
            else {
                continue;
            };
            if reads_probes {
                // Equation 1's ratio convolves the target's probes against
                // the base system's.
                edges.push((index[&Node::ProbeAcquisition { machine }], i));
                edges.push((index[&Node::ProbeAcquisition { machine: base }], i));
            }
            edges.push((index[&Node::TraceReplay { case, cpus }], i));
            if reads_base_runtime {
                edges.push((
                    index[&Node::GroundTruthRun {
                        case,
                        cpus,
                        machine: base,
                    }],
                    i,
                ));
            }
            // The observed runtime the prediction is scored against.
            edges.push((
                index[&Node::GroundTruthRun {
                    case,
                    cpus,
                    machine,
                }],
                i,
            ));
        }
        let reductions: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, Node::TableReduction { .. }))
            .map(|(i, _)| i)
            .collect();
        for (i, node) in nodes.iter().enumerate() {
            if matches!(node, Node::Prediction { .. }) {
                for &r in &reductions {
                    edges.push((i, r));
                }
            }
        }
        StudyGraph { nodes, edges }
    }

    /// Indices of the prediction nodes — the proven-independent cut the
    /// sharded executor partitions, in canonical order.
    #[must_use]
    pub fn shard_cut(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, Node::Prediction { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether the graph contains a cycle (it never should: the study has
    /// no feedback loops).
    #[must_use]
    pub fn has_cycle(&self) -> bool {
        // Kahn's algorithm: a DAG drains completely.
        let mut indegree = vec![0usize; self.nodes.len()];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for &(from, to) in &self.edges {
            indegree[to] += 1;
            out[from].push(to);
        }
        let mut queue: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| indegree[i] == 0)
            .collect();
        let mut drained = 0;
        while let Some(i) = queue.pop() {
            drained += 1;
            for &next in &out[i] {
                indegree[next] -= 1;
                if indegree[next] == 0 {
                    queue.push(next);
                }
            }
        }
        drained != self.nodes.len()
    }
}

/// How a cross-shard reduction merges its per-shard partial results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOrder {
    /// Sort into canonical `(case, cpus, machine)` order before folding —
    /// the only order whose float sums reproduce the serial study.
    Canonical,
    /// Fold results as worker threads deliver them (scheduling-dependent;
    /// the seeded `MS701` defect).
    Arrival,
}

/// How a piece of shared mutable state is protected from concurrent
/// shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guard {
    /// A per-coordinate once-cell: concurrent cold callers coalesce onto
    /// one computation (the probe/ground-truth/trace memo tables).
    SingleFlight,
    /// Lock-free atomics or atomic rename (counters, store writes).
    Atomic,
    /// No guard at all — the seeded `MS704` defect.
    Unguarded,
}

/// One piece of mutable state reachable from more than one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedResource {
    /// What the state is, e.g. `ground-truth memo cells`.
    pub name: &'static str,
    /// How it is guarded.
    pub guard: Guard,
}

/// One deterministic random stream a task draws from, identified by its
/// site and the coordinate labels the seed derives from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedStream {
    /// The drawing site, e.g. `run-jitter` or `probe-noise`.
    pub site: &'static str,
    /// The coordinate labels folded into the seed.
    pub labels: Vec<String>,
}

impl SeedStream {
    /// The stream's key under the shared FNV-1a — two tasks with equal
    /// keys literally draw the same numbers.
    #[must_use]
    pub fn key(&self) -> u64 {
        let refs: Vec<&str> = self.labels.iter().map(String::as_str).collect();
        fnv1a_labels(
            fnv1a_labels(FNV_OFFSET, &[self.site], NODE_ID_SEPARATOR),
            &refs,
            NODE_ID_SEPARATOR,
        )
    }
}

/// A static description of everything the parallel-safety analysis needs:
/// the dataflow graph, how reductions merge, which seed streams exist, how
/// node content keys are formed, and what shared state the shards touch.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowModel {
    /// The whole-study graph.
    pub graph: StudyGraph,
    /// Merge discipline of the cross-shard table reductions.
    pub merge: MergeOrder,
    /// Every per-task deterministic random stream.
    pub seed_streams: Vec<SeedStream>,
    /// Whether node content keys include the kind tag (they always should).
    pub keys_include_kind: bool,
    /// Mutable state reachable from more than one shard.
    pub shared_state: Vec<SharedResource>,
}

impl DataflowModel {
    /// The study as shipped: graph from the formula IR, canonical merge,
    /// fully-labelled seed streams, kind-tagged keys, and every memo table
    /// single-flight. Lints clean.
    #[must_use]
    pub fn shipped() -> Self {
        let mut seed_streams = Vec::new();
        for case in TestCase::ALL {
            for machine in MachineId::ALL {
                // The machine/application idiosyncrasy draw is per
                // (case, machine) — one stream regardless of CPU count
                // (see `metasim_apps::groundtruth`).
                seed_streams.push(SeedStream {
                    site: "idiosyncrasy",
                    labels: vec![case.to_string(), machine.label().to_string()],
                });
            }
        }
        for (case, cpus) in all_test_cases() {
            for machine in MachineId::ALL {
                // The ground-truth model's per-run draws, each seeded from
                // the full (case, cpus, machine) coordinate.
                seed_streams.push(SeedStream {
                    site: "run-jitter",
                    labels: vec![
                        case.to_string(),
                        cpus.to_string(),
                        machine.label().to_string(),
                    ],
                });
                seed_streams.push(SeedStream {
                    site: "imbalance",
                    labels: vec![
                        case.to_string(),
                        cpus.to_string(),
                        machine.label().to_string(),
                    ],
                });
            }
        }
        for machine in MachineId::ALL {
            // Chaos draws per machine: outage and probe-noise sites.
            seed_streams.push(SeedStream {
                site: "outage",
                labels: vec![machine.label().to_string()],
            });
            seed_streams.push(SeedStream {
                site: "probe-noise",
                labels: vec![machine.label().to_string()],
            });
        }
        DataflowModel {
            graph: StudyGraph::shipped(),
            merge: MergeOrder::Canonical,
            seed_streams,
            keys_include_kind: true,
            shared_state: vec![
                SharedResource {
                    name: "probe-suite memo cells",
                    guard: Guard::SingleFlight,
                },
                SharedResource {
                    name: "ground-truth memo cells",
                    guard: Guard::SingleFlight,
                },
                SharedResource {
                    name: "trace-cache memo cells",
                    guard: Guard::SingleFlight,
                },
                SharedResource {
                    name: "artifact-store entries",
                    guard: Guard::Atomic,
                },
                SharedResource {
                    name: "store traffic counters",
                    guard: Guard::Atomic,
                },
                SharedResource {
                    name: "obs metric registry",
                    guard: Guard::Atomic,
                },
            ],
        }
    }

    /// The shipped model with one seeded defect.
    #[must_use]
    pub fn mutated(mutation: DataflowMutation) -> Self {
        let mut model = Self::shipped();
        mutation.apply(&mut model);
        model
    }
}

/// A named, deliberately seeded parallel-safety defect for exercising the
/// `MS7xx` rules — the dataflow counterpart of
/// [`Mutation`](crate::lint::Mutation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataflowMutation {
    /// Merge shard results in worker-arrival order: float sums reassociate
    /// with the scheduler. Caught by **MS701**.
    ArrivalOrderMerge,
    /// Drop the machine label from the run-jitter seed derivation: every
    /// machine at one `(case, cpus)` draws the same jitter. Caught by
    /// **MS702**.
    SharedSeedStream,
    /// Drop the kind tag from node content keys: a ground-truth run and a
    /// prediction at the same coordinate collide. Caught by **MS703**.
    UntaggedNodeKeys,
    /// Strip the single-flight guard from the ground-truth memo cells:
    /// racing shards would double-execute (or worse, tear) a cell. Caught
    /// by **MS704**.
    UnguardedMemo,
    /// Add a hidden dependency between two prediction cells — a barrier
    /// inside the "embarrassingly parallel" cut. Caught by **MS705**.
    CrossShardEdge,
}

impl DataflowMutation {
    /// Every named mutation, in help order.
    pub const ALL: [DataflowMutation; 5] = [
        DataflowMutation::ArrivalOrderMerge,
        DataflowMutation::SharedSeedStream,
        DataflowMutation::UntaggedNodeKeys,
        DataflowMutation::UnguardedMemo,
        DataflowMutation::CrossShardEdge,
    ];

    /// The CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DataflowMutation::ArrivalOrderMerge => "arrival-order-merge",
            DataflowMutation::SharedSeedStream => "shared-seed-stream",
            DataflowMutation::UntaggedNodeKeys => "untagged-node-keys",
            DataflowMutation::UnguardedMemo => "unguarded-memo",
            DataflowMutation::CrossShardEdge => "cross-shard-edge",
        }
    }

    /// The rule the mutation is designed to trip.
    #[must_use]
    pub fn expected_code(self) -> &'static str {
        match self {
            DataflowMutation::ArrivalOrderMerge => "MS701",
            DataflowMutation::SharedSeedStream => "MS702",
            DataflowMutation::UntaggedNodeKeys => "MS703",
            DataflowMutation::UnguardedMemo => "MS704",
            DataflowMutation::CrossShardEdge => "MS705",
        }
    }

    fn apply(self, model: &mut DataflowModel) {
        match self {
            DataflowMutation::ArrivalOrderMerge => {
                model.merge = MergeOrder::Arrival;
            }
            DataflowMutation::SharedSeedStream => {
                for stream in &mut model.seed_streams {
                    if stream.site == "run-jitter" {
                        stream.labels.pop();
                    }
                }
            }
            DataflowMutation::UntaggedNodeKeys => {
                model.keys_include_kind = false;
            }
            DataflowMutation::UnguardedMemo => {
                for r in &mut model.shared_state {
                    if r.name == "ground-truth memo cells" {
                        r.guard = Guard::Unguarded;
                    }
                }
            }
            DataflowMutation::CrossShardEdge => {
                let cut = model.graph.shard_cut();
                if let [a, b, ..] = cut.as_slice() {
                    model.graph.edges.push((*a, *b));
                }
            }
        }
    }
}

/// Run the full parallel-safety analysis against `model`, emitting
/// findings into `a` under the `dataflow` scope.
pub fn lint_dataflow(model: &DataflowModel, a: &mut Auditor) {
    a.scope("dataflow", |a| {
        lint_merge_order(model, a);
        lint_seed_streams(model, a);
        lint_node_keys(model, a);
        lint_shared_state(model, a);
        lint_partition(model, a);
    });
}

/// MS701: cross-shard reductions must merge canonically.
fn lint_merge_order(model: &DataflowModel, a: &mut Auditor) {
    if model.merge == MergeOrder::Canonical {
        return;
    }
    a.scope("merge", |a| {
        for node in &model.graph.nodes {
            if let Node::TableReduction { table } = node {
                a.finding_at(
                    &MS701,
                    *table,
                    format!(
                        "{table} folds float errors in worker-arrival order; \
                         reassociating the sum across shards moves the reported mean"
                    ),
                );
            }
        }
    });
}

/// MS702: no two tasks may share a seed stream.
fn lint_seed_streams(model: &DataflowModel, a: &mut Auditor) {
    a.scope("seeds", |a| {
        let mut first_by_key: HashMap<u64, &SeedStream> = HashMap::new();
        let mut reported: HashMap<u64, usize> = HashMap::new();
        for stream in &model.seed_streams {
            let key = stream.key();
            match first_by_key.get(&key) {
                None => {
                    first_by_key.insert(key, stream);
                }
                Some(first) => {
                    // One finding per colliding group, counting members.
                    let n = reported.entry(key).or_insert(1);
                    *n += 1;
                    if *n == 2 {
                        a.finding_at(
                            &MS702,
                            stream.site,
                            format!(
                                "seed stream {}({}) collides with {}({}): \
                                 distinct tasks would draw identical numbers",
                                stream.site,
                                stream.labels.join("/"),
                                first.site,
                                first.labels.join("/"),
                            ),
                        );
                    }
                }
            }
        }
    });
}

/// MS703: no two distinct nodes may share a content key.
fn lint_node_keys(model: &DataflowModel, a: &mut Auditor) {
    a.scope("keys", |a| {
        let mut first_by_id: HashMap<u64, &Node> = HashMap::new();
        for node in &model.graph.nodes {
            let id = node.id(model.keys_include_kind);
            match first_by_id.get(&id) {
                None => {
                    first_by_id.insert(id, node);
                }
                Some(first) => {
                    a.finding_at(
                        &MS703,
                        node.describe(),
                        format!(
                            "content key {id:016x} collides with {}: \
                             the cache would serve one node's artifact for the other",
                            first.describe()
                        ),
                    );
                }
            }
        }
    });
}

/// MS704: shared mutable state needs a guard.
fn lint_shared_state(model: &DataflowModel, a: &mut Auditor) {
    a.scope("state", |a| {
        for r in &model.shared_state {
            if r.guard == Guard::Unguarded {
                a.finding_at(
                    &MS704,
                    r.name,
                    format!(
                        "{} are reachable from every shard with no single-flight \
                         or atomic guard; racing cold shards would duplicate or tear work",
                        r.name
                    ),
                );
            }
        }
    });
}

/// MS705: the graph must be acyclic and the shard cut internally edge-free.
fn lint_partition(model: &DataflowModel, a: &mut Auditor) {
    a.scope("partition", |a| {
        if model.graph.has_cycle() {
            a.finding_at(
                &MS705,
                "graph",
                "the dataflow graph has a cycle; no shard order can satisfy it".to_string(),
            );
        }
        let cut: std::collections::HashSet<usize> = model.graph.shard_cut().into_iter().collect();
        for &(from, to) in &model.graph.edges {
            if cut.contains(&from) && cut.contains(&to) {
                a.finding_at(
                    &MS705,
                    model.graph.nodes[to].describe(),
                    format!(
                        "prediction cell depends on sibling {} across the shard cut; \
                         the cut is not independent and cannot be partitioned freely",
                        model.graph.nodes[from].describe()
                    ),
                );
            }
        }
    });
}

/// Lint `model` under `policy` and return the report.
#[must_use]
pub fn lint_with_policy(model: &DataflowModel, policy: AuditPolicy) -> AuditReport {
    let mut a = Auditor::with_policy(policy);
    lint_dataflow(model, &mut a);
    a.finish()
}

/// Lint `model` with the default policy.
#[must_use]
pub fn lint(model: &DataflowModel) -> AuditReport {
    lint_with_policy(model, AuditPolicy::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_graph_has_the_paper_shape() {
        let g = StudyGraph::shipped();
        let count = |pred: fn(&Node) -> bool| g.nodes.iter().filter(|n| pred(n)).count();
        assert_eq!(
            count(|n| matches!(n, Node::ProbeAcquisition { .. })),
            11,
            "ten targets plus the base"
        );
        assert_eq!(count(|n| matches!(n, Node::TraceReplay { .. })), 15);
        assert_eq!(
            count(|n| matches!(n, Node::GroundTruthRun { .. })),
            165,
            "15 workloads x 11 machines"
        );
        assert_eq!(count(|n| matches!(n, Node::Prediction { .. })), 150);
        assert_eq!(count(|n| matches!(n, Node::TableReduction { .. })), 2);
        // Each prediction: 2 probe edges + trace + base ground truth +
        // target ground truth, plus 2 reduction fan-ins.
        assert_eq!(g.edges.len(), 150 * 5 + 150 * 2);
        assert!(!g.has_cycle());
    }

    #[test]
    fn graph_edges_come_from_the_formula_ir() {
        // The shipped formulas read probes and the base runtime, so the
        // graph has those edges...
        let shipped = StudyGraph::shipped();
        let has_probe_edge = shipped
            .edges
            .iter()
            .any(|&(from, _)| matches!(shipped.nodes[from], Node::ProbeAcquisition { .. }));
        assert!(has_probe_edge);
        let base_gt_edges = shipped
            .edges
            .iter()
            .filter(|&&(from, to)| {
                matches!(
                    shipped.nodes[from],
                    Node::GroundTruthRun {
                        machine: MachineId::NavoP690Base,
                        ..
                    }
                ) && matches!(shipped.nodes[to], Node::Prediction { .. })
            })
            .count();
        assert_eq!(base_gt_edges, 150, "every prediction scales from T(X0)");

        // ...and a plan whose formulas read nothing loses exactly them:
        // the edges are derived from the IR leaves, not hand-drawn.
        let inert = StudyGraph::from_plan(&[(MetricId::S1Hpl, crate::formula::Expr::Const(1.0))]);
        assert!(!inert
            .edges
            .iter()
            .any(|&(from, _)| { matches!(inert.nodes[from], Node::ProbeAcquisition { .. }) }));
        assert!(!inert.edges.iter().any(|&(from, _)| {
            matches!(
                inert.nodes[from],
                Node::GroundTruthRun {
                    machine: MachineId::NavoP690Base,
                    ..
                }
            )
        }));
    }

    #[test]
    fn node_ids_are_unique_and_stable() {
        let g = StudyGraph::shipped();
        let mut ids: Vec<u64> = g.nodes.iter().map(|n| n.id(true)).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "every node id must be distinct");
        // Stable across calls (pure function of the coordinates).
        assert_eq!(g.nodes[0].id(true), g.nodes[0].id(true));
    }

    #[test]
    fn shard_cut_is_every_prediction_in_canonical_order() {
        let g = StudyGraph::shipped();
        let cut = g.shard_cut();
        assert_eq!(cut.len(), 150);
        let coords: Vec<(TestCase, u64, MachineId)> = cut
            .iter()
            .map(|&i| match g.nodes[i] {
                Node::Prediction {
                    case,
                    cpus,
                    machine,
                } => (case, cpus, machine),
                ref other => panic!("non-prediction node {other:?} in the cut"),
            })
            .collect();
        let mut sorted = coords.clone();
        sorted.sort_by_key(|&(case, cpus, machine)| {
            (
                case,
                cpus,
                MachineId::TARGETS.iter().position(|&m| m == machine),
            )
        });
        assert_eq!(coords, sorted, "the cut must enumerate canonically");
    }

    #[test]
    fn shipped_model_lints_clean() {
        let report = lint(&DataflowModel::shipped());
        assert!(
            report.diagnostics.is_empty(),
            "shipped study must pass the parallel-safety analysis: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn arrival_merge_is_rejected_per_reduction() {
        let report = lint(&DataflowModel::mutated(DataflowMutation::ArrivalOrderMerge));
        assert!(report.has_code("MS701"));
        assert!(report.has_errors());
        assert_eq!(report.diagnostics.len(), 2, "table4 and table5 both fire");
    }

    #[test]
    fn dropped_seed_label_collides_machines() {
        let report = lint(&DataflowModel::mutated(DataflowMutation::SharedSeedStream));
        assert!(report.has_code("MS702"));
        assert!(report.has_errors());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule.code == "MS702")
            .unwrap();
        assert!(
            d.message.contains("run-jitter"),
            "the finding names the colliding site: {}",
            d.message
        );
    }

    #[test]
    fn untagged_keys_collide_groundtruth_with_predictions() {
        let report = lint(&DataflowModel::mutated(DataflowMutation::UntaggedNodeKeys));
        assert!(report.has_code("MS703"));
        let count = report
            .diagnostics
            .iter()
            .filter(|d| d.rule.code == "MS703")
            .count();
        assert_eq!(
            count, 150,
            "every (case, cpus, target) pairs a ground-truth run with a prediction"
        );
    }

    #[test]
    fn unguarded_memo_is_flagged() {
        let report = lint(&DataflowModel::mutated(DataflowMutation::UnguardedMemo));
        assert!(report.has_code("MS704"));
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.diagnostics[0].subject.contains("ground-truth"));
    }

    #[test]
    fn cross_shard_edge_breaks_the_partition() {
        let report = lint(&DataflowModel::mutated(DataflowMutation::CrossShardEdge));
        assert!(report.has_code("MS705"));
        // A warning: the study would still be correct, just unshardable.
        assert!(!report.has_errors());
    }

    #[test]
    fn cycles_are_detected() {
        let mut model = DataflowModel::shipped();
        // Close a loop: a reduction feeding a probe acquisition.
        let reduction = model
            .graph
            .nodes
            .iter()
            .position(|n| matches!(n, Node::TableReduction { .. }))
            .unwrap();
        model.graph.edges.push((reduction, 0));
        model.graph.edges.push((0, reduction));
        assert!(model.graph.has_cycle());
        let report = lint(&model);
        assert!(report.has_code("MS705"));
    }

    #[test]
    fn every_dataflow_mutation_trips_exactly_its_rule() {
        for m in DataflowMutation::ALL {
            let report = lint(&DataflowModel::mutated(m));
            assert!(
                report.has_code(m.expected_code()),
                "{} must trip {}",
                m.name(),
                m.expected_code()
            );
            for d in &report.diagnostics {
                assert_eq!(
                    d.rule.code,
                    m.expected_code(),
                    "{}: unexpected extra finding {:?}",
                    m.name(),
                    d
                );
            }
        }
    }
}
