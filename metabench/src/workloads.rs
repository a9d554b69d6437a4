//! The three workloads: their set-up, the study call, and the output check.
//!
//! Each workload is one batch job. `paper-cold` and `paper-warm` call
//! [`Study::run_with_store_jobs`] at one job against a fresh or a staged
//! artifact store; `fleet-sampled` calls [`run_fleet_study`] on the built-in
//! paper-derived space. The output check compares every cell with the
//! reference exports kept next to this crate.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use metasim_apps::groundtruth::GroundTruth;
use metasim_cache::ArtifactStore;
use metasim_core::metric::MetricId;
use metasim_core::study::{Observation, Study, STUDY_KIND};
use metasim_fleet::study::FleetObservation;
use metasim_fleet::{
    run_fleet_study, FleetGenerator, FleetSpec, FleetStudyConfig, SampledGenerator,
};
use metasim_machines::{fleet, Fleet};
use metasim_memsim::analytic::Tier;
use metasim_probes::suite::ProbeSuite;
use metasim_report::csv::CsvWriter;

/// Machines in the sampled fleet (each runs the spec's three apps).
///
/// Small, so that one call takes seconds: a run then holds a dozen calls,
/// and its fastest tenth catches the host's fast moments. With 60 machines
/// a call took 7–12 s and a run's fastest call moved by half.
pub const FLEET_SIZE: usize = 8;

/// Which batch job a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper grid at one job into an empty store.
    PaperCold,
    /// The paper grid at one job against a store holding every probe,
    /// trace and ground-truth entry but no whole-study entry.
    PaperWarm,
    /// `run_fleet_study` on the paper-derived space, analytic tier.
    FleetSampled,
}

impl Kind {
    /// Parse a workload name as the command line spells it.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "paper-cold" => Ok(Kind::PaperCold),
            "paper-warm" => Ok(Kind::PaperWarm),
            "fleet-sampled" => Ok(Kind::FleetSampled),
            other => Err(format!(
                "unknown workload `{other}` (paper-cold|paper-warm|fleet-sampled)"
            )),
        }
    }

    /// How many leading export columns identify a cell.
    pub fn key_cols(self) -> usize {
        match self {
            Kind::PaperCold | Kind::PaperWarm => 3,
            Kind::FleetSampled => 2,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperCold => "paper-cold",
            Kind::PaperWarm => "paper-warm",
            Kind::FleetSampled => "fleet-sampled",
        }
    }
}

/// Everything a run is parameterised by.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub kind: Kind,
    /// Scratch directory for per-call stores.
    pub work: PathBuf,
    /// Directory holding the reference exports.
    pub reference: PathBuf,
    /// Staged warm store (`paper-warm` only).
    pub stage: PathBuf,
    /// Fleet seed (`fleet-sampled` only).
    pub fleet_seed: u64,
    /// Worker threads (`fleet-sampled`; the paper workloads run at one).
    pub jobs: usize,
}

impl Config {
    /// The fleet study knobs this run uses.
    pub fn fleet_config(&self) -> FleetStudyConfig {
        FleetStudyConfig {
            size: FLEET_SIZE,
            seed: self.fleet_seed,
            tier: Tier::Analytic,
            jobs: self.jobs,
            mutation: None,
        }
    }

    fn store_dir(&self) -> PathBuf {
        self.work.join("store")
    }
}

/// What one set-up step produces: the inputs of exactly one study call.
pub enum Inputs {
    /// A paper-grid call: the fleet and a store at its starting state.
    Paper {
        /// The eleven-machine HPCMP fleet.
        fleet: Fleet,
        /// The artifact store the call reads and writes.
        store: Arc<ArtifactStore>,
    },
    /// A fleet call: the spec plus the cells its output must hold.
    Fleet {
        /// The sampled design space.
        spec: Box<FleetSpec>,
        /// `(machine, app)` names in canonical order.
        cells: Vec<(String, String)>,
    },
}

/// The observations of one study call, in canonical order.
#[derive(Debug)]
pub enum Output {
    /// Paper-grid observations.
    Paper(Vec<Observation>),
    /// Fleet observations plus whether the run's audit reported an error.
    Fleet(Vec<FleetObservation>, bool),
}

impl Output {
    /// The output rendered as its export.
    pub fn csv(&self) -> String {
        match self {
            Output::Paper(obs) => paper_csv(obs),
            Output::Fleet(obs, _) => fleet_csv(obs),
        }
    }
}

/// Put the store directory of the paper workloads in its starting state:
/// empty, or a copy of the staged warm store. This restores the disk
/// between calls, like [`teardown`]; it is not the program's set-up, and
/// its time (file system work on a shared disk) is not measured.
pub fn reset(cfg: &Config) -> io::Result<()> {
    let dir = cfg.store_dir();
    remove_dir(&dir)?;
    match cfg.kind {
        Kind::PaperCold => fs::create_dir_all(&dir),
        Kind::PaperWarm => copy_tree(&cfg.stage, &dir),
        Kind::FleetSampled => Ok(()),
    }
}

/// Build the inputs of one call. It touches no file, so it can be repeated
/// without a [`reset`] in between.
pub fn setup(cfg: &Config) -> Inputs {
    match cfg.kind {
        Kind::PaperCold | Kind::PaperWarm => Inputs::Paper {
            fleet: fleet(),
            store: Arc::new(ArtifactStore::open(cfg.store_dir())),
        },
        Kind::FleetSampled => {
            let spec = FleetSpec::paper_space();
            let generated = SampledGenerator {
                spec: spec.clone(),
                mutation: None,
            }
            .generate(FLEET_SIZE, cfg.fleet_seed);
            let cells = generated
                .machines
                .iter()
                .flat_map(|m| {
                    generated
                        .apps
                        .iter()
                        .map(|a| (m.name.clone(), a.name.clone()))
                })
                .collect();
            Inputs::Fleet {
                spec: Box::new(spec),
                cells,
            }
        }
    }
}

/// Remove the store directory that [`reset`] made and the call used.
pub fn teardown(cfg: &Config) -> io::Result<()> {
    remove_dir(&cfg.store_dir())
}

/// The study call itself, through the public library entry points.
pub fn call(cfg: &Config, inputs: &Inputs) -> Output {
    match inputs {
        Inputs::Paper { fleet, store } => {
            let suite = ProbeSuite::with_store(Arc::clone(store));
            let gt = GroundTruth::with_store(Arc::clone(store));
            let (study, _) = Study::run_with_store_jobs(fleet, &suite, &gt, Some(store), 1);
            Output::Paper(study.observations)
        }
        Inputs::Fleet { spec, .. } => match run_fleet_study(spec, &cfg.fleet_config()) {
            Ok(out) => Output::Fleet(out.observations, out.report.has_errors()),
            Err(_) => Output::Fleet(Vec::new(), true),
        },
    }
}

/// Result of checking one call's output cell by cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellCheck {
    /// Cells the output must hold.
    pub expected: u64,
    /// Cells missing or differing from the reference (or failing the
    /// sanity rule where no reference exists).
    pub failed: u64,
    /// Whether the rendered export is byte-identical to the reference
    /// (`None` when there is no reference to compare with).
    pub identical: Option<bool>,
}

/// Check one call's output against the reference for its inputs.
pub fn check(cfg: &Config, inputs: &Inputs, output: &Output) -> CellCheck {
    let audit_error = matches!(output, Output::Fleet(_, true));
    match fs::read_to_string(cfg.reference.join(reference_file(cfg))) {
        Ok(reference) => {
            let mut c = compare_csv(&output.csv(), &reference, cfg.kind.key_cols());
            if audit_error {
                c.failed = c.expected;
            }
            c
        }
        Err(_) => match (inputs, output) {
            (Inputs::Fleet { cells, .. }, Output::Fleet(obs, _)) => {
                sanity_check(cells, obs, audit_error)
            }
            // The paper grid always has a reference: a missing file fails
            // every cell.
            _ => compare_csv(&output.csv(), "", cfg.kind.key_cols()),
        },
    }
}

/// File name of the reference export for this run's workload (and, for the
/// fleet, its size and seed).
pub fn reference_file(cfg: &Config) -> String {
    match cfg.kind {
        Kind::PaperCold | Kind::PaperWarm => "paper_grid.csv".to_string(),
        Kind::FleetSampled => format!(
            "fleet_paper-space_n{}_seed{}.csv",
            FLEET_SIZE, cfg.fleet_seed
        ),
    }
}

/// The paper-grid export, byte for byte what `metasim study --export`
/// writes.
pub fn paper_csv(observations: &[Observation]) -> String {
    let mut w = CsvWriter::new();
    let mut header = vec![
        "case".to_string(),
        "cpus".to_string(),
        "machine".to_string(),
        "actual_s".to_string(),
        "base_actual_s".to_string(),
    ];
    header.extend(
        MetricId::ALL
            .iter()
            .map(|m| format!("pred_{}", m.short_label())),
    );
    w.row(&header);
    for o in observations {
        let mut cells = vec![
            o.case.label().to_string(),
            o.cpus.to_string(),
            o.machine.label().to_string(),
            format!("{}", o.actual),
            format!("{}", o.base_actual),
        ];
        cells.extend(o.predictions.iter().map(|p| format!("{p}")));
        w.row(&cells);
    }
    w.finish()
}

/// Every fleet cell with full-precision values (shortest round-trip
/// formatting, so equal text means equal bits).
pub fn fleet_csv(observations: &[FleetObservation]) -> String {
    let mut w = CsvWriter::new();
    let mut header: Vec<String> = [
        "machine",
        "app",
        "region",
        "processes",
        "actual_s",
        "base_actual_s",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    header.extend((1..=9).map(|i| format!("pred_{i}")));
    w.row(&header);
    for o in observations {
        let mut cells = vec![
            o.machine.clone(),
            o.app.clone(),
            o.region.clone(),
            o.processes.to_string(),
            format!("{}", o.actual),
            format!("{}", o.base_actual),
        ];
        cells.extend(o.predictions.iter().map(|p| format!("{p}")));
        w.row(&cells);
    }
    w.finish()
}

/// Compare two exports row by row, keyed by their first `key_cols` fields.
/// Every reference row whose key is missing from `actual`, or whose line
/// differs, is a failed cell; a differing header fails every cell.
pub fn compare_csv(actual: &str, reference: &str, key_cols: usize) -> CellCheck {
    let key = |line: &str| {
        line.splitn(key_cols + 1, ',')
            .take(key_cols)
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut ref_lines = reference.lines();
    let ref_header = ref_lines.next();
    let expected_rows: Vec<&str> = ref_lines.collect();
    let expected = expected_rows.len() as u64;
    let mut act_lines = actual.lines();
    if ref_header.is_none() || act_lines.next() != ref_header {
        return CellCheck {
            expected: expected.max(1),
            failed: expected.max(1),
            identical: Some(false),
        };
    }
    let actual_rows: std::collections::HashMap<String, &str> =
        act_lines.map(|l| (key(l), l)).collect();
    let failed = expected_rows
        .iter()
        .filter(|line| actual_rows.get(&key(line)) != Some(line))
        .count() as u64;
    CellCheck {
        expected,
        failed,
        identical: Some(actual == reference),
    }
}

/// The rule for fleet seeds without a reference: a cell fails if it is
/// missing, if its actual or any prediction is non-finite or non-positive,
/// or if the run's audit reported an error.
fn sanity_check(
    cells: &[(String, String)],
    obs: &[FleetObservation],
    audit_error: bool,
) -> CellCheck {
    let ok = |o: &FleetObservation| {
        std::iter::once(o.actual)
            .chain(o.predictions)
            .all(|x| x.is_finite() && x > 0.0)
    };
    let failed = cells
        .iter()
        .filter(|(m, a)| {
            audit_error || !obs.iter().any(|o| &o.machine == m && &o.app == a && ok(o))
        })
        .count() as u64;
    CellCheck {
        expected: cells.len() as u64,
        failed,
        identical: None,
    }
}

/// Stage the `paper-warm` store: run the cold study into `dir`, then drop
/// the whole-study entry so the warm call reads every probe, trace and
/// ground-truth entry but recomputes the grid.
pub fn stage_warm(dir: &Path) -> io::Result<()> {
    remove_dir(dir)?;
    let f = fleet();
    let store = Arc::new(ArtifactStore::open(dir));
    let suite = ProbeSuite::with_store(Arc::clone(&store));
    let gt = GroundTruth::with_store(Arc::clone(&store));
    let _ = Study::run_with_store_jobs(&f, &suite, &gt, Some(&store), 1);
    fs::remove_file(store.entry_path(STUDY_KIND, Study::store_key_tiered(&f, Tier::Exact)))
}

fn remove_dir(dir: &Path) -> io::Result<()> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

fn copy_tree(src: &Path, dst: &Path) -> io::Result<()> {
    fs::create_dir_all(dst)?;
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            fs::copy(entry.path(), to)?;
        }
    }
    Ok(())
}
