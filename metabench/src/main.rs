//! `metabench`: the measuring half of the metasim benchmark (`run.py`
//! builds it and adds the host block).
//!
//! ```text
//! metabench run --workload W --seconds S --trace 0|1 --work DIR --reference DIR
//!               [--stage DIR] [--fleet-seed N] [--jobs N] [--clk-tck N] [--dump PREFIX]
//! metabench stage --out DIR
//! metabench reference --out DIR --work DIR [--fleet-seed N] [--jobs N]
//! ```
//!
//! `run` prints one JSON line: `correct`, `attempted`, `failed`, `metrics`
//! and a `detail` object. With `--trace 0` it repeats set-up + study call
//! until the next call would overrun `--seconds`, timing extra set-ups
//! before each call, and reports the mean of the fastest tenth of each
//! kind of timing; with
//! `--trace 1` it alternates untraced calls and traced replays (each in a
//! child process, the replays via the internal `replay-once` command) and
//! reports the per-layer metrics.

mod replay;
mod workloads;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use workloads::{CellCheck, Config, Inputs, Kind};

/// Set-ups timed before each call, on top of the one whose inputs the call
/// uses. `setup_s` then rests on many samples taken at as many moments as
/// there are calls: the host's speed changes within a second, so set-ups
/// timed in one burst would read one moment of it.
const SETUPS_PER_CALL: usize = 20;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = dispatch(&args) {
        eprintln!("metabench: {e}");
        std::process::exit(2);
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or("usage: metabench run|stage|reference ...")?;
    let flags = parse_flags(rest)?;
    let get = |name: &str| flags.get(name).cloned();
    let need = |name: &str| get(name).ok_or(format!("--{name} is required"));
    let num = |name: &str, default: u64| -> Result<u64, String> {
        get(name).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("--{name}: bad number `{v}`"))
        })
    };
    let cfg = |kind: Kind| -> Result<Config, String> {
        Ok(Config {
            kind,
            work: PathBuf::from(need("work")?),
            reference: PathBuf::from(get("reference").unwrap_or_default()),
            stage: PathBuf::from(get("stage").unwrap_or_default()),
            fleet_seed: num("fleet-seed", 42)?,
            jobs: num("jobs", 2)?.max(1) as usize,
        })
    };
    let clk_tck = num("clk-tck", 100)? as f64;
    match cmd.as_str() {
        "run" => {
            let cfg = cfg(Kind::parse(&need("workload")?)?)?;
            let seconds: f64 = need("seconds")?
                .parse()
                .map_err(|_| "--seconds: bad number")?;
            let line = match need("trace")?.as_str() {
                "0" => timed(&cfg, seconds, clk_tck, get("dump").map(PathBuf::from)),
                "1" => traced(&cfg, seconds, clk_tck),
                other => Err(format!("--trace must be 0 or 1, got `{other}`")),
            }?;
            println!("{line}");
            Ok(())
        }
        "replay-once" => replay_once(
            &cfg(Kind::parse(&need("workload")?)?)?,
            Path::new(&need("dump")?),
            clk_tck,
        ),
        "stage" => workloads::stage_warm(&PathBuf::from(need("out")?)).map_err(|e| e.to_string()),
        "reference" => {
            let out = PathBuf::from(need("out")?);
            std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
            for kind in [Kind::PaperCold, Kind::FleetSampled] {
                let cfg = cfg(kind)?;
                workloads::reset(&cfg).map_err(|e| e.to_string())?;
                let inputs = workloads::setup(&cfg);
                let csv = workloads::call(&cfg, &inputs).csv();
                workloads::teardown(&cfg).map_err(|e| e.to_string())?;
                std::fs::write(out.join(workloads::reference_file(&cfg)), csv)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn parse_flags(rest: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

/// One measured study call.
struct Sample {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    check: CellCheck,
}

/// Set up and call, verified, until the next call would overrun `seconds`.
/// With `dump`, the last call's export is written to `<dump>.csv` and the
/// mean CPU seconds per call to `<dump>.cpu` (the traced run reads both).
fn timed(
    cfg: &Config,
    seconds: f64,
    clk_tck: f64,
    dump: Option<PathBuf>,
) -> Result<String, String> {
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    loop {
        for _ in 0..SETUPS_PER_CALL {
            setups.push(stopwatch(|| workloads::setup(cfg)).1);
        }
        workloads::reset(cfg).map_err(|e| format!("reset failed: {e}"))?;
        let (inputs, setup_s) = stopwatch(|| workloads::setup(cfg));
        setups.push(setup_s);
        reset_peak_rss();
        let cpu0 = cpu_seconds(clk_tck);
        let t0 = Instant::now();
        let output = workloads::call(cfg, &inputs);
        let check = workloads::check(cfg, &inputs, &output);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds(clk_tck) - cpu0;
        let rss_mb = peak_rss_mb();
        workloads::teardown(cfg).map_err(|e| e.to_string())?;
        if let Some(dump) = &dump {
            std::fs::write(dump.with_extension("csv"), output.csv()).map_err(|e| e.to_string())?;
        }
        samples.push(Sample {
            setup_s,
            wall_s,
            cpu_s,
            rss_mb,
            check,
        });
        let next = median(
            &samples
                .iter()
                .map(|s| s.wall_s + s.setup_s)
                .collect::<Vec<_>>(),
        );
        if start.elapsed().as_secs_f64() + next > seconds {
            break;
        }
    }

    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let cpus: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();
    let rss: Vec<f64> = samples.iter().map(|s| s.rss_mb).collect();
    let cpu_mean = cpus.iter().sum::<f64>() / cpus.len() as f64;
    if let Some(dump) = &dump {
        std::fs::write(dump.with_extension("cpu"), cpu_mean.to_string())
            .map_err(|e| e.to_string())?;
    }
    let expected: u64 = samples.iter().map(|s| s.check.expected).sum();
    let failed: u64 = samples.iter().map(|s| s.check.failed).sum();
    let identical = samples.iter().all(|s| s.check.identical != Some(false));
    let metrics = vec![
        ("wall_s".to_string(), fastest_tenth_mean(&walls), "s"),
        ("cpu_s".to_string(), fastest_tenth_mean(&cpus), "s"),
        // A median: how far the workers' allocations overlap changes the
        // peak from call to call, whatever the host does.
        ("peak_rss_mb".to_string(), median(&rss), "MB"),
        ("setup_s".to_string(), fastest_tenth_mean(&setups), "s"),
    ];
    let detail = vec![
        ("workload", jstr(cfg.kind.name())),
        ("calls", samples.len().to_string()),
        ("wall_s_samples", jlist(&walls)),
        ("cpu_s_samples", jlist(&cpus)),
        ("peak_rss_mb_samples", jlist(&rss)),
        ("setup_s_samples", jlist(&setups)),
        (
            "cells_expected_per_call",
            samples[0].check.expected.to_string(),
        ),
        (
            "cells_failed_frac",
            jnum(failed as f64 / expected.max(1) as f64),
        ),
        ("export_identical", identical.to_string()),
    ];
    Ok(result_line(
        failed == 0,
        expected,
        failed,
        &metrics,
        &detail,
    ))
}

/// One traced replay in this process, its results dumped to `<dump>.*`
/// for the parent [`traced`] run: the export (`.csv`), the per-layer
/// metrics plus the top-level busy seconds (`.metrics`, one `name value
/// unit` per line), the layer table (`.layers`), the replay's own CPU
/// seconds (`.cpu`), and the reference check (`.check`).
fn replay_once(cfg: &Config, dump: &Path, clk_tck: f64) -> Result<(), String> {
    workloads::reset(cfg).map_err(|e| format!("reset failed: {e}"))?;
    let inputs = workloads::setup(cfg);
    let tracer = replay::Tracer::default();
    let cpu0 = cpu_seconds(clk_tck);
    let (replayed, traffic) = match &inputs {
        Inputs::Paper { store, .. } => {
            let out = replay::paper(&tracer, store);
            (out, Some((store.traffic().hits, store.traffic().misses)))
        }
        Inputs::Fleet { spec, .. } => (replay::fleet(&tracer, spec, &cfg.fleet_config()), None),
    };
    let cpu = cpu_seconds(clk_tck) - cpu0;
    let check = workloads::check(cfg, &inputs, &replayed);
    workloads::teardown(cfg).map_err(|e| e.to_string())?;
    let mut metrics = replay::layer_metrics(&tracer, traffic);
    metrics.push((
        "top_level_s".to_string(),
        replay::top_level_secs(&tracer),
        "s",
    ));
    let lines: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("{n} {v} {u}"))
        .collect();
    let layers: Vec<String> = replay::layer_table(&tracer)
        .into_iter()
        .map(|(layer, calls, busy, top)| {
            format!(
                "{}:{{\"calls\":{calls},\"busy_s\":{},\"top_level_s\":{}}}",
                jstr(layer),
                jnum(busy),
                jnum(top)
            )
        })
        .collect();
    let write = |ext: &str, text: String| {
        std::fs::write(dump.with_extension(ext), text).map_err(|e| e.to_string())
    };
    write("csv", replayed.csv())?;
    write("metrics", lines.join("\n"))?;
    write("layers", format!("{{{}}}", layers.join(",")))?;
    write("cpu", cpu.to_string())?;
    write("check", format!("{} {}", check.expected, check.failed))
}

/// The traced run: replays alternating with untraced calls, `U R U R ... U`,
/// each study in a child process of its own so that every one starts from
/// a fresh heap. Cycles repeat while the next would still end within
/// `seconds` (at least one: `U R U`). Each replay's `replay_coverage` divides its
/// top-level busy seconds by the mean CPU of the untraced calls on either
/// side, which cancels a host that speeds up or slows down meanwhile; every
/// per-layer metric is the median over the replays.
fn traced(cfg: &Config, seconds: f64, clk_tck: f64) -> Result<String, String> {
    std::fs::create_dir_all(&cfg.work).map_err(|e| e.to_string())?;
    let child = |cmd: &str, tag: String| -> Result<PathBuf, String> {
        let dump = cfg.work.join(&tag);
        let out = std::process::Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
            .args([
                cmd,
                "--workload",
                cfg.kind.name(),
                "--trace",
                "0",
                "--seconds",
                "0",
            ])
            .arg("--work")
            .arg(cfg.work.join(format!("{tag}-work")))
            .arg("--reference")
            .arg(&cfg.reference)
            .arg("--stage")
            .arg(&cfg.stage)
            .args(["--fleet-seed", &cfg.fleet_seed.to_string()])
            .args([
                "--jobs",
                &cfg.jobs.to_string(),
                "--clk-tck",
                &clk_tck.to_string(),
            ])
            .arg("--dump")
            .arg(&dump)
            .output()
            .map_err(|e| format!("{cmd}: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "{cmd} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        Ok(dump)
    };
    let read = |dump: &Path, ext: &str| {
        std::fs::read_to_string(dump.with_extension(ext)).map_err(|e| e.to_string())
    };
    let untraced = |k: usize| -> Result<(String, f64), String> {
        let dump = child("run", format!("untraced-{k}"))?;
        Ok((
            read(&dump, "csv")?,
            read(&dump, "cpu")?.parse().map_err(|_| "bad cpu dump")?,
        ))
    };

    let start = Instant::now();
    let (reference_csv, first_cpu) = untraced(0)?;
    let mut cpus = vec![first_cpu];
    let mut replay_cpus: Vec<f64> = Vec::new();
    let mut exact = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut replays: Vec<Vec<(String, f64, String)>> = Vec::new();
    let mut layers = String::new();
    loop {
        let k = replays.len();
        let dump = child("replay-once", format!("replay-{k}"))?;
        let csv = read(&dump, "csv")?;
        let same = workloads::compare_csv(&csv, &reference_csv, cfg.kind.key_cols());
        let check: Vec<u64> = read(&dump, "check")?
            .split(' ')
            .filter_map(|x| x.parse().ok())
            .collect();
        attempted += same.expected + check[0];
        failed += same.failed + check[1];
        exact &= same.identical == Some(true);
        replays.push(
            read(&dump, "metrics")?
                .lines()
                .filter_map(|l| {
                    let mut it = l.split(' ');
                    Some((
                        it.next()?.to_string(),
                        it.next()?.parse().ok()?,
                        it.next()?.to_string(),
                    ))
                })
                .collect(),
        );
        if k == 0 {
            layers = read(&dump, "layers")?;
        }
        let (csv, cpu) = untraced(k + 1)?;
        exact &= csv == reference_csv;
        cpus.push(cpu);
        replay_cpus.push(read(&dump, "cpu")?.parse().map_err(|_| "bad cpu dump")?);
        let cycle = start.elapsed().as_secs_f64() / (k + 1) as f64;
        if start.elapsed().as_secs_f64() + cycle > seconds {
            break;
        }
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut tops = Vec::new();
    for (i, (name, _, unit)) in replays[0].iter().enumerate() {
        let values: Vec<f64> = replays.iter().map(|r| r[i].1).collect();
        if name == "top_level_s" {
            let coverage: Vec<f64> = values
                .iter()
                .enumerate()
                .map(|(k, top)| top / ((cpus[k] + cpus[k + 1]) / 2.0))
                .collect();
            metrics.push(("replay_coverage".to_string(), median(&coverage), "ratio"));
            tops = values;
        } else {
            metrics.push((name.clone(), median(&values), unit));
        }
    }
    // The same ratio against the replay's own CPU time: free of host drift,
    // it shows whether the timed calls account for the replay itself.
    let self_coverage: Vec<f64> = tops.iter().zip(&replay_cpus).map(|(t, c)| t / c).collect();
    let detail = vec![
        ("workload", jstr(cfg.kind.name())),
        ("replays", replays.len().to_string()),
        ("untraced_cpu_s", jlist(&cpus)),
        ("replay_cpu_s", jlist(&replay_cpus)),
        ("replay_top_level_s", jlist(&tops)),
        ("replay_self_coverage", jnum(median(&self_coverage))),
        ("replay_exact", exact.to_string()),
        (
            "cells_failed_frac",
            jnum(failed as f64 / attempted.max(1) as f64),
        ),
        ("layers_first_replay", layers),
    ];
    Ok(result_line(
        failed == 0 && exact,
        attempted,
        failed,
        &metrics,
        &detail,
    ))
}

fn stopwatch<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Mean of the fastest tenth of `xs` (at least one value). Neighbours on a
/// shared host only ever slow a call down, so the fastest calls are the
/// ones that measure the program; their mean keeps the digits a single
/// minimum, or a CPU time counted in clock ticks, would lose.
fn fastest_tenth_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(v.len().div_ceil(10).max(1));
    v.iter().sum::<f64>() / v.len() as f64
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// User + system CPU seconds of this process so far (`/proc/self/stat`
/// fields 14 and 15, which include exited worker threads).
fn cpu_seconds(clk_tck: f64) -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / clk_tck
}

/// Restart `VmHWM` from the current RSS (`/proc/self/clear_refs`, value 5),
/// so that the next [`peak_rss_mb`] is the peak of one call. Where the
/// kernel refuses, the peak stays that of the run so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn jstr(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn jlist(xs: &[f64]) -> String {
    format!(
        "[{}]",
        xs.iter().map(|&x| jnum(x)).collect::<Vec<_>>().join(",")
    )
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
    detail: &[(&str, String)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                jstr(name),
                jnum(*value),
                jstr(unit)
            )
        })
        .collect();
    let detail: Vec<String> = detail
        .iter()
        .map(|(k, v)| format!("{}:{v}", jstr(k)))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}},\"detail\":{{{}}}}}",
        attempted.max(1),
        metrics.join(","),
        detail.join(",")
    )
}
