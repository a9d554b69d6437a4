//! `metasim` — regenerate every table and figure of the SC'05 study.
//!
//! ```text
//! metasim audit [--json] [--deny-warnings] [--allow ...] [--manifest FILE]
//!                            statically verify every study artifact
//! metasim lint [--mutate NAME] [--deny-warnings]
//!                            dimension, probe-plan and sensitivity lint
//! metasim study [--timings] [--no-cache] [--export FILE] [--obs-out FILE]
//!               [--fault-plan FILE]
//!                            run the full 1,350-prediction study
//! metasim chaos run|plan --seed N [--faults SPEC]
//!                            deterministic fault injection around the study
//! metasim fleet gen|study|report|spec [--size N] [--seed S] [--spec FILE]
//!                            sampled fleets beyond the paper's grid (MS10xx)
//! metasim cache stats|clear  inspect/delete the persistent artifact store
//! metasim obs summarize FILE render a run manifest
//! metasim systems            Table 1/2: the study fleet
//! metasim metrics            Table 3: the nine synthetic metrics
//! metasim probes             probe summary for every machine
//! metasim fig1 [FILE.svg]    Figure 1: unit-stride MAPS curves
//! metasim table4             Table 4 + Figure 2 data (vs. paper values)
//! metasim table5             Table 5: system-specific errors
//! metasim fig N              Figures 3-7: per-application errors (N=3..7)
//! metasim appendix           Tables 6-10: simulated vs. published runtimes
//! metasim balanced           §4: IDC balanced rating & fitted weights
//! metasim ranking            extension: Kendall-τ machine-ranking quality
//! metasim predict CASE CPUS MACHINE   one prediction, all nine metrics
//! metasim all                everything above (except fig1 SVG)
//! ```
//!
//! `metasim help` prints the full flag reference.

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("help", String::as_str);
    let rest = &args[1.min(args.len())..];
    match commands::dispatch(cmd, rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `metasim help` for usage");
            ExitCode::FAILURE
        }
    }
}
