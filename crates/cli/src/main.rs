//! `metasim` — regenerate every table and figure of the SC'05 study.
//!
//! `metasim help` lists every command and flag.

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
