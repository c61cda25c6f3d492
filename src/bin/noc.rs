//! `noc` — command-line experiment runner for the pseudo-circuit
//! reproduction. See `noc help` for usage.

use pseudo_circuit_repro::cli;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("help", &[][..]),
    };
    let text = match command {
        "run" => cli::parse_run_args(rest)
            .and_then(|a| cli::run(&a))
            .map(|report| cli::render_report(&report)),
        "campaign" => cli::parse_campaign_args(rest).and_then(|c| cli::run_campaign_command(&c)),
        "list" => Ok(cli::render_list()),
        "help" | "--help" | "-h" => Ok(cli::usage().to_string()),
        other => Err(cli::CliError(format!(
            "unknown command {other:?}\n\n{}",
            cli::usage()
        ))),
    };
    match text {
        Ok(text) => print(&text),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes `text` and a newline to stdout: the only place the binary prints.
/// A reader that closed the pipe early (`noc list | head -n 1`) has what it
/// wanted, so a broken pipe ends the process quietly with exit 0; any other
/// write error is one `error:` line and exit 1.
fn print(text: &str) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}
