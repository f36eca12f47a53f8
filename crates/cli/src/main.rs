//! `mkp` — command-line interface to the workspace.
//!
//! ```sh
//! mkp generate /tmp/a.mkp --class gk --n 100 --m 5
//! mkp stats    /tmp/a.mkp
//! mkp solve    /tmp/a.mkp --mode cts2 --p 4
//! mkp exact    /tmp/a.mkp --workers 4
//! ```

mod args;
mod commands;

use args::Args;
use commands::{
    cmd_exact, cmd_generate, cmd_serve, cmd_slave, cmd_solve, cmd_stats, cmd_submit,
    cmd_validate_metrics, USAGE,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    let Some(command) = raw.next() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest: Vec<String> = raw.collect();

    let outcome = match command.as_str() {
        "generate" => Args::parse(
            rest,
            &["class", "n", "m", "tightness", "correlation", "seed"],
        )
        .map_err(Into::into)
        .and_then(|a| cmd_generate(&a)),
        "stats" => Args::parse(rest, &[])
            .map_err(Into::into)
            .and_then(|a| cmd_stats(&a)),
        "solve" => Args::parse(
            rest,
            &[
                "mode",
                "p",
                "rounds",
                "budget",
                "seed",
                "relink",
                "timeout",
                "patience",
                "fault",
                "restarts",
                "backoff",
                "checkpoint",
                "checkpoint-every",
                "resume",
                "metrics",
                "trace",
                "listen",
                "net-fault",
            ],
        )
        .map_err(Into::into)
        .and_then(|a| cmd_solve(&a)),
        "slave" => Args::parse(rest, &["connect", "patience", "net-fault"])
            .map_err(Into::into)
            .and_then(|a| cmd_slave(&a)),
        "serve" => Args::parse(
            rest,
            &[
                "clients",
                "slaves",
                "p",
                "quantum",
                "max-queue",
                "max-inflight",
                "max-jobs",
                "park-mem",
                "spool",
                "state-dir",
                "patience",
            ],
        )
        .map_err(Into::into)
        .and_then(|a| cmd_serve(&a)),
        "submit" => Args::parse(
            rest,
            &[
                "connect",
                "mode",
                "p",
                "rounds",
                "budget",
                "seed",
                "deadline-ms",
                "attach",
                "patience",
            ],
        )
        .map_err(Into::into)
        .and_then(|a| cmd_submit(&a)),
        "exact" => Args::parse(rest, &["nodes", "workers"])
            .map_err(Into::into)
            .and_then(|a| cmd_exact(&a)),
        "validate-metrics" => Args::parse(rest, &[])
            .map_err(Into::into)
            .and_then(|a| cmd_validate_metrics(&a)),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command {other:?}\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    match outcome {
        Ok(text) => {
            print!("{text}");
            if !text.ends_with('\n') {
                println!();
            }
            ExitCode::SUCCESS
        }
        // A degraded solve still produced a result: print it like a
        // success, but exit 2 so scripts can tell the difference.
        Err(commands::CliError::Degraded(text)) => {
            print!("{text}");
            if !text.ends_with('\n') {
                println!();
            }
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
