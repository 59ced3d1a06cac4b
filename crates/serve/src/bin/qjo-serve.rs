//! The serving entrypoint: JSON requests in, JSON plans out.
//!
//! ```text
//! qjo-serve [--seed N] [--batch N] [--threads N] [--socket PATH [--max-conns N]]
//!           [--events PATH]
//! ```
//!
//! Without `--socket`, serves newline-delimited JSON requests from stdin
//! and writes one response line per request to stdout (an empty input
//! line flushes the pending batch). With `--socket PATH`, binds a Unix
//! socket and serves connections sequentially with the same protocol.
//!
//! Requests name one of the smoke service's eight backends: `auto`,
//! `annealer`, `dp`, `greedy`, `qaoa`, `sa`, `sqa` or `tabu`. Deadlines
//! are admitted on each backend's static cost model.
//!
//! A line of `{"cmd": "stats"}` answers with one line of live stats
//! snapshot JSON instead of a plan. With `--events PATH`, the full
//! per-request event log is written to PATH (atomically, at shutdown).

use std::io::{BufReader, Write};

use qjo_exec::Parallelism;
use qjo_serve::server::{serve_lines, serve_unix_socket};
use qjo_serve::{events, Service};

struct Options {
    seed: u64,
    batch: usize,
    threads: Option<usize>,
    socket: Option<std::path::PathBuf>,
    max_conns: Option<usize>,
    events: Option<std::path::PathBuf>,
}

const USAGE: &str = "usage: qjo-serve [--seed N] [--batch N] [--threads N] \
                     [--socket PATH [--max-conns N]] [--events PATH]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts =
        Options { seed: 7, batch: 16, threads: None, socket: None, max_conns: None, events: None };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--batch" => {
                opts.batch = value("--batch")?.parse().map_err(|e| format!("--batch: {e}"))?;
                if opts.batch == 0 {
                    return Err("--batch must be at least 1".into());
                }
            }
            "--threads" => {
                opts.threads =
                    Some(value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?)
            }
            "--socket" => opts.socket = Some(value("--socket")?.into()),
            "--max-conns" => {
                opts.max_conns =
                    Some(value("--max-conns")?.parse().map_err(|e| format!("--max-conns: {e}"))?)
            }
            "--events" => opts.events = Some(value("--events")?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let parallelism = match opts.threads {
        Some(n) => Parallelism::new(n),
        None => Parallelism::auto(),
    };
    let service = Service::smoke(opts.seed, parallelism);
    let result = match &opts.socket {
        Some(path) => serve_unix_socket(&service, path, opts.batch, opts.max_conns),
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_lines(&service, BufReader::new(stdin.lock()), stdout.lock(), opts.batch)
        }
    };
    if let Some(path) = &opts.events {
        let log = events::render_log(&service.drain_events());
        if let Err(e) = qjo_resil::atomic_write(path, log.as_bytes()) {
            eprintln!("error: writing event log {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    match result {
        Ok(stats) => {
            let mut err = std::io::stderr();
            let _ = writeln!(
                err,
                "served {} requests in {} batches ({} commands, {} malformed lines)",
                stats.requests, stats.batches, stats.commands, stats.parse_errors
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
