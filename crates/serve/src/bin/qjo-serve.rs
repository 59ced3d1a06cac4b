//! The serving entrypoint: JSON requests in, JSON plans out.
//!
//! ```text
//! qjo-serve [--seed N] [--threads N] [--socket PATH [--max-conns N]] [--events PATH]
//! ```
//!
//! Without `--socket`, serves newline-delimited JSON requests from stdin
//! and answers each non-empty line with one line on stdout, written
//! before the next line is read (empty lines are skipped). With
//! `--socket PATH`, binds a Unix socket and serves connections
//! sequentially with the same protocol.
//!
//! Requests name one of the smoke service's eight backends: `auto`,
//! `annealer`, `dp`, `greedy`, `qaoa`, `sa`, `sqa` or `tabu`. Deadlines
//! are admitted on each backend's static cost model.
//!
//! A line of `{"cmd": "stats"}` answers with one line of live stats
//! snapshot JSON instead of a plan. With `--events PATH`, each request's
//! full event record is appended, as it is answered, to a temporary file
//! beside PATH that is renamed to PATH at shutdown, so PATH only ever holds
//! a whole log. Without `--events`, events are dropped as they are
//! recorded. Either way the server keeps none between requests.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use qjo_exec::Parallelism;
use qjo_serve::server::{serve_lines, serve_unix_socket};
use qjo_serve::{ServeEvent, Service};

struct Options {
    seed: u64,
    threads: Option<usize>,
    socket: Option<std::path::PathBuf>,
    max_conns: Option<usize>,
    events: Option<std::path::PathBuf>,
}

const USAGE: &str =
    "usage: qjo-serve [--seed N] [--threads N] [--socket PATH [--max-conns N]] [--events PATH]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options { seed: 7, threads: None, socket: None, max_conns: None, events: None };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
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

/// The `--events` log: full records streamed to `PATH.tmp` and renamed
/// to `PATH` by [`EventLog::publish`].
struct EventLog {
    path: PathBuf,
    tmp: PathBuf,
    out: BufWriter<File>,
}

impl EventLog {
    fn create(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let out = BufWriter::new(File::create(&tmp)?);
        Ok(EventLog { path: path.to_owned(), tmp, out })
    }

    fn write(&mut self, event: &ServeEvent) -> io::Result<()> {
        writeln!(self.out, "{}", event.render_full()).map_err(|e| {
            io::Error::new(e.kind(), format!("writing event log {}: {e}", self.tmp.display()))
        })
    }

    fn publish(mut self) -> Result<(), String> {
        let published = self.out.flush().and_then(|()| std::fs::rename(&self.tmp, &self.path));
        published.map_err(|e| format!("writing event log {}: {e}", self.path.display()))
    }
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
    let mut log = opts.events.as_deref().map(|path| {
        EventLog::create(path).unwrap_or_else(|e| {
            eprintln!("error: creating event log {}: {e}", path.display());
            std::process::exit(1)
        })
    });
    let sink = |event: ServeEvent| match &mut log {
        Some(log) => log.write(&event),
        None => Ok(()),
    };
    let service = Service::smoke(opts.seed, parallelism);
    let result = match &opts.socket {
        Some(path) => serve_unix_socket(&service, path, opts.max_conns, sink),
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_lines(&service, BufReader::new(stdin.lock()), stdout.lock(), sink)
        }
    };
    if let Err(e) = log.map_or(Ok(()), EventLog::publish) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    match result {
        Ok(()) => {
            let counters = service.telemetry().counters();
            let count = |name: &str| counters.get(name).copied().unwrap_or(0);
            let _ = writeln!(
                std::io::stderr(),
                "served {} requests ({} stats commands, {} malformed lines)",
                count("serve.requests"),
                count("serve.stats.requests"),
                count("serve.requests.malformed")
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
