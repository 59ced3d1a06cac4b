//! The experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [table1|fig2|table2|fig3|table3|fig4|fig5|timing|ablation|scaling|all]
//!             [--full|--smoke] [--csv DIR] [--metrics-out PATH]
//!             [--trace-out PATH] [--bench-out PATH] [--convergence]
//!             [--faults SPEC] [--resume] [--halt-after STAGE]
//! experiments bench [STAGES]... [--full|--smoke] [--bench-out PATH] ...
//! experiments serve-bench [--smoke] [--seed N] [--csv DIR] [--metrics-out PATH]
//!             [--bench-out PATH] [--min-embed-speedup X]
//! experiments robustness-bench [--smoke] [--seed N] [--instances N] [--csv DIR]
//!             [--metrics-out PATH] [--bench-out PATH] [--faults SPEC]
//! experiments manifest-diff BASELINE CURRENT
//! experiments trace-check TRACE
//! experiments bench-compare BASELINE CURRENT
//! experiments events-check EVENTS [--canonical OUT]
//! experiments stats-render STATS
//! ```
//!
//! Defaults are scaled to simulator throughput; `--full` raises the knobs
//! toward the paper's exact parameters (slower), `--smoke` lowers them to
//! a CI-sized sweep that finishes in a couple of minutes. `--csv DIR`
//! additionally writes each result as CSV into `DIR`.
//!
//! Every run also emits a machine-readable **run manifest** (see
//! `EXPERIMENTS.md`): per-stage durations and counter deltas, final
//! metrics, and a content fingerprint of every table. The manifest goes to
//! `--metrics-out PATH` if given, else `DIR/run_manifest.json` under
//! `--csv`, else `results/run_manifest.json`; set `QJO_MANIFEST=off` to
//! disable. `manifest-diff` compares the deterministic sections of two
//! manifests and exits non-zero on drift — CI's experiments gate.
//!
//! Resilience (all deterministic, see `EXPERIMENTS.md`):
//!
//! * `--faults SPEC` (or the `QJO_FAULTS` env var) installs a seeded
//!   fault-injection plan; every injection and recovery event lands in
//!   the manifest's `resilience` section, so chaos runs drift-gate like
//!   any other sweep.
//! * The driver checkpoints each completed stage under
//!   `DIR/.checkpoints/`; `--resume` replays completed stages from those
//!   checkpoints and reproduces the exact final manifest an uninterrupted
//!   run would have written. `--halt-after STAGE` exits cleanly after
//!   checkpointing STAGE — a deterministic stand-in for a mid-sweep kill.
//! * Every artifact is written atomically (temp file + rename), so a real
//!   crash never leaves a torn CSV/JSON behind.
//!
//! Observability extras (all opt-in, see `EXPERIMENTS.md`):
//!
//! * `--trace-out PATH` records a Chrome `trace_event` JSON of every span
//!   and `par_map` work unit — open it in Perfetto or `chrome://tracing`.
//!   `trace-check` re-parses such a file and verifies slice nesting.
//! * `--convergence` turns on the solver convergence recorder (energy
//!   curves, acceptance rates, chain breaks, optimiser trajectories),
//!   exported as deterministic `convergence_*.csv` artifacts. `--smoke`
//!   implies it, so the smoke baseline gates on the curves too.
//! * `bench` (or `--bench-out PATH`) emits `BENCH.json`: per-stage wall
//!   time, counter-derived work rates, span percentiles, and trace-buffer
//!   statistics — the perf-trajectory record CI uploads per PR.
//!   `bench-compare` diffs the work rates of two snapshots and fails when
//!   a gated rate (the noisy-sampling `shots/s`) regresses beyond the 2×
//!   noise allowance, or when the run's total wall time exceeds 2× the
//!   baseline's — CI's perf and wall-clock-budget gate against the
//!   committed smoke baseline.
//!
//! Serving (see `EXPERIMENTS.md` § Serving): `serve-bench` replays the
//! seeded smoke request mixes against the `qjo-serve` service and emits
//! the drift-gated `serve_report.csv`, the volatile `serve_latency.csv`,
//! a run manifest, and (with `--bench-out`) a `BENCH.json` carrying the
//! gated `serve.requests_per_sec` and `serve.cache_hit_rate` rates.
//! `--min-embed-speedup X` additionally fails the run unless a cached
//! Pegasus embedding served at least `X`× faster than a cold embed.
//!
//! Serving telemetry (see `EXPERIMENTS.md` § Serving telemetry):
//! `serve-bench` also writes the per-request event log
//! `serve_events.jsonl` (volatile — it carries wall-clock latencies;
//! gated on row count) and its latency-free projection
//! `serve_events.canonical.jsonl` (deterministic, hash-gated and
//! byte-identical at any `QJO_THREADS`), plus the service's final stats
//! snapshot `serve_stats.json` (deterministic and hash-gated too).
//! `events-check` re-parses an event log and verifies the schema and
//! cross-record invariants (exit 0 valid / 1 invalid / 2 unreadable);
//! `--canonical OUT` additionally writes the canonical projection for
//! byte-diffing. `stats-render` formats a stats
//! snapshot (from `serve_stats.json` or an in-band `{"cmd": "stats"}`
//! response line) as Prometheus-style exposition plus a human table.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use qjo_bench::report::Table;
use qjo_bench::{ablation, fig2, fig3, fig4, fig5, scaling, table1, table2, table3, timing};
use qjo_obs::json::Json;
use qjo_obs::manifest::{Artifact, RunManifest, StageRecord};

/// Knob scaling: the default simulator-throughput sweep, the paper-exact
/// `--full` sweep, or the CI-sized `--smoke` sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Default,
    Full,
    Smoke,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Default => "default",
            Mode::Full => "full",
            Mode::Smoke => "smoke",
        }
    }
}

/// Every stage the driver knows, in `all` execution order.
const STAGE_NAMES: &[&str] = &[
    "table1", "fig2", "table2", "fig3", "table3", "fig4", "fig5", "timing", "ablation", "scaling",
];

#[derive(Debug)]
struct Options {
    which: Vec<String>,
    mode: Mode,
    csv_dir: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    bench_out: Option<PathBuf>,
    convergence: bool,
    faults: Option<String>,
    resume: bool,
    halt_after: Option<String>,
}

const USAGE: &str = "usage: experiments [table1|fig2|table2|fig3|table3|fig4|fig5|timing|ablation|scaling|all]... \
     [--full|--smoke] [--csv DIR] [--metrics-out PATH] [--trace-out PATH] [--bench-out PATH] [--convergence] \
     [--faults SPEC] [--resume] [--halt-after STAGE]\n       \
     experiments bench [STAGES]... (as above; BENCH.json unless --bench-out)\n       \
     experiments serve-bench [--smoke] [--seed N] [--csv DIR] [--metrics-out PATH] [--bench-out PATH] \
     [--min-embed-speedup X]\n       \
     experiments robustness-bench [--smoke] [--seed N] [--instances N] [--csv DIR] [--metrics-out PATH] \
     [--bench-out PATH] [--faults SPEC]\n       \
     experiments manifest-diff BASELINE CURRENT\n       \
     experiments trace-check TRACE\n       \
     experiments bench-compare BASELINE CURRENT\n       \
     experiments events-check EVENTS [--canonical OUT]\n       \
     experiments stats-render STATS";

/// Subcommands with their own argument grammar. They are recognised only
/// in first position; anywhere later is a usage error (not a stage name),
/// so `experiments --smoke bench-compare A B` fails loudly instead of
/// being misread as an unknown experiment.
const SUBCOMMANDS: &[&str] = &[
    "manifest-diff",
    "trace-check",
    "bench-compare",
    "serve-bench",
    "robustness-bench",
    "events-check",
    "stats-render",
];

/// Where a command line leads: one of the subcommands, or the sweep.
#[derive(Debug)]
enum Route {
    ManifestDiff(String, String),
    TraceCheck(String),
    BenchCompare(String, String),
    ServeBench(ServeBenchOptions),
    RobustnessBench(RobustBenchOptions),
    EventsCheck { events: String, canonical: Option<String> },
    StatsRender(String),
    Sweep(Options),
}

/// Resolves the full command line to a [`Route`]. Every malformed input —
/// wrong subcommand arity, a subcommand buried behind flags, an unknown
/// stage — comes back as `Err`, and the caller prints the usage text and
/// exits 2 for all of them through one path.
fn route(raw: &[String]) -> Result<Route, String> {
    match raw.first().map(String::as_str) {
        Some("manifest-diff") => match raw {
            [_, baseline, current] => Ok(Route::ManifestDiff(baseline.clone(), current.clone())),
            _ => Err("manifest-diff takes exactly two manifest paths".to_string()),
        },
        Some("trace-check") => match raw {
            [_, trace] => Ok(Route::TraceCheck(trace.clone())),
            _ => Err("trace-check takes exactly one trace path".to_string()),
        },
        Some("bench-compare") => match raw {
            [_, baseline, current] => Ok(Route::BenchCompare(baseline.clone(), current.clone())),
            _ => Err("bench-compare takes exactly two BENCH.json paths".to_string()),
        },
        Some("serve-bench") => parse_serve_args(&raw[1..]).map(Route::ServeBench),
        Some("robustness-bench") => parse_robust_args(&raw[1..]).map(Route::RobustnessBench),
        Some("events-check") => {
            match raw {
                [_, events] => Ok(Route::EventsCheck { events: events.clone(), canonical: None }),
                [_, events, flag, out] if flag == "--canonical" => {
                    Ok(Route::EventsCheck { events: events.clone(), canonical: Some(out.clone()) })
                }
                _ => Err("events-check takes an event-log path and optionally --canonical OUT"
                    .to_string()),
            }
        }
        Some("stats-render") => match raw {
            [_, stats] => Ok(Route::StatsRender(stats.clone())),
            _ => Err("stats-render takes exactly one stats-snapshot path".to_string()),
        },
        _ => {
            if let Some(sub) = raw.iter().find(|a| SUBCOMMANDS.contains(&a.as_str())) {
                return Err(format!("subcommand '{sub}' must be the first argument"));
            }
            parse_args(raw).map(Route::Sweep)
        }
    }
}

/// Parses the sweep arguments. Returns a one-line error (the caller adds
/// the usage text and exits 2) instead of panicking on malformed input.
fn parse_args(raw: &[String]) -> Result<Options, String> {
    let mut which = Vec::new();
    let mut mode = Mode::Default;
    let mut csv_dir = None;
    let mut metrics_out = None;
    let mut trace_out = None;
    let mut bench_out = None;
    let mut bench = false;
    let mut convergence = false;
    let mut faults = None;
    let mut resume = false;
    let mut halt_after: Option<String> = None;
    let mut args = raw.iter();
    while let Some(arg) = args.next() {
        let mut value =
            |flag: &str| args.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
        match arg.as_str() {
            "--full" => mode = Mode::Full,
            "--smoke" => mode = Mode::Smoke,
            "--convergence" => convergence = true,
            "--resume" => resume = true,
            "bench" => bench = true,
            "--csv" => csv_dir = Some(PathBuf::from(value("--csv")?)),
            "--metrics-out" => metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--trace-out" => trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--bench-out" => bench_out = Some(PathBuf::from(value("--bench-out")?)),
            "--faults" => faults = Some(value("--faults")?),
            "--halt-after" => halt_after = Some(value("--halt-after")?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            stage if STAGE_NAMES.contains(&stage) || stage == "all" => {
                which.push(stage.to_string());
            }
            other => return Err(format!("unknown experiment '{other}'")),
        }
    }
    if bench && bench_out.is_none() {
        bench_out = Some(PathBuf::from("BENCH.json"));
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = STAGE_NAMES.iter().map(|s| s.to_string()).collect();
    }
    // Stage names double as convergence phases and checkpoint keys, both
    // of which must be unique: drop repeats, keeping first-run order.
    let mut seen = std::collections::BTreeSet::new();
    which.retain(|w| seen.insert(w.clone()));
    if let Some(halt) = &halt_after {
        if !which.iter().any(|w| w == halt) {
            return Err(format!("--halt-after '{halt}' is not part of this sweep"));
        }
    }
    Ok(Options {
        which,
        mode,
        csv_dir,
        metrics_out,
        trace_out,
        bench_out,
        convergence,
        faults,
        resume,
        halt_after,
    })
}

/// Collects the tables a run produces: prints them, optionally writes the
/// CSVs, and fingerprints every artifact for the run manifest.
struct Driver {
    options: Options,
    artifacts: Vec<Artifact>,
}

/// Tables whose cells contain wall-clock measurements; their manifest
/// entries are flagged volatile so the drift gate checks shape only.
const VOLATILE_ARTIFACTS: &[&str] = &["scaling_classical", "serve_latency"];

impl Driver {
    fn emit(&mut self, name: &str, title: &str, table: Table) {
        println!("== {title} ==\n");
        println!("{}", table.render());
        let csv = table.to_csv();
        self.artifacts.push(Artifact {
            name: format!("{name}.csv"),
            rows: table.num_rows() as u64,
            bytes: csv.len() as u64,
            hash: qjo_obs::fnv1a64_hex(csv.as_bytes()),
            volatile: VOLATILE_ARTIFACTS.contains(&name),
        });
        if let Some(dir) = &self.options.csv_dir {
            let path = dir.join(format!("{name}.csv"));
            match table.write_csv(&path) {
                Ok(()) => qjo_obs::info!("wrote {}", path.display()),
                Err(e) => qjo_obs::error!("failed to write {}: {e}", path.display()),
            }
        }
    }

    /// Like [`Driver::emit`] for non-tabular artifacts (the serving
    /// event logs): fingerprints `text` into the manifest under
    /// `file_name` (verbatim — no `.csv` suffix) and, under `--csv`,
    /// writes it atomically into the output directory. `rows` is the
    /// record count the volatile gate checks.
    fn emit_raw(&mut self, file_name: &str, text: &str, rows: u64, volatile: bool) {
        self.artifacts.push(Artifact {
            name: file_name.to_string(),
            rows,
            bytes: text.len() as u64,
            hash: qjo_obs::fnv1a64_hex(text.as_bytes()),
            volatile,
        });
        if let Some(dir) = &self.options.csv_dir {
            let path = dir.join(file_name);
            if let Err(e) = std::fs::create_dir_all(dir) {
                qjo_obs::error!("failed to create {}: {e}", dir.display());
                return;
            }
            match qjo_resil::atomic_write(&path, text.as_bytes()) {
                Ok(()) => qjo_obs::info!("wrote {}", path.display()),
                Err(e) => qjo_obs::error!("failed to write {}: {e}", path.display()),
            }
        }
    }

    fn run_stage(&mut self, which: &str) {
        let mode = self.options.mode;
        let full = mode == Mode::Full;
        let smoke = mode == Mode::Smoke;
        match which {
            "table1" => {
                let cfg = table1::Table1Config::default();
                self.emit(
                    "table1",
                    "Table 1: original vs pruned MILP model",
                    table1::render(&table1::run(&cfg)),
                );
            }
            "fig2" => {
                let cfg = fig2::Fig2Config {
                    repetitions: if full {
                        20
                    } else if smoke {
                        3
                    } else {
                        10
                    },
                    ..Default::default()
                };
                self.emit(
                    "fig2",
                    "Figure 2: transpiled QAOA circuit depths on IBM Q",
                    fig2::render(&fig2::run(&cfg)),
                );
            }
            "table2" => {
                let cfg = table2::Table2Config {
                    max_predicates: if full { 3 } else { usize::from(!smoke) },
                    trajectories: if full {
                        16
                    } else if smoke {
                        2
                    } else {
                        8
                    },
                    shots: if smoke { 256 } else { 1024 },
                    iteration_budgets: if smoke { vec![20] } else { vec![20, 50] },
                    ..Default::default()
                };
                self.emit(
                    "table2",
                    "Table 2: QAOA solution quality under the Auckland noise model",
                    table2::render(&table2::run(&cfg)),
                );
            }
            "fig3" => {
                let cfg = fig3::Fig3Config {
                    relations: if full {
                        (3..=10).collect()
                    } else if smoke {
                        (3..=4).collect()
                    } else {
                        (3..=6).collect()
                    },
                    pegasus_m: if full {
                        26
                    } else if smoke {
                        8
                    } else {
                        16
                    },
                    threshold_counts: if full {
                        vec![1, 2, 4, 6, 10, 20]
                    } else if smoke {
                        vec![1, 2]
                    } else {
                        vec![1, 2, 4, 6]
                    },
                    ..Default::default()
                };
                self.emit(
                    "fig3",
                    "Figure 3: physical qubits to embed JO on the Pegasus-like annealer",
                    fig3::render(&fig3::run(&cfg)),
                );
            }
            "table3" => {
                let cfg = table3::Table3Config {
                    relations: if smoke { vec![3, 4] } else { vec![3, 4, 5] },
                    annealing_times_us: if smoke {
                        vec![20.0, 100.0]
                    } else {
                        vec![20.0, 60.0, 100.0]
                    },
                    instances: if full {
                        20
                    } else if smoke {
                        2
                    } else {
                        5
                    },
                    num_reads: if full {
                        1000
                    } else if smoke {
                        50
                    } else {
                        200
                    },
                    ..Default::default()
                };
                self.emit(
                    "table3",
                    "Table 3: annealing solution quality (SQA + ICE noise)",
                    table3::render(&table3::run(&cfg)),
                );
            }
            "fig4" => {
                let cfg = fig4::Fig4Config::default();
                self.emit(
                    "fig4",
                    "Figure 4: Theorem 5.3 logical-qubit upper bounds",
                    fig4::render(&fig4::run(&cfg)),
                );
            }
            "fig5" => {
                let cfg = fig5::Fig5Config {
                    relations: if full {
                        vec![3, 4, 5, 6]
                    } else if smoke {
                        vec![3, 4]
                    } else {
                        vec![3, 4, 5]
                    },
                    seeds: if full {
                        5
                    } else if smoke {
                        2
                    } else {
                        3
                    },
                    ..Default::default()
                };
                self.emit(
                    "fig5",
                    "Figure 5: circuit depths on hypothetical co-designed QPUs",
                    fig5::render(&fig5::run(&cfg)),
                );
            }
            "ablation" => {
                let cfg = ablation::AblationConfig {
                    num_reads: if smoke { 50 } else { 200 },
                    instances: if smoke { 1 } else { 3 },
                    ..Default::default()
                };
                self.emit(
                    "ablation_penalty",
                    "Ablation: penalty weight A vs annealed quality",
                    ablation::render_penalty(&ablation::run_penalty(&cfg)),
                );
                self.emit(
                    "ablation_pruning",
                    "Ablation: pruned vs original model, end to end",
                    ablation::render_pruning(&ablation::run_pruning(&cfg)),
                );
                let (noise_factors, noise_shots): (&[f64], usize) = if smoke {
                    (&[0.0, 1.0, 4.0], 256)
                } else {
                    (&[0.0, 0.5, 1.0, 2.0, 4.0], 1024)
                };
                self.emit(
                    "ablation_noise",
                    "Ablation: gate-noise scale vs QAOA quality",
                    ablation::render_noise(&ablation::run_noise(noise_factors, noise_shots, 0)),
                );
            }
            "scaling" => {
                let cfg = scaling::ClassicalScalingConfig {
                    relations: if smoke { vec![6, 10, 14] } else { vec![6, 10, 14, 18, 22] },
                    ..Default::default()
                };
                self.emit(
                    "scaling_classical",
                    "Scaling: classical join-ordering optimisers",
                    scaling::render_classical(&scaling::run_classical(&cfg)),
                );
                self.emit(
                    "scaling_generations",
                    "Scaling: annealer hardware generations (equal 2048-qubit budgets)",
                    scaling::render_generations(&scaling::run_hardware_generations(
                        if smoke { &[3, 4] } else { &[3, 4, 5] },
                        0,
                        16,
                    )),
                );
                let max_p = if full {
                    3
                } else if smoke {
                    1
                } else {
                    2
                };
                self.emit(
                    "scaling_qaoa_depth",
                    "Scaling: QAOA quality vs depth p (noiseless)",
                    scaling::render_qaoa_depth(&scaling::run_qaoa_depth(max_p, 0)),
                );
            }
            "timing" => {
                let cfg = timing::TimingConfig::default();
                self.emit(
                    "timing",
                    "Section 4.2.1: sampling vs total QPU time",
                    timing::render(&timing::run(&cfg)),
                );
            }
            other => unreachable!("stage names are validated in parse_args: {other}"),
        }
    }
}

/// The commit the binary runs from, for the manifest's volatile section.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

// ---------------------------------------------------------------------------
// Per-stage checkpoints (crash-safe resume)

/// Checkpoint document layout version.
const CHECKPOINT_SCHEMA: u64 = 1;

/// Where stage checkpoints live for this invocation's output directory.
fn checkpoint_dir(options: &Options) -> PathBuf {
    options.csv_dir.as_deref().unwrap_or(Path::new("results")).join(".checkpoints")
}

/// Fingerprint of everything that shapes a stage's deterministic output.
///
/// A `--resume` only replays checkpoints carrying the same fingerprint:
/// same mode, same stage list, same fault plan, and the same convergence
/// setting. Deliberately excludes the thread count — results are
/// thread-count invariant, so a sweep may resume at a different
/// `QJO_THREADS`.
fn config_fingerprint(options: &Options, convergence_on: bool) -> String {
    let faults = qjo_resil::fault::active().map(|p| p.render()).unwrap_or_default();
    let text = format!(
        "v{CHECKPOINT_SCHEMA}|{}|{}|{faults}|{convergence_on}",
        options.mode.name(),
        options.which.join(",")
    );
    qjo_obs::fnv1a64_hex(text.as_bytes())
}

/// Everything `--resume` needs to replay one completed stage.
struct StageCheckpoint {
    duration_ms: f64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    artifacts: Vec<Artifact>,
    /// Header-stripped convergence CSV rows, by group.
    convergence: BTreeMap<String, String>,
}

fn artifact_to_json(a: &Artifact) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("name".to_string(), Json::from(a.name.as_str()));
    obj.insert("rows".to_string(), Json::from(a.rows));
    obj.insert("bytes".to_string(), Json::from(a.bytes));
    obj.insert("hash".to_string(), Json::from(a.hash.as_str()));
    if a.volatile {
        obj.insert("volatile".to_string(), Json::Bool(true));
    }
    Json::Obj(obj)
}

fn artifact_from_json(a: &Json) -> Option<Artifact> {
    Some(Artifact {
        name: a.get("name")?.as_str()?.to_string(),
        rows: a.get("rows")?.as_u64()?,
        bytes: a.get("bytes")?.as_u64()?,
        hash: a.get("hash")?.as_str()?.to_string(),
        volatile: matches!(a.get("volatile"), Some(Json::Bool(true))),
    })
}

fn checkpoint_doc(
    fingerprint: &str,
    record: &StageRecord,
    artifacts: &[Artifact],
    convergence: &BTreeMap<String, String>,
) -> Json {
    let gauges = qjo_obs::global().snapshot().gauges;
    let mut root = BTreeMap::new();
    root.insert("schema".to_string(), Json::from(CHECKPOINT_SCHEMA));
    root.insert("fingerprint".to_string(), Json::from(fingerprint));
    root.insert("stage".to_string(), Json::from(record.name.as_str()));
    root.insert("duration_ms".to_string(), Json::from(record.duration_ms));
    root.insert(
        "counters".to_string(),
        Json::Obj(record.counters.iter().map(|(k, &v)| (k.clone(), Json::from(v))).collect()),
    );
    root.insert(
        "gauges".to_string(),
        Json::Obj(gauges.iter().map(|(k, &v)| (k.clone(), Json::from(v))).collect()),
    );
    root.insert(
        "artifacts".to_string(),
        Json::Arr(artifacts.iter().map(artifact_to_json).collect()),
    );
    root.insert(
        "convergence".to_string(),
        Json::Obj(convergence.iter().map(|(k, v)| (k.clone(), Json::from(v.as_str()))).collect()),
    );
    Json::Obj(root)
}

/// Loads and validates the checkpoint for `stage`; any mismatch (absent,
/// torn, wrong schema/fingerprint/stage) means the stage reruns live.
fn load_stage_checkpoint(path: &Path, fingerprint: &str, stage: &str) -> Option<StageCheckpoint> {
    let doc = qjo_resil::checkpoint::load(path).ok()??;
    if doc.get("schema").and_then(Json::as_u64) != Some(CHECKPOINT_SCHEMA)
        || doc.get("fingerprint").and_then(Json::as_str) != Some(fingerprint)
        || doc.get("stage").and_then(Json::as_str) != Some(stage)
    {
        return None;
    }
    let counters = doc
        .get("counters")?
        .as_obj()?
        .iter()
        .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect::<Option<_>>()?;
    let gauges = doc
        .get("gauges")?
        .as_obj()?
        .iter()
        .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect::<Option<_>>()?;
    let artifacts =
        doc.get("artifacts")?.as_arr()?.iter().map(artifact_from_json).collect::<Option<_>>()?;
    let convergence = doc
        .get("convergence")?
        .as_obj()?
        .iter()
        .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
        .collect::<Option<_>>()?;
    Some(StageCheckpoint {
        duration_ms: doc.get("duration_ms").and_then(Json::as_f64).unwrap_or(0.0),
        counters,
        gauges,
        artifacts,
        convergence,
    })
}

/// Replays a checkpointed stage into the live process: counter deltas are
/// re-added, gauges re-set, and artifacts re-fingerprinted from record.
fn replay_stage(ckpt: &StageCheckpoint, name: &str, driver: &mut Driver) -> StageRecord {
    for (counter, &delta) in &ckpt.counters {
        qjo_obs::counter(counter).add(delta);
    }
    for (gauge, &value) in &ckpt.gauges {
        qjo_obs::gauge(gauge).set(value);
    }
    driver.artifacts.extend(ckpt.artifacts.iter().cloned());
    StageRecord {
        name: name.to_string(),
        duration_ms: ckpt.duration_ms,
        counters: ckpt.counters.clone(),
    }
}

// ---------------------------------------------------------------------------
// Convergence (per-stage drain, crash-safe reassembly)

/// Drains the recorder after a stage and restarts it for the next one,
/// returning this stage's header-stripped rows per group. Draining per
/// stage (rather than once at the end) is what makes the curves
/// checkpointable; because rows sort by phase first and each stage is one
/// phase, per-stage blocks concatenated in phase order are byte-identical
/// to a single end-of-run drain.
fn drain_stage_convergence(convergence_on: bool) -> BTreeMap<String, String> {
    if !convergence_on {
        return BTreeMap::new();
    }
    let blocks = qjo_obs::convergence::drain_csv()
        .into_iter()
        .map(|(group, csv)| {
            let body = csv.split_once('\n').map(|(_, b)| b.to_string()).unwrap_or_default();
            (group, body)
        })
        .collect();
    qjo_obs::convergence::start(qjo_obs::convergence::DEFAULT_STRIDE);
    blocks
}

/// Reassembles the final `convergence_<group>.csv` artifacts from the
/// per-stage blocks (live or replayed): fingerprinted in the run manifest
/// (non-volatile — the curves are thread-count independent by
/// construction) and written under `--csv` when set.
fn assemble_convergence(driver: &mut Driver, blocks: &BTreeMap<String, BTreeMap<String, String>>) {
    for (group, phases) in blocks {
        let mut csv = String::from("phase,series,unit,instance,step,value\n");
        for block in phases.values() {
            csv.push_str(block);
        }
        let name = format!("convergence_{group}.csv");
        driver.artifacts.push(Artifact {
            name: name.clone(),
            rows: csv.lines().count().saturating_sub(1) as u64,
            bytes: csv.len() as u64,
            hash: qjo_obs::fnv1a64_hex(csv.as_bytes()),
            volatile: false,
        });
        if let Some(dir) = &driver.options.csv_dir {
            let path = dir.join(&name);
            match qjo_resil::atomic_write(&path, csv.as_bytes()) {
                Ok(()) => qjo_obs::info!("wrote {}", path.display()),
                Err(e) => qjo_obs::error!("failed to write {}: {e}", path.display()),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Final outputs

/// Where the manifest goes; `None` when `QJO_MANIFEST` opts out.
fn manifest_path(options: &Options) -> Option<PathBuf> {
    if let Ok(v) = std::env::var("QJO_MANIFEST") {
        if matches!(v.to_ascii_lowercase().as_str(), "off" | "0" | "false" | "no") {
            return None;
        }
    }
    Some(options.metrics_out.clone().unwrap_or_else(|| {
        options.csv_dir.as_deref().unwrap_or(Path::new("results")).join("run_manifest.json")
    }))
}

fn write_manifest(
    options: &Options,
    stages: Vec<StageRecord>,
    artifacts: Vec<Artifact>,
    total: f64,
) {
    let Some(path) = manifest_path(options) else {
        qjo_obs::debug!("run manifest disabled via QJO_MANIFEST");
        return;
    };
    let mut manifest = RunManifest::default();
    manifest.run.insert("git_rev".to_string(), Json::from(git_rev()));
    manifest
        .run
        .insert("threads".to_string(), Json::from(qjo_exec::Parallelism::auto().resolve() as u64));
    manifest.run.insert("mode".to_string(), Json::from(options.mode.name()));
    manifest.run.insert(
        "experiments".to_string(),
        Json::Arr(options.which.iter().map(|w| Json::from(w.as_str())).collect()),
    );
    if let Some(plan) = qjo_resil::fault::active() {
        manifest.run.insert("faults".to_string(), Json::from(plan.render()));
    }
    if options.resume {
        manifest.run.insert("resumed".to_string(), Json::Bool(true));
    }
    manifest.run.insert("total_duration_ms".to_string(), Json::from((total * 1e3).round() / 1e3));
    manifest.stages = stages;
    manifest.set_metrics(&qjo_obs::global().snapshot());
    manifest.artifacts = artifacts;
    match qjo_resil::atomic_write(&path, manifest.render().as_bytes()) {
        Ok(()) => qjo_obs::info!("wrote {}", path.display()),
        Err(e) => qjo_obs::error!("failed to write {}: {e}", path.display()),
    }
}

/// `manifest-diff BASELINE CURRENT`: compare deterministic sections, exit
/// 1 on drift. Drift is reported as a per-key table of expected
/// (baseline) vs. actual (current) values.
fn manifest_diff(baseline_path: &str, current_path: &str) -> ! {
    let load = |p: &str| -> RunManifest {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            qjo_obs::error!("cannot read manifest {p}: {e}");
            std::process::exit(2);
        });
        RunManifest::parse(&text).unwrap_or_else(|e| {
            qjo_obs::error!("cannot parse manifest {p}: {e}");
            std::process::exit(2);
        })
    };
    let entries = qjo_obs::manifest::diff_entries(&load(baseline_path), &load(current_path));
    if entries.is_empty() {
        qjo_obs::info!("no drift: {current_path} matches {baseline_path}");
        std::process::exit(0);
    }
    qjo_obs::error!(
        "{} drift finding(s) between {baseline_path} and {current_path}:",
        entries.len()
    );
    for line in qjo_obs::manifest::render_drift_table(&entries).lines() {
        qjo_obs::error!("  {line}");
    }
    std::process::exit(1);
}

/// Work rates whose regression fails `bench-compare`. The shot hot path
/// dominates the smoke profile's quantum stages; the gradient-descent
/// iteration rate gates the QAOA parameter loop and its level-indexed
/// cost layer; the SQA sweep and anneal read rates gate the packed
/// bit-parallel annealing kernel. Each floor keeps a future change from
/// silently giving back its speedup. The two serving rates
/// gate the request loop: `serve.requests_per_sec` is its throughput and
/// `serve.cache_hit_rate` the fraction of formulations answered from the
/// content-addressed cache (a ratio in [0, 1], not a per-second rate —
/// the same 2× allowance applies). All are stable enough that a 2× drop
/// clears run-to-run noise on the 1-core CI runner. The other
/// `RATE_PAIRS` are reported informationally.
const GATED_RATES: &[&str] = &[
    "gatesim.shots_per_sec",
    "gatesim.gd_iterations_per_sec",
    "sqa.sweeps_per_sec",
    "anneal.reads_per_sec",
    "serve.requests_per_sec",
    "serve.cache_hit_rate",
    "robust.evals_per_sec",
];

/// Timing noise allowance: fail only when a gated rate falls below half
/// its baseline. Wall-clock rates on a shared 1-core runner jitter far
/// too much for a tight threshold, and genuine hot-path regressions land
/// well past 2×.
const MAX_REGRESSION: f64 = 2.0;

/// Wall-clock budget: fail when the current run's total wall time exceeds
/// this multiple of the committed baseline's — the backstop that keeps a
/// creeping smoke sweep from quietly eating the CI budget even while
/// every individual work rate stays inside its own allowance.
const WALL_BUDGET_FACTOR: f64 = 2.0;

/// What one `bench-compare` concluded: informational lines plus the
/// findings that fail the gate.
#[derive(Debug, Default)]
struct BenchComparison {
    notes: Vec<String>,
    failures: Vec<String>,
}

/// The testable core of `bench-compare`: diff the work rates of two
/// parsed `BENCH.json` documents and check the wall-clock budget.
/// `Err` means a snapshot is structurally unusable (no rates section).
fn compare_bench_docs(baseline: &Json, current: &Json) -> Result<BenchComparison, String> {
    let rates_of = |doc: &Json, which: &str| -> Result<BTreeMap<String, f64>, String> {
        let obj = doc
            .get("rates")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{which} snapshot has no rates section"))?;
        Ok(obj.iter().filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f))).collect())
    };
    let base_rates = rates_of(baseline, "baseline")?;
    let cur_rates = rates_of(current, "current")?;
    let mut out = BenchComparison::default();
    for (name, &base) in &base_rates {
        let Some(&cur) = cur_rates.get(name) else {
            // A *gated* rate vanishing is worse than it regressing: the
            // instrumented path stopped reporting (renamed counter, dead
            // span, dropped stage), which is exactly what the gate exists
            // to catch — an informational note here would let the gate
            // silently stop gating.
            if GATED_RATES.contains(&name.as_str()) {
                out.failures.push(format!(
                    "rate {name}: gate disappeared — present in baseline ({base:.1}), missing from current"
                ));
            } else {
                out.notes.push(format!("rate {name}: present in baseline, missing from current"));
            }
            continue;
        };
        let ratio = cur / base;
        let gated = GATED_RATES.contains(&name.as_str());
        if gated && base > 0.0 && ratio < 1.0 / MAX_REGRESSION {
            out.failures.push(format!(
                "rate {name} regressed {:.2}×: {base:.1} -> {cur:.1} (gated, allowance {MAX_REGRESSION}×)",
                base / cur
            ));
        } else {
            out.notes.push(format!(
                "rate {name}: {base:.1} -> {cur:.1} ({ratio:.2}×{})",
                if gated { ", gated" } else { "" }
            ));
        }
    }
    for name in cur_rates.keys().filter(|n| !base_rates.contains_key(*n)) {
        out.notes.push(format!("rate {name}: new in current"));
    }
    let total_ms =
        |doc: &Json| doc.get("run").and_then(|r| r.get("total_ms")).and_then(Json::as_f64);
    match (total_ms(baseline), total_ms(current)) {
        (Some(base), Some(cur)) if base > 0.0 => {
            if cur > base * WALL_BUDGET_FACTOR {
                out.failures.push(format!(
                    "wall-clock budget exceeded: {cur:.0} ms > {WALL_BUDGET_FACTOR}× baseline {base:.0} ms"
                ));
            } else {
                out.notes.push(format!(
                    "wall clock: {base:.0} ms -> {cur:.0} ms (budget {WALL_BUDGET_FACTOR}×)"
                ));
            }
        }
        _ => out
            .notes
            .push("wall clock: total_ms missing from a snapshot, budget not checked".to_string()),
    }
    Ok(out)
}

/// `bench-compare BASELINE CURRENT`: compare the work rates and total
/// wall time of two `BENCH.json` snapshots. Exits 1 if a gated rate
/// regressed by more than the 2× noise allowance or the wall-clock
/// budget is blown, 2 if either file is unreadable, 0 otherwise.
fn bench_compare(baseline_path: &str, current_path: &str) -> ! {
    let load = |p: &str| -> Json {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            qjo_obs::error!("cannot read bench snapshot {p}: {e}");
            std::process::exit(2);
        });
        Json::parse(&text).unwrap_or_else(|e| {
            qjo_obs::error!("cannot parse bench snapshot {p}: {e}");
            std::process::exit(2);
        })
    };
    let comparison =
        compare_bench_docs(&load(baseline_path), &load(current_path)).unwrap_or_else(|e| {
            qjo_obs::error!("bench-compare: {e}");
            std::process::exit(2);
        });
    for note in &comparison.notes {
        qjo_obs::info!("{note}");
    }
    for failure in &comparison.failures {
        qjo_obs::error!("{failure}");
    }
    if !comparison.failures.is_empty() {
        qjo_obs::error!("bench-compare: gate failed against {baseline_path}");
        std::process::exit(1);
    }
    qjo_obs::info!("bench-compare: no gated regression vs {baseline_path}");
    std::process::exit(0);
}

/// `trace-check TRACE`: parse a Chrome trace JSON and verify its slices
/// nest. Exit 0 on a valid trace, 1 on an invalid one, 2 if unreadable.
fn trace_check(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        qjo_obs::error!("cannot read trace {path}: {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        qjo_obs::error!("trace {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    match qjo_obs::trace::validate_chrome_trace(&doc) {
        Ok(check) => {
            qjo_obs::info!(
                "trace OK: {} slices across {} threads nest to depth {} in {path}",
                check.events,
                check.threads,
                check.max_depth
            );
            std::process::exit(0);
        }
        Err(e) => {
            qjo_obs::error!("trace {path} is malformed: {e}");
            std::process::exit(1);
        }
    }
}

/// The testable core of `events-check`: parse every non-empty line of a
/// `serve_events.jsonl` file and verify the cross-record invariants.
/// `Err` carries one message per finding. The invariants are only
/// checked when every line parsed — a malformed line already fails the
/// gate, and a hole in the stream would trip the density check twice.
fn check_events_text(text: &str) -> Result<Vec<qjo_serve::ServeEvent>, Vec<String>> {
    let mut events = Vec::new();
    let mut findings = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match qjo_serve::parse_event(line) {
            Ok(event) => events.push(event),
            Err(e) => findings.push(format!("line {}: {e}", i + 1)),
        }
    }
    if findings.is_empty() {
        findings = qjo_serve::validate_events(&events);
    }
    if findings.is_empty() {
        Ok(events)
    } else {
        Err(findings)
    }
}

/// `events-check EVENTS [--canonical OUT]`: validate a per-request event
/// log (schema + cross-record invariants). Exit 0 on a valid log, 1 on
/// an invalid one, 2 if a file cannot be read or written. With
/// `--canonical OUT`, additionally writes the latency-free canonical
/// projection — the byte-diffable deterministic view.
fn events_check(path: &str, canonical: Option<&str>) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        qjo_obs::error!("cannot read event log {path}: {e}");
        std::process::exit(2);
    });
    let events = match check_events_text(&text) {
        Ok(events) => events,
        Err(findings) => {
            qjo_obs::error!("event log {path} is invalid ({} finding(s)):", findings.len());
            for finding in findings {
                qjo_obs::error!("  {finding}");
            }
            std::process::exit(1);
        }
    };
    let slo_classed = events.iter().filter(|e| e.slo.is_some()).count();
    let degraded = events.iter().filter(|e| e.outcome == "fallback").count();
    qjo_obs::info!(
        "events OK: {} records ({slo_classed} SLO-classed, {degraded} degraded) in {path}",
        events.len()
    );
    if let Some(out) = canonical {
        let rendered = qjo_serve::events::render_canonical(&events);
        if let Err(e) = qjo_resil::atomic_write(Path::new(out), rendered.as_bytes()) {
            qjo_obs::error!("cannot write canonical projection {out}: {e}");
            std::process::exit(2);
        }
        qjo_obs::info!("wrote {out}");
    }
    std::process::exit(0);
}

/// Formats one JSON number the way the stats snapshot means it: counters
/// print as integers, rates keep their fraction.
fn render_stat_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The testable core of `stats-render`: format a stats snapshot (the
/// JSON a `{"cmd": "stats"}` line answers with, or `serve_stats.json`)
/// as Prometheus-style exposition followed by a human table. `Err` means
/// the document is not a stats snapshot.
fn render_stats(doc: &Json) -> Result<String, String> {
    let counters = doc
        .get("counters")
        .and_then(Json::as_obj)
        .ok_or("stats snapshot has no counters section")?;
    // Prometheus metric names: dots and dashes become underscores.
    let sanitize = |name: &str| {
        name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect::<String>()
    };
    let mut exposition = String::new();
    let mut table = Table::new(vec!["metric", "value"]);
    for (name, value) in counters {
        let Some(v) = value.as_f64() else { continue };
        exposition.push_str(&format!("qjo_{} {}\n", sanitize(name), render_stat_num(v)));
        table.push_row(vec![name.clone(), render_stat_num(v)]);
    }
    for section in ["cache", "events"] {
        let Some(obj) = doc.get(section).and_then(Json::as_obj) else { continue };
        for (field, value) in obj {
            // Unobserved rates render as JSON null; skip them.
            let Some(v) = value.as_f64() else { continue };
            exposition.push_str(&format!(
                "qjo_serve_{section}_{} {}\n",
                sanitize(field),
                render_stat_num(v)
            ));
            table.push_row(vec![format!("{section}.{field}"), render_stat_num(v)]);
        }
    }
    Ok(format!("{exposition}\n== Serving stats ==\n\n{}", table.render()))
}

/// `stats-render STATS`: format a stats snapshot as Prometheus-style
/// exposition plus a human table. Exit 0 on success, 1 if the document
/// is not a stats snapshot, 2 if the file is unreadable.
fn stats_render(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        qjo_obs::error!("cannot read stats snapshot {path}: {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(text.trim()).unwrap_or_else(|e| {
        qjo_obs::error!("stats snapshot {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    match render_stats(&doc) {
        Ok(rendered) => {
            println!("{rendered}");
            std::process::exit(0);
        }
        Err(e) => {
            qjo_obs::error!("stats snapshot {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Stops the trace collector and writes the Chrome trace when requested
/// (atomically, like every other artifact), returning collector
/// statistics for `BENCH.json`.
fn finish_trace(options: &Options) -> Option<qjo_obs::trace::TraceStats> {
    options.trace_out.as_ref().map(|path| {
        qjo_obs::trace::stop();
        let stats = qjo_obs::trace::stats();
        match qjo_resil::atomic_write(path, qjo_obs::trace::to_chrome_json().render().as_bytes()) {
            Ok(()) => qjo_obs::info!(
                "wrote {} ({} events, {} dropped, peak buffer occupancy {})",
                path.display(),
                stats.stored,
                stats.dropped,
                stats.peak_occupancy
            ),
            Err(e) => qjo_obs::error!("failed to write {}: {e}", path.display()),
        }
        stats
    })
}

/// Counter / span pairs whose ratio is a meaningful work rate, and the
/// rate's name in `BENCH.json` (work units per wall-clock second spent
/// inside the span).
const RATE_PAIRS: &[(&str, &str, &str)] = &[
    ("anneal.reads", "anneal.sample", "anneal.reads_per_sec"),
    ("gatesim.gd_iterations", "gatesim.optim.gd", "gatesim.gd_iterations_per_sec"),
    ("gatesim.shots", "gatesim.noisy.sample", "gatesim.shots_per_sec"),
    ("robust.evals", "robust.eval", "robust.evals_per_sec"),
    ("sa.sweeps", "qubo.sa.sample", "sa.sweeps_per_sec"),
    ("serve.requests", "serve.request", "serve.requests_per_sec"),
    ("sqa.sweeps", "anneal.sample", "sqa.sweeps_per_sec"),
    ("tabu.iterations", "qubo.tabu.solve", "tabu.iterations_per_sec"),
    ("transpile.runs", "transpile.run", "transpile.runs_per_sec"),
];

/// Schema version of `BENCH.json`.
const BENCH_SCHEMA_VERSION: u64 = 1;

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// Writes `BENCH.json`: the per-run performance trajectory record (wall
/// times, work rates, span percentiles, trace-buffer statistics). All
/// values here are timing-derived and therefore volatile — `BENCH.json`
/// is never diffed, only archived per PR for trend analysis.
fn write_bench(
    options: &Options,
    stages: &[StageRecord],
    total_ms: f64,
    trace_stats: Option<qjo_obs::trace::TraceStats>,
) {
    let Some(path) = &options.bench_out else {
        return;
    };
    let snapshot = qjo_obs::global().snapshot();
    let mut root = BTreeMap::new();
    root.insert("schema_version".to_string(), Json::from(BENCH_SCHEMA_VERSION));

    let mut run = BTreeMap::new();
    run.insert("git_rev".to_string(), Json::from(git_rev()));
    run.insert("threads".to_string(), Json::from(qjo_exec::Parallelism::auto().resolve() as u64));
    run.insert("mode".to_string(), Json::from(options.mode.name()));
    run.insert("total_ms".to_string(), Json::from(round3(total_ms)));
    root.insert("run".to_string(), Json::Obj(run));

    let stage_list = stages
        .iter()
        .map(|stage| {
            let mut obj = BTreeMap::new();
            obj.insert("name".to_string(), Json::from(stage.name.as_str()));
            obj.insert("duration_ms".to_string(), Json::from(round3(stage.duration_ms)));
            Json::Obj(obj)
        })
        .collect();
    root.insert("stages".to_string(), Json::Arr(stage_list));

    let mut rates = BTreeMap::new();
    for &(counter, span, rate) in RATE_PAIRS {
        let Some(&work) = snapshot.counters.get(counter) else { continue };
        // Spans nest into slash-separated paths (one histogram per call
        // path), so total the span's time across every path it appears in.
        let suffix = format!("/{span}");
        let span_ns: u64 = snapshot
            .histograms
            .iter()
            .filter(|(path, _)| path.as_str() == span || path.ends_with(&suffix))
            .map(|(_, h)| h.sum_ns)
            .sum();
        if work == 0 || span_ns == 0 {
            continue;
        }
        rates.insert(rate.to_string(), Json::from(round3(work as f64 / (span_ns as f64 / 1e9))));
    }
    // Not a counter/span pair: the formulation-cache hit *ratio*,
    // hits / (hits + misses). It rides in the rates section so
    // `bench-compare` gates it with the same machinery.
    let cache = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let (hits, misses) = (cache("serve.cache.hit"), cache("serve.cache.miss"));
    if hits + misses > 0 {
        rates.insert(
            "serve.cache_hit_rate".to_string(),
            Json::from(round3(hits as f64 / (hits + misses) as f64)),
        );
    }
    root.insert("rates".to_string(), Json::Obj(rates));

    let spans = snapshot
        .histograms
        .iter()
        .map(|(span_path, h)| {
            let mut obj = BTreeMap::new();
            obj.insert("count".to_string(), Json::from(h.count));
            obj.insert("total_ms".to_string(), Json::from(round3(h.sum_ns as f64 / 1e6)));
            obj.insert("p50_ms".to_string(), Json::from(round3(h.percentile_ms(0.50))));
            obj.insert("p90_ms".to_string(), Json::from(round3(h.percentile_ms(0.90))));
            obj.insert("p99_ms".to_string(), Json::from(round3(h.percentile_ms(0.99))));
            (span_path.clone(), Json::Obj(obj))
        })
        .collect();
    root.insert("spans".to_string(), Json::Obj(spans));

    root.insert(
        "counters".to_string(),
        Json::Obj(snapshot.counters.iter().map(|(k, &v)| (k.clone(), Json::from(v))).collect()),
    );

    if let Some(stats) = trace_stats {
        let mut t = BTreeMap::new();
        t.insert("events".to_string(), Json::from(stats.stored));
        t.insert("recorded".to_string(), Json::from(stats.recorded));
        t.insert("dropped".to_string(), Json::from(stats.dropped));
        t.insert("peak_occupancy".to_string(), Json::from(stats.peak_occupancy));
        root.insert("trace".to_string(), Json::Obj(t));
    }

    match qjo_resil::atomic_write(path, Json::Obj(root).render().as_bytes()) {
        Ok(()) => qjo_obs::info!("wrote {}", path.display()),
        Err(e) => qjo_obs::error!("failed to write {}: {e}", path.display()),
    }
}

/// Arguments of the `serve-bench` subcommand.
#[derive(Debug)]
struct ServeBenchOptions {
    seed: u64,
    csv_dir: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    bench_out: Option<PathBuf>,
    /// Fail the run unless a cached embedding served at least this many
    /// times faster (p50) than a cold embed. `None` reports only.
    min_embed_speedup: Option<f64>,
}

/// Parses `serve-bench` arguments. `--smoke` is accepted (and implied:
/// the committed smoke mixes are the only profile) so the subcommand
/// composes with CI recipes that pass the mode everywhere.
fn parse_serve_args(raw: &[String]) -> Result<ServeBenchOptions, String> {
    let mut opts = ServeBenchOptions {
        seed: 7,
        csv_dir: None,
        metrics_out: None,
        bench_out: None,
        min_embed_speedup: None,
    };
    let mut args = raw.iter();
    while let Some(arg) = args.next() {
        let mut value =
            |flag: &str| args.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
        match arg.as_str() {
            "--smoke" => {}
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed must be an unsigned integer: {e}"))?;
            }
            "--csv" => opts.csv_dir = Some(PathBuf::from(value("--csv")?)),
            "--metrics-out" => opts.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--bench-out" => opts.bench_out = Some(PathBuf::from(value("--bench-out")?)),
            "--min-embed-speedup" => {
                let v: f64 = value("--min-embed-speedup")?
                    .parse()
                    .map_err(|e| format!("--min-embed-speedup must be a number: {e}"))?;
                if !(v.is_finite() && v >= 1.0) {
                    return Err("--min-embed-speedup must be a finite factor >= 1".to_string());
                }
                opts.min_embed_speedup = Some(v);
            }
            other => return Err(format!("serve-bench: unknown argument '{other}'")),
        }
    }
    Ok(opts)
}

/// `serve-bench`: run the seeded serving benchmark and emit its
/// artifacts through the same driver machinery as the sweep (report +
/// latency CSVs, run manifest, optional `BENCH.json`). Exits 1 when
/// `--min-embed-speedup` is given and the embedding cache under-delivers.
fn run_serve_bench(sopts: ServeBenchOptions) -> ! {
    let options = Options {
        which: vec!["serve".to_string()],
        mode: Mode::Smoke,
        csv_dir: sopts.csv_dir,
        metrics_out: sopts.metrics_out,
        trace_out: None,
        bench_out: sopts.bench_out,
        convergence: false,
        faults: None,
        resume: false,
        halt_after: None,
    };
    let run_start = Instant::now();
    let before = qjo_obs::global().snapshot();
    let mut driver = Driver { options, artifacts: Vec::new() };
    let cfg = qjo_bench::serve_bench::ServeBenchConfig { seed: sopts.seed };
    let stage_start = Instant::now();
    let result = {
        let _span = qjo_obs::span!("experiments.stage");
        qjo_bench::serve_bench::run(&cfg, qjo_exec::Parallelism::auto())
    };
    let elapsed = stage_start.elapsed();
    driver.emit(
        "serve_report",
        "Serving: deterministic per-backend report",
        qjo_bench::serve_bench::render_report(&result.report),
    );
    driver.emit(
        "serve_latency",
        "Serving: wall-clock latency percentiles (volatile)",
        qjo_bench::serve_bench::render_latency(&result.latency),
    );
    // The per-request telemetry: the full event log carries wall-clock
    // latencies (volatile, gated on record count); its canonical
    // projection and the final stats snapshot are pure functions of the
    // request stream and drift-gate byte-for-byte.
    let rows = result.events.len() as u64;
    driver.emit_raw(
        "serve_events.jsonl",
        &qjo_serve::events::render_log(&result.events),
        rows,
        true,
    );
    driver.emit_raw(
        "serve_events.canonical.jsonl",
        &qjo_serve::events::render_canonical(&result.events),
        rows,
        false,
    );
    driver.emit_raw("serve_stats.json", &format!("{}\n", result.stats.render()), 1, false);
    let stages = vec![StageRecord {
        name: "serve".to_string(),
        duration_ms: elapsed.as_secs_f64() * 1e3,
        counters: qjo_obs::global().snapshot().counter_deltas_since(&before),
    }];
    qjo_obs::info!("[serve took {elapsed:.1?}] ({} requests)", result.requests);
    let total_ms = run_start.elapsed().as_secs_f64() * 1e3;
    let Driver { options, artifacts } = driver;
    write_bench(&options, &stages, total_ms, None);
    write_manifest(&options, stages, artifacts, total_ms);
    match result.embed_speedup {
        Some(speedup) => {
            qjo_obs::info!("embedding cache speedup: cold p50 / warm p50 = {speedup:.1}×");
            if let Some(min) = sopts.min_embed_speedup {
                if speedup < min {
                    qjo_obs::error!(
                        "embedding cache speedup {speedup:.1}× is below the required {min:.1}×"
                    );
                    std::process::exit(1);
                }
            }
        }
        None => {
            if let Some(min) = sopts.min_embed_speedup {
                qjo_obs::error!(
                    "embedding speedup gate ({min:.1}×) requires both cold and warm annealer \
                     requests, but the mix produced no such pair"
                );
                std::process::exit(1);
            }
            qjo_obs::info!("embedding cache speedup: not observed (no cold/warm pair)");
        }
    }
    std::process::exit(0);
}

#[derive(Debug)]
struct RobustBenchOptions {
    seed: u64,
    instances: usize,
    csv_dir: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    bench_out: Option<PathBuf>,
    faults: Option<String>,
}

/// Parses `robustness-bench` arguments. `--smoke` is accepted and
/// implied — the q-error sweep is the only profile. `--faults` is
/// honoured here (unlike the other benches) because the chaos-compose
/// CI step runs this subcommand under the committed fault plan.
fn parse_robust_args(raw: &[String]) -> Result<RobustBenchOptions, String> {
    let mut opts = RobustBenchOptions {
        seed: 7,
        instances: 2,
        csv_dir: None,
        metrics_out: None,
        bench_out: None,
        faults: None,
    };
    let mut args = raw.iter();
    while let Some(arg) = args.next() {
        let mut value =
            |flag: &str| args.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
        match arg.as_str() {
            "--smoke" => {}
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed must be an unsigned integer: {e}"))?;
            }
            "--instances" => {
                opts.instances = value("--instances")?
                    .parse()
                    .map_err(|e| format!("--instances must be a positive integer: {e}"))?;
                if opts.instances == 0 {
                    return Err("--instances must be at least 1".to_string());
                }
            }
            "--csv" => opts.csv_dir = Some(PathBuf::from(value("--csv")?)),
            "--metrics-out" => opts.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--bench-out" => opts.bench_out = Some(PathBuf::from(value("--bench-out")?)),
            "--faults" => opts.faults = Some(value("--faults")?),
            other => return Err(format!("robustness-bench: unknown argument '{other}'")),
        }
    }
    Ok(opts)
}

/// `robustness-bench`: the cardinality-misestimation degradation sweep.
/// Every backend (`auto` included) optimises each schema
/// instance under the true statistics and under q-error-injected
/// estimates; both plans re-cost under the truth and the report carries
/// the degradation ratios. Exits 1 when any q-error-1 cell deviates from
/// a degradation of exactly 1.0 — the sweep's built-in self-check.
fn run_robustness_bench(ropts: RobustBenchOptions) -> ! {
    // The main() fault hook only covers the sweep route, so this
    // subcommand installs its own plan: --faults wins over QJO_FAULTS.
    if let Some(spec) = &ropts.faults {
        match qjo_resil::FaultPlan::parse(spec) {
            Ok(plan) => qjo_resil::fault::install(plan),
            Err(e) => {
                eprintln!("error: --faults: {e}");
                std::process::exit(2);
            }
        }
    } else if let Err(e) = qjo_resil::fault::install_from_env() {
        eprintln!("error: QJO_FAULTS: {e}");
        std::process::exit(2);
    }
    if let Some(plan) = qjo_resil::fault::active() {
        qjo_obs::info!("fault injection active: {}", plan.render());
    }
    let options = Options {
        which: vec!["robust".to_string()],
        mode: Mode::Smoke,
        csv_dir: ropts.csv_dir,
        metrics_out: ropts.metrics_out,
        trace_out: None,
        bench_out: ropts.bench_out,
        convergence: false,
        faults: None,
        resume: false,
        halt_after: None,
    };
    let run_start = Instant::now();
    let before = qjo_obs::global().snapshot();
    let mut driver = Driver { options, artifacts: Vec::new() };
    let cfg = qjo_bench::robustness::RobustnessConfig {
        seed: ropts.seed,
        instances: ropts.instances,
        ..Default::default()
    };
    let stage_start = Instant::now();
    let result = {
        let _span = qjo_obs::span!("experiments.stage");
        qjo_bench::robustness::run(&cfg, qjo_exec::Parallelism::auto())
    };
    let elapsed = stage_start.elapsed();
    driver.emit(
        "robustness_report",
        "Robustness: plan-cost degradation under cardinality misestimation",
        qjo_bench::robustness::render_report(&result.report),
    );
    driver.emit(
        "robustness_curve",
        "Robustness: per-instance degradation curve",
        qjo_bench::robustness::render_curve(&result.curve),
    );
    let stages = vec![StageRecord {
        name: "robust".to_string(),
        duration_ms: elapsed.as_secs_f64() * 1e3,
        counters: qjo_obs::global().snapshot().counter_deltas_since(&before),
    }];
    qjo_obs::info!(
        "[robust took {elapsed:.1?}] ({} cells, worst q-error {:.2})",
        result.report.len(),
        qjo_obs::gauge("robust.qerror").get()
    );
    let total_ms = run_start.elapsed().as_secs_f64() * 1e3;
    let Driver { options, artifacts } = driver;
    write_bench(&options, &stages, total_ms, None);
    write_manifest(&options, stages, artifacts, total_ms);
    let gate = &result.gate;
    qjo_obs::info!(
        "unity gate: {} q-error-1 cells checked, {} violations",
        gate.checked,
        gate.violations.len()
    );
    if !gate.pass {
        for v in &gate.violations {
            qjo_obs::error!("unity violation: {v}");
        }
        qjo_obs::error!(
            "robustness unity gate failed: every backend must degrade by exactly 1.0 \
             when the estimates equal the truth"
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let options = match route(&raw).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }) {
        Route::ManifestDiff(baseline, current) => manifest_diff(&baseline, &current),
        Route::TraceCheck(trace) => trace_check(&trace),
        Route::BenchCompare(baseline, current) => bench_compare(&baseline, &current),
        Route::ServeBench(sopts) => run_serve_bench(sopts),
        Route::RobustnessBench(ropts) => run_robustness_bench(ropts),
        Route::EventsCheck { events, canonical } => events_check(&events, canonical.as_deref()),
        Route::StatsRender(stats) => stats_render(&stats),
        Route::Sweep(options) => options,
    };

    // Fault plan: --faults wins over QJO_FAULTS; a malformed spec from
    // either source is a usage error.
    if let Some(spec) = &options.faults {
        match qjo_resil::FaultPlan::parse(spec) {
            Ok(plan) => qjo_resil::fault::install(plan),
            Err(e) => {
                eprintln!("error: --faults: {e}");
                std::process::exit(2);
            }
        }
    } else if let Err(e) = qjo_resil::fault::install_from_env() {
        eprintln!("error: QJO_FAULTS: {e}");
        std::process::exit(2);
    }
    if let Some(plan) = qjo_resil::fault::active() {
        qjo_obs::info!("fault injection active: {}", plan.render());
    }

    let tracing = options.trace_out.is_some();
    if tracing {
        qjo_obs::trace::start(qjo_obs::trace::DEFAULT_THREAD_CAPACITY);
    }
    // Smoke runs always record convergence so the committed smoke baseline
    // gates on the curves; other modes opt in with --convergence.
    let convergence_on = options.convergence || options.mode == Mode::Smoke;
    if convergence_on {
        qjo_obs::convergence::start(qjo_obs::convergence::DEFAULT_STRIDE);
    }

    let ckpt_dir = checkpoint_dir(&options);
    let fingerprint = config_fingerprint(&options, convergence_on);
    if !options.resume {
        // A fresh run owes nothing to previous partial sweeps.
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    let run_start = Instant::now();
    let mut driver = Driver { options, artifacts: Vec::new() };
    let mut stages = Vec::new();
    // group -> phase (stage) -> header-stripped CSV rows.
    let mut convergence_blocks: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    let mut replaying = driver.options.resume;
    let mut halted = false;
    for which in driver.options.which.clone() {
        let ckpt_path = ckpt_dir.join(format!("{which}.json"));
        if replaying {
            if let Some(ckpt) = load_stage_checkpoint(&ckpt_path, &fingerprint, &which) {
                for (group, block) in &ckpt.convergence {
                    convergence_blocks
                        .entry(group.clone())
                        .or_default()
                        .insert(which.clone(), block.clone());
                }
                stages.push(replay_stage(&ckpt, &which, &mut driver));
                qjo_obs::info!("[{which} replayed from checkpoint]");
                if driver.options.halt_after.as_deref() == Some(which.as_str()) {
                    halted = true;
                    break;
                }
                continue;
            }
            // First missing or stale checkpoint: everything from here on
            // runs live (later checkpoints, if any, are now meaningless).
            replaying = false;
        }
        let artifacts_before = driver.artifacts.len();
        let before = qjo_obs::global().snapshot();
        let start = Instant::now();
        {
            let _span = qjo_obs::span!("experiments.stage");
            let _slice = tracing.then(|| qjo_obs::trace::slice_scope(format!("stage:{which}")));
            if convergence_on {
                qjo_obs::convergence::set_phase(&which);
            }
            driver.run_stage(&which);
        }
        let elapsed = start.elapsed();
        let stage_blocks = drain_stage_convergence(convergence_on);
        for (group, block) in &stage_blocks {
            convergence_blocks
                .entry(group.clone())
                .or_default()
                .insert(which.clone(), block.clone());
        }
        let record = StageRecord {
            name: which.clone(),
            duration_ms: elapsed.as_secs_f64() * 1e3,
            counters: qjo_obs::global().snapshot().counter_deltas_since(&before),
        };
        let doc = checkpoint_doc(
            &fingerprint,
            &record,
            &driver.artifacts[artifacts_before..],
            &stage_blocks,
        );
        if let Err(e) = qjo_resil::checkpoint::save(&ckpt_path, &doc) {
            qjo_obs::warn!("failed to checkpoint {which}: {e}");
        }
        stages.push(record);
        qjo_obs::info!("[{which} took {elapsed:.1?}]");
        if driver.options.halt_after.as_deref() == Some(which.as_str()) {
            halted = true;
            break;
        }
    }
    if halted {
        // Simulated crash: keep the checkpoints, skip the final outputs —
        // exactly what a kill -9 after the last checkpoint write leaves.
        let halt = driver.options.halt_after.as_deref().unwrap_or_default();
        qjo_obs::info!("halted after {halt}; resume with --resume");
        return;
    }
    assemble_convergence(&mut driver, &convergence_blocks);
    let trace_stats = finish_trace(&driver.options);
    let total_ms = run_start.elapsed().as_secs_f64() * 1e3;
    let Driver { options, artifacts } = driver;
    write_bench(&options, &stages, total_ms, trace_stats);
    write_manifest(&options, stages, artifacts, total_ms);
    // The sweep finished and every output is on disk: the checkpoints
    // have served their purpose.
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_args_expands_to_every_stage() {
        let opts = parse_args(&[]).unwrap();
        assert_eq!(opts.which, STAGE_NAMES.to_vec());
        assert_eq!(opts.mode, Mode::Default);
        assert!(opts.csv_dir.is_none() && opts.faults.is_none() && !opts.resume);
    }

    #[test]
    fn flags_and_stage_selection_parse() {
        let opts = parse_args(&args(&[
            "table1",
            "fig3",
            "--smoke",
            "--csv",
            "out",
            "--faults",
            "seed=7;io.write=0.5",
            "--resume",
            "--halt-after",
            "fig3",
        ]))
        .unwrap();
        assert_eq!(opts.which, vec!["table1", "fig3"]);
        assert_eq!(opts.mode, Mode::Smoke);
        assert_eq!(opts.csv_dir.as_deref(), Some(Path::new("out")));
        assert_eq!(opts.faults.as_deref(), Some("seed=7;io.write=0.5"));
        assert!(opts.resume);
        assert_eq!(opts.halt_after.as_deref(), Some("fig3"));
    }

    #[test]
    fn bench_keyword_defaults_the_bench_output() {
        let opts = parse_args(&args(&["bench", "table1"])).unwrap();
        assert_eq!(opts.bench_out.as_deref(), Some(Path::new("BENCH.json")));
        let opts = parse_args(&args(&["bench", "--bench-out", "x.json"])).unwrap();
        assert_eq!(opts.bench_out.as_deref(), Some(Path::new("x.json")));
    }

    #[test]
    fn repeated_stages_are_deduplicated_in_order() {
        let opts = parse_args(&args(&["fig3", "table1", "fig3", "table1"])).unwrap();
        assert_eq!(opts.which, vec!["fig3", "table1"]);
    }

    #[test]
    fn missing_flag_values_are_errors_not_panics() {
        for flag in
            ["--csv", "--metrics-out", "--trace-out", "--bench-out", "--faults", "--halt-after"]
        {
            let err = parse_args(&args(&[flag])).unwrap_err();
            assert!(err.contains(flag), "{flag}: {err}");
            assert!(err.contains("requires a value"), "{flag}: {err}");
        }
    }

    #[test]
    fn unknown_input_is_rejected() {
        assert!(parse_args(&args(&["--frobnicate"])).unwrap_err().contains("unknown flag"));
        assert!(parse_args(&args(&["table9"])).unwrap_err().contains("unknown experiment"));
    }

    #[test]
    fn halt_after_must_name_a_selected_stage() {
        let err = parse_args(&args(&["table1", "--halt-after", "fig3"])).unwrap_err();
        assert!(err.contains("not part of this sweep"), "{err}");
        // With the implicit `all` expansion every stage qualifies.
        assert!(parse_args(&args(&["--halt-after", "fig3"])).is_ok());
        // But a non-stage name is caught even before membership.
        assert!(parse_args(&args(&["--halt-after", "nope"])).is_err());
    }

    #[test]
    fn checkpoint_documents_round_trip() {
        let record = StageRecord {
            name: "table1".to_string(),
            duration_ms: 12.5,
            counters: BTreeMap::from([("sa.restarts".to_string(), 40u64)]),
        };
        let artifacts = vec![Artifact {
            name: "table1.csv".to_string(),
            rows: 4,
            bytes: 210,
            hash: "a1b2".to_string(),
            volatile: false,
        }];
        let blocks = BTreeMap::from([("solver".to_string(), "table1,e,-,0,0,1.5\n".to_string())]);
        let doc = checkpoint_doc("fp", &record, &artifacts, &blocks);
        let dir = std::env::temp_dir().join(format!("qjo-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("table1.json");
        qjo_resil::checkpoint::save(&path, &doc).unwrap();
        let ckpt = load_stage_checkpoint(&path, "fp", "table1").expect("valid checkpoint");
        assert_eq!(ckpt.duration_ms, 12.5);
        assert_eq!(ckpt.counters, record.counters);
        assert_eq!(ckpt.artifacts, artifacts);
        assert_eq!(ckpt.convergence, blocks);
        // Any identity mismatch invalidates the checkpoint.
        assert!(load_stage_checkpoint(&path, "other-fp", "table1").is_none());
        assert!(load_stage_checkpoint(&path, "fp", "fig2").is_none());
        assert!(load_stage_checkpoint(&dir.join("absent.json"), "fp", "table1").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn subcommands_route_only_from_first_position() {
        assert!(matches!(
            route(&args(&["manifest-diff", "a", "b"])).unwrap(),
            Route::ManifestDiff(b, c) if b == "a" && c == "b"
        ));
        assert!(matches!(route(&args(&["trace-check", "t.json"])).unwrap(), Route::TraceCheck(_)));
        assert!(matches!(
            route(&args(&["bench-compare", "a", "b"])).unwrap(),
            Route::BenchCompare(_, _)
        ));
        assert!(matches!(route(&args(&["serve-bench", "--seed", "9"])).unwrap(),
            Route::ServeBench(o) if o.seed == 9));
        assert!(matches!(route(&args(&["table1", "--smoke"])).unwrap(), Route::Sweep(_)));
        // A subcommand buried behind flags or stages is a usage error,
        // not a misparsed experiment name.
        for cmdline in [
            &["--smoke", "bench-compare", "a", "b"][..],
            &["table1", "manifest-diff", "a", "b"],
            &["--csv", "out", "serve-bench"],
        ] {
            let err = route(&args(cmdline)).unwrap_err();
            assert!(err.contains("must be the first argument"), "{cmdline:?}: {err}");
        }
    }

    #[test]
    fn subcommand_arity_and_unknown_words_are_usage_errors() {
        assert!(route(&args(&["manifest-diff", "a"])).unwrap_err().contains("exactly two"));
        assert!(route(&args(&["trace-check"])).unwrap_err().contains("exactly one"));
        assert!(route(&args(&["bench-compare", "a", "b", "c"]))
            .unwrap_err()
            .contains("exactly two"));
        assert!(route(&args(&["table9"])).unwrap_err().contains("unknown experiment"));
    }

    #[test]
    fn serve_bench_args_parse_and_validate() {
        let o = parse_serve_args(&args(&[
            "--smoke",
            "--seed",
            "11",
            "--csv",
            "out",
            "--bench-out",
            "B.json",
            "--min-embed-speedup",
            "50",
        ]))
        .unwrap();
        assert_eq!(o.seed, 11);
        assert_eq!(o.csv_dir.as_deref(), Some(Path::new("out")));
        assert_eq!(o.bench_out.as_deref(), Some(Path::new("B.json")));
        assert_eq!(o.min_embed_speedup, Some(50.0));
        assert!(parse_serve_args(&args(&["--seed"])).unwrap_err().contains("requires a value"));
        assert!(parse_serve_args(&args(&["--seed", "x"])).unwrap_err().contains("unsigned"));
        assert!(parse_serve_args(&args(&["--min-embed-speedup", "0.5"]))
            .unwrap_err()
            .contains(">= 1"));
        assert!(parse_serve_args(&args(&["table1"])).unwrap_err().contains("unknown argument"));
    }

    #[test]
    fn robustness_bench_args_parse_and_validate() {
        let o = parse_robust_args(&args(&[
            "--smoke",
            "--seed",
            "13",
            "--instances",
            "3",
            "--csv",
            "out",
            "--bench-out",
            "B.json",
            "--faults",
            "seed=1;io.write=0.1",
        ]))
        .unwrap();
        assert_eq!(o.seed, 13);
        assert_eq!(o.instances, 3);
        assert_eq!(o.csv_dir.as_deref(), Some(Path::new("out")));
        assert_eq!(o.bench_out.as_deref(), Some(Path::new("B.json")));
        assert_eq!(o.faults.as_deref(), Some("seed=1;io.write=0.1"));
        assert!(parse_robust_args(&args(&["--seed"])).unwrap_err().contains("requires a value"));
        assert!(parse_robust_args(&args(&["--seed", "x"])).unwrap_err().contains("unsigned"));
        assert!(parse_robust_args(&args(&["--instances", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_robust_args(&args(&["table1"])).unwrap_err().contains("unknown argument"));
        assert!(matches!(route(&args(&["robustness-bench", "--seed", "9"])).unwrap(),
            Route::RobustnessBench(o) if o.seed == 9));
        let err = route(&args(&["--smoke", "robustness-bench"])).unwrap_err();
        assert!(err.contains("must be the first argument"), "{err}");
    }

    #[test]
    fn telemetry_subcommands_route_with_their_grammar() {
        assert!(matches!(
            route(&args(&["events-check", "e.jsonl"])).unwrap(),
            Route::EventsCheck { events, canonical: None } if events == "e.jsonl"
        ));
        assert!(matches!(
            route(&args(&["events-check", "e.jsonl", "--canonical", "c.jsonl"])).unwrap(),
            Route::EventsCheck { canonical: Some(out), .. } if out == "c.jsonl"
        ));
        assert!(route(&args(&["events-check"])).unwrap_err().contains("event-log path"));
        assert!(route(&args(&["events-check", "e", "--nope", "c"])).is_err());
        assert!(matches!(
            route(&args(&["stats-render", "s.json"])).unwrap(),
            Route::StatsRender(p) if p == "s.json"
        ));
        assert!(route(&args(&["stats-render"])).unwrap_err().contains("exactly one"));
        // Buried telemetry subcommands fail loudly like the others.
        let err = route(&args(&["--smoke", "events-check", "e"])).unwrap_err();
        assert!(err.contains("must be the first argument"), "{err}");
    }

    /// One hand-written valid event line (every schema field present).
    fn event_line(seq: u64, id: &str) -> String {
        format!(
            "{{\"admitted\":true,\"backend\":\"sa\",\"cache\":\"hit\",\"cost\":12.5,\
             \"deadline_ms\":60000,\"embed\":null,\"est_cost_us\":400,\"fingerprint\":\"abc\",\
             \"id\":\"{id}\",\"latency_us\":9,\"outcome\":\"ok\",\"reason\":null,\
             \"seq\":{seq},\"slo\":\"met\"}}"
        )
    }

    #[test]
    fn events_check_accepts_valid_streams_and_reports_findings() {
        let good = format!("{}\n{}\n", event_line(0, "a"), event_line(1, "b"));
        let events = check_events_text(&good).expect("valid stream");
        assert_eq!(events.len(), 2);
        // A malformed line is reported with its line number and stops
        // the invariant pass from double-reporting the seq hole.
        let broken = format!("{}\nnot json\n{}\n", event_line(0, "a"), event_line(2, "c"));
        let findings = check_events_text(&broken).unwrap_err();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("line 2:"), "{findings:?}");
        // A parseable stream with a seq hole fails the invariant pass.
        let sparse = format!("{}\n{}\n", event_line(0, "a"), event_line(2, "c"));
        assert!(check_events_text(&sparse).unwrap_err().iter().any(|f| f.contains("dense")));
        // Blank lines are ignored; an empty log is trivially valid.
        assert_eq!(check_events_text("\n\n").expect("empty is valid").len(), 0);
    }

    #[test]
    fn stats_render_emits_exposition_and_tables() {
        let doc = Json::parse(
            "{\"cache\": {\"capacity\": 64, \"resident\": 3, \"hit_rate\": 0.75, \
                          \"embed_hit_rate\": null}, \
              \"counters\": {\"serve.requests\": 76, \"serve.slo.met\": 20}, \
              \"events\": {\"recorded\": 76, \"pending\": 0}}",
        )
        .unwrap();
        let out = render_stats(&doc).expect("renders");
        assert!(out.contains("qjo_serve_requests 76"), "{out}");
        assert!(out.contains("qjo_serve_slo_met 20"), "{out}");
        assert!(out.contains("qjo_serve_cache_hit_rate 0.75"), "{out}");
        // Null rates are skipped, not rendered as 0.
        assert!(!out.contains("embed_hit_rate"), "{out}");
        assert!(out.contains("== Serving stats =="), "{out}");
        // Not a snapshot -> a one-line error, not a panic.
        assert!(render_stats(&Json::parse("{}").unwrap()).is_err());
    }

    fn bench_doc(total_ms: f64, rates: &[(&str, f64)]) -> Json {
        let body: Vec<String> = rates.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        Json::parse(&format!(
            "{{\"run\": {{\"total_ms\": {total_ms}}}, \"rates\": {{{}}}}}",
            body.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn gated_rate_regressions_fail_the_comparison() {
        let baseline = bench_doc(1000.0, &[("gatesim.shots_per_sec", 100.0), ("other", 100.0)]);
        // An ungated rate may crater freely; a gated one may not.
        let ok = bench_doc(1500.0, &[("gatesim.shots_per_sec", 51.0), ("other", 1.0)]);
        let cmp = compare_bench_docs(&baseline, &ok).unwrap();
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        let bad = bench_doc(1500.0, &[("gatesim.shots_per_sec", 49.0), ("other", 100.0)]);
        let cmp = compare_bench_docs(&baseline, &bad).unwrap();
        assert_eq!(cmp.failures.len(), 1);
        assert!(cmp.failures[0].contains("gatesim.shots_per_sec"), "{:?}", cmp.failures);
    }

    #[test]
    fn a_vanished_gated_rate_fails_the_comparison() {
        // Regression: a missing entry for a gated rate used to be an
        // informational note, so a renamed counter or dead span silently
        // turned the gate off. It must be an explicit failure.
        let baseline =
            bench_doc(100.0, &[("serve.requests_per_sec", 40.0), ("transpile.runs_per_sec", 5.0)]);
        let current = bench_doc(100.0, &[]);
        let cmp = compare_bench_docs(&baseline, &current).unwrap();
        assert_eq!(cmp.failures.len(), 1, "{:?}", cmp.failures);
        assert!(
            cmp.failures[0].contains("serve.requests_per_sec")
                && cmp.failures[0].contains("gate disappeared"),
            "{:?}",
            cmp.failures
        );
        // An ungated rate vanishing stays a note.
        assert!(
            cmp.notes.iter().any(|n| n.contains("transpile.runs_per_sec")
                && n.contains("missing from current")),
            "{:?}",
            cmp.notes
        );
    }

    #[test]
    fn serve_rates_are_gated() {
        let baseline =
            bench_doc(100.0, &[("serve.requests_per_sec", 40.0), ("serve.cache_hit_rate", 0.6)]);
        let bad =
            bench_doc(100.0, &[("serve.requests_per_sec", 40.0), ("serve.cache_hit_rate", 0.2)]);
        let cmp = compare_bench_docs(&baseline, &bad).unwrap();
        assert_eq!(cmp.failures.len(), 1);
        assert!(cmp.failures[0].contains("serve.cache_hit_rate"), "{:?}", cmp.failures);
    }

    #[test]
    fn wall_clock_budget_is_enforced() {
        let baseline = bench_doc(1000.0, &[("other", 1.0)]);
        let inside = bench_doc(1999.0, &[("other", 1.0)]);
        assert!(compare_bench_docs(&baseline, &inside).unwrap().failures.is_empty());
        let outside = bench_doc(2001.0, &[("other", 1.0)]);
        let cmp = compare_bench_docs(&baseline, &outside).unwrap();
        assert_eq!(cmp.failures.len(), 1);
        assert!(cmp.failures[0].contains("wall-clock budget"), "{:?}", cmp.failures);
        // A snapshot without rates is structurally unusable.
        let bare = Json::parse("{\"run\": {\"total_ms\": 1.0}}").unwrap();
        assert!(compare_bench_docs(&bare, &baseline).is_err());
    }
}
