//! The experiment driver: regenerates every table and figure of the
//! paper, and runs the serving and robustness suites.
//!
//! ```text
//! experiments [STAGE|all]... [--full|--smoke] [--csv DIR] [--trace-out PATH]
//!             [--convergence] [--faults SPEC]
//! experiments manifest-diff BASELINE CURRENT
//! experiments trace-check TRACE
//! experiments bench-compare BASELINE CURRENT
//! experiments events-check EVENTS
//! experiments stats-render STATS
//! ```
//!
//! A stage is one of the ten paper stages (`table1 fig2 table2 fig3
//! table3 fig4 fig5 timing ablation scaling`, which `all` and an empty
//! stage list both mean) or one of two extension suites that `all` leaves
//! out:
//!
//! * `serve` replays the seeded smoke request mixes against the
//!   `qjo-serve` service (see `EXPERIMENTS.md` § Serving). It emits the
//!   drift-gated `serve_report.csv`, the volatile `serve_latency.csv`, the
//!   per-request event log `serve_events.jsonl` (volatile — it carries
//!   wall-clock latencies; gated on row count), its latency-free
//!   projection `serve_events.canonical.jsonl` and the service's final
//!   stats snapshot `serve_stats.json` (both hash-gated and byte-identical
//!   at any `QJO_THREADS`). Its embedding cache is gated exactly: a cache
//!   hit runs the embedder zero times, so an extra embed shows as
//!   `embed.tries` drift in the manifest.
//! * `robust` runs the cardinality-misestimation degradation sweep
//!   (`robustness_report.csv`, `robustness_curve.csv`) and always checks
//!   its unity gate: every q-error-1 cell must degrade by exactly 1.0.
//!
//! Both run their one committed profile (seed 7) in every mode. For the
//! paper stages, defaults are scaled to simulator throughput; `--full`
//! raises the knobs toward the paper's exact parameters (slower), and
//! `--smoke` lowers them to a CI-sized sweep. `--csv DIR` additionally
//! writes each result into `DIR`.
//!
//! Every run also writes a machine-readable **run manifest** (see
//! `EXPERIMENTS.md`) to `DIR/run_manifest.json`, or to
//! `results/run_manifest.json` without `--csv`: per-stage durations and
//! counter deltas, final metrics, and a content fingerprint of every
//! artifact. `manifest-diff` compares the deterministic sections of two
//! manifests and exits non-zero on drift — CI's drift gate.
//! `bench-compare` derives work rates (counter over span time) from two
//! manifests and fails when a gated rate regresses beyond the 2× noise
//! allowance, or when the run's total wall time exceeds 2× the
//! baseline's — CI's perf and wall-clock-budget gate. A stage whose gate
//! fails does not stop the run: every output is still written, and then
//! the process exits 1.
//!
//! Resilience (all deterministic, see `EXPERIMENTS.md`):
//!
//! * `--faults SPEC` installs a seeded fault-injection plan; every
//!   injection and recovery event lands in the manifest's `resilience`
//!   section, so chaos runs drift-gate like any other sweep.
//! * Every artifact, the manifest and the trace are written atomically
//!   (temp file + rename), so a killed sweep never leaves a torn CSV/JSON
//!   behind; rerunning it redoes the whole sweep.
//!
//! Observability extras (all opt-in, see `EXPERIMENTS.md`):
//!
//! * `--trace-out PATH` records a Chrome `trace_event` JSON of every span
//!   and `par_map` work unit — open it in Perfetto or `chrome://tracing` —
//!   and puts the trace-buffer statistics in the manifest's `run.trace`.
//!   `trace-check` re-parses such a file and verifies slice nesting.
//! * `--convergence` turns on the solver convergence recorder (energy
//!   curves, acceptance rates, chain breaks, optimiser trajectories),
//!   exported as deterministic `convergence_*.csv` artifacts. The smoke
//!   baselines were recorded with it, so smoke runs pass it.
//!
//! Serving telemetry (see `EXPERIMENTS.md` § Serving telemetry):
//! `events-check` re-parses a `serve_events.jsonl` log and verifies the
//! schema and cross-record invariants (exit 0 valid / 1 invalid / 2
//! unreadable). `stats-render` formats a stats snapshot (from
//! `serve_stats.json` or an in-band `{"cmd": "stats"}` response line) as
//! Prometheus-style exposition plus a human table.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use qjo_bench::report::Table;
use qjo_bench::{
    ablation, fig2, fig3, fig4, fig5, robustness, scaling, serve_bench, table1, table2, table3,
    timing,
};
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

/// The paper stages, in `all` execution order.
const PAPER_STAGES: &[&str] = &[
    "table1", "fig2", "table2", "fig3", "table3", "fig4", "fig5", "timing", "ablation", "scaling",
];

/// The extension suites: stages that run only when named.
const EXTENSION_STAGES: &[&str] = &["serve", "robust"];

#[derive(Debug)]
struct Options {
    which: Vec<String>,
    mode: Mode,
    csv_dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    convergence: bool,
    faults: Option<String>,
}

const USAGE: &str =
    "usage: experiments [STAGE|all]... [--full|--smoke] [--csv DIR] [--trace-out PATH] \
     [--convergence] [--faults SPEC]\n       \
     STAGE: table1|fig2|table2|fig3|table3|fig4|fig5|timing|ablation|scaling (`all`: these ten) \
     or serve|robust\n       \
     experiments manifest-diff BASELINE CURRENT\n       \
     experiments trace-check TRACE\n       \
     experiments bench-compare BASELINE CURRENT\n       \
     experiments events-check EVENTS\n       \
     experiments stats-render STATS";

/// Subcommands with their own argument grammar. They are recognised only
/// in first position; anywhere later is a usage error (not a stage name),
/// so `experiments --smoke bench-compare A B` fails loudly instead of
/// being misread as an unknown experiment.
const SUBCOMMANDS: &[&str] =
    &["manifest-diff", "trace-check", "bench-compare", "events-check", "stats-render"];

/// Where a command line leads: one of the subcommands, or the sweep.
#[derive(Debug)]
enum Route {
    ManifestDiff(String, String),
    TraceCheck(String),
    BenchCompare(String, String),
    EventsCheck(String),
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
            _ => Err("bench-compare takes exactly two manifest paths".to_string()),
        },
        Some("events-check") => match raw {
            [_, events] => Ok(Route::EventsCheck(events.clone())),
            _ => Err("events-check takes exactly one event-log path".to_string()),
        },
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
    let mut all = false;
    let mut mode = Mode::Default;
    let mut csv_dir = None;
    let mut trace_out = None;
    let mut convergence = false;
    let mut faults = None;
    let mut args = raw.iter();
    while let Some(arg) = args.next() {
        let mut value =
            |flag: &str| args.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
        match arg.as_str() {
            "--full" => mode = Mode::Full,
            "--smoke" => mode = Mode::Smoke,
            "--convergence" => convergence = true,
            "--csv" => csv_dir = Some(PathBuf::from(value("--csv")?)),
            "--trace-out" => trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--faults" => faults = Some(value("--faults")?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            "all" => all = true,
            stage if PAPER_STAGES.contains(&stage) || EXTENSION_STAGES.contains(&stage) => {
                which.push(stage.to_string());
            }
            other => return Err(format!("unknown experiment '{other}'")),
        }
    }
    if all || which.is_empty() {
        // `all` is the paper stages in their canonical order; extension
        // stages named alongside it run after them.
        which.retain(|w| EXTENSION_STAGES.contains(&w.as_str()));
        which.splice(0..0, PAPER_STAGES.iter().map(|s| s.to_string()));
    }
    // Stage names double as convergence phases, which must be unique:
    // drop repeats, keeping first-run order.
    let mut seen = std::collections::BTreeSet::new();
    which.retain(|w| seen.insert(w.clone()));
    Ok(Options { which, mode, csv_dir, trace_out, convergence, faults })
}

/// Collects the tables a run produces: prints them, optionally writes the
/// CSVs, fingerprints every artifact for the run manifest, and records
/// the findings of every stage gate that failed.
struct Driver {
    options: Options,
    artifacts: Vec<Artifact>,
    /// Gate findings so far. Any finding makes the process exit 1 once
    /// every output is written.
    gate_failures: Vec<String>,
}

/// Tables whose cells contain wall-clock measurements; their manifest
/// entries are flagged volatile so the drift gate checks shape only.
const VOLATILE_ARTIFACTS: &[&str] = &["scaling_classical", "serve_latency"];

impl Driver {
    /// Prints `table` under `title` and records it as `<name>.csv`.
    fn emit(&mut self, name: &str, title: &str, table: Table) {
        println!("== {title} ==\n");
        println!("{}", table.render());
        let volatile = VOLATILE_ARTIFACTS.contains(&name);
        self.emit_raw(&format!("{name}.csv"), &table.to_csv(), table.num_rows() as u64, volatile);
    }

    /// Fingerprints `text` into the manifest under `file_name` and, under
    /// `--csv`, writes it atomically into the output directory. `rows` is
    /// the record count the volatile gate checks.
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
            "serve" => {
                // Seed 7 is the committed smoke-serve run's.
                let result = serve_bench::run(7, qjo_exec::Parallelism::auto());
                self.emit(
                    "serve_report",
                    "Serving: deterministic per-backend report",
                    serve_bench::render_report(&result.report),
                );
                self.emit(
                    "serve_latency",
                    "Serving: wall-clock latency percentiles (volatile)",
                    serve_bench::render_latency(&result.latency),
                );
                // The full event log carries wall-clock latencies (volatile,
                // gated on record count); its canonical projection and the
                // final stats snapshot are pure functions of the request
                // stream and drift-gate byte-for-byte.
                let rows = result.events.len() as u64;
                let log = qjo_serve::events::render_log(&result.events);
                self.emit_raw("serve_events.jsonl", &log, rows, true);
                let canonical = qjo_serve::events::render_canonical(&result.events);
                self.emit_raw("serve_events.canonical.jsonl", &canonical, rows, false);
                let stats = format!("{}\n", result.stats.render());
                self.emit_raw("serve_stats.json", &stats, 1, false);
                qjo_obs::info!("serve: {} requests", result.events.len());
            }
            "robust" => {
                let cfg = robustness::RobustnessConfig::default();
                let result = robustness::run(&cfg, qjo_exec::Parallelism::auto());
                self.emit(
                    "robustness_report",
                    "Robustness: plan-cost degradation under cardinality misestimation",
                    robustness::render_report(&result.report),
                );
                self.emit(
                    "robustness_curve",
                    "Robustness: per-instance degradation curve",
                    robustness::render_curve(&result.curve),
                );
                let gate = &result.gate;
                qjo_obs::info!(
                    "robust: {} cells, worst q-error {:.2}; unity gate: {} q-error-1 cells \
                     checked, {} violations",
                    result.report.len(),
                    qjo_obs::gauge("robust.qerror").get(),
                    gate.checked,
                    gate.violations.len()
                );
                if !gate.pass {
                    for v in &gate.violations {
                        qjo_obs::error!("unity violation: {v}");
                    }
                    self.gate_failures.push(
                        "robustness unity gate failed: every backend must degrade by exactly \
                         1.0 when the estimates equal the truth"
                            .to_string(),
                    );
                }
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
// Final outputs

/// Writes the run manifest into `--csv DIR`, else into `results/`.
fn write_manifest(
    options: &Options,
    stages: Vec<StageRecord>,
    artifacts: Vec<Artifact>,
    total: f64,
    trace_stats: Option<qjo_obs::trace::TraceStats>,
) {
    let path = options.csv_dir.as_deref().unwrap_or(Path::new("results")).join("run_manifest.json");
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
    manifest.run.insert("total_duration_ms".to_string(), Json::from((total * 1e3).round() / 1e3));
    if let Some(stats) = trace_stats {
        let trace = BTreeMap::from([
            ("events".to_string(), Json::from(stats.stored)),
            ("recorded".to_string(), Json::from(stats.recorded)),
            ("dropped".to_string(), Json::from(stats.dropped)),
            ("peak_occupancy".to_string(), Json::from(stats.peak_occupancy)),
        ]);
        manifest.run.insert("trace".to_string(), Json::Obj(trace));
    }
    manifest.stages = stages;
    manifest.set_metrics(&qjo_obs::global().snapshot());
    manifest.artifacts = artifacts;
    match qjo_resil::atomic_write(&path, manifest.render().as_bytes()) {
        Ok(()) => qjo_obs::info!("wrote {}", path.display()),
        Err(e) => qjo_obs::error!("failed to write {}: {e}", path.display()),
    }
}

/// Reads and parses a run manifest for `manifest-diff` and
/// `bench-compare`, exiting 2 when the file is unreadable or is not a
/// manifest.
fn load_manifest(path: &str) -> RunManifest {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        qjo_obs::error!("cannot read manifest {path}: {e}");
        std::process::exit(2);
    });
    RunManifest::parse(&text).unwrap_or_else(|e| {
        qjo_obs::error!("cannot parse manifest {path}: {e}");
        std::process::exit(2);
    })
}

/// `manifest-diff BASELINE CURRENT`: compare deterministic sections, exit
/// 1 on drift. Drift is reported as a per-key table of expected
/// (baseline) vs. actual (current) values.
fn manifest_diff(baseline_path: &str, current_path: &str) -> ! {
    let (baseline, current) = (load_manifest(baseline_path), load_manifest(current_path));
    let entries = qjo_obs::manifest::diff_entries(&baseline, &current);
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

/// Counter / span pairs whose ratio is a meaningful work rate, and the
/// rate's name (work units per wall-clock second spent inside the span).
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

/// Work rates whose regression fails `bench-compare`. The shot hot path
/// dominates the smoke profile's quantum stages; the gradient-descent
/// iteration rate gates the QAOA parameter loop and its level-indexed
/// cost layer; the SQA sweep and anneal read rates gate the packed
/// bit-parallel annealing kernel; the SA sweep rate gates the classical
/// single-flip kernel and its branch-free flip gain, which serving's `sa`
/// backend runs on each of its requests. Each floor keeps a future change from
/// silently giving back its speedup. `serve.requests_per_sec` gates the
/// request loop's throughput. All are stable enough that a 2× drop clears
/// run-to-run noise on the 1-core CI runner. The other `RATE_PAIRS` are
/// reported informationally.
const GATED_RATES: &[&str] = &[
    "gatesim.shots_per_sec",
    "gatesim.gd_iterations_per_sec",
    "sqa.sweeps_per_sec",
    "sa.sweeps_per_sec",
    "anneal.reads_per_sec",
    "serve.requests_per_sec",
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

/// The work rates a manifest implies: for each of [`RATE_PAIRS`] whose
/// counter and span both recorded work, the counter's final value over
/// the seconds spent inside the span.
fn work_rates(manifest: &RunManifest) -> BTreeMap<&'static str, f64> {
    RATE_PAIRS
        .iter()
        .filter_map(|&(counter, span, rate)| {
            let work = *manifest.counters.get(counter)?;
            // Spans nest into slash-separated paths (one histogram per call
            // path), so total the span's time across every path it ends.
            let suffix = format!("/{span}");
            let span_ms: f64 = manifest
                .spans
                .iter()
                .filter(|(path, _)| path.as_str() == span || path.ends_with(&suffix))
                .map(|(_, summary)| summary.total_ms)
                .sum();
            (work > 0 && span_ms > 0.0).then(|| (rate, work as f64 / (span_ms / 1e3)))
        })
        .collect()
}

/// What one `bench-compare` concluded: informational lines plus the
/// findings that fail the gate.
#[derive(Debug, Default)]
struct BenchComparison {
    notes: Vec<String>,
    failures: Vec<String>,
}

/// The testable core of `bench-compare`: diff the work rates two
/// manifests imply and check the wall-clock budget.
fn compare_manifests(baseline: &RunManifest, current: &RunManifest) -> BenchComparison {
    let base_rates = work_rates(baseline);
    let cur_rates = work_rates(current);
    let mut out = BenchComparison::default();
    for (&name, &base) in &base_rates {
        let gated = GATED_RATES.contains(&name);
        let Some(&cur) = cur_rates.get(name) else {
            // A *gated* rate vanishing is worse than it regressing: the
            // instrumented path stopped reporting (renamed counter, dead
            // span, dropped stage), which is exactly what the gate exists
            // to catch — an informational note here would let the gate
            // silently stop gating.
            if gated {
                out.failures.push(format!(
                    "rate {name}: gate disappeared — present in baseline ({base:.1}), missing from current"
                ));
            } else {
                out.notes.push(format!("rate {name}: present in baseline, missing from current"));
            }
            continue;
        };
        let ratio = cur / base;
        if gated && ratio < 1.0 / MAX_REGRESSION {
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
    let total_ms = |m: &RunManifest| m.run.get("total_duration_ms").and_then(Json::as_f64);
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
        _ => out.notes.push(
            "wall clock: total_duration_ms missing from a manifest, budget not checked".to_string(),
        ),
    }
    out
}

/// `bench-compare BASELINE CURRENT`: compare the work rates and total
/// wall time of two run manifests. Exits 1 if a gated rate regressed by
/// more than the 2× noise allowance or the wall-clock budget is blown, 2
/// if either file is unreadable or not a manifest, 0 otherwise.
fn bench_compare(baseline_path: &str, current_path: &str) -> ! {
    let comparison = compare_manifests(&load_manifest(baseline_path), &load_manifest(current_path));
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

/// `events-check EVENTS`: validate a per-request event log (schema +
/// cross-record invariants). Exit 0 on a valid log, 1 on an invalid one,
/// 2 if the file cannot be read.
fn events_check(path: &str) -> ! {
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
/// statistics for the manifest's `run.trace`.
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
        Route::EventsCheck(events) => events_check(&events),
        Route::StatsRender(stats) => stats_render(&stats),
        Route::Sweep(options) => options,
    };

    // A malformed fault spec is a usage error.
    if let Some(spec) = &options.faults {
        match qjo_resil::FaultPlan::parse(spec) {
            Ok(plan) => {
                qjo_obs::info!("fault injection active: {}", plan.render());
                qjo_resil::fault::install(plan);
            }
            Err(e) => {
                eprintln!("error: --faults: {e}");
                std::process::exit(2);
            }
        }
    }

    let tracing = options.trace_out.is_some();
    if tracing {
        qjo_obs::trace::start(qjo_obs::trace::DEFAULT_THREAD_CAPACITY);
    }
    let convergence = options.convergence;
    if convergence {
        qjo_obs::convergence::start(qjo_obs::convergence::DEFAULT_STRIDE);
    }

    let run_start = Instant::now();
    let mut driver = Driver { options, artifacts: Vec::new(), gate_failures: Vec::new() };
    let mut stages = Vec::new();
    for which in driver.options.which.clone() {
        let before = qjo_obs::global().snapshot();
        let start = Instant::now();
        {
            let _span = qjo_obs::span!("experiments.stage");
            let _slice = tracing.then(|| qjo_obs::trace::slice_scope(format!("stage:{which}")));
            if convergence {
                qjo_obs::convergence::set_phase(&which);
            }
            driver.run_stage(&which);
        }
        let elapsed = start.elapsed();
        stages.push(StageRecord {
            name: which.clone(),
            duration_ms: elapsed.as_secs_f64() * 1e3,
            counters: qjo_obs::global().snapshot().counter_deltas_since(&before),
        });
        qjo_obs::info!("[{which} took {elapsed:.1?}]");
    }
    if convergence {
        // Not volatile: the curves are thread-count independent by
        // construction.
        for (group, csv) in qjo_obs::convergence::drain_csv() {
            let rows = csv.lines().count().saturating_sub(1) as u64;
            driver.emit_raw(&format!("convergence_{group}.csv"), &csv, rows, false);
        }
    }
    let trace_stats = finish_trace(&driver.options);
    let total_ms = run_start.elapsed().as_secs_f64() * 1e3;
    let Driver { options, artifacts, gate_failures } = driver;
    write_manifest(&options, stages, artifacts, total_ms, trace_stats);
    // Checked only now that every output is written, so a failed gate
    // never costs an artifact.
    for failure in &gate_failures {
        qjo_obs::error!("gate failed: {failure}");
    }
    if !gate_failures.is_empty() {
        std::process::exit(1);
    }
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
        assert_eq!(opts.which, PAPER_STAGES.to_vec());
        assert_eq!(opts.mode, Mode::Default);
        assert!(opts.csv_dir.is_none() && opts.faults.is_none());
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
        ]))
        .unwrap();
        assert_eq!(opts.which, vec!["table1", "fig3"]);
        assert_eq!(opts.mode, Mode::Smoke);
        assert_eq!(opts.csv_dir.as_deref(), Some(Path::new("out")));
        assert_eq!(opts.faults.as_deref(), Some("seed=7;io.write=0.5"));
    }

    #[test]
    fn repeated_stages_are_deduplicated_in_order() {
        let opts = parse_args(&args(&["fig3", "table1", "fig3", "table1"])).unwrap();
        assert_eq!(opts.which, vec!["fig3", "table1"]);
    }

    #[test]
    fn missing_flag_values_are_errors_not_panics() {
        for flag in ["--csv", "--trace-out", "--faults"] {
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
        assert!(matches!(route(&args(&["table1", "--smoke"])).unwrap(), Route::Sweep(_)));
        assert!(matches!(route(&args(&["serve", "robust"])).unwrap(), Route::Sweep(_)));
        // A subcommand buried behind flags or stages is a usage error,
        // not a misparsed experiment name.
        for cmdline in [
            &["--smoke", "bench-compare", "a", "b"][..],
            &["table1", "manifest-diff", "a", "b"],
            &["--csv", "out", "events-check", "e.jsonl"],
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
    fn one_grammar_runs_paper_and_extension_stages() {
        let opts = parse_args(&args(&["serve", "robust", "--csv", "out"])).unwrap();
        assert_eq!(opts.which, vec!["serve", "robust"]);
        assert_eq!(opts.csv_dir.as_deref(), Some(Path::new("out")));
        // `all` is the ten paper stages only; extension stages named
        // alongside it run after them.
        assert_eq!(parse_args(&args(&["all"])).unwrap().which, PAPER_STAGES.to_vec());
        let opts = parse_args(&args(&["robust", "fig3", "all"])).unwrap();
        assert_eq!(opts.which[..PAPER_STAGES.len()], *PAPER_STAGES);
        assert_eq!(opts.which[PAPER_STAGES.len()..], ["robust"]);
        // The run manifest is the one run record, the embedding cache is
        // gated by exact counters and a sweep has no checkpoints, so none
        // of a BENCH.json output, a wall-clock embed-speedup floor, a
        // resume or a halt is accepted.
        for flag in ["--bench-out", "--min-embed-speedup", "--resume", "--halt-after"] {
            let err = parse_args(&args(&["serve", flag, "50"])).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
        }
        // The old suite subcommands and the `bench` keyword are gone.
        for word in ["serve-bench", "robustness-bench", "bench"] {
            let err = route(&args(&[word, "--smoke"])).unwrap_err();
            assert!(err.contains("unknown experiment"), "{word}: {err}");
        }
    }

    #[test]
    fn telemetry_subcommands_route_with_their_grammar() {
        assert!(matches!(
            route(&args(&["events-check", "e.jsonl"])).unwrap(),
            Route::EventsCheck(events) if events == "e.jsonl"
        ));
        assert!(route(&args(&["events-check"])).unwrap_err().contains("exactly one"));
        assert!(route(&args(&["events-check", "e", "--canonical", "c"])).is_err());
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

    /// A manifest of `total_ms` wall time whose counters and span totals
    /// are `(counter, work)` and `(span path, ms)`.
    fn manifest(total_ms: f64, counters: &[(&str, u64)], spans: &[(&str, f64)]) -> RunManifest {
        let mut m = RunManifest::default();
        m.run.insert("total_duration_ms".to_string(), Json::from(total_ms));
        for &(name, work) in counters {
            m.counters.insert(name.to_string(), work);
        }
        for &(path, ms) in spans {
            let summary = qjo_obs::manifest::SpanSummary {
                count: 1,
                total_ms: ms,
                p50_ms: ms,
                p90_ms: ms,
                p99_ms: ms,
            };
            m.spans.insert(path.to_string(), summary);
        }
        m
    }

    /// One second of shots (gated) and of transpiler runs (ungated).
    fn shots_and_runs(total_ms: f64, shots: u64, runs: u64) -> RunManifest {
        manifest(
            total_ms,
            &[("gatesim.shots", shots), ("transpile.runs", runs)],
            &[("gatesim.noisy.sample", 1000.0), ("transpile.run", 1000.0)],
        )
    }

    #[test]
    fn gated_rate_regressions_fail_the_comparison() {
        let baseline = shots_and_runs(1000.0, 100, 100);
        // An ungated rate may crater freely; a gated one may not.
        let ok = shots_and_runs(1500.0, 51, 1);
        let cmp = compare_manifests(&baseline, &ok);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        let bad = shots_and_runs(1500.0, 49, 100);
        let cmp = compare_manifests(&baseline, &bad);
        assert_eq!(cmp.failures.len(), 1);
        assert!(cmp.failures[0].contains("gatesim.shots_per_sec"), "{:?}", cmp.failures);
    }

    #[test]
    fn a_vanished_gated_rate_fails_the_comparison() {
        // Regression: a missing entry for a gated rate used to be an
        // informational note, so a renamed counter or dead span silently
        // turned the gate off. It must be an explicit failure.
        let baseline = manifest(
            100.0,
            &[("serve.requests", 40), ("transpile.runs", 5)],
            &[("serve.request", 1000.0), ("transpile.run", 1000.0)],
        );
        let renamed = manifest(
            100.0,
            &[("serve.requests.total", 40)],
            &[("serve.request", 1000.0), ("transpile.run", 1000.0)],
        );
        let cmp = compare_manifests(&baseline, &renamed);
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
    fn a_rate_totals_its_span_across_call_paths() {
        // `anneal.sample` runs at the root and under `serve.request`; its
        // own child span and a longer name that merely starts alike are
        // not the span.
        let m = manifest(
            1000.0,
            &[("anneal.reads", 600), ("tabu.iterations", 10)],
            &[
                ("anneal.sample", 100.0),
                ("serve.request/anneal.sample", 200.0),
                ("anneal.sample/sqa.sweep", 50.0),
                ("anneal.sampler", 50.0),
            ],
        );
        let rates = work_rates(&m);
        assert_eq!(rates.get("anneal.reads_per_sec"), Some(&2000.0), "{rates:?}");
        // A span without its counter (`sqa.sweeps`), or a counter without
        // its span (`qubo.tabu.solve`), implies no rate.
        assert_eq!(rates.len(), 1, "{rates:?}");
    }

    #[test]
    fn wall_clock_budget_is_enforced() {
        let baseline = shots_and_runs(1000.0, 100, 100);
        let inside = shots_and_runs(1999.0, 100, 100);
        assert!(compare_manifests(&baseline, &inside).failures.is_empty());
        let outside = shots_and_runs(2001.0, 100, 100);
        let cmp = compare_manifests(&baseline, &outside);
        assert_eq!(cmp.failures.len(), 1);
        assert!(cmp.failures[0].contains("wall-clock budget"), "{:?}", cmp.failures);
        // A BENCH.json snapshot is not a manifest: `bench-compare` refuses
        // it (exit 2) instead of reading it.
        let bench = "{\"schema_version\": 1, \"run\": {\"total_ms\": 1.0}, \
                     \"stages\": [], \"rates\": {}, \"counters\": {}, \"spans\": {}}";
        assert!(RunManifest::parse(bench).unwrap_err().contains("artifacts"));
    }
}
