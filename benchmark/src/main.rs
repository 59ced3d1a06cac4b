//! The qjo benchmark: three seeded workloads through the public API, each
//! a fixed list of ops in a fixed order, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve-warm --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the run's
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of a separate traced pass with
//! `--trace 1`. See `README.md` beside this file for what each workload
//! and metric means.

mod attrib;
mod paper;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qjo::exec::stream_seed;
use qjo_obs::json::Json;

use attrib::{Attribution, LAYERS};
use stats::OpRecord;

const USAGE: &str =
    "usage: qjo-perfbench --workload <serve-warm|serve-cold|paper-qaoa> --seed <n> --seconds <s> --trace <0|1>";

/// The query classes and paper instances of every workload are a fixed
/// suite, drawn once from this seed like the query set of a benchmark
/// suite. `--seed` draws each run's stream over the suite: on serve-*
/// which class a request names, its relabelling and cardinality jitter,
/// and the order; on paper-qaoa the instance order. A seed that also
/// picked the classes would make each run measure a different mix of
/// embedding difficulty (a 4-relation embed takes 0.3 s to 5 s), and that
/// mix, not the program, would set the spread between runs.
pub const SUITE: u64 = 0x716a_6f5f_7375_6974;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Trace ring capacity per thread, far above what a traced pass records,
/// so no slice is overwritten.
const TRACE_CAPACITY: usize = 1 << 22;

/// End-to-end metrics in report order: name and unit. Every workload
/// reports every one of them.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("plan_cost_ratio", "ratio"),
    ("backend_frac", "fraction"),
    ("ok_frac", "fraction"),
    ("valid_frac", "fraction"),
    ("optimal_frac", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced pass: name and unit. A metric whose
/// layer does no work on a workload reads 0 there.
const PER_LAYER: [(&str, &str); 50] = [
    ("serve.parse_us", "us"),
    ("serve.fingerprint_us", "us"),
    ("serve.render_us", "us"),
    ("serve.handle_self_us.auto", "us"),
    ("serve.handle_self_us.annealer", "us"),
    ("serve.handle_self_us.dp", "us"),
    ("serve.handle_self_us.greedy", "us"),
    ("serve.handle_self_us.qaoa", "us"),
    ("serve.handle_self_us.sa", "us"),
    ("serve.handle_self_us.sqa", "us"),
    ("serve.handle_self_us.tabu", "us"),
    ("serve.cache.hit_rate", "fraction"),
    ("serve.cache.embed_hit_rate", "fraction"),
    ("serve.cache.evictions", "count"),
    ("serve.solve.retry_rate", "ratio"),
    ("sched.anytime_win_rate", "fraction"),
    ("sched.cancel_rate", "fraction"),
    ("core.formulate_ms", "ms"),
    ("core.qubo_vars", "count"),
    ("qubo.sa_ms", "ms"),
    ("qubo.sa.sweeps_per_s", "1/s"),
    ("qubo.tabu_ms", "ms"),
    ("qubo.tabu.iterations_per_s", "1/s"),
    ("anneal.embed_ms", "ms"),
    ("anneal.embed.tries_per_embed", "count"),
    ("anneal.embed.fail_rate", "fraction"),
    ("anneal.embed.physical_qubits", "count"),
    ("anneal.embed.frontier_ms", "ms"),
    ("anneal.embed.frontier_fail_rate", "fraction"),
    ("anneal.sample_ms", "ms"),
    ("anneal.reads_per_s", "1/s"),
    ("anneal.sqa.sweeps_per_s", "1/s"),
    ("gatesim.optimize_ms", "ms"),
    ("gatesim.expectation_ms", "ms"),
    ("gatesim.noisy_sample_ms", "ms"),
    ("gatesim.shots_per_s", "1/s"),
    ("transpile_ms", "ms"),
    ("transpile.depth", "count"),
    ("core.assess_ms", "ms"),
    ("share.serve.wire", "fraction"),
    ("share.serve.handle_self", "fraction"),
    ("share.core.formulate", "fraction"),
    ("share.core.assess", "fraction"),
    ("share.qubo", "fraction"),
    ("share.anneal.embed", "fraction"),
    ("share.anneal.sample", "fraction"),
    ("share.gatesim", "fraction"),
    ("share.transpile", "fraction"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

#[derive(Debug, Clone, Copy)]
enum Workload {
    ServeWarm,
    ServeCold,
    PaperQaoa,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number =
                || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "serve-warm" => Workload::ServeWarm,
                        "serve-cold" => Workload::ServeCold,
                        "paper-qaoa" => Workload::PaperQaoa,
                        _ => return Err(format!("unknown workload {value}")),
                    })
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// A deterministic stream of draws from one base seed.
pub struct Draws {
    base: u64,
    index: u64,
}

impl Draws {
    pub fn new(base: u64) -> Draws {
        Draws { base, index: 0 }
    }

    pub fn draw(&mut self) -> u64 {
        self.index += 1;
        stream_seed(self.base, self.index)
    }

    /// A draw in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.draw() % n as u64) as usize
    }

    /// A permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, self.below(i + 1));
        }
        perm
    }
}

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Seconds of each set-up; the first counts from process start.
    pub setup_s: Vec<f64>,
    /// One record per measured op, in op order.
    pub records: Vec<OpRecord>,
    /// Wall time of the measured pass.
    pub wall: Duration,
    /// The latency-free outputs, one line per op.
    pub digest: String,
    /// Every failed op with the reason.
    pub failures: Vec<String>,
    /// The traced pass, when one ran.
    pub trace: Option<Trace>,
}

/// The per-layer report of a traced pass.
pub struct Trace {
    metrics: BTreeMap<String, f64>,
    /// Report lines printed before the result.
    pub lines: Vec<String>,
    digest: String,
    failures: Vec<String>,
}

impl Trace {
    /// Layer shares, the unattributed remainder, tracing overhead and the
    /// span table of a traced pass that repeated `untraced`.
    pub fn new(a: &Attribution, untraced: &Outcome, traced: &Outcome) -> Trace {
        let mut trace = Trace {
            metrics: BTreeMap::new(),
            lines: Vec::new(),
            digest: traced.digest.clone(),
            failures: traced.failures.clone(),
        };
        let op_ns = a.op_ns.max(1) as f64;
        for layer in LAYERS {
            let share = a.layers.get(layer).copied().unwrap_or(0) as f64 / op_ns;
            match layer {
                "unattributed" => trace.metric("trace.unattributed_frac", share),
                _ => trace.metric(&format!("share.{layer}"), share),
            }
        }
        let untraced_s = untraced.wall.as_secs_f64();
        trace.metric("trace.overhead_frac", (traced.wall.as_secs_f64() - untraced_s) / untraced_s);
        let mut rows: Vec<_> = a.spans.iter().collect();
        rows.sort_by(|x, y| y.1.self_ns.cmp(&x.1.self_ns).then(x.0.cmp(y.0)));
        trace.lines.push(format!("span table over {:.3} s of traced op time", op_ns / 1e9));
        for (kind, row) in rows {
            trace.lines.push(format!(
                "span {kind:<40} layer={:<18} calls={:<7} total_ms={:<12.3} self_ms={:.3}",
                attrib::layer(kind),
                row.calls,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6
            ));
        }
        trace
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} is not a per-layer metric");
        self.metrics.insert(name.to_string(), value);
    }
}

/// Runs `setup` `times` times and keeps the last state. The first set-up
/// is timed from process start; each later one from its own start.
pub fn repeat_setup<S>(
    times: usize,
    process_start: Instant,
    mut setup: impl FnMut() -> S,
) -> (Vec<f64>, S) {
    let mut seconds = Vec::with_capacity(times);
    let mut state = None;
    for i in 0..times.max(1) {
        drop(state.take());
        let t0 = if i == 0 { process_start } else { Instant::now() };
        state = Some(setup());
        seconds.push(t0.elapsed().as_secs_f64());
    }
    (seconds, state.expect("at least one set-up ran"))
}

/// Turns on the program's span collector for a traced pass.
pub fn start_trace() {
    qjo_obs::trace::start(TRACE_CAPACITY);
}

/// Jiffies the hypervisor stole from this machine's CPUs since boot (the
/// `steal` column of `/proc/stat`).
fn steal_jiffies() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// CPU time of this process in seconds (user + system).
fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Peak resident set size (VmHWM) in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn metric_json(value: f64, unit: &str) -> Json {
    let mut m = BTreeMap::new();
    m.insert("value".to_string(), Json::from(value));
    m.insert("unit".to_string(), Json::from(unit));
    Json::Obj(m)
}

fn main() {
    let start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qjo-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let load_before = loadavg();
    let steal_before = steal_jiffies();
    let setups = if args.trace { 1 } else { SETUPS };
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let out = match args.workload {
        Workload::ServeWarm => serve::run(serve::Kind::Warm, seed, seconds, setups, trace, start),
        Workload::ServeCold => serve::run(serve::Kind::Cold, seed, seconds, setups, trace, start),
        Workload::PaperQaoa => paper::run(seed, seconds, setups, trace, start),
    };
    let wall = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds();
    let rss = peak_rss_mb();
    let stolen =
        steal_jiffies().zip(steal_before).map(|(after, before)| (after - before) as f64 / 100.0);

    let mut failures = out.failures.clone();
    let digest = qjo_obs::fnv1a64_hex(out.digest.as_bytes());
    let n = out.records.len();
    let chunks = stats::chunks(&out.records);
    let chunk = chunks[0].len();
    let (tail_pct, tail_rank) = stats::tail_rank(chunk);
    println!(
        "diag workload={:?} seed={seed} ops={n} nproc={} loadavg_before=[{load_before}] loadavg_after=[{}] \
         cpu_over_wall={} stolen_s={} setup_s={:?} tail=p{tail_pct:.3} of {chunk} ({} beyond, median of {} chunks) digest={digest}",
        args.workload,
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        loadavg(),
        cpu.map_or("unknown".into(), |c| format!("{:.4}", c / wall)),
        stolen.map_or("unknown".into(), |s| format!("{s:.2}")),
        out.setup_s,
        chunk - tail_rank,
        chunks.len(),
    );

    let mut metrics = BTreeMap::new();
    match &out.trace {
        None => {
            let mut values: BTreeMap<&str, f64> =
                stats::end_to_end(&out.records).into_iter().collect();
            values.insert("setup_s", stats::median(&out.setup_s));
            values.insert("peak_rss_mb", rss.unwrap_or(f64::NAN));
            for (name, unit) in END_TO_END {
                metrics.insert(name.to_string(), metric_json(values[name], unit));
            }
        }
        Some(trace) => {
            for line in &trace.lines {
                println!("{line}");
            }
            if trace.digest != out.digest {
                failures.push(format!(
                    "traced pass digest {} differs from untraced {digest}",
                    qjo_obs::fnv1a64_hex(trace.digest.as_bytes())
                ));
            }
            failures.extend(trace.failures.iter().map(|f| format!("traced: {f}")));
            let stats = qjo_obs::trace::stats();
            if stats.dropped > 0 {
                failures.push(format!("trace ring dropped {} slices", stats.dropped));
            }
            for (name, unit) in PER_LAYER {
                let value = trace.metrics.get(name).copied().unwrap_or(0.0);
                metrics.insert(name.to_string(), metric_json(value, unit));
            }
        }
    }
    for f in &failures {
        eprintln!("FAILED {f}");
    }
    let failed = out.records.iter().filter(|r| !r.ok).count();
    let correct = failures.is_empty();
    let mut result = BTreeMap::new();
    result.insert("correct".to_string(), Json::Bool(correct));
    result.insert("attempted".to_string(), Json::from(n as u64));
    result.insert("failed".to_string(), Json::from(failed as u64));
    result.insert("metrics".to_string(), Json::Obj(metrics));
    println!("{}", Json::Obj(result).render_compact());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares the metrics a run prints: the two lists
    /// must agree name for name and unit for unit.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let args = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let ok = args("--workload serve-cold --seed 3 --seconds 20 --trace 1").expect("valid");
        assert!(matches!(ok.workload, Workload::ServeCold));
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 20, true));
        assert!(args("--workload serve-cold --seed 3 --seconds 20").is_err());
        assert!(args("--workload nope --seed 3 --seconds 20 --trace 0").is_err());
        assert!(args("--workload paper-qaoa --seed x --seconds 20 --trace 0").is_err());
        assert!(args("--workload paper-qaoa --seed 1 --seconds 20 --trace 2").is_err());
    }
}
