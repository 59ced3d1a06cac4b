//! The `serve-warm` and `serve-cold` workloads: request lines through the
//! wire path (`parse_request` → `Service::handle` → `render_response`) of
//! the full smoke roster, one closed-loop client, sequential solvers.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use qjo::anneal::hardware::pegasus_like;
use qjo::anneal::AnnealerSampler;
use qjo::core::classical::dp_optimal;
use qjo::core::{JoEncoder, JoinOrder, Query, QueryGenerator, QueryGraph};
use qjo::exec::{stream_seed, Parallelism};
use qjo::serve::fingerprint::relabel;
use qjo::serve::{canonicalize, parse_request, render_response, FingerprintConfig, Service};
use qjo_obs::json::Json;
use qjo_obs::trace::slice_scope;

use crate::attrib::{self, Attribution};
use crate::stats::OpRecord;
use crate::{Draws, Outcome, Trace, SUITE};

/// Every backend the service registers, in equal shares on serve-warm.
const BACKENDS: [&str; 8] = ["auto", "annealer", "dp", "greedy", "qaoa", "sa", "sqa", "tabu"];
/// Deadlines in equal shares on serve-warm: none, generous, and tight
/// enough that admission diverts every backend whose model cost exceeds it.
const DEADLINES: [Option<u64>; 3] = [None, Some(60_000), Some(2)];
const SHAPES: [QueryGraph; 3] = [QueryGraph::Chain, QueryGraph::Star, QueryGraph::Cycle];
const SIZES: [usize; 2] = [3, 4];
/// serve-cold warm-up classes that take the annealer's cold path; the rest
/// of the cache is filled with formulation-only classes.
const COLD_WARMUP_EMBEDS: usize = 2;

/// The service's solver seed, fixed like the query suite (see [`SUITE`]).
const SERVICE_SEED: u64 = 0;

/// Draw streams, one per input family, so each is a pure function of its
/// seed and independent of how many draws the others take.
const POOL: u64 = 1;
const MEASURED: u64 = 2;
const WARMUP: u64 = 3;
const FRONTIER: u64 = 4;

/// Counters the traced pass reads around every op.
const COUNTERS: [&str; 9] = [
    "sa.sweeps",
    "tabu.iterations",
    "sqa.sweeps",
    "anneal.reads",
    "embed.tries",
    "resil.anneal.embed.exhausted",
    "resil.serve.solve.retries",
    "formulate.qubo_vars",
    "formulate.milps",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Warm,
    Cold,
}

/// One measured request.
struct Input {
    id: String,
    line: String,
    query: Query,
    backend: &'static str,
}

/// A built service and the inputs it will serve.
struct State {
    service: Service,
    inputs: Vec<Input>,
}

/// Requests per run for `seconds`: a pure function of the arguments, sized
/// so a run measures for about that long on a 2-core x86-64 container.
/// serve-warm keeps a multiple of 24 so backends and deadlines get exactly
/// equal shares; serve-cold a multiple of 6 so shapes and sizes do.
fn op_count(kind: Kind, seconds: u64) -> usize {
    match kind {
        Kind::Warm => 24 * 25 * seconds as usize,
        Kind::Cold => 6 * (seconds as usize / 4).max(1),
    }
}

fn request_line(id: &str, backend: &str, deadline_ms: Option<u64>, query: &Query) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("id".to_string(), Json::from(id));
    obj.insert("backend".to_string(), Json::from(backend));
    if let Some(ms) = deadline_ms {
        obj.insert("deadline_ms".to_string(), Json::from(ms));
    }
    obj.insert(
        "relations".to_string(),
        Json::Arr(query.log_cards().iter().map(|&c| Json::from(c)).collect()),
    );
    let predicates = query
        .predicates()
        .iter()
        .map(|p| {
            let mut o = BTreeMap::new();
            o.insert("rel_a".to_string(), Json::from(p.rel_a as u64));
            o.insert("rel_b".to_string(), Json::from(p.rel_b as u64));
            o.insert("log_sel".to_string(), Json::from(p.log_sel));
            Json::Obj(o)
        })
        .collect();
    obj.insert("predicates".to_string(), Json::Arr(predicates));
    Json::Obj(obj).render_compact()
}

/// A query of `shape` over `t` relations whose fingerprint class is not
/// in `seen`; its class is added to `seen`.
fn novel_query(
    shape: QueryGraph,
    t: usize,
    draws: &mut Draws,
    seen: &mut BTreeSet<String>,
) -> Query {
    let gen = QueryGenerator::paper_defaults(shape, t);
    for _ in 0..10_000 {
        let q = gen.generate(draws.draw());
        if seen.insert(canonicalize(&q, &FingerprintConfig::default()).fingerprint) {
            return q;
        }
    }
    panic!("no unseen {shape:?} class over {t} relations in 10000 draws");
}

/// A relabelled isomorph of `base` with sub-bucket cardinality jitter, as
/// the load generator makes them: byte-distinct, same fingerprint class.
fn isomorph(base: &Query, draws: &mut Draws) -> Query {
    let iso = relabel(base, &draws.permutation(base.num_relations()));
    // Integer log cardinalities with at most ±0.3 jitter stay inside their
    // width-1 bucket.
    let cards = iso.log_cards().iter().map(|&c| c + (draws.below(7) as f64 - 3.0) * 0.1).collect();
    Query::new(cards, iso.predicates().to_vec())
}

fn service() -> Service {
    qjo::sched::smoke_service(SERVICE_SEED, Parallelism::sequential()).0
}

fn input(id: String, backend: &'static str, deadline_ms: Option<u64>, query: Query) -> Input {
    let line = request_line(&id, backend, deadline_ms, &query);
    Input { id, line, query, backend }
}

/// Serves warm-up lines, failing loudly if one errors: a warm-up that
/// fails would leave the measured phase on another path than intended.
fn warm_up(service: &Service, inputs: &[Input]) {
    for i in inputs {
        let req = parse_request(&i.line).expect("warm-up lines parse");
        let resp = service.handle(&req);
        assert!(resp.error.is_none(), "warm-up request {} failed: {:?}", i.id, resp.error);
        black_box(render_response(&resp));
        service.drain_events();
    }
}

/// serve-warm set-up: the service, the pool of six classes (chain, star,
/// cycle × 3 and 4 relations), every class's formulation and embedding,
/// one warm-up round of every backend × deadline on isomorphs no measured
/// request uses, and the measured requests.
fn setup_warm(seed: u64, ops: usize) -> State {
    let service = service();
    let mut seen = BTreeSet::new();
    let mut suite = Draws::new(stream_seed(SUITE, POOL));
    let pool: Vec<Query> = SIZES
        .iter()
        .flat_map(|&t| SHAPES.iter().map(move |&shape| (shape, t)))
        .map(|(shape, t)| novel_query(shape, t, &mut suite, &mut seen))
        .collect();

    let mut draws = Draws::new(stream_seed(seed, MEASURED));
    let inputs: Vec<Input> = (0..ops)
        .map(|k| {
            let base = &pool[draws.below(pool.len())];
            let query = if draws.below(2) == 1 { isomorph(base, &mut draws) } else { base.clone() };
            input(format!("r{k}"), BACKENDS[k % 8], DEADLINES[(k / 8) % 3], query)
        })
        .collect();

    let measured: BTreeSet<String> =
        inputs.iter().map(|i| request_line("", "", None, &i.query)).collect();
    let mut draws = Draws::new(stream_seed(seed, WARMUP));
    let mut disjoint = |base: &Query| loop {
        let q = isomorph(base, &mut draws);
        if !measured.contains(&request_line("", "", None, &q)) {
            return q;
        }
    };
    let mut warm: Vec<Input> = pool
        .iter()
        .enumerate()
        .map(|(c, base)| input(format!("w{c}"), "annealer", None, disjoint(base)))
        .collect();
    for k in 0..24 {
        let q = disjoint(&pool[k % pool.len()]);
        warm.push(input(format!("w{}", warm.len()), BACKENDS[k % 8], DEADLINES[(k / 8) % 3], q));
    }
    warm_up(&service, &warm);
    State { service, inputs }
}

/// serve-cold set-up: measured requests are annealer requests, each an
/// isomorph of a class never seen before, in shuffled order; the warm-up
/// takes the cold path on other classes and fills the rest of the cache
/// with formulation-only classes, so every measured request misses,
/// inserts and evicts.
fn setup_cold(seed: u64, ops: usize) -> State {
    let service = service();
    let mut seen = BTreeSet::new();
    let mut suite = Draws::new(stream_seed(SUITE, MEASURED));
    let classes: Vec<Query> = (0..ops)
        .map(|k| novel_query(SHAPES[k % 3], SIZES[(k / 3) % 2], &mut suite, &mut seen))
        .collect();
    let mut suite = Draws::new(stream_seed(SUITE, WARMUP));
    let warm_classes: Vec<Query> = (0..service.cache().capacity())
        .map(|k| {
            let t = if k < COLD_WARMUP_EMBEDS { 3 } else { 4 };
            novel_query(SHAPES[k % 3], t, &mut suite, &mut seen)
        })
        .collect();

    let mut draws = Draws::new(stream_seed(seed, MEASURED));
    let inputs: Vec<Input> = draws
        .permutation(ops)
        .into_iter()
        .enumerate()
        .map(|(k, c)| input(format!("c{k}"), "annealer", None, isomorph(&classes[c], &mut draws)))
        .collect();
    let mut draws = Draws::new(stream_seed(seed, WARMUP));
    let warm: Vec<Input> = warm_classes
        .iter()
        .enumerate()
        .map(|(k, class)| {
            let backend = if k < COLD_WARMUP_EMBEDS { "annealer" } else { "sa" };
            input(format!("w{k}"), backend, None, isomorph(class, &mut draws))
        })
        .collect();
    warm_up(&service, &warm);
    assert_eq!(service.cache().len(), service.cache().capacity(), "warm-up fills the cache");
    State { service, inputs }
}

fn setup(kind: Kind, seed: u64, ops: usize) -> State {
    match kind {
        Kind::Warm => setup_warm(seed, ops),
        Kind::Cold => setup_cold(seed, ops),
    }
}

/// One op: request line in, response line out. When traced, each public
/// call runs in a slice named with the op id, and a probe
/// `FormulationCache::canonicalize` times the fingerprint on its own.
fn serve_line(service: &Service, input: &Input, traced: bool) -> Result<String, String> {
    let id = &input.id;
    let slice = |call: &str| traced.then(|| slice_scope(format!("bench.{call}/{id}")));
    let _op = slice("op");
    let req = {
        let _s = slice("parse_request");
        parse_request(&input.line)?
    };
    if traced {
        let _s = slice("canonicalize");
        black_box(service.cache().canonicalize(&req.query));
    }
    let resp = {
        let _s = slice("handle");
        service.handle(&req)
    };
    let _s = slice("render_response");
    Ok(render_response(&resp))
}

/// What the checks read from one served request.
struct Served {
    record: OpRecord,
    digest: String,
    cache: Option<String>,
    embed: Option<&'static str>,
    race: Option<Race>,
}

/// The outcome of an `auto` portfolio race, from the request's event.
struct Race {
    winner: String,
    /// Racers that entered, besides the anytime stage.
    entered: usize,
    cancelled: usize,
}

fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1.0)
}

/// Checks one response line against the request and the exact optimum.
fn check(
    kind: Kind,
    input: &Input,
    dp_cost: f64,
    line: &str,
    event: Option<qjo::serve::ServeEvent>,
) -> Result<Served, String> {
    let doc = Json::parse(line).map_err(|e| format!("response is not JSON: {e:?}"))?;
    if let Some(err) = doc.get("error").and_then(Json::as_str) {
        return Err(format!("error response: {err}"));
    }
    if doc.get("id").and_then(Json::as_str) != Some(input.id.as_str()) {
        return Err("response id does not echo the request".into());
    }
    let order: Vec<usize> = doc
        .get("order")
        .and_then(Json::as_arr)
        .ok_or("response has no order")?
        .iter()
        .map(|v| v.as_u64().map(|i| i as usize).ok_or("order entry is not an index"))
        .collect::<Result<_, _>>()?;
    let t = input.query.num_relations();
    let plan = JoinOrder::new(order.clone(), t)
        .ok_or_else(|| format!("order {order:?} is not a permutation of {t} relations"))?;
    let cost = doc.get("cost").and_then(Json::as_f64).ok_or("response has no cost")?;
    let recomputed = plan.cost(&input.query);
    if relative_gap(cost, recomputed) > 1e-9 {
        return Err(format!("reported cost {cost} != recomputed {recomputed}"));
    }
    if cost < dp_cost * (1.0 - 1e-9) {
        return Err(format!("cost {cost} beats the exact optimum {dp_cost}"));
    }
    let fallback = doc.get("fallback") == Some(&Json::Bool(true));
    let deadline_miss = doc.get("deadline_miss") == Some(&Json::Bool(true));
    let cache = doc.get("cache").and_then(Json::as_str).map(str::to_string);
    let event = event.filter(|e| e.id == input.id).ok_or("no event recorded for the request")?;
    if kind == Kind::Cold && (cache.as_deref() != Some("miss") || event.embed != Some("cold")) {
        return Err(format!(
            "cold request served with cache {cache:?} and embed {:?}",
            event.embed
        ));
    }
    let race = event.winner.as_ref().map(|winner| {
        let count = |s: &Option<String>| {
            s.as_deref().map_or(0, |s| s.split(',').filter(|n| !n.is_empty()).count())
        };
        // The portfolio always lists `anytime`; the rest entered the race.
        Race {
            winner: winner.clone(),
            entered: count(&event.portfolio).saturating_sub(1),
            cancelled: count(&event.cancelled),
        }
    });
    let digest = format!(
        "{} {:?} {:016x} {} {} {fallback} {deadline_miss}\n",
        input.id,
        order,
        cost.to_bits(),
        cache.as_deref().unwrap_or("-"),
        event.embed.unwrap_or("-"),
    );
    let record = OpRecord {
        latency: Duration::ZERO,
        ok: true,
        by_backend: !fallback,
        cost_ratio: Some(cost / dp_cost),
        valid: 1.0,
        optimal: if relative_gap(cost, dp_cost) <= 1e-9 { 1.0 } else { 0.0 },
    };
    Ok(Served { record, digest, cache, embed: event.embed, race })
}

fn counters() -> [u64; COUNTERS.len()] {
    COUNTERS.map(|name| qjo_obs::counter(name).get())
}

/// Per-op facts the traced pass collects outside the op slices.
struct OpTrace {
    id: String,
    backend: &'static str,
    counters: [u64; COUNTERS.len()],
    served: Option<Served>,
    physical_qubits: Option<usize>,
}

/// Serves every input in order, one at a time.
fn pass(kind: Kind, state: &State, refs: &[f64], traced: bool) -> (Outcome, Vec<OpTrace>) {
    let mut out = Outcome::default();
    let mut traces = Vec::new();
    let start = Instant::now();
    for (input, &dp_cost) in state.inputs.iter().zip(refs) {
        let before = traced.then(counters);
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| serve_line(&state.service, input, traced)));
        let latency = t0.elapsed();
        let after = traced.then(counters);
        let event = state.service.drain_events().pop();
        let checked = match result {
            Ok(Ok(line)) => check(kind, input, dp_cost, &line, event),
            Ok(Err(e)) => Err(format!("request rejected: {e}")),
            Err(_) => Err("handler panicked".into()),
        };
        let served = match checked {
            Ok(mut s) => {
                s.record.latency = latency;
                out.records.push(s.record.clone());
                out.digest.push_str(&s.digest);
                Some(s)
            }
            Err(e) => {
                out.records.push(OpRecord {
                    latency,
                    ok: false,
                    by_backend: false,
                    cost_ratio: None,
                    valid: 0.0,
                    optimal: 0.0,
                });
                out.digest.push_str(&format!("{} failed\n", input.id));
                out.failures.push(format!("{}: {e}", input.id));
                None
            }
        };
        if let (Some(before), Some(after)) = (before, after) {
            let mut delta = [0; COUNTERS.len()];
            for (d, (a, b)) in delta.iter_mut().zip(after.iter().zip(before)) {
                *d = a - b;
            }
            let physical_qubits = served
                .as_ref()
                .filter(|s| s.embed == Some("cold"))
                .and_then(|_| embedded_qubits(&state.service, &input.query));
            traces.push(OpTrace {
                id: input.id.clone(),
                backend: input.backend,
                counters: delta,
                served,
                physical_qubits,
            });
        }
    }
    out.wall = start.elapsed();
    (out, traces)
}

/// Physical qubits of the embedding now cached for `query`'s class. The
/// read counts one embedding-cache hit, which no request sees: it happens
/// after the op and outside its slices.
fn embedded_qubits(service: &Service, query: &Query) -> Option<usize> {
    let (_, entry) = service.cache().peek(query);
    let embedding = entry?.embedding_or_insert(|_| {
        Err(qjo::anneal::AnnealError::EmbeddingFailed { num_vars: 0, num_qubits: 0 })
    });
    embedding.ok().map(|e| e.num_physical_qubits())
}

/// CPU time of the calling thread, when the kernel reports it.
fn thread_cpu() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    Some(Duration::from_nanos(stat.split_whitespace().next()?.parse().ok()?))
}

/// `AnnealerSampler::embed` on one 5-relation chain, star and cycle class
/// on the serving graph: the formulation the cache would build for the
/// class, embedded as a cold annealer request would embed it.
///
/// Each embed takes about a minute when its retries run out, so the three
/// run on a thread each, which keeps a traced serve-cold run under three
/// minutes. Each is timed by its thread's CPU time, which sharing the
/// cores with the other two does not inflate.
fn frontier_probe(trace: &mut Trace) {
    let sampler = AnnealerSampler::new(pegasus_like(8));
    let mut suite = Draws::new(stream_seed(SUITE, FRONTIER));
    let mut seen = BTreeSet::new();
    let formulations: Vec<_> = SHAPES
        .iter()
        .map(|&shape| {
            let query = novel_query(shape, 5, &mut suite, &mut seen);
            let canonical = canonicalize(&query, &FingerprintConfig::default()).query;
            (shape, JoEncoder::default().encode(&canonical))
        })
        .collect();
    let exhausted = qjo_obs::counter("resil.anneal.embed.exhausted");
    let before = exhausted.get();
    let probes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = formulations
            .iter()
            .map(|(shape, formulation)| {
                let sampler = &sampler;
                scope.spawn(move || {
                    let (cpu0, t0) = (thread_cpu(), Instant::now());
                    let result = sampler.embed(&formulation.qubo);
                    let wall = t0.elapsed();
                    let cpu = thread_cpu().zip(cpu0).map_or(wall, |(c1, c0)| c1 - c0);
                    (*shape, formulation.qubo.num_vars(), cpu, wall, result)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("an embed probe panicked")).collect()
    });
    let mut total = Duration::ZERO;
    for (shape, vars, cpu, wall, result) in probes {
        total += cpu;
        trace.lines.push(format!(
            "frontier {shape:?} t=5 vars={vars} embed_cpu_ms={:.1} wall_ms={:.1} result={}",
            cpu.as_secs_f64() * 1e3,
            wall.as_secs_f64() * 1e3,
            match result {
                Ok(e) => format!("embedded on {} qubits", e.num_physical_qubits()),
                Err(e) => format!("failed: {e}"),
            }
        ));
    }
    let n = SHAPES.len() as f64;
    trace.metric("anneal.embed.frontier_ms", total.as_secs_f64() * 1e3 / n);
    trace.metric("anneal.embed.frontier_fail_rate", (exhausted.get() - before) as f64 / n);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The serve per-layer metrics of one traced pass.
fn layer_metrics(a: &Attribution, ops: &[OpTrace], evictions: u64, trace: &mut Trace) {
    let span = |k: &str| a.spans.get(k).copied().unwrap_or_default();
    let mean_ms = |k: &str| ratio(span(k).total_ns as f64 / 1e6, span(k).calls as f64);
    let total_s = |k: &str| span(k).total_ns as f64 / 1e9;
    let index = |name: &str| COUNTERS.iter().position(|c| *c == name).expect("a read counter");
    let counter = |name: &str, ops: &[&OpTrace]| {
        ops.iter().map(|o| o.counters[index(name)]).sum::<u64>() as f64
    };
    let all: Vec<&OpTrace> = ops.iter().collect();
    let sum = |name: &str| counter(name, &all);
    let handle_self_ns = |o: &OpTrace| {
        a.per_op.get(&o.id).and_then(|l| l.get("serve.handle_self")).copied().unwrap_or(0) as f64
    };

    trace.metric("serve.parse_us", mean_ms("bench.parse_request") * 1e3);
    trace.metric("serve.fingerprint_us", mean_ms("bench.canonicalize") * 1e3);
    trace.metric("serve.render_us", mean_ms("bench.render_response") * 1e3);
    for backend in BACKENDS {
        let mine: Vec<&OpTrace> = ops.iter().filter(|o| o.backend == backend).collect();
        let ns: f64 = mine.iter().map(|o| handle_self_ns(o)).sum();
        trace
            .metric(&format!("serve.handle_self_us.{backend}"), ratio(ns / 1e3, mine.len() as f64));
    }

    let served: Vec<&Served> = ops.iter().filter_map(|o| o.served.as_ref()).collect();
    let count = |f: &dyn Fn(&Served) -> bool| served.iter().filter(|s| f(s)).count() as f64;
    let lookups = count(&|s| s.cache.is_some());
    trace.metric(
        "serve.cache.hit_rate",
        ratio(count(&|s| s.cache.as_deref() == Some("hit")), lookups),
    );
    trace.metric(
        "serve.cache.embed_hit_rate",
        ratio(count(&|s| s.embed == Some("hit")), count(&|s| s.embed.is_some())),
    );
    trace.metric("serve.cache.evictions", evictions as f64);
    trace.metric("serve.solve.retry_rate", ratio(sum("resil.serve.solve.retries"), lookups));
    let races: Vec<&Race> = served.iter().filter_map(|s| s.race.as_ref()).collect();
    let anytime = races.iter().filter(|r| r.winner == "anytime").count() as f64;
    let entered: usize = races.iter().map(|r| r.entered).sum();
    let cancelled: usize = races.iter().map(|r| r.cancelled).sum();
    trace.metric("sched.anytime_win_rate", ratio(anytime, races.len() as f64));
    trace.metric("sched.cancel_rate", ratio(cancelled as f64, entered as f64));

    trace.metric("core.formulate_ms", mean_ms("serve.formulate"));
    trace.metric("core.qubo_vars", ratio(sum("formulate.qubo_vars"), sum("formulate.milps")));
    trace.metric("qubo.sa_ms", mean_ms("qubo.sa.sample"));
    trace.metric("qubo.sa.sweeps_per_s", ratio(sum("sa.sweeps"), total_s("qubo.sa.sample")));
    trace.metric("qubo.tabu_ms", mean_ms("qubo.tabu.solve"));
    trace.metric(
        "qubo.tabu.iterations_per_s",
        ratio(sum("tabu.iterations"), total_s("qubo.tabu.solve")),
    );

    let embeds = span("anneal.embed").calls as f64;
    trace.metric("anneal.embed_ms", mean_ms("anneal.embed"));
    trace.metric("anneal.embed.tries_per_embed", ratio(sum("embed.tries"), embeds));
    trace.metric("anneal.embed.fail_rate", ratio(sum("resil.anneal.embed.exhausted"), embeds));
    let qubits: Vec<usize> = ops.iter().filter_map(|o| o.physical_qubits).collect();
    trace.metric(
        "anneal.embed.physical_qubits",
        ratio(qubits.iter().sum::<usize>() as f64, qubits.len() as f64),
    );
    trace.metric("anneal.sample_ms", mean_ms("anneal.sample"));
    trace.metric("anneal.reads_per_s", ratio(sum("anneal.reads"), total_s("anneal.sample")));
    // The sqa backend samples without a program span: its sweeps are
    // timed by the handler self time of the requests that swept.
    let sqa: Vec<&OpTrace> =
        ops.iter().filter(|o| o.backend == "sqa" && o.counters[index("sqa.sweeps")] > 0).collect();
    let sqa_s: f64 = sqa.iter().map(|o| handle_self_ns(o)).sum::<f64>() / 1e9;
    trace.metric("anneal.sqa.sweeps_per_s", ratio(counter("sqa.sweeps", &sqa), sqa_s));
}

/// Runs a serve workload: `setups` set-ups (the last one is served), the
/// timed pass, and with `trace` a traced pass over the same inputs on a
/// fresh set-up.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: u64,
    setups: usize,
    traced: bool,
    start: Instant,
) -> Outcome {
    let ops = op_count(kind, seconds);
    let (setup_s, state) = crate::repeat_setup(setups, start, || setup(kind, seed, ops));
    let refs: Vec<f64> = state.inputs.iter().map(|i| dp_optimal(&i.query).1).collect();
    let (mut out, _) = pass(kind, &state, &refs, false);
    out.setup_s = setup_s;
    if !traced {
        return out;
    }
    let lines: Vec<String> = state.inputs.into_iter().map(|i| i.line).collect();
    drop(state.service);
    let fresh = setup(kind, seed, ops);
    assert!(
        fresh.inputs.iter().map(|i| &i.line).eq(lines.iter()),
        "inputs are a pure function of the seed"
    );
    let evictions_before = fresh.service.cache().stats().evictions;
    crate::start_trace();
    let (traced_out, ops_traced) = pass(kind, &fresh, &refs, true);
    qjo_obs::trace::stop();
    let evictions = fresh.service.cache().stats().evictions - evictions_before;
    let attribution = attrib::attribute(&qjo_obs::trace::snapshot_events());
    let mut trace = Trace::new(&attribution, &out, &traced_out);
    layer_metrics(&attribution, &ops_traced, evictions, &mut trace);
    if kind == Kind::Cold {
        frontier_probe(&mut trace);
    }
    out.trace = Some(trace);
    out
}
