//! The `auto` backend's matched replay: one deterministic 32-request
//! deadline mix served by a fresh smoke service per backend, so every
//! backend answers the identical workload at the same model budgets.
//!
//! The mix: 4-relation chain/star/cycle queries under deadlines
//! {none, 30 ms, 60 s, 1 ms}; 6-relation queries under 1 s, which admits
//! every classical path and diverts the annealer's cold-embed estimate;
//! and 42-relation chains at 1 ms, which only greedy answers in time.
//!
//! Admission runs on the static model, so the whole outcome is a pure
//! function of the seed, and this test pins it exactly: the per-backend
//! SLO counts and geometric-mean plan costs (`auto` meets 26 deadlines
//! against dp's 24, and its cost is below greedy's), the hash of the
//! canonical event log, and every global counter the replay moves. The
//! counters are process-global, so this file holds exactly one test.

use std::collections::BTreeMap;

use qjo_core::{Query, QueryGenerator, QueryGraph};
use qjo_exec::{stream_seed, Parallelism};
use qjo_serve::events::{render_canonical, validate_events};
use qjo_serve::{Request, ServeEvent, Service};

const SEED: u64 = 7;

/// Report order: `auto` first, the static roster alphabetically after it.
const BACKENDS: [&str; 8] = ["auto", "annealer", "dp", "greedy", "qaoa", "sa", "sqa", "tabu"];

/// `backend,requests,deadlines,slo_met,slo_degraded,slo_missed,geomean_cost`
/// per backend. The geometric mean weighs every instance equally: plan
/// costs span about 30 orders of magnitude across the mix.
const REPORT: &str = "\
auto,32,26,26,0,0,1.571958e8
annealer,32,26,6,20,0,1.965455e8
dp,32,26,24,2,0,1.571958e8
greedy,32,26,26,0,0,1.572045e8
qaoa,32,26,0,26,0,1.572045e8
sa,32,26,3,23,0,1.572045e8
sqa,32,26,22,4,0,3.616156e8
tabu,32,26,18,8,0,7.391432e8
";

/// FNV-1a 64 of the canonical (latency-free) event log of all eight
/// replays, densely re-sequenced.
const CANONICAL_HASH: &str = "5f9276a36fb370cc";

/// Global counter deltas of the whole replay, `resil.*` and
/// `serve.slo.*` included.
const COUNTERS: &[(&str, u64)] = &[
    ("anneal.reads", 272),
    ("embed.tries", 9),
    ("formulate.milps", 42),
    ("formulate.qubo_vars", 3984),
    ("resil.serve.solve.exhausted", 51),
    ("resil.serve.solve.recovered", 38),
    ("resil.serve.solve.retries", 158),
    ("sa.restarts", 328),
    ("sa.sweeps", 32800),
    ("serve.cache.embed_hit", 62),
    ("serve.cache.embed_miss", 6),
    ("serve.cache.hit", 72),
    ("serve.cache.miss", 42),
    ("serve.deadline.miss", 12),
    ("serve.fallback", 99),
    ("serve.requests", 256),
    ("serve.slo.degraded", 83),
    ("serve.slo.degraded.annealer", 20),
    ("serve.slo.degraded.dp", 2),
    ("serve.slo.degraded.qaoa", 26),
    ("serve.slo.degraded.sa", 23),
    ("serve.slo.degraded.sqa", 4),
    ("serve.slo.degraded.tabu", 8),
    ("serve.slo.met", 125),
    ("serve.slo.met.annealer", 6),
    ("serve.slo.met.auto", 26),
    ("serve.slo.met.dp", 24),
    ("serve.slo.met.greedy", 26),
    ("serve.slo.met.sa", 3),
    ("serve.slo.met.sqa", 22),
    ("serve.slo.met.tabu", 18),
    ("serve.solve.fallback", 51),
    ("serve.unsupported", 36),
    ("sqa.anneals", 528),
    ("sqa.sweeps", 4224),
    ("tabu.iterations", 46400),
    ("tabu.restarts", 116),
];

/// The mix: `(query, deadline_ms)` pairs shared verbatim by every replay.
fn instances(seed: u64) -> Vec<(Query, Option<u64>)> {
    let shapes = [QueryGraph::Chain, QueryGraph::Star, QueryGraph::Cycle];
    let mut small = Vec::new();
    for (i, &shape) in shapes.iter().enumerate() {
        for j in 0..2u64 {
            let seed = stream_seed(seed, i as u64 * 2 + j);
            small.push(QueryGenerator::paper_defaults(shape, 4).generate(seed));
        }
    }
    let mut out = Vec::new();
    for deadline in [None, Some(30), Some(60_000), Some(1)] {
        out.extend(small.iter().map(|q| (q.clone(), deadline)));
    }
    for (i, &shape) in shapes.iter().enumerate() {
        for j in 0..2u64 {
            let seed = stream_seed(seed, 200 + i as u64 * 2 + j);
            out.push((QueryGenerator::paper_defaults(shape, 6).generate(seed), Some(1_000)));
        }
    }
    for j in 0..2u64 {
        let seed = stream_seed(seed, 100 + j);
        out.push((QueryGenerator::paper_defaults(QueryGraph::Chain, 42).generate(seed), Some(1)));
    }
    out
}

#[test]
fn matched_replay_reproduces_the_pinned_outcome() {
    let before = qjo_obs::global().snapshot();
    let mix = instances(SEED);
    assert_eq!(mix.len(), 32);
    let mut report = String::new();
    let mut events: Vec<ServeEvent> = Vec::new();
    for backend in BACKENDS {
        let service = Service::smoke(SEED, Parallelism::auto());
        let mut log_costs = Vec::new();
        for (k, (query, deadline_ms)) in mix.iter().enumerate() {
            let req = Request {
                id: format!("{backend}-r{k}"),
                backend: backend.to_string(),
                deadline_ms: *deadline_ms,
                query: query.clone(),
            };
            log_costs.extend(service.handle(&req).cost.map(f64::ln));
        }
        let replay = service.drain_events();
        let slo = |class| replay.iter().filter(|e| e.slo == Some(class)).count();
        let deadlines = mix.iter().filter(|(_, d)| d.is_some()).count();
        let geomean = (log_costs.iter().sum::<f64>() / log_costs.len() as f64).exp();
        report.push_str(&format!(
            "{backend},{},{deadlines},{},{},{},{geomean:.6e}\n",
            mix.len(),
            slo("met"),
            slo("degraded"),
            slo("missed"),
        ));
        events.extend(replay);
    }
    // One dense sequence across the concatenated replays, so the log
    // validates as a single stream.
    for (i, event) in events.iter_mut().enumerate() {
        event.seq = i as u64;
    }
    assert_eq!(report, REPORT);
    assert_eq!(events.len(), 256);
    assert_eq!(validate_events(&events), Vec::<String>::new());
    assert_eq!(qjo_obs::fnv1a64_hex(render_canonical(&events).as_bytes()), CANONICAL_HASH);
    let deltas = qjo_obs::global().snapshot().counter_deltas_since(&before);
    let expected: BTreeMap<String, u64> =
        COUNTERS.iter().map(|&(name, n)| (name.to_string(), n)).collect();
    assert_eq!(deltas, expected);
}
