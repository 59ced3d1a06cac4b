//! The serving core: backend registry, deterministic deadline admission,
//! and one-request-at-a-time handling.
//!
//! Deadline semantics are *model-based*, not measured: a request with
//! `deadline_ms` is admitted to its backend only when the backend's
//! [`pre_check`](crate::optimizer::JoinOrderOptimizer::pre_check)
//! estimate (nominal µs from a static work model) fits inside
//! `deadline_ms × 1000`. A predicted miss is answered by the greedy
//! fallback instead — so whether a request falls back is a pure function
//! of the request stream, identical at any thread count or machine
//! speed, and the drift-gated report can assert on it byte-exactly.
//! Wall-clock latencies are still measured (the `serve.request` span and
//! the volatile latency artifact) — they just never steer control flow.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use qjo_anneal::AnnealerSampler;
use qjo_core::JoEncoder;
use qjo_exec::Parallelism;
use qjo_obs::json::Json;
use qjo_qubo::solve::{SimulatedAnnealing, TabuSearch};

use crate::backends::{
    AnnealerBackend, AutoBackend, DpBackend, GreedyBackend, QaoaBackend, SaBackend, SqaBackend,
    TabuBackend,
};
use crate::cache::FormulationCache;
use crate::events::ServeEvent;
use crate::fingerprint::FingerprintConfig;
use crate::optimizer::{JoinOrderOptimizer, Plan};
use crate::request::{Request, Response};
use crate::telemetry::Telemetry;

/// The serving registry: named backends over one shared formulation
/// cache, with the greedy planner as the universal fallback.
pub struct Service {
    backends: BTreeMap<String, Box<dyn JoinOrderOptimizer>>,
    cache: Arc<FormulationCache>,
    telemetry: Telemetry,
}

/// What `handle_inner` decided, for the event record.
struct HandleMeta {
    admitted: bool,
    reason: Option<&'static str>,
    est_cost_us: Option<u64>,
    /// Embedding-cache outcome the *plan itself* reported (actual
    /// post-execution state, immune to concurrent cache traffic).
    embed: Option<&'static str>,
}

impl HandleMeta {
    fn diverted(reason: &'static str, est_cost_us: Option<u64>) -> Self {
        HandleMeta { admitted: false, reason: Some(reason), est_cost_us, embed: None }
    }
}

impl Service {
    /// A service over an explicit backend registry.
    pub fn new(
        backends: BTreeMap<String, Box<dyn JoinOrderOptimizer>>,
        cache: Arc<FormulationCache>,
    ) -> Self {
        Service { backends, cache, telemetry: Telemetry::new() }
    }

    /// The full backend roster at smoke scale: `auto` and every solver
    /// family, with read/iteration budgets small enough for CI but large
    /// enough to exercise the whole pipeline (including real
    /// minor-embeddings).
    ///
    /// `seed` fans out to every stochastic backend; `parallelism` only
    /// affects wall-clock (all solvers are seed-stable by construction).
    pub fn smoke(seed: u64, parallelism: Parallelism) -> Self {
        let cache =
            Arc::new(FormulationCache::new(JoEncoder::default(), FingerprintConfig::default(), 64));
        let mut backends: BTreeMap<String, Box<dyn JoinOrderOptimizer>> = BTreeMap::new();
        backends.insert("auto".into(), Box::new(AutoBackend));
        backends.insert("dp".into(), Box::new(DpBackend));
        backends.insert("greedy".into(), Box::new(GreedyBackend));
        backends.insert(
            "sa".into(),
            Box::new(SaBackend {
                cache: cache.clone(),
                solver: SimulatedAnnealing {
                    restarts: 4,
                    sweeps: 100,
                    seed,
                    parallelism,
                    ..SimulatedAnnealing::default()
                },
            }),
        );
        backends.insert(
            "tabu".into(),
            Box::new(TabuBackend {
                cache: cache.clone(),
                solver: TabuSearch {
                    restarts: 2,
                    iterations: 400,
                    seed,
                    parallelism,
                    ..TabuSearch::default()
                },
            }),
        );
        backends.insert(
            "sqa".into(),
            Box::new(SqaBackend {
                cache: cache.clone(),
                config: qjo_anneal::SqaConfig {
                    seed,
                    parallelism,
                    ..qjo_anneal::SqaConfig::default()
                },
                annealing_time_us: 4.0,
                num_reads: 4,
            }),
        );
        let mut sampler = AnnealerSampler::new(qjo_anneal::hardware::pegasus_like(8));
        // Few reads: the smoke profile's warm path is dominated by the
        // gauge sampling itself, and keeping it lean is what makes the
        // cached-embedding speedup unmistakable next to a cold embed.
        sampler.num_reads = 4;
        sampler.num_gauges = 1;
        sampler.annealing_time_us = 4.0;
        sampler.parallelism = parallelism;
        sampler.sqa.seed = seed;
        sampler.sqa.parallelism = parallelism;
        backends
            .insert("annealer".into(), Box::new(AnnealerBackend { cache: cache.clone(), sampler }));
        backends.insert(
            "qaoa".into(),
            Box::new(QaoaBackend {
                cache: cache.clone(),
                p: 1,
                shots: 128,
                max_iterations: 20,
                seed,
                max_qubits: 16,
            }),
        );
        Service::new(backends, cache)
    }

    /// The backend registered under `name`.
    pub fn backend(&self, name: &str) -> Option<&dyn JoinOrderOptimizer> {
        self.backends.get(name).map(Box::as_ref)
    }

    /// The shared formulation cache.
    pub fn cache(&self) -> &Arc<FormulationCache> {
        &self.cache
    }

    /// This service's telemetry sink.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Takes every buffered [`ServeEvent`] (see
    /// [`Telemetry::drain_events`]).
    pub fn drain_events(&self) -> Vec<ServeEvent> {
        self.telemetry.drain_events()
    }

    /// Counts a malformed (unparseable) request line. The serve loop
    /// calls this so client errors show up in both the manifest and the
    /// stats snapshot instead of only being answered out of band.
    pub fn note_malformed(&self) {
        self.count("serve.requests.malformed", 1);
    }

    /// Increments a global counter and the local telemetry tally under
    /// the same name, keeping the stats snapshot reconcilable with the
    /// run manifest. The only writer of either for `serve.*` counters.
    pub(crate) fn count(&self, name: &str, n: u64) {
        qjo_obs::counter(name).add(n);
        self.telemetry.add(name, n);
    }

    /// The live stats snapshot answered by the in-band `stats` command:
    /// uptime-free counters, cache occupancy and hit rates, SLO tallies
    /// (inside `counters` under the `serve.slo.` prefix), and event
    /// tallies — a pure function of the request stream. Every `counters`
    /// entry mirrors the identically-named global counter, so a snapshot
    /// reconciles exactly with the final manifest when one service owns
    /// the process.
    pub fn stats_snapshot(&self) -> Json {
        let cache = self.cache.stats();
        let lookups = cache.hits + cache.misses;
        let embeds = cache.embed_hits + cache.embed_misses;
        let rate = |part: u64, whole: u64| {
            if whole == 0 {
                Json::Null
            } else {
                Json::from(part as f64 / whole as f64)
            }
        };
        let mut cache_obj: BTreeMap<String, Json> = BTreeMap::new();
        cache_obj.insert("capacity".into(), Json::from(self.cache.capacity() as u64));
        cache_obj.insert("resident".into(), Json::from(self.cache.len() as u64));
        cache_obj.insert("hits".into(), Json::from(cache.hits));
        cache_obj.insert("misses".into(), Json::from(cache.misses));
        cache_obj.insert("evictions".into(), Json::from(cache.evictions));
        cache_obj.insert("embed_hits".into(), Json::from(cache.embed_hits));
        cache_obj.insert("embed_misses".into(), Json::from(cache.embed_misses));
        cache_obj.insert("hit_rate".into(), rate(cache.hits, lookups));
        cache_obj.insert("embed_hit_rate".into(), rate(cache.embed_hits, embeds));
        let mut counters: BTreeMap<String, Json> =
            self.telemetry.counters().into_iter().map(|(k, v)| (k, Json::from(v))).collect();
        // The cache's local tallies, under their global counter names,
        // so the `counters` section reconciles with the manifest on its
        // own.
        counters.insert("serve.cache.hit".into(), Json::from(cache.hits));
        counters.insert("serve.cache.miss".into(), Json::from(cache.misses));
        counters.insert("serve.cache.evict".into(), Json::from(cache.evictions));
        counters.insert("serve.cache.embed_hit".into(), Json::from(cache.embed_hits));
        counters.insert("serve.cache.embed_miss".into(), Json::from(cache.embed_misses));
        let mut events: BTreeMap<String, Json> = BTreeMap::new();
        events.insert("recorded".into(), Json::from(self.telemetry.events_recorded()));
        events.insert("pending".into(), Json::from(self.telemetry.events_pending() as u64));
        let mut root: BTreeMap<String, Json> = BTreeMap::new();
        root.insert("cache".into(), Json::Obj(cache_obj));
        root.insert("counters".into(), Json::Obj(counters));
        root.insert("events".into(), Json::Obj(events));
        Json::Obj(root)
    }

    fn greedy_response(&self, req: &Request, deadline_miss: bool) -> Response {
        let plan = GreedyBackend.optimize_join_order(&req.query);
        Response {
            id: req.id.clone(),
            backend: req.backend.clone(),
            order: plan.order,
            cost: Some(plan.cost),
            cache: None,
            fallback: true,
            deadline_miss,
            error: None,
        }
    }

    /// Serves one request end to end. Never panics on well-formed
    /// requests; unknown backends produce an error response. Every call
    /// records exactly one [`ServeEvent`] in the service's telemetry.
    pub fn handle(&self, req: &Request) -> Response {
        let _span = qjo_obs::span!("serve.request");
        let start = Instant::now();
        self.count("serve.requests", 1);
        if req.query.has_estimates() {
            // Misestimated request: track the worst realised q-error seen by
            // this process as a gauge (deterministic — max over requests).
            self.count("serve.estimated", 1);
            let qerr = 10f64.powf(req.query.max_abs_log_error());
            let gauge = qjo_obs::gauge("robust.qerror");
            if qerr > gauge.get() {
                gauge.set(qerr);
            }
        }
        let (resp, meta) = self.handle_inner(req);
        let latency_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        qjo_obs::global().histogram("serve.latency").record_ns(latency_us.saturating_mul(1000));
        let outcome = if resp.error.is_some() {
            "error"
        } else if resp.fallback {
            "fallback"
        } else {
            "ok"
        };
        let slo = req.deadline_ms.map(|deadline_ms| {
            if resp.order.is_empty() {
                "missed" // no executable order at all
            } else if !resp.fallback {
                "met" // the named backend's model cost fit the budget
            } else {
                // Degraded to greedy: still within SLO iff the greedy
                // model cost fits the budget (deterministic, like
                // admission itself). A zero deadline always classifies
                // as missed here — every fallback estimate is at least
                // 1 µs, consistent with admission's 0-budget divert.
                let budget_us = deadline_ms.saturating_mul(1000);
                if GreedyBackend.pre_check(&req.query).is_some_and(|est| est <= budget_us) {
                    "degraded"
                } else {
                    "missed"
                }
            }
        });
        if let Some(class) = slo {
            self.count(&format!("serve.slo.{class}"), 1);
            self.count(&format!("serve.slo.{class}.{}", req.backend), 1);
        }
        let fingerprint = if meta.reason == Some("unknown_backend") {
            String::new()
        } else {
            self.cache.canonicalize(&req.query).fingerprint
        };
        self.telemetry.record(ServeEvent {
            seq: 0, // assigned by the telemetry sink
            id: req.id.clone(),
            backend: req.backend.clone(),
            fingerprint,
            deadline_ms: req.deadline_ms,
            admitted: meta.admitted,
            cache: resp.cache,
            embed: meta.embed,
            outcome,
            reason: meta.reason,
            slo,
            cost: resp.cost,
            est_cost_us: meta.est_cost_us,
            latency_us,
            portfolio: None,
            winner: None,
            cancelled: None,
        });
        resp
    }

    fn handle_inner(&self, req: &Request) -> (Response, HandleMeta) {
        let Some(backend) = self.backend(&req.backend) else {
            self.count("serve.unknown_backend", 1);
            let resp = Response {
                id: req.id.clone(),
                backend: req.backend.clone(),
                order: Vec::new(),
                cost: None,
                cache: None,
                fallback: false,
                deadline_miss: false,
                error: Some(format!("unknown backend `{}`", req.backend)),
            };
            return (resp, HandleMeta::diverted("unknown_backend", None));
        };
        let Some(est) = backend.pre_check(&req.query) else {
            // Inadmissible for this backend (too large, unembeddable…):
            // degrade to greedy so the caller still gets an order.
            self.count("serve.unsupported", 1);
            self.count("serve.fallback", 1);
            return (self.greedy_response(req, false), HandleMeta::diverted("unsupported", None));
        };
        let mut est_cost_us = None;
        if let Some(deadline_ms) = req.deadline_ms {
            let budget_us = deadline_ms.saturating_mul(1000);
            est_cost_us = Some(est);
            // A zero deadline demands an answer in no time: always serve
            // the fallback. Without the explicit `budget_us == 0` arm a
            // backend whose model estimates 0 µs would "meet" the
            // impossible budget and be admitted.
            if budget_us == 0 || est > budget_us {
                self.count("serve.deadline.miss", 1);
                self.count("serve.fallback", 1);
                return (
                    self.greedy_response(req, true),
                    HandleMeta::diverted("deadline", est_cost_us),
                );
            }
        }
        let Plan { order, cost, cache, embed, fallback } = backend.optimize_join_order(&req.query);
        if fallback {
            self.count("serve.fallback", 1);
            self.count("serve.solve.fallback", 1);
        }
        let resp = Response {
            id: req.id.clone(),
            backend: req.backend.clone(),
            order,
            cost: Some(cost),
            cache: cache.map(|s| s.name()),
            fallback,
            deadline_miss: false,
            error: None,
        };
        let reason = if fallback { Some("solve") } else { None };
        (resp, HandleMeta { admitted: true, reason, est_cost_us, embed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjo_core::{Query, QueryGenerator, QueryGraph};

    fn req(id: &str, backend: &str, deadline_ms: Option<u64>, seed: u64) -> Request {
        let query = QueryGenerator::paper_defaults(QueryGraph::Chain, 4).generate(seed);
        Request { id: id.into(), backend: backend.into(), deadline_ms, query }
    }

    #[test]
    fn every_smoke_backend_answers_with_a_valid_order() {
        let svc = Service::smoke(7, Parallelism::sequential());
        for name in ["auto", "dp", "greedy", "sa", "tabu", "sqa", "qaoa"] {
            let r = svc.handle(&req("x", name, None, 3));
            assert_eq!(r.error, None, "backend {name}");
            let mut sorted = r.order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "backend {name} must return a permutation");
            assert!(r.cost.expect("cost").is_finite());
        }
    }

    #[test]
    fn unknown_backend_is_an_error_response() {
        let svc = Service::smoke(7, Parallelism::sequential());
        let r = svc.handle(&req("x", "quantum-donut", None, 1));
        assert!(r.error.expect("error").contains("unknown backend"));
        assert!(r.order.is_empty());
    }

    #[test]
    fn impossible_deadline_forces_the_greedy_fallback() {
        let svc = Service::smoke(7, Parallelism::sequential());
        // 0 ms deadline: every non-trivial backend's estimate exceeds it.
        let r = svc.handle(&req("x", "sa", Some(0), 5));
        assert!(r.deadline_miss);
        assert!(r.fallback);
        assert_eq!(r.error, None);
        assert_eq!(r.order.len(), 4);
        // This service's own counts: the global registry is shared with
        // tests running in parallel.
        let counts = svc.telemetry().counters();
        assert_eq!(counts.get("serve.deadline.miss"), Some(&1));
        assert_eq!(counts.get("serve.fallback"), Some(&1));
    }

    #[test]
    fn generous_deadline_admits_the_backend() {
        let svc = Service::smoke(7, Parallelism::sequential());
        let r = svc.handle(&req("x", "sa", Some(60_000), 5));
        assert!(!r.deadline_miss);
        assert!(!r.fallback);
        assert_eq!(r.cache, Some("miss"));
    }

    #[test]
    fn within_bucket_estimate_jitter_hits_the_cache_and_tracks_qerror() {
        let svc = Service::smoke(7, Parallelism::sequential());
        let truth = QueryGenerator::paper_defaults(QueryGraph::Chain, 4).generate(3);
        // Jitter every estimate within ±0.4 of its integer log: the default
        // fingerprint buckets are 1.0 wide, so all three queries share one
        // fingerprint class.
        let jitter = |delta: f64| {
            let cards = truth.log_cards().iter().map(|&c| (c + delta).max(0.0)).collect();
            let sels = truth.true_log_sels().iter().map(|&s| (s - delta).min(0.0)).collect();
            truth.with_estimates(cards, sels)
        };
        let gauge = qjo_obs::gauge("robust.qerror");
        let canon = svc.cache().canonicalize(&truth).fingerprint;
        let mk = |id: &str, q: &qjo_core::Query| Request {
            id: id.into(),
            backend: "sa".into(),
            deadline_ms: None,
            query: q.clone(),
        };
        let r1 = svc.handle(&mk("warm", &jitter(0.3)));
        assert_eq!(r1.cache, Some("miss"));
        let r2 = svc.handle(&mk("jittered", &jitter(-0.3)));
        assert_eq!(r2.cache, Some("hit"), "within-bucket jitter must reuse the formulation");
        assert_eq!(svc.cache().canonicalize(&jitter(0.3).true_query()).fingerprint, canon);
        // The gauge tracks the worst realised q-error (10^0.3 ≈ 2).
        assert!(gauge.get() >= 10f64.powf(0.3) - 1e-9);
        // Cross-bucket jitter lands in a different class: a cache miss.
        let r3 = svc.handle(&mk("wide", &jitter(0.6)));
        assert_eq!(r3.cache, Some("miss"), "cross-bucket jitter must not collide");
        let events = svc.drain_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].fingerprint, events[1].fingerprint);
        assert_ne!(events[0].fingerprint, events[2].fingerprint);
    }

    #[test]
    fn admission_is_a_pure_function_of_the_request() {
        // The same request stream must make identical fallback decisions
        // at different parallelism settings (the determinism the report
        // gate relies on).
        let decide = |threads: usize| -> Vec<(bool, bool)> {
            let svc = Service::smoke(7, Parallelism::new(threads));
            (0..6)
                .map(|s| {
                    let r = svc.handle(&req("x", "sqa", Some(1), s));
                    (r.deadline_miss, r.fallback)
                })
                .collect()
        };
        assert_eq!(decide(1), decide(8));
    }

    #[test]
    fn every_request_emits_one_valid_event() {
        let svc = Service::smoke(7, Parallelism::sequential());
        svc.handle(&req("a", "dp", None, 1));
        svc.handle(&req("b", "sa", Some(0), 2)); // deadline degradation
        svc.handle(&req("c", "quantum-donut", Some(5), 3)); // unknown backend
        let events = svc.drain_events();
        assert_eq!(events.len(), 3);
        assert_eq!(crate::events::validate_events(&events), Vec::<String>::new());
        assert_eq!(events[0].outcome, "ok");
        assert_eq!(events[0].slo, None);
        assert!(!events[0].fingerprint.is_empty());
        assert_eq!(events[1].reason, Some("deadline"));
        assert!(!events[1].admitted);
        // A 0 ms budget is below even the greedy model cost.
        assert_eq!(events[1].slo, Some("missed"));
        assert!(events[1].est_cost_us.is_some());
        assert_eq!(events[2].reason, Some("unknown_backend"));
        assert_eq!(events[2].slo, Some("missed"));
        assert!(events[2].fingerprint.is_empty());
        assert!(!events[0].render_deterministic().contains("latency_us"));
        // Nothing left after a drain; sequence numbers stay dense.
        assert!(svc.drain_events().is_empty());
        svc.handle(&req("d", "greedy", None, 4));
        assert_eq!(svc.drain_events()[0].seq, 3);
    }

    #[test]
    fn stats_snapshot_counters_mirror_the_telemetry() {
        use qjo_obs::json::Json;
        let svc = Service::smoke(7, Parallelism::sequential());
        svc.handle(&req("a", "tabu", Some(60_000), 1));
        svc.handle(&req("b", "tabu", Some(60_000), 1));
        svc.note_malformed();
        let snap = svc.stats_snapshot();
        let counters = snap.get("counters").expect("counters");
        assert_eq!(counters.get("serve.requests").and_then(Json::as_u64), Some(2));
        assert_eq!(counters.get("serve.requests.malformed").and_then(Json::as_u64), Some(1));
        // Both requests carried a deadline, so both landed in an SLO
        // class (which one depends on whether the solve degraded).
        let slo_total: u64 = ["met", "degraded", "missed"]
            .iter()
            .filter_map(|c| counters.get(&format!("serve.slo.{c}")).and_then(Json::as_u64))
            .sum();
        assert_eq!(slo_total, 2);
        let cache = snap.get("cache").expect("cache");
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("resident").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("hit_rate").and_then(Json::as_f64), Some(0.5));
        // The snapshot tallies equal the telemetry tallies exactly.
        for (name, value) in svc.telemetry().counters() {
            assert_eq!(counters.get(&name).and_then(Json::as_u64), Some(value), "{name}");
        }
    }

    #[test]
    fn zero_deadline_falls_back_even_with_a_zero_estimate() {
        // Regression: `est > budget_us` is false for 0 > 0, so without the
        // explicit zero-budget arm a backend whose model estimates 0 µs
        // would be admitted against a deadline that demands an answer in
        // no time at all. No built-in backend estimates 0 µs, hence the
        // stub.
        struct Free;
        impl JoinOrderOptimizer for Free {
            fn optimize_join_order(&self, query: &Query) -> Plan {
                GreedyBackend.optimize_join_order(query)
            }
            fn pre_check(&self, _query: &Query) -> Option<u64> {
                Some(0)
            }
        }
        let cache =
            Arc::new(FormulationCache::new(JoEncoder::default(), FingerprintConfig::default(), 1));
        let mut backends: BTreeMap<String, Box<dyn JoinOrderOptimizer>> = BTreeMap::new();
        backends.insert("free".into(), Box::new(Free));
        let svc = Service::new(backends, cache);
        let r = svc.handle(&req("x", "free", Some(1), 5));
        assert!(!r.deadline_miss && !r.fallback, "any nonzero budget admits the stub");
        let r = svc.handle(&req("y", "free", Some(0), 5));
        assert!(r.deadline_miss && r.fallback);
        let events = svc.drain_events();
        assert_eq!(events[1].reason, Some("deadline"));
        assert_eq!(events[1].est_cost_us, Some(0));
        // And the SLO classifier agrees: a zero budget is never "met" or
        // "degraded", whatever the model estimates.
        assert_eq!(events[1].slo, Some("missed"));
    }

    #[test]
    fn deadline_budgets_saturate_at_the_extremes() {
        let svc = Service::smoke(7, Parallelism::sequential());
        // 1 ms = 1000 µs comfortably covers sa's smoke estimate on four
        // relations, so the smallest nonzero deadline admits.
        let r = svc.handle(&req("a", "sa", Some(1), 5));
        assert!(!r.deadline_miss && !r.fallback);
        // u64::MAX ms saturates (rather than wraps) when scaled to µs;
        // a wrap to a small budget would spuriously degrade.
        let r = svc.handle(&req("b", "sa", Some(u64::MAX), 5));
        assert!(!r.deadline_miss && !r.fallback);
        let events = svc.drain_events();
        assert_eq!(events[0].slo, Some("met"));
        assert_eq!(events[1].slo, Some("met"));
    }

    /// An annealer service on a line of exactly `query`'s qubit upper
    /// bound: the annealer admits the request, but no line holds the
    /// QUBO's minor, so every embed attempt fails and the request degrades
    /// to greedy.
    fn unembeddable(query: &Query) -> Service {
        let n = qjo_core::qubit_upper_bound(query, 1, 1.0).total();
        let cache =
            Arc::new(FormulationCache::new(JoEncoder::default(), FingerprintConfig::default(), 1));
        let sampler = AnnealerSampler::new(qjo_transpile::Topology::line(n));
        let mut backends: BTreeMap<String, Box<dyn JoinOrderOptimizer>> = BTreeMap::new();
        backends
            .insert("annealer".into(), Box::new(AnnealerBackend { cache: cache.clone(), sampler }));
        Service::new(backends, cache)
    }

    fn annealer_req(id: &str, query: &Query) -> Request {
        Request {
            id: id.into(),
            backend: "annealer".into(),
            deadline_ms: None,
            query: query.clone(),
        }
    }

    #[test]
    fn an_exhausted_embed_is_billed_cold() {
        // The event still bills the embed the request paid for.
        let query = QueryGenerator::paper_defaults(QueryGraph::Chain, 2).generate(1);
        let svc = unembeddable(&query);
        let r = svc.handle(&annealer_req("x", &query));
        assert!(r.fallback && !r.deadline_miss);
        let events = svc.drain_events();
        assert!(events[0].admitted);
        assert_eq!(events[0].embed, Some("cold"));
        assert_eq!(events[0].reason, Some("solve"));
    }

    #[test]
    fn a_failed_embed_is_cached_on_its_class() {
        // The cache's embed misses count the embedder's runs for this
        // service alone (the process-global `embed.tries` also moves for
        // the tests running beside this one).
        let query = QueryGenerator::paper_defaults(QueryGraph::Chain, 2).generate(1);
        let svc = unembeddable(&query);
        let first = svc.handle(&annealer_req("x", &query));
        // The first of the request's three solve attempts runs the
        // exhausted embed; the other two read the cached failure.
        let stats = svc.cache().stats();
        assert_eq!((stats.embed_misses, stats.embed_hits), (1, 2));
        let second = svc.handle(&annealer_req("y", &query));
        // A later request for the class runs no embed either, and is
        // billed as the hit it is.
        let stats = svc.cache().stats();
        assert_eq!((stats.embed_misses, stats.embed_hits), (1, 5));
        assert!(first.fallback && second.fallback);
        assert_eq!(first.cost, second.cost);
        let events = svc.drain_events();
        assert_eq!(events[0].embed, Some("cold"));
        assert!(events[1].admitted);
        assert_eq!(events[1].embed, Some("hit"));
        assert_eq!(events[1].reason, Some("solve"));
        assert!(!svc.cache().peek(&query).1.expect("resident class").has_embedding());
    }
}
