//! The seeded load generator: a deterministic request mix and the
//! aggregation that turns its replay's events into the serving report.
//!
//! Everything about the mix — query classes, relabellings, sub-bucket
//! cardinality jitter, backend choice, deadlines — is a pure function of
//! the seed, so two runs (at any thread count) serve byte-identical
//! request streams and make identical admission, cache, and fallback
//! decisions. Requests are replayed closed-loop, one at a time, as the
//! request loop serves them. Only wall-clock latencies differ, and those
//! are quarantined in the volatile latency artifact.

use qjo_core::{Query, QueryGenerator, QueryGraph};
use qjo_exec::stream_seed;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::events::ServeEvent;
use crate::fingerprint::relabel;
use crate::request::Request;
use crate::service::Service;

/// A deterministic request mix.
#[derive(Debug, Clone)]
pub struct LoadMix {
    /// Root seed; every draw streams from it.
    pub seed: u64,
    /// Total requests to generate.
    pub requests: usize,
    /// Distinct query classes in the replay pool; smaller pools mean
    /// higher cache hit rates.
    pub classes: usize,
    /// Graph shapes the pool cycles through.
    pub shapes: Vec<QueryGraph>,
    /// Relation counts the pool cycles through.
    pub relations: Vec<usize>,
    /// Weighted backend choices.
    pub backends: Vec<(&'static str, u32)>,
    /// Deadline choices drawn uniformly per request.
    pub deadlines: Vec<Option<u64>>,
}

impl LoadMix {
    /// The committed smoke mix: every backend, a pool small enough to
    /// produce real cache hits, deadlines spanning generous (admits a
    /// cold embed), tight (2 ms — admits the annealer only once its
    /// embedding is cached), and none.
    pub fn smoke(seed: u64) -> LoadMix {
        LoadMix {
            seed,
            requests: 60,
            classes: 6,
            shapes: vec![QueryGraph::Chain, QueryGraph::Star, QueryGraph::Cycle],
            relations: vec![3, 4, 5],
            backends: vec![
                ("dp", 2),
                ("greedy", 2),
                ("sa", 3),
                ("tabu", 2),
                ("sqa", 3),
                ("annealer", 4),
                ("qaoa", 2),
            ],
            deadlines: vec![None, Some(60_000), Some(2)],
        }
    }

    /// A short follow-up to [`LoadMix::smoke`]: 16 greedy, sa and tabu
    /// requests drawn from the same kind of class pool.
    pub fn smoke_followup(seed: u64) -> LoadMix {
        LoadMix {
            requests: 16,
            backends: vec![("greedy", 1), ("sa", 2), ("tabu", 1)],
            ..LoadMix::smoke(seed)
        }
    }
}

/// Generates the request stream for a mix. Pure function of the mix.
pub fn generate_requests(mix: &LoadMix) -> Vec<Request> {
    assert!(mix.classes >= 1 && !mix.shapes.is_empty() && !mix.relations.is_empty());
    assert!(!mix.backends.is_empty() && !mix.deadlines.is_empty());
    let pool: Vec<Query> = (0..mix.classes)
        .map(|i| {
            let shape = mix.shapes[i % mix.shapes.len()];
            let n = mix.relations[i % mix.relations.len()];
            QueryGenerator::paper_defaults(shape, n).generate(stream_seed(mix.seed, i as u64))
        })
        .collect();
    let weighted: Vec<&'static str> =
        mix.backends.iter().flat_map(|&(name, w)| std::iter::repeat_n(name, w as usize)).collect();
    let mut rng = StdRng::seed_from_u64(stream_seed(mix.seed, u64::MAX / 2));
    (0..mix.requests)
        .map(|k| {
            let base = pool.choose(&mut rng).expect("non-empty pool");
            // Half the requests are relabelled isomorphs with sub-bucket
            // jitter: byte-distinct queries that must still hit the
            // fingerprint class of their original.
            let query = if rng.random_range(0..2u32) == 1 {
                let n = base.num_relations();
                let mut perm: Vec<usize> = (0..n).collect();
                perm.shuffle(&mut rng);
                let iso = relabel(base, &perm);
                let cards = iso
                    .log_cards()
                    .iter()
                    .map(|&c| {
                        // paper_defaults cards are integers >= 1, so ±0.3
                        // jitter never crosses a (width-1) bucket edge.
                        c + (rng.random_range(0..7u32) as f64 - 3.0) * 0.1
                    })
                    .collect();
                Query::new(cards, iso.predicates().to_vec())
            } else {
                base.clone()
            };
            let backend = *weighted.choose(&mut rng).expect("non-empty backends");
            let deadline_ms = *mix.deadlines.choose(&mut rng).expect("non-empty deadlines");
            Request { id: format!("r{k}"), backend: backend.to_string(), deadline_ms, query }
        })
        .collect()
}

/// Replays `requests` against the service, one at a time, and returns
/// the service's event log for the replay (draining the service's event
/// buffer after each request).
pub fn replay(service: &Service, requests: &[Request]) -> Vec<ServeEvent> {
    let mut events = Vec::with_capacity(requests.len());
    for req in requests {
        service.handle(req);
        events.extend(service.drain_events());
    }
    events
}

/// One deterministic report row (per backend).
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// Backend name.
    pub backend: String,
    /// Requests addressed to it.
    pub requests: u64,
    /// Formulation-cache hits / misses.
    pub cache_hits: u64,
    /// Formulation-cache misses.
    pub cache_misses: u64,
    /// Embedding-cache hits.
    pub embed_hits: u64,
    /// Cold embeddings built.
    pub embed_cold: u64,
    /// Deadline-model misses.
    pub deadline_misses: u64,
    /// Fallbacks of any kind.
    pub fallbacks: u64,
    /// Error responses.
    pub errors: u64,
    /// Deadline-carrying requests answered by the named backend in
    /// budget.
    pub slo_met: u64,
    /// Deadline-carrying requests degraded to an in-budget greedy order.
    pub slo_degraded: u64,
    /// Deadline-carrying requests with no in-budget order at all.
    pub slo_missed: u64,
    /// Mean plan log-cost over answered requests.
    pub mean_cost: f64,
}

/// Aggregates a replay's events into per-backend rows, sorted by backend
/// name. Every field is deterministic for a deterministic request stream.
pub fn aggregate_report(events: &[ServeEvent]) -> Vec<ReportRow> {
    let mut by_backend: std::collections::BTreeMap<&str, Vec<&ServeEvent>> =
        std::collections::BTreeMap::new();
    for e in events {
        by_backend.entry(&e.backend).or_default().push(e);
    }
    by_backend
        .into_iter()
        .map(|(backend, es)| {
            let count = |f: &dyn Fn(&ServeEvent) -> bool| es.iter().filter(|e| f(e)).count() as u64;
            let costs: Vec<f64> = es.iter().filter_map(|e| e.cost).collect();
            let mean_cost =
                if costs.is_empty() { 0.0 } else { costs.iter().sum::<f64>() / costs.len() as f64 };
            ReportRow {
                backend: backend.to_string(),
                requests: es.len() as u64,
                cache_hits: count(&|e| e.cache == Some("hit")),
                cache_misses: count(&|e| e.cache == Some("miss")),
                embed_hits: count(&|e| e.embed == Some("hit")),
                embed_cold: count(&|e| e.embed == Some("cold")),
                deadline_misses: count(&|e| e.reason == Some("deadline")),
                fallbacks: count(&|e| e.outcome == "fallback"),
                errors: count(&|e| e.outcome == "error"),
                slo_met: count(&|e| e.slo == Some("met")),
                slo_degraded: count(&|e| e.slo == Some("degraded")),
                slo_missed: count(&|e| e.slo == Some("missed")),
                mean_cost,
            }
        })
        .collect()
}

/// One latency row: a backend, or the annealer split into `annealer:cold`
/// (embedding built this request) and `annealer:warm` (embedding reused).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// Backend name, possibly suffixed `:cold` / `:warm`.
    pub key: String,
    /// Requests in this class.
    pub count: u64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Maximum latency, microseconds.
    pub max_us: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Aggregates wall-clock latencies. The row *set* is deterministic (it
/// only depends on which deterministic classes occurred); the values are
/// volatile.
pub fn aggregate_latency(events: &[ServeEvent]) -> Vec<LatencyRow> {
    let mut by_key: std::collections::BTreeMap<String, Vec<u64>> =
        std::collections::BTreeMap::new();
    for e in events {
        by_key.entry(e.backend.clone()).or_default().push(e.latency_us);
        match e.embed {
            Some("cold") => {
                by_key.entry(format!("{}:cold", e.backend)).or_default().push(e.latency_us)
            }
            Some("hit") => {
                by_key.entry(format!("{}:warm", e.backend)).or_default().push(e.latency_us)
            }
            _ => {}
        }
    }
    by_key
        .into_iter()
        .map(|(key, mut lats)| {
            lats.sort_unstable();
            LatencyRow {
                key,
                count: lats.len() as u64,
                p50_us: percentile(&lats, 50.0),
                p99_us: percentile(&lats, 99.0),
                max_us: *lats.last().expect("non-empty"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FingerprintConfig;

    #[test]
    fn request_generation_is_seed_deterministic() {
        let mix = LoadMix::smoke(42);
        let a = generate_requests(&mix);
        let b = generate_requests(&mix);
        assert_eq!(a, b);
        assert_eq!(a.len(), 60);
        let c = generate_requests(&LoadMix::smoke(43));
        assert_ne!(a, c, "different seeds must give different streams");
    }

    #[test]
    fn relabelled_requests_stay_in_their_fingerprint_class() {
        // The mix promises isomorph-with-jitter requests still collapse
        // onto pool classes: the number of distinct fingerprints must not
        // exceed the pool size.
        let mix = LoadMix::smoke(7);
        let reqs = generate_requests(&mix);
        let cfg = FingerprintConfig::default();
        let distinct: std::collections::BTreeSet<String> = reqs
            .iter()
            .map(|r| crate::fingerprint::canonicalize(&r.query, &cfg).fingerprint)
            .collect();
        assert!(
            distinct.len() <= mix.classes,
            "{} fingerprints from a {}-class pool",
            distinct.len(),
            mix.classes
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10, 20, 30, 40];
        assert_eq!(percentile(&v, 50.0), 20);
        assert_eq!(percentile(&v, 99.0), 40);
        assert_eq!(percentile(&[7], 50.0), 7);
    }

    #[test]
    fn aggregation_counts_match_the_events() {
        let event = |cache, outcome, reason: Option<&'static str>, slo, cost| ServeEvent {
            seq: 0,
            id: String::new(),
            backend: "sa".into(),
            fingerprint: String::new(),
            deadline_ms: Some(2),
            admitted: reason.is_none(),
            cache,
            embed: None,
            outcome,
            reason,
            slo,
            cost: Some(cost),
            est_cost_us: Some(1_000),
            latency_us: 100,
            portfolio: None,
            winner: None,
            cancelled: None,
        };
        let events = vec![
            event(Some("miss"), "ok", None, Some("met"), 4.0),
            event(Some("hit"), "fallback", Some("deadline"), Some("degraded"), 6.0),
        ];
        let rows = aggregate_report(&events);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!((r.requests, r.cache_hits, r.cache_misses), (2, 1, 1));
        assert_eq!((r.deadline_misses, r.fallbacks, r.errors), (1, 1, 0));
        assert_eq!((r.slo_met, r.slo_degraded, r.slo_missed), (1, 1, 0));
        assert!((r.mean_cost - 5.0).abs() < 1e-12);
    }
}
