//! End-to-end serving-telemetry tests: event-log determinism across
//! thread counts, manifest reconciliation of the stats snapshot, a
//! mid-stream stats command, and the embedding cache's cold-then-hit
//! attribution on the annealer path.

use std::sync::{Mutex, MutexGuard, OnceLock};

use qjo_exec::Parallelism;
use qjo_serve::events::{render_canonical, validate_events};
use qjo_serve::loadgen::{self, LoadMix};
use qjo_serve::server::serve_lines;
use qjo_serve::service::Service;
use qjo_serve::Request;

/// Serialises tests: they all mutate the process-global metrics
/// registry, and the reconciliation test needs exclusive deltas.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default).lock().unwrap_or_else(|e| e.into_inner())
}

/// A fast mix: every backend except the annealer (whose cold embed is
/// covered by the embed-attribution test, once).
fn fast_mix(seed: u64) -> LoadMix {
    LoadMix {
        requests: 24,
        backends: vec![("dp", 1), ("greedy", 1), ("sa", 2), ("tabu", 1), ("sqa", 2)],
        ..LoadMix::smoke(seed)
    }
}

#[test]
fn deterministic_event_fields_are_identical_across_thread_counts() {
    let _guard = serial();
    let canonical_at = |threads: usize| {
        let service = Service::smoke(13, Parallelism::new(threads));
        let mix = fast_mix(13);
        let requests = loadgen::generate_requests(&mix);
        let events = loadgen::replay(&service, &requests);
        assert_eq!(validate_events(&events), Vec::<String>::new());
        render_canonical(&events)
    };
    let sequential = canonical_at(1);
    let wide = canonical_at(8);
    assert!(!sequential.is_empty());
    assert_eq!(sequential, wide, "deterministic event projection drifted across thread counts");
}

/// One request as a wire line, deadline included when it has one.
fn request_line(req: &Request) -> String {
    let deadline = req.deadline_ms.map(|d| format!(", \"deadline_ms\": {d}")).unwrap_or_default();
    format!(
        "{{\"id\": \"{}\", \"backend\": \"{}\"{deadline}, \"relations\": {:?}, \"predicates\": [{}]}}\n",
        req.id,
        req.backend,
        req.query.log_cards(),
        req.query
            .predicates()
            .iter()
            .map(|p| format!(
                "{{\"rel_a\": {}, \"rel_b\": {}, \"log_sel\": {}}}",
                p.rel_a, p.rel_b, p.log_sel
            ))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

#[test]
fn stats_snapshot_reconciles_with_the_global_counter_deltas() {
    let _guard = serial();
    let service = Service::smoke(13, Parallelism::sequential());
    let before = qjo_obs::global().snapshot();
    let mix = fast_mix(13);
    // The whole wire path: requests, a stats command and a malformed
    // line, so the loop's own counters reconcile too.
    let mut input = String::new();
    for (i, req) in loadgen::generate_requests(&mix).iter().enumerate() {
        input.push_str(&request_line(req));
        if i == 9 {
            input.push_str("{\"cmd\": \"stats\"}\nnot json\n");
        }
    }
    let mut events = Vec::new();
    let collect = |e| {
        events.push(e);
        Ok(())
    };
    serve_lines(&service, input.as_bytes(), std::io::sink(), collect).expect("io");
    let deltas = qjo_obs::global().snapshot().counter_deltas_since(&before);
    // One event per request, none per stats command or malformed line.
    assert_eq!(events.len(), 24);
    assert_eq!(validate_events(&events), Vec::<String>::new());
    assert_eq!(service.telemetry().events_pending(), 0);
    let snap = service.stats_snapshot();
    let counters = snap.get("counters").and_then(|c| c.as_obj()).expect("counters object");
    let local: std::collections::BTreeMap<String, u64> = counters
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().expect("counter values are integers")))
        .collect();
    // Every serve-side counter the manifest would carry is mirrored
    // exactly in the snapshot tallies, and vice versa (zero-valued
    // snapshot tallies — e.g. an eviction-free run — have no delta).
    for (name, delta) in deltas.iter().filter(|(n, _)| n.starts_with("serve.")) {
        assert_eq!(
            local.get(name),
            Some(delta),
            "global counter {name} not mirrored in the snapshot"
        );
    }
    for (name, value) in local.iter().filter(|(_, v)| **v > 0) {
        assert_eq!(deltas.get(name), Some(value), "snapshot tally {name} not present globally");
    }
    for (name, want) in
        [("serve.requests", 24), ("serve.stats.requests", 1), ("serve.requests.malformed", 1)]
    {
        assert_eq!(local.get(name), Some(&want), "{name}: {local:?}");
    }
}

#[test]
fn a_mid_stream_stats_request_is_internally_consistent() {
    let _guard = serial();
    let service = Service::smoke(13, Parallelism::sequential());
    let mix = fast_mix(13);
    let requests = loadgen::generate_requests(&mix);
    let mut input = String::new();
    for (i, req) in requests.iter().enumerate().take(9) {
        input.push_str(&request_line(req));
        if i == 5 {
            input.push_str("{\"cmd\": \"stats\"}\n");
        }
    }
    let mut out = Vec::new();
    let mut events = Vec::new();
    let collect = |e| {
        events.push(e);
        Ok(())
    };
    serve_lines(&service, input.as_bytes(), &mut out, collect).expect("io");
    assert_eq!(events.len(), 9);
    let text = String::from_utf8(out).expect("utf8");
    // The snapshot is the only non-response line: find it by its
    // distinctive top-level "counters" key.
    let snap = text
        .lines()
        .map(|l| qjo_obs::json::Json::parse(l).expect("output lines are JSON"))
        .find(|d| d.get("counters").is_some())
        .expect("one snapshot line");
    let counters = snap.get("counters").and_then(|c| c.as_obj()).expect("counters");
    let get = |name: &str| counters.get(name).and_then(|v| v.as_u64()).unwrap_or(0);
    // Mid-stream consistency: the snapshot covers exactly the six
    // requests answered before the command.
    assert_eq!(get("serve.requests"), 6);
    assert_eq!(
        snap.get("events").and_then(|e| e.get("recorded")).and_then(|v| v.as_u64()),
        Some(6)
    );
    // Their events went to the sink after each answer.
    assert_eq!(snap.get("events").and_then(|e| e.get("pending")).and_then(|v| v.as_u64()), Some(0));
    // Tally arithmetic holds: every deadline-carrying request landed in
    // exactly one SLO class, and cache traffic adds up.
    let slo_total = get("serve.slo.met") + get("serve.slo.degraded") + get("serve.slo.missed");
    assert!(slo_total <= get("serve.requests"));
    let cache = snap.get("cache").expect("cache section");
    let hits = cache.get("hits").and_then(|v| v.as_u64()).expect("hits");
    let misses = cache.get("misses").and_then(|v| v.as_u64()).expect("misses");
    assert!(hits + misses <= get("serve.requests"));
    assert_eq!(
        cache.get("resident").and_then(|v| v.as_u64()).expect("resident"),
        misses - cache.get("evictions").and_then(|v| v.as_u64()).expect("evictions")
    );
}

#[test]
fn one_annealer_class_embeds_once_then_hits() {
    let _guard = serial();
    let service = Service::smoke(7, Parallelism::sequential());
    // One fingerprint class, annealer only: the first request pays the
    // cold embed, the rest reuse it.
    let mix = LoadMix {
        requests: 5,
        classes: 1,
        shapes: vec![qjo_core::QueryGraph::Chain],
        relations: vec![3],
        backends: vec![("annealer", 1)],
        deadlines: vec![None],
        ..LoadMix::smoke(7)
    };
    let requests = loadgen::generate_requests(&mix);
    // Every test in this file holds `serial()`, so the global embedder
    // counter moves only for this service's requests.
    let tries = || qjo_obs::counter("embed.tries").get();
    let before = tries();
    let mut events = loadgen::replay(&service, &requests[..1]);
    let after_cold = tries();
    assert!(after_cold > before, "the cold request never ran the embedder");
    events.extend(loadgen::replay(&service, &requests[1..]));
    // What the embedding cache saves, exactly: a hit does zero embed work.
    assert_eq!(tries(), after_cold, "a cache hit ran the embedder");
    assert_eq!(validate_events(&events), Vec::<String>::new());
    assert_eq!(events.iter().filter(|e| e.embed == Some("cold")).count(), 1);
    assert!(events.iter().filter(|e| e.embed == Some("hit")).count() >= 3);
}
