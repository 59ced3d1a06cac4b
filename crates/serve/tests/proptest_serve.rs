//! Property-style tests for the serving cache and its fingerprint.
//!
//! Each property runs over a deterministic family of random queries drawn
//! from a seeded [`StdRng`] — the hermetic stand-in for the proptest
//! strategies the suite originally used. Seeds are fixed so failures
//! reproduce exactly.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use qjo_core::{JoEncoder, Query, QueryGenerator, QueryGraph};
use qjo_exec::Parallelism;
use qjo_serve::fingerprint::{canonicalize, relabel, FingerprintConfig};
use qjo_serve::loadgen::{self, LoadMix};
use qjo_serve::service::Service;
use qjo_serve::FormulationCache;

/// Draws a small random query (2–6 relations; cycles need 3+).
fn arb_query(rng: &mut StdRng) -> Query {
    loop {
        let t = rng.random_range(2usize..=6);
        let graph =
            [QueryGraph::Chain, QueryGraph::Star, QueryGraph::Cycle][rng.random_range(0..3usize)];
        if matches!(graph, QueryGraph::Cycle) && t < 3 {
            continue;
        }
        let seed = rng.random_range(0u64..1000);
        return QueryGenerator::paper_defaults(graph, t).generate(seed);
    }
}

fn for_cases(cases: u64, mut body: impl FnMut(&mut StdRng, u64)) {
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(0x5E_D0E0 + case);
        body(&mut rng, case);
    }
}

/// A random relabelling of `query` with sub-bucket cardinality jitter:
/// byte-distinct, but in the same isomorphism-and-bucket class.
fn perturb(query: &Query, rng: &mut StdRng) -> Query {
    let n = query.num_relations();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let iso = relabel(query, &perm);
    // paper_defaults logs are integers >= 1 and the default bucket width
    // is 1, so ±0.3 jitter never crosses a bucket edge.
    let cards = iso
        .log_cards()
        .iter()
        .map(|&c| c + (rng.random_range(0..7u32) as f64 - 3.0) * 0.1)
        .collect();
    Query::new(cards, iso.predicates().to_vec())
}

/// The cache key is a *class* key: any relabelling and any
/// bucket-preserving cardinality perturbation of a query fingerprints
/// identically.
#[test]
fn fingerprint_is_invariant_under_relabelling_and_jitter() {
    let cfg = FingerprintConfig::default();
    for_cases(40, |rng, case| {
        let query = arb_query(rng);
        let base = canonicalize(&query, &cfg);
        for round in 0..3 {
            let twin = perturb(&query, rng);
            let got = canonicalize(&twin, &cfg);
            assert_eq!(
                got.fingerprint, base.fingerprint,
                "case {case} round {round}: isomorph drifted out of its class"
            );
            // The canonical form itself is the class representative:
            // identical queries, not merely identical digests.
            assert_eq!(got.query.log_cards(), base.query.log_cards(), "case {case}");
            assert_eq!(got.query.predicates(), base.query.predicates(), "case {case}");
        }
    });
}

/// Structurally different inputs must not collide: a different topology
/// over the same relations, and a cardinality moved by a whole bucket,
/// both change the fingerprint.
#[test]
fn non_isomorphic_queries_do_not_collide() {
    let cfg = FingerprintConfig::default();
    for_cases(40, |rng, case| {
        let t = rng.random_range(4usize..=6);
        let seed = rng.random_range(0u64..1000);
        let chain = QueryGenerator::paper_defaults(QueryGraph::Chain, t).generate(seed);
        let star = QueryGenerator::paper_defaults(QueryGraph::Star, t).generate(seed);
        // Same generator seed, same relation count — only the join graph
        // differs. A chain of >= 4 relations is never a star.
        assert_ne!(
            canonicalize(&chain, &cfg).fingerprint,
            canonicalize(&star, &cfg).fingerprint,
            "case {case}: chain/star collided at t = {t}"
        );

        let query = arb_query(rng);
        let mut cards = query.log_cards().to_vec();
        let victim = rng.random_range(0..cards.len());
        cards[victim] += cfg.card_bucket * 2.0;
        let moved = Query::new(cards, query.predicates().to_vec());
        assert_ne!(
            canonicalize(&query, &cfg).fingerprint,
            canonicalize(&moved, &cfg).fingerprint,
            "case {case}: moving a cardinality two buckets kept the fingerprint"
        );
    });
}

/// A cached formulation answers future lookups with the exact bytes a
/// fresh build would produce: serving a hit is never an approximation.
#[test]
fn cache_round_trip_is_byte_identical_to_a_fresh_build() {
    let encoder = JoEncoder::default();
    let cfg = FingerprintConfig::default();
    let cache = FormulationCache::new(encoder.clone(), cfg, 64);
    for_cases(24, |rng, case| {
        let query = arb_query(rng);
        let (_, entry, _) = cache.lookup(&query);
        let twin = perturb(&query, rng);
        let (canonical, twin_entry, _) = cache.lookup(&twin);
        let fresh = encoder.encode(&canonical.query);
        assert_eq!(
            qjo_qubo::io::to_text(&twin_entry.formulation.qubo),
            qjo_qubo::io::to_text(&fresh.qubo),
            "case {case}: cached formulation drifted from a fresh build"
        );
        // Both class members share one entry, not merely equal bytes.
        assert!(std::sync::Arc::ptr_eq(&entry, &twin_entry), "case {case}");
    });
}

/// The deterministic serving report is a pure function of the seed: a
/// reduced mix (no annealer — embedding is slow and covered elsewhere)
/// replayed at 1 and 8 threads produces identical reports, field by
/// field, including bitwise-equal mean costs.
#[test]
fn serve_report_is_invariant_across_thread_counts() {
    let mix = LoadMix {
        requests: 24,
        backends: vec![("dp", 1), ("greedy", 1), ("sa", 2), ("tabu", 1), ("sqa", 2)],
        ..LoadMix::smoke(13)
    };
    let requests = loadgen::generate_requests(&mix);
    let report_at = |par: Parallelism| {
        let service = Service::smoke(mix.seed, par);
        loadgen::aggregate_report(&loadgen::replay(&service, &requests))
    };
    let sequential = report_at(Parallelism::sequential());
    let wide = report_at(Parallelism::new(8));
    assert_eq!(sequential, wide);
    assert!(!sequential.is_empty());
}
