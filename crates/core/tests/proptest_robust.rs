//! Property-style tests for the robustness subsystem: benchmark-shaped
//! schema generators and seeded q-error injection.
//!
//! Each property runs over a deterministic family of seeds — the hermetic
//! stand-in for proptest strategies — so failures reproduce exactly.

use qjo_core::classical::{dp_optimal, greedy_min_cost};
use qjo_core::{
    BenchmarkGenerator, BenchmarkSchema, GenParams, QErrorInjector, Query, QueryGenerator,
    QueryGraph,
};

/// Union-find connectivity check over the predicate edges.
fn is_connected(q: &Query) -> bool {
    let t = q.num_relations();
    let mut parent: Vec<usize> = (0..t).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for p in q.predicates() {
        let (a, b) = (find(&mut parent, p.rel_a), find(&mut parent, p.rel_b));
        parent[a] = b;
    }
    let root = find(&mut parent, 0);
    (1..t).all(|r| find(&mut parent, r) == root)
}

fn schemas() -> Vec<BenchmarkSchema> {
    vec![
        BenchmarkSchema::Snowflake { dims: 2, depth: 1 },
        BenchmarkSchema::Snowflake { dims: 3, depth: 2 },
        BenchmarkSchema::Snowflake { dims: 4, depth: 3 },
        BenchmarkSchema::FkChain { len: 3 },
        BenchmarkSchema::FkChain { len: 8 },
        BenchmarkSchema::FkChain { len: 16 },
    ]
}

/// (a) Every benchmark schema is connected and valid for every seed: the
/// `Query::new` invariants hold (checked by construction) and the join
/// graph spans all relations, so no plan is forced into cross products.
#[test]
fn benchmark_schemas_are_connected_for_every_seed() {
    for schema in schemas() {
        let gen = BenchmarkGenerator::paper_defaults(schema);
        for seed in 0..50 {
            let q = gen.generate(seed);
            assert_eq!(q.num_relations(), schema.num_relations(), "{schema:?} seed {seed}");
            assert!(is_connected(&q), "{schema:?} seed {seed} is disconnected");
            // Key-respecting: every join selectivity cancels its parent.
            for p in q.predicates() {
                assert_eq!(p.log_sel, -q.log_cards()[p.rel_b], "{schema:?} seed {seed}");
            }
        }
    }
}

/// Continuous-mode sampling preserves the same structural properties.
#[test]
fn continuous_benchmark_schemas_are_valid_too() {
    let params = GenParams { integer_log: false, ..GenParams::paper_defaults() };
    for schema in schemas() {
        let gen = BenchmarkGenerator { schema, params };
        for seed in 0..20 {
            let q = gen.generate(seed);
            assert!(is_connected(&q), "{schema:?} seed {seed}");
            assert!(q.log_cards().iter().all(|&c| c >= 0.0 && c.is_finite()));
        }
    }
}

/// (b) Injection is a pure function of `(seed, unit)`: same key, same
/// estimates; different key, different estimates (w.h.p.).
#[test]
fn injection_is_deterministic_in_seed_and_unit() {
    let gen = BenchmarkGenerator::paper_defaults(BenchmarkSchema::Snowflake { dims: 3, depth: 2 });
    for seed in 0..10 {
        let q = gen.generate(seed);
        let inj = QErrorInjector::new(100 + seed, 4.0).unwrap();
        for unit in 0..5 {
            assert_eq!(inj.inject(&q, unit), inj.inject(&q, unit));
        }
        assert_ne!(inj.inject(&q, 0), inj.inject(&q, 1));
        let other = QErrorInjector::new(200 + seed, 4.0).unwrap();
        assert_ne!(inj.inject(&q, 0), other.inject(&q, 0));
    }
}

/// (b) The realised q-error distribution hits the requested target: the
/// injector calibrates the log-normal so the *median* per-value q-error
/// equals `target_q`. Over many draws the sample median must land within
/// a factor-1.5 tolerance band of the target.
#[test]
fn realised_qerror_median_hits_the_target() {
    let gen = QueryGenerator::paper_defaults(QueryGraph::Clique, 8);
    for &target in &[2.0, 4.0, 16.0] {
        let inj = QErrorInjector::new(7, target).unwrap();
        let mut qerrs: Vec<f64> = Vec::new();
        for seed in 0..40 {
            let q = gen.generate(seed);
            let est = inj.inject(&q, seed);
            // Per-value realised q-errors (cards only: sels clamp harder).
            for (e, t) in est.log_cards().iter().zip(q.log_cards()) {
                qerrs.push(10f64.powf((e - t).abs()));
            }
        }
        qerrs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = qerrs[qerrs.len() / 2];
        assert!(
            median >= target / 1.5 && median <= target * 1.5,
            "target {target}: realised median {median} ({} samples)",
            qerrs.len()
        );
    }
}

/// (c) The degradation ratio is exactly 1.0 at q-error 1: injection at
/// target 1 is the bitwise identity, so the optimiser sees the true query,
/// produces the same plan, and re-costing changes nothing.
#[test]
fn degradation_is_exactly_one_at_qerror_one() {
    let inj = QErrorInjector::new(99, 1.0).unwrap();
    for schema in schemas() {
        let gen = BenchmarkGenerator::paper_defaults(schema);
        for seed in 0..10 {
            let truth = gen.generate(seed);
            if truth.num_relations() > 12 {
                continue; // keep the DP cheap
            }
            let est = inj.inject(&truth, seed);
            let (true_plan, true_cost) = dp_optimal(&truth);
            let (est_plan, _) = dp_optimal(&est);
            let recost = est_plan.clamped_cost(&truth);
            assert_eq!(est_plan, true_plan, "{schema:?} seed {seed}");
            assert_eq!(recost / true_cost, 1.0, "{schema:?} seed {seed}");
            // Greedy agrees with itself the same way.
            let (g_true, g_cost) = greedy_min_cost(&truth);
            let (g_est, _) = greedy_min_cost(&est);
            assert_eq!(g_est, g_true, "{schema:?} seed {seed} (greedy)");
            assert_eq!(g_est.clamped_cost(&truth) / g_cost, 1.0);
        }
    }
}

/// Misestimated plans are never *better* than the true optimum when
/// re-costed under the truth — the degradation ratio is ≥ 1 by optimality.
#[test]
fn degradation_is_bounded_below_by_one() {
    let gen = BenchmarkGenerator::paper_defaults(BenchmarkSchema::FkChain { len: 6 });
    for &target in &[2.0, 8.0] {
        let inj = QErrorInjector::new(5, target).unwrap();
        for seed in 0..10 {
            let truth = gen.generate(seed);
            let est = inj.inject(&truth, seed);
            let (_, true_cost) = dp_optimal(&truth);
            let (est_plan, _) = dp_optimal(&est);
            let recost = est_plan.clamped_cost(&truth);
            let ratio = recost / true_cost;
            assert!(ratio >= 1.0 - 1e-12, "q {target} seed {seed}: ratio {ratio}");
            assert!(ratio.is_finite());
        }
    }
}
