//! Exact left-deep join ordering.
//!
//! [`dp_optimal`] runs Bellman-style dynamic programming over relation
//! subsets in O(2^T · T): because `C_out` cost of a prefix depends only on
//! the *set* of joined relations (uncorrelated predicates), the best order
//! for a set extends the best order of one of its subsets. Cross products
//! are allowed, matching the paper's problem class. [`exhaustive_optimal`]
//! enumerates all T! permutations as an independent oracle for testing.

use crate::jointree::JoinOrder;
use crate::query::Query;

/// Exact optimum by subset DP. Supports up to 28 relations (2^28 states).
pub fn dp_optimal(query: &Query) -> (JoinOrder, f64) {
    let t = query.num_relations();
    assert!(t <= 28, "subset DP beyond 28 relations is impractical");
    let full: u64 = (1u64 << t) - 1;

    // best_cost[set] = minimal cost of a left-deep prefix joining `set`;
    // best_last[set] = the relation joined last in that optimum.
    let size = 1usize << t;
    let mut best_cost = vec![f64::INFINITY; size];
    let mut best_last = vec![usize::MAX; size];

    // Singleton prefixes cost nothing (the outer relation is just scanned).
    for r in 0..t {
        best_cost[1usize << r] = 0.0;
        best_last[1usize << r] = r;
    }

    for set in 1..size as u64 {
        if set.count_ones() < 2 {
            continue;
        }
        let intermediate = 10f64.powf(query.log_card_of_set(set));
        let mut best = f64::INFINITY;
        let mut arg = usize::MAX;
        let mut rest = set;
        while rest != 0 {
            let r = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let prev = set & !(1u64 << r);
            let cand = best_cost[prev as usize] + intermediate;
            // When every split overflows to +∞, keep the first one: an
            // unset `arg` would leave the reconstruction below unable to
            // clear a bit.
            if cand < best || arg == usize::MAX {
                best = cand;
                arg = r;
            }
        }
        best_cost[set as usize] = best;
        best_last[set as usize] = arg;
    }

    // Reconstruct the order back-to-front.
    let mut order = Vec::with_capacity(t);
    let mut set = full;
    while set != 0 {
        let last = best_last[set as usize];
        order.push(last);
        set &= !(1u64 << last);
    }
    order.reverse();
    let cost = best_cost[full as usize];
    (JoinOrder::new(order, t).expect("DP builds a permutation"), cost)
}

/// Exact optimum by brute-force permutation enumeration (≤ 10 relations).
pub fn exhaustive_optimal(query: &Query) -> (JoinOrder, f64) {
    let t = query.num_relations();
    assert!(t <= 10, "{t}! permutations is too many");
    let mut perm: Vec<usize> = (0..t).collect();
    let mut best: Option<(Vec<usize>, f64)> = None;
    permute(&mut perm, 0, &mut |p| {
        let cost = JoinOrder { order: p.to_vec() }.cost(query);
        match &best {
            Some((_, c)) if *c <= cost => {}
            _ => best = Some((p.to_vec(), cost)),
        }
    });
    let (order, cost) = best.expect("at least one permutation");
    (JoinOrder::new(order, t).expect("permutation"), cost)
}

fn permute<F: FnMut(&[usize])>(p: &mut Vec<usize>, k: usize, f: &mut F) {
    if k == p.len() {
        f(p);
        return;
    }
    for i in k..p.len() {
        p.swap(k, i);
        permute(p, k + 1, f);
        p.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Predicate, QueryGraph};
    use crate::querygen::QueryGenerator;

    #[test]
    fn dp_matches_exhaustive_on_random_queries() {
        // Bit-exact, not within a tolerance: DP's reported cost is the
        // minimum `JoinOrder::cost` over all orders, so nothing that
        // re-costs a plan (the `auto` backend's greedy-or-DP rule) can
        // ever beat it.
        for graph in [QueryGraph::Chain, QueryGraph::Star, QueryGraph::Cycle, QueryGraph::Clique] {
            for t in 3..=7 {
                for seed in 0..10 {
                    let q = QueryGenerator::paper_defaults(graph, t).generate(seed);
                    let (dp_order, dp_cost) = dp_optimal(&q);
                    let (_, ex_cost) = exhaustive_optimal(&q);
                    let at = format!("{graph:?} t={t} seed {seed}");
                    assert_eq!(
                        dp_cost.to_bits(),
                        ex_cost.to_bits(),
                        "{at}: {dp_cost} vs {ex_cost}"
                    );
                    assert_eq!(dp_order.cost(&q).to_bits(), dp_cost.to_bits(), "{at}");
                }
            }
        }
    }

    #[test]
    fn paper_example_prefers_selective_join_first() {
        let q = crate::query::Query::new(
            vec![2.0, 2.0, 2.0],
            vec![Predicate { rel_a: 0, rel_b: 1, log_sel: -1.0 }],
        );
        let (order, cost) = dp_optimal(&q);
        // Optimal orders start with {R0, R1} in either order.
        let first_two: Vec<usize> = order.order[..2].to_vec();
        assert!(first_two == vec![0, 1] || first_two == vec![1, 0]);
        assert_eq!(cost, 101_000.0);
    }

    #[test]
    fn dp_handles_pure_cross_products() {
        // No predicates: the largest relation joins last (the first two
        // positions commute, so only the tail ordering is determined).
        let q = crate::query::Query::new(vec![3.0, 1.0, 2.0], vec![]);
        let (order, cost) = dp_optimal(&q);
        assert_eq!(*order.order.last().unwrap(), 0);
        let reference = JoinOrder::new(vec![1, 2, 0], 3).unwrap();
        assert_eq!(cost, reference.cost(&q));
    }

    #[test]
    fn two_relations_trivial() {
        let q = crate::query::Query::new(vec![1.0, 2.0], vec![]);
        let (order, cost) = dp_optimal(&q);
        assert_eq!(cost, 1_000.0);
        assert_eq!(order.order.len(), 2);
    }

    #[test]
    fn dp_scales_to_fifteen_relations() {
        let q = QueryGenerator::paper_defaults(QueryGraph::Chain, 15).generate(0);
        let (order, cost) = dp_optimal(&q);
        assert_eq!(order.order.len(), 15);
        assert!(cost.is_finite());
        assert!((order.cost(&q) - cost).abs() / cost < 1e-9);
    }

    #[test]
    fn overflowing_costs_still_yield_a_permutation() {
        // A final join past log10 ≈ 308.25 costs +∞ along every split.
        for t in [2, 3, 5] {
            let q = crate::query::Query::new(vec![200.0; t], vec![]);
            let (order, cost) = dp_optimal(&q);
            assert_eq!(cost, f64::INFINITY, "t={t}");
            assert!(JoinOrder::new(order.order.clone(), t).is_some(), "t={t}: {order:?}");
        }
    }
}
