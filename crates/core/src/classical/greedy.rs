//! Greedy join-ordering heuristic.
//!
//! A classical polynomial-time baseline: [`greedy_min_cost`] builds the
//! order left to right from every starting relation, always appending the
//! relation that minimises the next intermediate result, and keeps the
//! cheapest of those orders.

use crate::jointree::JoinOrder;
use crate::query::Query;

/// Greedy with all starting relations tried, keeping the cheapest order.
pub fn greedy_min_cost(query: &Query) -> (JoinOrder, f64) {
    let t = query.num_relations();
    (0..t)
        .map(|start| {
            let order = build_from(query, start);
            let cost = order.cost(query);
            (order, cost)
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
        .expect("at least two relations")
}

fn build_from(query: &Query, start: usize) -> JoinOrder {
    let t = query.num_relations();
    let mut order = vec![start];
    let mut set: u64 = 1 << start;
    while order.len() < t {
        let next = (0..t)
            .filter(|&r| set >> r & 1 == 0)
            .min_by(|&a, &b| {
                let ca = query.log_card_of_set(set | 1 << a);
                let cb = query.log_card_of_set(set | 1 << b);
                ca.partial_cmp(&cb).expect("finite logs")
            })
            .expect("unjoined relation remains");
        order.push(next);
        set |= 1 << next;
    }
    JoinOrder::new(order, t).expect("constructed a permutation")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classical::dp_optimal;
    use crate::query::{Predicate, Query, QueryGraph};
    use crate::querygen::QueryGenerator;

    #[test]
    fn greedy_is_optimal_on_easy_instances() {
        // Cross products only: greedy ascending order is exactly optimal.
        // Starts 1 and 2 tie; the first start wins.
        let q = Query::new(vec![4.0, 1.0, 2.0, 3.0], vec![]);
        let (order, cost) = greedy_min_cost(&q);
        assert_eq!(order.order, vec![1, 2, 3, 0]);
        let (_, opt) = dp_optimal(&q);
        assert_eq!(cost, opt);
    }

    #[test]
    fn greedy_never_beats_dp() {
        for graph in [QueryGraph::Chain, QueryGraph::Star, QueryGraph::Cycle] {
            for seed in 0..10 {
                let q = QueryGenerator::paper_defaults(graph, 7).generate(seed);
                let (_, opt) = dp_optimal(&q);
                let (_, g) = greedy_min_cost(&q);
                assert!(g >= opt - 1e-6, "{graph:?} seed {seed}");
            }
        }
    }

    #[test]
    fn greedy_prefers_selective_joins() {
        // Equal cardinalities; predicate makes {0,1} the cheap pair.
        let q =
            Query::new(vec![2.0, 2.0, 2.0], vec![Predicate { rel_a: 0, rel_b: 1, log_sel: -1.0 }]);
        let (order, cost) = greedy_min_cost(&q);
        let first_two: Vec<usize> = order.order[..2].to_vec();
        assert!(first_two == vec![0, 1] || first_two == vec![1, 0], "{order:?}");
        assert_eq!(cost, 101_000.0);
    }

    #[test]
    fn greedy_returns_valid_permutations() {
        let q = QueryGenerator::paper_defaults(QueryGraph::Clique, 9).generate(4);
        let (order, _) = greedy_min_cost(&q);
        let mut sorted = order.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }
}
