//! Operator cost models beyond `C_out`.
//!
//! The paper restricts its quantum formulation to `C_out` (each extra cost
//! model needs more MILP variables, hence qubits — Section 3.1), but the
//! classical side of Trummer & Koch supports richer operators. These models
//! serve the classical baselines and let one quantify how much plan quality
//! the `C_out` restriction gives up.
//!
//! All costs are accumulated per join of a left-deep order:
//!
//! * [`CostModel::Out`] — `|intermediate result|` (the paper's `C_out`).
//! * [`CostModel::HashJoin`] — build + probe + result:
//!   `|inner| + |outer| + |result|`.
//! * [`CostModel::SortMergeJoin`] — sorting both operands plus the merge:
//!   `|o|·log₂|o| + |i|·log₂|i| + |result|`.

use crate::jointree::JoinOrder;
use crate::query::Query;

/// A per-join cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostModel {
    /// The paper's `C_out`: sum of intermediate result cardinalities.
    Out,
    /// Hash join: build the inner's hash table, probe with the outer.
    HashJoin,
    /// Sort–merge join: sort both operands, merge.
    SortMergeJoin,
}

/// `10^log` with the exponent clamped to a representable range.
///
/// Misestimation injection can push log cardinalities toward the domain
/// edges; an unguarded `powf` would turn `-inf` (cardinality 0) into a cost
/// of 0, `NaN` into a NaN total that poisons every comparison, and extreme
/// perturbation factors into `+inf`. Clamping to `±300` keeps every cost
/// finite and strictly positive while preserving the ordering of all
/// realistic plans (real logs live in single digits).
fn clamped_pow10(log: f64) -> f64 {
    assert!(!log.is_nan(), "log cardinality must not be NaN");
    10f64.powf(log.clamp(-300.0, 300.0))
}

impl CostModel {
    /// Cost of one join given log10 cardinalities of the outer operand,
    /// inner relation, and join result.
    ///
    /// Each log is clamped to `±300` before exponentiation, so infinite
    /// logs still give a cost that is finite and positive; NaN inputs
    /// panic.
    pub fn join_cost(&self, log_outer: f64, log_inner: f64, log_result: f64) -> f64 {
        let outer = clamped_pow10(log_outer);
        let inner = clamped_pow10(log_inner);
        let result = clamped_pow10(log_result);
        match self {
            CostModel::Out => result,
            CostModel::HashJoin => inner + outer + result,
            CostModel::SortMergeJoin => {
                let nlogn = |n: f64| if n <= 1.0 { 0.0 } else { n * n.log2() };
                nlogn(outer) + nlogn(inner) + result
            }
        }
    }

    /// Total cost of a left-deep order under this model.
    pub fn order_cost(&self, order: &JoinOrder, query: &Query) -> f64 {
        let mut total = 0.0;
        let mut prefix: u64 = 1 << order.order[0];
        for &rel in &order.order[1..] {
            let log_outer = query.log_card_of_set(prefix);
            let log_inner = query.log_card(rel);
            prefix |= 1 << rel;
            let log_result = query.log_card_of_set(prefix);
            total += self.join_cost(log_outer, log_inner, log_result);
        }
        total
    }
}

/// Exact left-deep optimum under an arbitrary cost model, by subset DP
/// (valid: per-join cost depends only on the joined set and the next
/// relation, so Bellman's principle applies).
pub fn dp_optimal_with(query: &Query, model: CostModel) -> (JoinOrder, f64) {
    let t = query.num_relations();
    assert!(t <= 28, "subset DP beyond 28 relations is impractical");
    let size = 1usize << t;
    let mut best_cost = vec![f64::INFINITY; size];
    let mut best_last = vec![usize::MAX; size];
    for r in 0..t {
        best_cost[1usize << r] = 0.0;
        best_last[1usize << r] = r;
    }
    for set in 1..size as u64 {
        if set.count_ones() < 2 {
            continue;
        }
        let log_result = query.log_card_of_set(set);
        let mut rest = set;
        while rest != 0 {
            let r = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let prev = set & !(1u64 << r);
            let log_outer = query.log_card_of_set(prev);
            let step = model.join_cost(log_outer, query.log_card(r), log_result);
            let cand = best_cost[prev as usize] + step;
            if cand < best_cost[set as usize] {
                best_cost[set as usize] = cand;
                best_last[set as usize] = r;
            }
        }
    }
    let full = (1u64 << t) - 1;
    let mut order = Vec::with_capacity(t);
    let mut set = full;
    while set != 0 {
        let last = best_last[set as usize];
        order.push(last);
        set &= !(1u64 << last);
    }
    order.reverse();
    (JoinOrder::new(order, t).expect("DP builds a permutation"), best_cost[full as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classical::dp_optimal;
    use crate::query::{Predicate, QueryGraph};
    use crate::querygen::QueryGenerator;

    fn example() -> Query {
        Query::new(vec![2.0, 2.0, 2.0], vec![Predicate { rel_a: 0, rel_b: 1, log_sel: -1.0 }])
    }

    #[test]
    fn out_model_matches_join_order_cost() {
        let q = example();
        for perm in [[0, 1, 2], [0, 2, 1], [2, 0, 1]] {
            let order = JoinOrder::new(perm.to_vec(), 3).unwrap();
            assert!((CostModel::Out.order_cost(&order, &q) - order.cost(&q)).abs() < 1e-9);
        }
    }

    #[test]
    fn hash_join_adds_build_and_probe_costs() {
        // One join: outer 100, inner 100, sel 0.1 → result 1000.
        let q = Query::new(vec![2.0, 2.0], vec![Predicate { rel_a: 0, rel_b: 1, log_sel: -1.0 }]);
        let order = JoinOrder::new(vec![0, 1], 2).unwrap();
        assert_eq!(CostModel::Out.order_cost(&order, &q), 1_000.0);
        assert_eq!(CostModel::HashJoin.order_cost(&order, &q), 100.0 + 100.0 + 1_000.0);
        let smj = CostModel::SortMergeJoin.order_cost(&order, &q);
        let expected = 2.0 * 100.0 * 100f64.log2() + 1_000.0;
        assert!((smj - expected).abs() < 1e-9);
    }

    #[test]
    fn dp_with_out_model_agrees_with_plain_dp() {
        for seed in 0..5 {
            let q = QueryGenerator::paper_defaults(QueryGraph::Cycle, 6).generate(seed);
            let (_, a) = dp_optimal(&q);
            let (_, b) = dp_optimal_with(&q, CostModel::Out);
            assert!((a - b).abs() / a < 1e-9, "seed {seed}: {a} vs {b}");
        }
    }

    #[test]
    fn dp_is_optimal_for_every_model_by_brute_force() {
        let q = QueryGenerator::paper_defaults(QueryGraph::Chain, 5).generate(1);
        for model in [CostModel::Out, CostModel::HashJoin, CostModel::SortMergeJoin] {
            let (order, cost) = dp_optimal_with(&q, model);
            assert!((model.order_cost(&order, &q) - cost).abs() / cost < 1e-9);
            // Brute force over all 120 permutations.
            let mut perm: Vec<usize> = (0..5).collect();
            let mut best = f64::INFINITY;
            permute(&mut perm, 0, &mut |p| {
                let c = model.order_cost(&JoinOrder { order: p.to_vec() }, &q);
                if c < best {
                    best = c;
                }
            });
            assert!((cost - best).abs() / best < 1e-9, "{model:?}: {cost} vs {best}");
        }
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

    #[test]
    fn zero_cardinality_yields_finite_positive_cost() {
        // log10(0) = -inf: a cardinality-0 estimate must not produce a cost
        // of 0 (which would make every such plan look free) or a NaN.
        for model in [CostModel::Out, CostModel::HashJoin, CostModel::SortMergeJoin] {
            let c = model.join_cost(f64::NEG_INFINITY, 2.0, f64::NEG_INFINITY);
            assert!(c.is_finite() && c > 0.0, "{model:?}: {c}");
        }
    }

    #[test]
    fn sub_one_cardinalities_are_supported() {
        // Negative logs (cardinality < 1) are legal inputs post-perturbation.
        for model in [CostModel::Out, CostModel::HashJoin, CostModel::SortMergeJoin] {
            let c = model.join_cost(-3.0, -0.5, -2.0);
            assert!(c.is_finite() && c > 0.0, "{model:?}: {c}");
        }
    }

    #[test]
    fn extreme_perturbation_factors_stay_finite() {
        for model in [CostModel::Out, CostModel::HashJoin, CostModel::SortMergeJoin] {
            let hi = model.join_cost(1e12, 1e12, 1e12);
            assert!(hi.is_finite() && hi > 0.0, "{model:?}: {hi}");
            let lo = model.join_cost(-1e12, -1e12, -1e12);
            assert!(lo.is_finite() && lo > 0.0, "{model:?}: {lo}");
            // Ordering across the clamp boundary is preserved.
            assert!(lo < model.join_cost(0.0, 0.0, 0.0));
            assert!(model.join_cost(0.0, 0.0, 0.0) < hi);
        }
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_cardinality_panics() {
        CostModel::Out.join_cost(f64::NAN, 1.0, 1.0);
    }

    #[test]
    fn models_can_prefer_different_orders() {
        // Cost models weigh operands differently; verify they at least
        // produce valid (possibly different) optima on a skewed instance.
        let q = Query::new(
            vec![1.0, 4.0, 3.0],
            vec![
                Predicate { rel_a: 0, rel_b: 1, log_sel: -2.0 },
                Predicate { rel_a: 1, rel_b: 2, log_sel: -1.0 },
            ],
        );
        for model in [CostModel::Out, CostModel::HashJoin, CostModel::SortMergeJoin] {
            let (order, cost) = dp_optimal_with(&q, model);
            assert_eq!(order.order.len(), 3);
            assert!(cost.is_finite() && cost > 0.0);
        }
    }
}
