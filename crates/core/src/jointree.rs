//! Left-deep join orders and the `C_out` cost function.
//!
//! The paper restricts plans to left-deep trees with cross products
//! (NP-complete per Cluet & Moerkotte) and costs them with
//! `C_out(n_i, n_j) = n_i · n_j · f_ij`: the total cost of an order
//! `s_1 … s_n` is the sum of all intermediate result cardinalities
//! (Equation 2).

use crate::query::Query;

/// A left-deep join order: `order[0]` is the outer relation of the first
/// join, `order[i]` (i ≥ 1) the inner operand of join `i − 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinOrder {
    /// Permutation of relation indices.
    pub order: Vec<usize>,
}

impl JoinOrder {
    /// Builds and validates a join order for a query of `t` relations.
    pub fn new(order: Vec<usize>, num_relations: usize) -> Option<JoinOrder> {
        if order.len() != num_relations {
            return None;
        }
        let mut seen = vec![false; num_relations];
        for &r in &order {
            if r >= num_relations || seen[r] {
                return None;
            }
            seen[r] = true;
        }
        Some(JoinOrder { order })
    }

    /// The `C_out` cost (Equation 2): sum of intermediate result sizes
    /// after each join. Computed through log cardinalities; saturates at
    /// `f64::INFINITY` on overflow rather than panicking.
    pub fn cost(&self, query: &Query) -> f64 {
        let mut total = 0.0f64;
        let mut prefix: u64 = 1 << self.order[0];
        for &rel in &self.order[1..] {
            prefix |= 1 << rel;
            let log_intermediate = query.log_card_of_set(prefix);
            total += 10f64.powf(log_intermediate);
        }
        total
    }

    /// `C_out` with each intermediate's log cardinality clamped to `±300`
    /// before exponentiation — the cost a plan is re-costed with under
    /// perturbed (estimated) statistics.
    ///
    /// Misestimation injection can push log cardinalities toward the
    /// domain edges: an unguarded `powf` turns `−∞` (cardinality 0) into a
    /// cost of 0 and extreme values into `+∞`. The clamp keeps every cost
    /// finite and strictly positive while preserving the ordering of all
    /// realistic plans (real logs live in single digits); inside it the
    /// result equals [`JoinOrder::cost`] bit for bit.
    ///
    /// # Panics
    /// Panics when an intermediate's log cardinality is NaN.
    pub fn clamped_cost(&self, query: &Query) -> f64 {
        let mut total = 0.0f64;
        let mut prefix: u64 = 1 << self.order[0];
        for &rel in &self.order[1..] {
            prefix |= 1 << rel;
            total += clamped_pow10(query.log_card_of_set(prefix));
        }
        total
    }

    /// The staircase-approximated cost the MILP objective optimises
    /// (Section 3.2): for each intermediate (outer operand of joins
    /// `1..J`), every threshold its log cardinality strictly exceeds adds
    /// that threshold's value.
    ///
    /// `log_thresholds` holds `log10 θ_r` values.
    pub fn threshold_cost(&self, query: &Query, log_thresholds: &[f64]) -> f64 {
        let mut total = 0.0f64;
        let mut prefix: u64 = 1 << self.order[0];
        for &rel in &self.order[1..self.order.len() - 1] {
            prefix |= 1 << rel;
            let c = query.log_card_of_set(prefix);
            for &lt in log_thresholds {
                if c > lt + 1e-9 {
                    total += 10f64.powf(lt);
                }
            }
        }
        total
    }
}

/// `10^log` with the exponent clamped to `±300`; NaN panics.
fn clamped_pow10(log: f64) -> f64 {
    assert!(!log.is_nan(), "log cardinality must not be NaN");
    10f64.powf(log.clamp(-300.0, 300.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Predicate, QueryGraph};
    use crate::querygen::QueryGenerator;

    /// The running example of the paper (Example 3.3): three relations of
    /// cardinality 100 and one predicate R⋈S with selectivity 0.1.
    fn example_query() -> Query {
        Query::new(vec![2.0, 2.0, 2.0], vec![Predicate { rel_a: 0, rel_b: 1, log_sel: -1.0 }])
    }

    #[test]
    fn validation_rejects_bad_orders() {
        assert!(JoinOrder::new(vec![0, 1, 2], 3).is_some());
        assert!(JoinOrder::new(vec![0, 1], 3).is_none()); // too short
        assert!(JoinOrder::new(vec![0, 1, 1], 3).is_none()); // duplicate
        assert!(JoinOrder::new(vec![0, 1, 3], 3).is_none()); // out of range
    }

    #[test]
    fn paper_example_costs() {
        let q = example_query();
        // (R ⋈ S) ⋈ T: intermediate 100·100·0.1 = 1000, final 1000·100 = 1e5.
        let good = JoinOrder::new(vec![0, 1, 2], 3).unwrap();
        assert_eq!(good.cost(&q), 1_000.0 + 100_000.0);
        // (R × T) ⋈ S: intermediate 100·100 = 1e4, final 1e4·100·0.1 = 1e5.
        let bad = JoinOrder::new(vec![0, 2, 1], 3).unwrap();
        assert_eq!(bad.cost(&q), 10_000.0 + 100_000.0);
        assert!(good.cost(&q) < bad.cost(&q));
    }

    #[test]
    fn symmetric_prefix_orders_cost_the_same() {
        let q = example_query();
        let a = JoinOrder::new(vec![0, 1, 2], 3).unwrap();
        let b = JoinOrder::new(vec![1, 0, 2], 3).unwrap();
        assert_eq!(a.cost(&q), b.cost(&q));
    }

    #[test]
    fn threshold_cost_matches_paper_example() {
        // Example 3.3: thresholds θ0 = 100, θ1 = 1000; order (R ⋈ S) ⋈ T has
        // one intermediate (log 3), which exceeds log θ0 = 2 but not
        // log θ1 = 3 → approximated cost = 100.
        let q = example_query();
        let order = JoinOrder::new(vec![0, 1, 2], 3).unwrap();
        assert_eq!(order.threshold_cost(&q, &[2.0, 3.0]), 100.0);
        // The cross-product order's intermediate has log 4 > both: 1100.
        let bad = JoinOrder::new(vec![0, 2, 1], 3).unwrap();
        assert_eq!(bad.threshold_cost(&q, &[2.0, 3.0]), 1_100.0);
    }

    #[test]
    fn two_relation_queries_have_single_join() {
        let q = Query::new(vec![1.0, 2.0], vec![]);
        let o = JoinOrder::new(vec![0, 1], 2).unwrap();
        // Only the final result counts: 10^3.
        assert_eq!(o.cost(&q), 1_000.0);
        // And no intermediates exist for the threshold cost.
        assert_eq!(o.threshold_cost(&q, &[1.0]), 0.0);
    }

    #[test]
    fn clamped_cost_is_bit_identical_to_cost_inside_the_clamp() {
        for graph in [QueryGraph::Chain, QueryGraph::Star, QueryGraph::Cycle, QueryGraph::Clique] {
            for seed in 0..10 {
                let q = QueryGenerator::paper_defaults(graph, 6).generate(seed);
                let mut perm: Vec<usize> = (0..6).collect();
                for shift in 0..6 {
                    perm.rotate_left(shift);
                    let o = JoinOrder::new(perm.clone(), 6).unwrap();
                    assert_eq!(
                        o.clamped_cost(&q).to_bits(),
                        o.cost(&q).to_bits(),
                        "{graph:?} seed {seed} order {perm:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_cardinality_yields_finite_positive_cost() {
        // Two selectivities of 10^−f64::MAX on one pair sum to a log
        // cardinality of −∞ (cardinality 0). Unclamped, the plan would
        // look free; clamped, it costs 10^−300.
        let p = Predicate { rel_a: 0, rel_b: 1, log_sel: -f64::MAX };
        let q = Query::new(vec![0.0, 0.0], vec![p, p]);
        assert_eq!(q.log_card_of_set(0b11), f64::NEG_INFINITY);
        let o = JoinOrder::new(vec![0, 1], 2).unwrap();
        assert_eq!(o.cost(&q), 0.0);
        let c = o.clamped_cost(&q);
        assert!(c.is_finite() && c > 0.0, "{c}");
    }

    #[test]
    fn sub_one_cardinalities_are_supported() {
        // Negative logs (cardinality < 1) are legal after perturbation:
        // the intermediates here have logs −2 and −2.5.
        let q = Query::new(
            vec![0.5, 1.0, 0.5],
            vec![
                Predicate { rel_a: 0, rel_b: 1, log_sel: -3.5 },
                Predicate { rel_a: 1, rel_b: 2, log_sel: -1.0 },
            ],
        );
        let o = JoinOrder::new(vec![0, 1, 2], 3).unwrap();
        let c = o.clamped_cost(&q);
        assert!(c.is_finite() && c > 0.0, "{c}");
        assert_eq!(c.to_bits(), o.cost(&q).to_bits());
    }

    #[test]
    fn extreme_log_cardinalities_stay_finite_and_ordered() {
        let o = JoinOrder::new(vec![0, 1], 2).unwrap();
        let tiny = Predicate { rel_a: 0, rel_b: 1, log_sel: -1e12 };
        let hi = o.clamped_cost(&Query::new(vec![1e12, 1e12], vec![]));
        let lo = o.clamped_cost(&Query::new(vec![0.0, 0.0], vec![tiny]));
        let unit = o.clamped_cost(&Query::new(vec![0.0, 0.0], vec![]));
        assert!(hi.is_finite() && hi > 0.0, "{hi}");
        assert!(lo.is_finite() && lo > 0.0, "{lo}");
        // Ordering across the clamp boundary is preserved.
        assert!(lo < unit && unit < hi, "{lo} {unit} {hi}");
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_log_cardinality_panics() {
        // `Query` rejects NaN inputs and a sum of finite logs never reaches
        // NaN, so the guard is exercised on the helper directly.
        clamped_pow10(f64::NAN);
    }
}
