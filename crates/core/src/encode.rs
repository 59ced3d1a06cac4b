//! The end-to-end encoder: query → pruned MILP → BILP → QUBO.
//!
//! [`JoEncoder`] is the public entry point downstream backends consume: it
//! owns the knobs the paper trades off (threshold count = approximation
//! precision, ω = discretisation precision, pruning) and returns a
//! [`JoQubo`] bundle carrying the QUBO, the variable registry needed for
//! decoding, and the intermediate models for inspection.

use qjo_qubo::Qubo;

use crate::formulate::{
    auto_thresholds, bilp_to_qubo, build_milp, milp_to_bilp, quantile_thresholds, Bilp,
    JoMilpConfig, Milp, QuboEncodeConfig, VarRegistry,
};
use crate::query::Query;

/// How threshold values are chosen.
#[derive(Debug, Clone)]
pub enum ThresholdSpec {
    /// Place `count` thresholds evenly over the reachable range.
    Auto(usize),
    /// Place `count` thresholds at quantiles of the sampled distribution
    /// of intermediate cardinalities (better ranking fidelity per qubit).
    AutoQuantile {
        /// Number of thresholds.
        count: usize,
        /// Random join orders sampled to estimate the distribution.
        samples: usize,
        /// Sampling seed.
        seed: u64,
    },
    /// Explicit ascending `log10 θ_r` values.
    ExplicitLogs(Vec<f64>),
}

/// Encoder configuration.
#[derive(Debug, Clone)]
pub struct JoEncoder {
    /// Threshold selection (approximation precision).
    pub thresholds: ThresholdSpec,
    /// Discretisation precision ω for continuous slack.
    pub omega: f64,
    /// Use the pruned model (the paper's QPU-oriented variant).
    pub prune: bool,
    /// Penalty weight override (`None` = paper's `C/ω² + ε`).
    pub penalty_override: Option<f64>,
    /// Penalty safety margin ε.
    pub epsilon: f64,
}

impl Default for JoEncoder {
    fn default() -> Self {
        JoEncoder {
            thresholds: ThresholdSpec::Auto(1),
            omega: 1.0,
            prune: true,
            penalty_override: None,
            epsilon: 1.0,
        }
    }
}

/// The encoded problem bundle.
#[derive(Debug, Clone)]
pub struct JoQubo {
    /// The QUBO to hand to a QPU backend or classical solver.
    pub qubo: Qubo,
    /// Variable registry for decoding samples.
    pub registry: VarRegistry,
    /// The MILP stage (for Table 1 style inspection).
    pub milp: Milp,
    /// The BILP stage.
    pub bilp: Bilp,
    /// The `log10 θ_r` values used.
    pub log_thresholds: Vec<f64>,
    /// Penalty weight `A` applied to constraint violations.
    pub penalty_a: f64,
    /// The source query.
    pub query: Query,
}

impl JoQubo {
    /// Number of logical qubits the problem needs.
    pub fn num_qubits(&self) -> usize {
        self.qubo.num_vars()
    }

    /// Builds the exact BILP-feasible assignment encoding a join order —
    /// the inverse of [`crate::decode::decode_assignment`], including
    /// predicate/threshold indicators and slack bits. Pushing every order
    /// through it reads the energy each order gets under the encoding,
    /// e.g. to count the orders that tie at the minimum.
    ///
    /// Returns `None` when a slack residual is not representable at the
    /// encoder's precision (possible for non-integer-log queries).
    pub fn assignment_for_order(&self, order: &crate::jointree::JoinOrder) -> Option<Vec<bool>> {
        use crate::formulate::vars::JoVar;
        let t_count = self.query.num_relations();
        let j_count = self.query.num_joins();
        if order.order.len() != t_count {
            return None;
        }
        let mut x = vec![false; self.num_qubits()];
        let set = |var: JoVar, x: &mut Vec<bool>| -> bool {
            match self.registry.get(var) {
                Some(idx) => {
                    x[idx] = true;
                    true
                }
                None => false,
            }
        };

        // Operand indicators: tio(t, j) for every prefix relation, tii for
        // the joined relation.
        for j in 0..j_count {
            for &rel in &order.order[..=j] {
                set(JoVar::Tio { t: rel, j }, &mut x);
            }
            if !set(JoVar::Tii { t: order.order[j + 1], j }, &mut x) {
                return None;
            }
        }
        // Predicate applicability: both endpoints inside the outer operand.
        for j in 1..j_count {
            let prefix: u64 = order.order[..=j].iter().map(|&r| 1u64 << r).sum();
            for (p, pred) in self.query.predicates().iter().enumerate() {
                if prefix >> pred.rel_a & 1 == 1 && prefix >> pred.rel_b & 1 == 1 {
                    set(JoVar::Pao { p, j }, &mut x);
                }
            }
            // Threshold indicators from the actual log cardinality.
            let c_j = self.query.log_card_of_set(prefix);
            for (r, &log_theta) in self.log_thresholds.iter().enumerate() {
                if c_j > log_theta + 1e-9 {
                    set(JoVar::Cto { r, j }, &mut x);
                }
            }
        }
        // Slack bits: exact residuals of every BILP row.
        for (row_idx, row) in self.bilp.rows.iter().enumerate() {
            let mut residual = row.rhs;
            let mut slack_terms: Vec<(usize, f64)> = Vec::new();
            for &(var, coef) in &row.terms {
                match self.registry.var(var) {
                    JoVar::Slack { .. } => slack_terms.push((var, coef)),
                    _ => {
                        if x[var] {
                            residual -= coef;
                        }
                    }
                }
            }
            if slack_terms.is_empty() {
                continue;
            }
            // Decompose the residual greedily over the (descending-weight)
            // slack bits; all weights are ω·2^i so greedy is exact.
            slack_terms.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            for (var, coef) in slack_terms {
                if residual >= coef - 1e-9 {
                    x[var] = true;
                    residual -= coef;
                }
            }
            if residual.abs() > 1e-6 {
                return None; // not representable at this precision
            }
            let _ = row_idx;
        }
        Some(x)
    }
}

impl JoEncoder {
    /// Encodes a query.
    pub fn encode(&self, query: &Query) -> JoQubo {
        let log_thresholds = match &self.thresholds {
            ThresholdSpec::Auto(count) => auto_thresholds(query, *count),
            ThresholdSpec::AutoQuantile { count, samples, seed } => {
                quantile_thresholds(query, *count, *samples, *seed)
            }
            ThresholdSpec::ExplicitLogs(v) => v.clone(),
        };
        let milp_cfg = JoMilpConfig {
            log_thresholds: log_thresholds.clone(),
            omega: self.omega,
            prune: self.prune,
        };
        let milp = build_milp(query, &milp_cfg);
        let bilp = milp_to_bilp(&milp);
        let encoded = bilp_to_qubo(
            &bilp,
            &QuboEncodeConfig {
                omega: self.omega,
                epsilon: self.epsilon,
                penalty_override: self.penalty_override,
            },
        );
        JoQubo {
            qubo: encoded.qubo,
            registry: bilp.registry.clone(),
            milp,
            bilp,
            log_thresholds,
            penalty_a: encoded.penalty_a,
            query: query.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classical::dp_optimal;
    use crate::decode::decode_assignment;
    use crate::query::{Predicate, QueryGraph};
    use crate::querygen::QueryGenerator;
    use qjo_qubo::solve::{ExactSolver, SimulatedAnnealing};

    fn paper_example() -> Query {
        Query::new(vec![2.0, 2.0, 2.0], vec![Predicate { rel_a: 0, rel_b: 1, log_sel: -1.0 }])
    }

    #[test]
    fn encoding_produces_consistent_sizes() {
        let q = paper_example();
        let enc = JoEncoder::default().encode(&q);
        assert_eq!(enc.num_qubits(), enc.bilp.num_vars());
        assert_eq!(enc.registry.len(), enc.bilp.num_vars());
        assert!(enc.num_qubits() > enc.milp.registry.len(), "slack bits added");
        assert!(enc.penalty_a > 0.0);
    }

    #[test]
    fn exact_qubo_minimum_decodes_to_optimal_join_order() {
        // The global QUBO minimum must be a valid join order that is
        // optimal under the true cost (thresholds are fine enough here
        // that the staircase ranks the orders faithfully).
        let q = paper_example();
        let enc = JoEncoder {
            thresholds: ThresholdSpec::ExplicitLogs(vec![2.0, 3.0]),
            ..Default::default()
        }
        .encode(&q);
        let best = ExactSolver::new().solve(&enc.qubo).expect("fits in exact solver");
        let order = decode_assignment(&best.assignment, &enc.registry, &q)
            .expect("QUBO minimum must decode to a valid order");
        let (_, opt_cost) = dp_optimal(&q);
        assert!(
            (order.cost(&q) - opt_cost).abs() < 1e-9,
            "decoded cost {} vs optimum {opt_cost}",
            order.cost(&q)
        );
    }

    #[test]
    fn qubo_minimum_is_valid_across_random_queries() {
        for graph in [QueryGraph::Chain, QueryGraph::Cycle] {
            for seed in 0..3 {
                let q = QueryGenerator::paper_defaults(graph, 3).generate(seed);
                let enc = JoEncoder::default().encode(&q);
                if enc.num_qubits() > 26 {
                    continue; // exact solver budget
                }
                let best = ExactSolver::new().solve(&enc.qubo).expect("fits");
                let order = decode_assignment(&best.assignment, &enc.registry, &q);
                assert!(order.is_some(), "{graph:?} seed {seed}: invalid QUBO minimum");
            }
        }
    }

    #[test]
    fn simulated_annealing_solves_the_encoding() {
        let q = paper_example();
        let enc = JoEncoder::default().encode(&q);
        let sa = SimulatedAnnealing { restarts: 30, sweeps: 400, ..Default::default() }
            .solve(&enc.qubo)
            .expect("valid QUBO");
        let order = decode_assignment(&sa.assignment, &enc.registry, &q);
        assert!(order.is_some(), "SA ground state should decode");
    }

    #[test]
    fn qubit_counts_grow_with_predicates_and_precision() {
        // The paper's Section 4.1 observation: at 3 relations, both more
        // predicates and more precision raise the qubit count by ~3 each.
        let gen = QueryGenerator::paper_defaults(QueryGraph::Cycle, 3);
        let qubits_with_preds = |p: usize| {
            let q = gen.with_predicate_count(0, p);
            JoEncoder::default().encode(&q).num_qubits()
        };
        let base = qubits_with_preds(0);
        for p in 1..=3 {
            let n = qubits_with_preds(p);
            assert_eq!(n, base + 3 * p, "each predicate adds pao + two slack bits = 3 qubits");
        }

        let q = gen.with_predicate_count(0, 0);
        let qubits_at =
            |omega: f64| JoEncoder { omega, ..Default::default() }.encode(&q).num_qubits();
        assert!(qubits_at(0.1) > qubits_at(1.0));
        assert!(qubits_at(0.001) > qubits_at(0.1));
    }

    #[test]
    fn pruned_encoding_is_smaller_than_original() {
        let q = QueryGenerator::paper_defaults(QueryGraph::Chain, 4).generate(0);
        let pruned = JoEncoder::default().encode(&q);
        let original = JoEncoder { prune: false, ..Default::default() }.encode(&q);
        assert!(pruned.num_qubits() < original.num_qubits());
    }

    #[test]
    fn assignment_for_order_is_feasible_and_round_trips() {
        use crate::jointree::JoinOrder;
        for graph in [QueryGraph::Chain, QueryGraph::Cycle] {
            for seed in 0..4 {
                let q = QueryGenerator::paper_defaults(graph, 4).generate(seed);
                let enc = JoEncoder { thresholds: ThresholdSpec::Auto(2), ..Default::default() }
                    .encode(&q);
                for perm in [[0usize, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]] {
                    let order = JoinOrder::new(perm.to_vec(), 4).unwrap();
                    let x = enc
                        .assignment_for_order(&order)
                        .expect("integer-log queries encode exactly");
                    // BILP-feasible: the QUBO energy equals the (pure)
                    // objective, with zero penalty.
                    assert!(
                        enc.bilp.feasible(&x, 1e-6),
                        "{graph:?} seed {seed} {perm:?} infeasible"
                    );
                    let energy = enc.qubo.energy(&x).unwrap();
                    let objective = enc.bilp.objective_value(&x);
                    assert!((energy - objective).abs() < 1e-6, "{energy} vs {objective}");
                    // And decoding inverts the encoding.
                    let decoded = crate::decode::decode_assignment(&x, &enc.registry, &q)
                        .expect("feasible assignments decode");
                    assert_eq!(decoded.order, perm.to_vec());
                }
            }
        }
    }

    #[test]
    fn explicit_thresholds_are_used_verbatim() {
        let q = paper_example();
        let enc = JoEncoder {
            thresholds: ThresholdSpec::ExplicitLogs(vec![1.5, 2.5]),
            ..Default::default()
        }
        .encode(&q);
        assert_eq!(enc.log_thresholds, vec![1.5, 2.5]);
    }
}
