//! Quickstart: encode a join-ordering problem as a QUBO, solve it exactly,
//! and decode the result back into a join order.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use qjo::core::prelude::*;
use qjo::qubo::solve::{ExactSolver, SimulatedAnnealing};

fn main() {
    // The paper's running example: |R| = |S| = |T| = 100 and one join
    // predicate R ⋈ S with selectivity 0.1 (everything in log10).
    let query =
        Query::new(vec![2.0, 2.0, 2.0], vec![Predicate { rel_a: 0, rel_b: 1, log_sel: -1.0 }]);
    println!("query: {} relations, {} predicates", query.num_relations(), query.num_predicates());

    // Classical ground truth.
    let (best_order, best_cost) = dp_optimal(&query);
    println!("classical optimum: order {:?}, C_out = {best_cost}", best_order.order);

    // Encode: JO → pruned MILP → BILP → QUBO. Two explicit thresholds
    // (θ = 100 and 1000) make the cardinality staircase fine enough to
    // rank all candidate orders faithfully.
    let encoded = JoEncoder {
        thresholds: ThresholdSpec::ExplicitLogs(vec![2.0, 3.0]),
        ..JoEncoder::default()
    }
    .encode(&query);
    println!("QUBO encoding: {} qubits", encoded.num_qubits());

    // Solve the QUBO exactly (the model is small) and heuristically.
    let ground = ExactSolver::new().solve(&encoded.qubo).expect("small model");
    let heur = SimulatedAnnealing::with_seed(1).solve(&encoded.qubo).expect("valid model");
    println!("exact QUBO minimum:  energy {}", ground.energy);
    println!("simulated annealing: energy {}", heur.energy);

    // Decode the ground state back into a join order.
    let order = decode_assignment(&ground.assignment, &encoded.registry, &query)
        .expect("the QUBO minimum is a valid join order");
    println!("decoded join order: {:?} with C_out = {}", order.order, order.cost(&query));
    assert_eq!(order.cost(&query), best_cost, "quantum formulation found the optimum");
    println!("matches the classical optimum ✓");
}
