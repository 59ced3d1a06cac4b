//! Solver shoot-out: every optimiser in the workspace against one query.
//!
//! Classical join-ordering algorithms (exact DP, greedy, the Steinbrunn
//! randomised heuristics) compete with the QUBO route (exact, simulated-
//! annealing and tabu solvers, and the simulated quantum annealer) on the
//! same instance.
//!
//! ```sh
//! cargo run --release --example solver_shootout
//! ```

use qjo::anneal::hardware::pegasus_like;
use qjo::anneal::AnnealerSampler;
use qjo::core::classical::{
    dp_optimal, greedy_min_cost, iterative_improvement, simulated_annealing_jo,
};
use qjo::core::prelude::*;
use qjo::qubo::solve::{ExactSolver, SimulatedAnnealing, TabuSearch};

fn main() {
    let query = QueryGenerator::paper_defaults(QueryGraph::Cycle, 4).generate(42);
    println!(
        "cycle query: {} relations, {} predicates\n",
        query.num_relations(),
        query.num_predicates()
    );

    let mut report: Vec<(String, f64, String)> = Vec::new();

    // --- classical join-ordering algorithms -------------------------
    let t0 = std::time::Instant::now();
    let (_, opt) = dp_optimal(&query);
    report.push(("DP (exact)".into(), opt, format!("{:.2?}", t0.elapsed())));

    let t0 = std::time::Instant::now();
    let (_, g) = greedy_min_cost(&query);
    report.push(("greedy".into(), g, format!("{:.2?}", t0.elapsed())));

    let t0 = std::time::Instant::now();
    let (_, ii) = iterative_improvement(&query, 10, 50, 1);
    report.push(("iterative improvement".into(), ii, format!("{:.2?}", t0.elapsed())));

    let t0 = std::time::Instant::now();
    let (_, sa) = simulated_annealing_jo(&query, 80, 1);
    report.push(("simulated annealing (orders)".into(), sa, format!("{:.2?}", t0.elapsed())));

    // --- the QUBO route ---------------------------------------------
    let encoded =
        JoEncoder { thresholds: ThresholdSpec::Auto(3), ..JoEncoder::default() }.encode(&query);
    println!(
        "QUBO encoding: {} qubits, {} couplings\n",
        encoded.num_qubits(),
        encoded.qubo.num_interactions()
    );

    let decode_cost = |assignment: &[bool]| -> Option<f64> {
        decode_assignment(assignment, &encoded.registry, &query).map(|o| o.cost(&query))
    };

    let t0 = std::time::Instant::now();
    let qsa = SimulatedAnnealing { restarts: 80, sweeps: 1200, ..Default::default() }
        .solve(&encoded.qubo)
        .expect("valid model");
    if let Some(cost) = decode_cost(&qsa.assignment) {
        report.push(("QUBO + simulated annealing".into(), cost, format!("{:.2?}", t0.elapsed())));
    }

    let t0 = std::time::Instant::now();
    let qtabu = TabuSearch { restarts: 30, iterations: 10_000, ..Default::default() }
        .solve(&encoded.qubo)
        .expect("valid model");
    match decode_cost(&qtabu.assignment) {
        Some(cost) => {
            report.push(("QUBO + tabu search".into(), cost, format!("{:.2?}", t0.elapsed())))
        }
        None => println!("tabu search ended in an invalid assignment (energy {})", qtabu.energy),
    }

    if encoded.num_qubits() <= 28 {
        let t0 = std::time::Instant::now();
        let qexact = ExactSolver::new().solve(&encoded.qubo).expect("fits");
        if let Some(cost) = decode_cost(&qexact.assignment) {
            report.push(("QUBO + exact enumeration".into(), cost, format!("{:.2?}", t0.elapsed())));
        }
    }

    // The annealer leg uses the minimal-precision encoding (one
    // threshold), as the paper does on D-Wave: embedding size is the
    // binding constraint there.
    let minimal = JoEncoder::default().encode(&query);
    let t0 = std::time::Instant::now();
    let sampler = AnnealerSampler { num_reads: 300, ..AnnealerSampler::new(pegasus_like(12)) };
    match sampler.sample_qubo(&minimal.qubo) {
        Ok(outcome) => {
            let quality = assess_samples(&outcome.samples, &minimal.registry, &query, opt);
            if let Some((_, cost)) = quality.best {
                report.push((
                    format!("simulated quantum annealer ({} phys qubits)", outcome.physical_qubits),
                    cost,
                    format!("{:.2?}", t0.elapsed()),
                ));
            }
        }
        Err(e) => println!("annealer: {e}"),
    }

    // --- report ------------------------------------------------------
    println!("{:<44} {:>14}  {:>10}  vs opt", "solver", "C_out", "time");
    println!("{}", "-".repeat(84));
    for (name, cost, time) in &report {
        println!("{name:<44} {cost:>14.0}  {time:>10}  {:.3}×", cost / opt);
    }
}
