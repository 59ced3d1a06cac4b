//! Table 2: QAOA solution quality on (simulated) IBM Q Auckland.
//!
//! Three-relation queries with 0–3 predicates are encoded, the p = 1 QAOA
//! parameters are optimised classically (gradient descent standing in for
//! Qiskit's AQGD, with the paper's 20 and 50 iteration budgets), and 1024
//! shots are sampled from the circuit under the Auckland noise model. Shots
//! are decoded per Section 3.5 into valid/optimal fractions.
//!
//! Simulation-scale note: the p = 1 parameter loop is closed-form and
//! needs no state vector, but each noise trajectory evolves one dense
//! state vector at O(2^n) per pass, so the default configuration covers
//! the 0- and 1-predicate scenarios (18–22 qubits); the full 0–3 sweep (up
//! to ~27 qubits) is reachable via [`Table2Config::max_predicates`] given
//! time and memory.

use qjo_core::classical::dp_optimal;
use qjo_core::{assess_samples, JoEncoder, QueryGenerator, QueryGraph, ThresholdSpec};
use qjo_exec::{par_map, Parallelism};
use qjo_gatesim::optim::GradientDescent;
use qjo_gatesim::{qaoa_circuit, NoiseModel, NoisySimulator, QaoaParams, QaoaSimulator};
use qjo_qubo::SampleSet;

use crate::report::{pct, Table};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Table2Config {
    /// Largest predicate count swept (paper: 3).
    pub max_predicates: usize,
    /// Optimiser iteration budgets (paper: 20 and 50).
    pub iteration_budgets: Vec<usize>,
    /// Shots per sampled circuit (paper: 1024).
    pub shots: usize,
    /// Noise trajectories the shots are split over.
    pub trajectories: usize,
    /// Query seed.
    pub seed: u64,
    /// Cardinality log range. Varied cardinalities keep join orders
    /// cost-distinguishable (equal cardinalities make every valid order
    /// optimal); the resulting 19–28 qubit progression is one above the
    /// paper's 18–27, which only matters for transpilation, not sampling.
    pub log_card_range: (f64, f64),
}

impl Default for Table2Config {
    fn default() -> Self {
        Table2Config {
            max_predicates: 1,
            iteration_budgets: vec![20, 50],
            shots: 1024,
            trajectories: 8,
            seed: 0,
            log_card_range: (1.0, 3.0),
        }
    }
}

/// One (predicates, iterations) cell.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Number of predicates.
    pub predicates: usize,
    /// Logical qubits.
    pub qubits: usize,
    /// Optimiser iterations.
    pub iterations: usize,
    /// Fraction of shots decoding to a valid join order.
    pub valid: f64,
    /// Fraction of shots decoding to an optimal join order.
    pub optimal: f64,
}

/// Runs the sweep.
///
/// The per-predicate scenarios are independent and run in parallel; the
/// samplers inside each scenario are pinned to [`Parallelism::sequential`]
/// so the sweep-level fan-out is the only source of threads.
pub fn run(config: &Table2Config) -> Vec<Table2Row> {
    let gen = QueryGenerator {
        log_card_range: config.log_card_range,
        ..QueryGenerator::paper_defaults(QueryGraph::Cycle, 3)
    };
    let predicate_counts: Vec<usize> = (0..=config.max_predicates).collect();
    let per_predicate = par_map(predicate_counts, Parallelism::auto(), |predicates| {
        let query = gen.with_predicate_count(config.seed, predicates);
        let enc =
            JoEncoder { thresholds: ThresholdSpec::Auto(1), ..Default::default() }.encode(&query);
        let (_, optimal_cost) = dp_optimal(&query);
        let sim = QaoaSimulator::new(&enc.qubo);
        let ising = enc.qubo.to_ising();

        let mut rows = Vec::new();
        for &iterations in &config.iteration_budgets {
            // Classical loop: the AQGD stand-in, at the paper's budget,
            // on the closed-form p = 1 ⟨H⟩.
            let opt = GradientDescent { iterations, learning_rate: 0.05, fd_step: 1e-3 }
                .minimize(|x| sim.expectation(&QaoaParams::from_flat(1, x)), &[0.1, 0.1]);
            let params = QaoaParams::from_flat(1, &opt.x);

            // Quantum step: sample the tuned circuit under Auckland noise.
            let circuit = qaoa_circuit(&ising, &params);
            let noisy = NoisySimulator {
                model: NoiseModel::ibm_auckland(),
                trajectories: config.trajectories,
                seed: config.seed ^ (iterations as u64) << 8 ^ (predicates as u64),
                parallelism: Parallelism::sequential(),
            };
            let reads = noisy.sample(&circuit, config.shots);
            let samples = SampleSet::from_shots(&reads, |x| {
                enc.qubo.energy(x).expect("read length matches model")
            });
            let quality = assess_samples(&samples, &enc.registry, &query, optimal_cost);
            rows.push(Table2Row {
                predicates,
                qubits: enc.num_qubits(),
                iterations,
                valid: quality.valid_fraction,
                optimal: quality.optimal_fraction,
            });
        }
        rows
    });
    per_predicate.into_iter().flatten().collect()
}

/// Renders the rows.
pub fn render(rows: &[Table2Row]) -> Table {
    let mut t = Table::new(vec!["predicates", "qubits", "iterations", "valid", "optimal"]);
    for r in rows {
        t.push_row(vec![
            r.predicates.to_string(),
            r.qubits.to_string(),
            r.iterations.to_string(),
            pct(r.valid),
            pct(r.optimal),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Table2Config {
        Table2Config {
            max_predicates: 0,
            iteration_budgets: vec![4],
            shots: 256,
            trajectories: 4,
            seed: 0,
            log_card_range: (1.0, 1.0),
        }
    }

    #[test]
    fn produces_row_per_cell_with_sane_fractions() {
        let rows = run(&tiny());
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.qubits >= 12, "3-relation encodings need ≥ 12 qubits");
        assert!((0.0..=1.0).contains(&r.valid));
        assert!((0.0..=1.0).contains(&r.optimal));
        assert!(r.optimal <= r.valid + 1e-12, "optimal shots are valid shots");
        assert_eq!(render(&rows).num_rows(), 1);
    }

    #[test]
    fn noisy_qaoa_still_finds_some_valid_solutions() {
        // The paper's qualitative finding: even with every sample set
        // containing constraint violations, a nonzero fraction of shots
        // decodes to valid join trees.
        let rows = run(&Table2Config { shots: 1024, ..tiny() });
        assert!(rows[0].valid > 0.0, "no valid shots at all");
    }
}
