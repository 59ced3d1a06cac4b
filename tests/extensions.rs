//! Integration tests for the beyond-the-paper extensions, exercised
//! together through the public facade.

use qjo::anneal::hardware::{pegasus_like, zephyr_like};
use qjo::anneal::pegasus_clique_embedding;
use qjo::core::classical::dp_optimal;
use qjo::core::costmodel::{dp_optimal_with, CostModel};
use qjo::core::prelude::*;
use qjo::core::presets::imdb_chain_query;
use qjo::gatesim::{qaoa_circuit, to_qasm, QaoaParams, ReadoutMitigator};
use qjo::qubo::io::{from_text, to_text};
use qjo::qubo::{fix_variables, solve::ExactSolver};
use qjo::transpile::{respects_topology, Device, Strategy, Transpiler};

#[test]
fn sabre_transpiles_jo_circuits_onto_real_devices() {
    let gen = QueryGenerator {
        log_card_range: (1.0, 1.0),
        ..QueryGenerator::paper_defaults(QueryGraph::Cycle, 3)
    };
    let query = gen.with_predicate_count(0, 1);
    let encoded = JoEncoder::default().encode(&query);
    let circuit =
        qaoa_circuit(&encoded.qubo.to_ising(), &QaoaParams { gammas: vec![0.4], betas: vec![0.3] });
    let device = Device::ibm_auckland();
    let result = Transpiler::new(Strategy::Sabre, 0)
        .transpile(&circuit, &device.topology, device.gate_set)
        .expect("device is connected");
    assert!(respects_topology(&result.circuit, &device.topology));
    assert!(result.circuit.gates().iter().all(|g| device.gate_set.is_native(g)));

    // The compiled circuit exports to QASM with one line per gate.
    let qasm = to_qasm(&result.circuit);
    assert!(qasm.contains("OPENQASM 2.0;"));
    assert!(qasm.lines().count() > result.circuit.len());
}

#[test]
fn qubo_serialization_round_trips_a_full_encoding() {
    let query = QueryGenerator::paper_defaults(QueryGraph::Chain, 3).generate(5);
    let encoded = JoEncoder::default().encode(&query);
    let text = to_text(&encoded.qubo);
    let back = from_text(&text).expect("own output parses");
    assert_eq!(back.num_vars(), encoded.num_qubits());
    // Energies agree on a few assignments.
    for seed in 0..5u64 {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<bool> = (0..back.num_vars()).map(|_| rng.random_bool(0.5)).collect();
        assert_eq!(encoded.qubo.energy(&x).unwrap(), back.energy(&x).unwrap());
    }
}

#[test]
fn preprocessing_composes_with_exact_solving_and_decoding() {
    let query = QueryGenerator::paper_defaults(QueryGraph::Chain, 3).generate(2);
    let encoded = JoEncoder::default().encode(&query);
    let pre = fix_variables(&encoded.qubo);
    // Solve the reduced model (or read the offset if fully fixed).
    let lifted = if pre.reduced.num_vars() == 0 {
        pre.lift(&[])
    } else if pre.reduced.num_vars() <= 26 {
        let sol = ExactSolver::new().solve(&pre.reduced).expect("fits");
        pre.lift(&sol.assignment)
    } else {
        return; // out of exact-solver budget for this seed
    };
    // The lifted solution matches the direct ground state's energy.
    let direct = ExactSolver::new().min_energy(&encoded.qubo).expect("fits");
    let lifted_energy = encoded.qubo.energy(&lifted).expect("length");
    assert!((lifted_energy - direct).abs() < 1e-9);
    // And decodes to a valid join order.
    assert!(decode_assignment(&lifted, &encoded.registry, &query).is_some());
}

#[test]
fn clique_template_supports_the_annealing_pipeline() {
    // Use the deterministic template as the embedding for a full annealing
    // run — bypassing the heuristic entirely.
    use qjo::anneal::AnnealerSampler;
    let query = QueryGenerator::paper_defaults(QueryGraph::Chain, 3).generate(0);
    let encoded = JoEncoder::default().encode(&query);
    let m = 8;
    let template = pegasus_clique_embedding(encoded.num_qubits(), m).expect("template capacity");
    let sampler = AnnealerSampler { num_reads: 100, ..AnnealerSampler::new(pegasus_like(m)) };
    let outcome = sampler.sample_qubo_with_embedding(&encoded.qubo, template, sampler.sqa.seed);
    assert_eq!(outcome.samples.total_reads(), 100);
    let (_, optimal) = dp_optimal(&query);
    let quality = assess_samples(&outcome.samples, &encoded.registry, &query, optimal);
    // The template's long uniform chains hurt quality, but the pipeline
    // must run and produce in-range fractions.
    assert!((0.0..=1.0).contains(&quality.valid_fraction));
}

#[test]
fn zephyr_serves_as_an_annealer_target() {
    use qjo::anneal::AnnealerSampler;
    let query = QueryGenerator::paper_defaults(QueryGraph::Chain, 3).generate(1);
    let encoded = JoEncoder::default().encode(&query);
    let sampler = AnnealerSampler { num_reads: 80, ..AnnealerSampler::new(zephyr_like(6)) };
    let outcome = sampler.sample_qubo(&encoded.qubo).expect("dense lattice embeds easily");
    let (_, optimal) = dp_optimal(&query);
    let quality = assess_samples(&outcome.samples, &encoded.registry, &query, optimal);
    assert!(quality.valid_fraction > 0.0, "zephyr run produced no valid reads");
}

#[test]
fn cost_models_rank_job_like_plans_consistently() {
    let (query, _) = imdb_chain_query(7, -5.0);
    let (out_order, out_cost) = dp_optimal(&query);
    let (hash_order, hash_cost) = dp_optimal_with(&query, CostModel::HashJoin);
    // Sanity: each optimum re-evaluates to its cost and C_out's optimum is
    // a lower bound for its own metric on the hash-optimal plan.
    assert!((CostModel::Out.order_cost(&out_order, &query) - out_cost).abs() / out_cost < 1e-9);
    assert!(CostModel::Out.order_cost(&hash_order, &query) >= out_cost - 1e-6);
    assert!(hash_cost >= out_cost, "hash cost includes C_out plus operand terms");
}

#[test]
fn readout_mitigation_sharpens_qaoa_statistics() {
    use qjo::gatesim::{NoiseModel, NoisySimulator};
    use qjo::qubo::SampleSet;
    // A deterministic 2-qubit circuit measured through heavy readout noise.
    let mut c = qjo::gatesim::Circuit::new(2);
    c.push(qjo::gatesim::Gate::X(0));
    let noise = NoiseModel { readout_error: 0.2, ..NoiseModel::noiseless() };
    let sim = NoisySimulator { trajectories: 1, ..NoisySimulator::new(noise, 1) };
    let samples = SampleSet::from_shots(&sim.sample(&c, 4000), |_| 0.0);
    let mitigator = ReadoutMitigator::new(0.2);
    let corrected = mitigator.mean_bits(&samples, 2);
    assert!(corrected[0] > 0.95, "{corrected:?}");
    assert!(corrected[1] < 0.05, "{corrected:?}");
}
