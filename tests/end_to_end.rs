//! Cross-crate integration tests: the full pipelines of the paper, from a
//! query to a decoded join order, through every backend.

use qjo::anneal::hardware::{chimera, pegasus_like};
use qjo::anneal::{AnnealerSampler, SqaConfig};
use qjo::core::classical::{dp_optimal, greedy_min_cost};
use qjo::core::prelude::*;
use qjo::gatesim::{qaoa_circuit, NoiseModel, NoisySimulator, QaoaParams, QaoaSimulator};
use qjo::qubo::solve::{ExactSolver, SimulatedAnnealing, TabuSearch};
use qjo::qubo::SampleSet;
use qjo::transpile::{respects_topology, Device, NativeGateSet, Strategy, Transpiler};

fn paper_example() -> Query {
    Query::new(vec![2.0, 2.0, 2.0], vec![Predicate { rel_a: 0, rel_b: 1, log_sel: -1.0 }])
}

fn fine_encoder() -> JoEncoder {
    JoEncoder { thresholds: ThresholdSpec::ExplicitLogs(vec![2.0, 3.0]), ..JoEncoder::default() }
}

#[test]
fn exact_pipeline_reaches_classical_optimum() {
    let query = paper_example();
    let encoded = fine_encoder().encode(&query);
    let ground = ExactSolver::new().solve(&encoded.qubo).expect("fits");
    let order = decode_assignment(&ground.assignment, &encoded.registry, &query)
        .expect("valid ground state");
    let (_, optimal) = dp_optimal(&query);
    assert_eq!(order.cost(&query), optimal);
}

#[test]
fn classical_heuristic_solvers_agree_on_the_encoding() {
    let query = paper_example();
    let encoded = fine_encoder().encode(&query);
    let exact = ExactSolver::new().min_energy(&encoded.qubo).unwrap();
    let sa = SimulatedAnnealing { restarts: 30, sweeps: 400, ..Default::default() }
        .solve(&encoded.qubo)
        .unwrap();
    let tabu = TabuSearch { restarts: 10, iterations: 3000, ..Default::default() }
        .solve(&encoded.qubo)
        .unwrap();
    assert!((sa.energy - exact).abs() < 1e-9, "SA {} vs exact {exact}", sa.energy);
    assert!((tabu.energy - exact).abs() < 1e-9, "tabu {} vs exact {exact}", tabu.energy);
}

#[test]
fn annealer_pipeline_finds_optimal_join_orders() {
    let query = paper_example();
    let encoded = fine_encoder().encode(&query);
    let sampler = AnnealerSampler {
        num_reads: 300,
        sqa: SqaConfig { seed: 3, ..Default::default() },
        ..AnnealerSampler::new(pegasus_like(6))
    };
    let outcome = sampler.sample_qubo(&encoded.qubo).expect("embeds");
    let (_, optimal) = dp_optimal(&query);
    let quality = assess_samples(&outcome.samples, &encoded.registry, &query, optimal);
    assert!(quality.valid_fraction > 0.0, "no valid reads at all");
    let (_, best_cost) = quality.best.expect("some valid read");
    assert!(
        (best_cost - optimal).abs() < 1e-9,
        "best annealed cost {best_cost} vs optimum {optimal}"
    );
}

#[test]
fn qaoa_pipeline_finds_optimal_join_orders_noiselessly() {
    // Small query so the state vector stays tiny: 2 relations.
    let query = Query::new(vec![1.0, 2.0], vec![]);
    let encoded = JoEncoder::default().encode(&query);
    assert!(encoded.num_qubits() <= 16, "2-relation model is small");

    // Depth 1 has two parameters: scan a 12 × 12 grid over γ ∈ [0, π] and
    // β ∈ [0, π/2], keeping the first lowest-energy point.
    let sim = QaoaSimulator::new(&encoded.qubo);
    let step = |hi: f64, i: usize| hi * i as f64 / 11.0;
    let mut best = (f64::INFINITY, vec![0.0, 0.0]);
    for b in 0..12 {
        for g in 0..12 {
            let x = vec![step(std::f64::consts::PI, g), step(std::f64::consts::PI / 2.0, b)];
            let energy = sim.expectation(&QaoaParams::from_flat(1, &x));
            if energy < best.0 {
                best = (energy, x);
            }
        }
    }
    let params = QaoaParams::from_flat(1, &best.1);

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
    let reads = sim.sample(&params, 2048, &mut rng);
    let samples = SampleSet::from_shots(&reads, |x| encoded.qubo.energy(x).unwrap());
    let (_, optimal) = dp_optimal(&query);
    let quality = assess_samples(&samples, &encoded.registry, &query, optimal);
    assert!(quality.valid_fraction > 0.0);
    assert!(quality.optimal_fraction > 0.0, "QAOA should hit the optimum sometimes");
}

#[test]
fn transpiled_qaoa_respects_hardware_and_survives_noise() {
    let gen = QueryGenerator {
        log_card_range: (1.0, 1.0),
        ..QueryGenerator::paper_defaults(QueryGraph::Cycle, 3)
    };
    let query = gen.with_predicate_count(0, 0);
    let encoded = JoEncoder::default().encode(&query);
    assert!(encoded.num_qubits() <= 27, "must fit Auckland");

    let device = Device::ibm_auckland();
    let circuit =
        qaoa_circuit(&encoded.qubo.to_ising(), &QaoaParams { gammas: vec![0.4], betas: vec![0.3] });
    let compiled = Transpiler::new(Strategy::QiskitLike, 1)
        .transpile(&circuit, &device.topology, device.gate_set)
        .expect("device is connected");
    assert!(respects_topology(&compiled.circuit, &device.topology));
    assert!(compiled.circuit.gates().iter().all(|g| device.gate_set.is_native(g)));

    // Sample the logical circuit under noise and decode.
    let noisy =
        NoisySimulator { trajectories: 4, ..NoisySimulator::new(NoiseModel::ibm_auckland(), 9) };
    let reads = noisy.sample(&circuit, 512);
    let samples = SampleSet::from_shots(&reads, |x| encoded.qubo.energy(x).unwrap());
    let (_, optimal) = dp_optimal(&query);
    let quality = assess_samples(&samples, &encoded.registry, &query, optimal);
    assert!(quality.valid_fraction > 0.0, "noise should not erase all valid shots");
}

#[test]
fn sampling_the_transpiled_circuit_agrees_after_unpermuting() {
    // Real hardware executes the *physical* circuit; measured bits sit on
    // physical wires and must be unpermuted through the final layout
    // before decoding. Verify both paths produce identical statistics.
    let gen = QueryGenerator {
        log_card_range: (1.0, 1.0),
        ..QueryGenerator::paper_defaults(QueryGraph::Cycle, 3)
    };
    let query = gen.with_predicate_count(0, 0);
    let encoded = JoEncoder::default().encode(&query);
    let n = encoded.num_qubits();

    let circuit =
        qaoa_circuit(&encoded.qubo.to_ising(), &QaoaParams { gammas: vec![0.5], betas: vec![0.4] });
    // A 20-qubit grid device keeps the physical state vector small while
    // still forcing routing (the Auckland-sized 2^27 state is ~50× slower).
    let topology = qjo::transpile::Topology::grid(5, 4);
    let compiled = Transpiler::new(Strategy::QiskitLike, 3)
        .transpile(&circuit, &topology, NativeGateSet::Ibm)
        .expect("grid is connected");
    assert!(compiled.swaps_inserted > 0, "routing must actually happen");

    // Noiseless sampling of both circuits.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut logical_state = qjo::gatesim::StateVector::zero(n);
    logical_state.apply_circuit(&circuit);
    let logical_reads = logical_state.sample(&mut rng, 2000);

    let mut physical_state = qjo::gatesim::StateVector::zero(topology.num_qubits());
    physical_state.apply_circuit(&compiled.circuit);
    let mut rng2 = rand::rngs::StdRng::seed_from_u64(7);
    // Unpermute measured physical wires through the final layout back onto
    // logical variables before decoding.
    let mut physical_reads = qjo::qubo::ShotBuffer::with_capacity(n, 2000);
    for bits in physical_state.sample(&mut rng2, 2000).iter_bits() {
        let logical: Vec<bool> = (0..n).map(|l| bits[compiled.final_layout[l]]).collect();
        physical_reads.push_bits(&logical);
    }

    // Compare per-variable means (same seed streams differ in index order,
    // so compare statistics, not individual shots).
    let logical_set = SampleSet::from_shots(&logical_reads, |_| 0.0);
    let physical_set = SampleSet::from_shots(&physical_reads, |_| 0.0);
    for i in 0..n {
        let a = logical_set.mean_bit(i);
        let b = physical_set.mean_bit(i);
        assert!(
            (a - b).abs() < 0.05,
            "variable {i}: logical mean {a:.3} vs transpiled mean {b:.3}"
        );
    }
    // Decoded validity fractions agree too.
    let (_, optimal) = dp_optimal(&query);
    let ql = assess_samples(&logical_set, &encoded.registry, &query, optimal);
    let qp = assess_samples(&physical_set, &encoded.registry, &query, optimal);
    assert!(
        (ql.valid_fraction - qp.valid_fraction).abs() < 0.05,
        "valid fractions diverge: {} vs {}",
        ql.valid_fraction,
        qp.valid_fraction
    );
}

#[test]
fn greedy_baseline_bounds_quantum_results() {
    // The quantum-found best order can never beat the exact optimum, and
    // greedy gives a classical reference in between.
    let query = QueryGenerator::paper_defaults(QueryGraph::Star, 5).generate(4);
    let (_, optimal) = dp_optimal(&query);
    let (_, greedy) = greedy_min_cost(&query);
    assert!(greedy >= optimal);

    let encoded = JoEncoder::default().encode(&query);
    let sa = SimulatedAnnealing { restarts: 20, sweeps: 300, ..Default::default() }
        .solve(&encoded.qubo)
        .unwrap();
    if let Some(order) = decode_assignment(&sa.assignment, &encoded.registry, &query) {
        assert!(order.cost(&query) >= optimal - 1e-9);
    }
}

#[test]
fn chimera_and_pegasus_both_serve_as_annealer_targets() {
    let query = paper_example();
    let encoded = fine_encoder().encode(&query);
    for hardware in [chimera(6), pegasus_like(5)] {
        let sampler = AnnealerSampler { num_reads: 100, ..AnnealerSampler::new(hardware) };
        let outcome = sampler.sample_qubo(&encoded.qubo).expect("embeds");
        assert!(outcome.samples.total_reads() == 100);
        assert!(outcome.physical_qubits >= encoded.num_qubits());
    }
}

#[test]
fn serving_facade_answers_requests_and_shares_cached_formulations() {
    use qjo::exec::Parallelism;
    use qjo::serve::{parse_request, Request, Service};

    let service = Service::smoke(7, Parallelism::sequential());
    let query = paper_example();
    let sa = |id: &str| Request {
        id: id.into(),
        backend: "sa".into(),
        deadline_ms: None,
        query: query.clone(),
    };
    // Two requests in the same fingerprint class: the first builds the
    // formulation, the second is served from the cache.
    let responses = [service.handle(&sa("a")), service.handle(&sa("b"))];
    assert_eq!(responses[0].cache, Some("miss"));
    assert_eq!(responses[1].cache, Some("hit"));
    let (_, optimal) = dp_optimal(&query);
    for r in &responses {
        assert_eq!(r.error, None, "request {} failed", r.id);
        let mut order = r.order.clone();
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2], "not a permutation of the relations");
        assert!(r.cost.expect("has a cost") >= optimal - 1e-9, "cost beats the DP optimum");
    }

    // A request parsed off the wire flows through the same path and
    // reaches the exact optimum (DP is exact on a 3-relation query).
    let line = r#"{"id": "w", "backend": "dp", "relations": [2.0, 2.0, 2.0],
                   "predicates": [{"rel_a": 0, "rel_b": 1, "log_sel": -1.0}]}"#;
    let wire = parse_request(line).expect("well-formed request");
    let resp = service.handle(&wire);
    assert_eq!(resp.error, None);
    assert!((resp.cost.expect("has a cost") - optimal).abs() < 1e-9);
}

#[test]
fn bound_dominates_every_encoding_in_a_sweep() {
    for graph in [QueryGraph::Chain, QueryGraph::Star, QueryGraph::Cycle] {
        for t in 3..=6 {
            for r in 1..=2 {
                let query = QueryGenerator::paper_defaults(graph, t).generate(3);
                let encoded =
                    JoEncoder { thresholds: ThresholdSpec::Auto(r), ..Default::default() }
                        .encode(&query);
                let bound = qubit_upper_bound(&query, r, 1.0).total();
                assert!(
                    encoded.num_qubits() <= bound,
                    "{graph:?} T={t} R={r}: {} > {bound}",
                    encoded.num_qubits()
                );
            }
        }
    }
}
