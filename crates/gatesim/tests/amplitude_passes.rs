//! Pins the `gatesim.amplitude_passes` work counter on small circuits.
//!
//! The counter is process-global, so this file holds a single test: no
//! other test in the process can add passes while it reads the deltas.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qjo_gatesim::gate::Gate::*;
use qjo_gatesim::{qaoa_circuit, Circuit, NoiseModel, NoisySimulator, QaoaParams, QaoaSimulator};
use qjo_qubo::Qubo;

/// Passes counted while `f` runs.
fn passes(f: impl FnOnce()) -> u64 {
    let before = qjo_obs::global().snapshot();
    f();
    let deltas = qjo_obs::global().snapshot().counter_deltas_since(&before);
    deltas.get("gatesim.amplitude_passes").copied().unwrap_or(0)
}

#[test]
fn amplitude_passes_are_pinned_for_small_circuits() {
    // Three variables, with fields on all of them and two couplings.
    let mut qubo = Qubo::new(3);
    for (i, c) in [-1.0, -3.0, 0.5].into_iter().enumerate() {
        qubo.add_linear(i, c);
    }
    qubo.add_quadratic(0, 1, 2.0);
    qubo.add_quadratic(1, 2, -1.0);
    let p1 = QaoaParams { gammas: vec![0.3], betas: vec![0.5] };
    let p2 = QaoaParams { gammas: vec![0.3, 0.2], betas: vec![0.5, 0.1] };
    let sim = QaoaSimulator::new(&qubo);
    let noisy = |trajectories| NoisySimulator {
        trajectories,
        ..NoisySimulator::new(NoiseModel::ibm_auckland(), 5)
    };

    // p = 1 ⟨H⟩ is closed-form: no state vector at all.
    assert_eq!(passes(|| assert!(sim.expectation(&p1).is_finite())), 0);
    // p = 2: per layer a cost pass and 3 RX passes, then the energy sum.
    assert_eq!(passes(|| assert!(sim.expectation(&p2).is_finite())), 2 * (1 + 3) + 1);
    // Sampling: one layer, then the CDF.
    let mut rng = StdRng::seed_from_u64(1);
    assert_eq!(passes(|| assert_eq!(sim.sample(&p1, 10, &mut rng).len(), 10)), 1 + 3 + 1);

    // A noisy trajectory of the QAOA circuit: the H layer, the RZ fields
    // and the RZZ run are one product-state write, then 3 RX passes and
    // the CDF (which also reads the frame's X part), whatever errors the
    // frame absorbed.
    let circuit = qaoa_circuit(&qubo.to_ising(), &p1);
    assert_eq!(passes(|| assert_eq!(noisy(2).sample(&circuit, 64).len(), 64)), 2 * (1 + 3 + 1));

    // A non-diagonal gate splits diagonal runs: the H prefix is the
    // product write, CX one pass, RZ·RZZ one fused pass, X one pass, the
    // lone trailing RZ one pass, and the CDF one.
    let mut c = Circuit::new(2);
    for g in [H(0), H(1), Cx(0, 1), Rz(0, 0.4), Rzz(0, 1, 0.7), X(1), Rz(1, 0.2)] {
        c.push(g);
    }
    assert_eq!(passes(|| assert_eq!(noisy(3).sample(&c, 30).len(), 30)), 3 * 6);
}
