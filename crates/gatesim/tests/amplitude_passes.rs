//! Pins the `gatesim.amplitude_passes` and `gatesim.evolutions` work
//! counters on small circuits.
//!
//! The counters are process-global, so this file holds a single test: no
//! other test in the process can add passes while it reads the deltas.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qjo_gatesim::gate::Gate::*;
use qjo_gatesim::{qaoa_circuit, Circuit, NoiseModel, NoisySimulator, QaoaParams, QaoaSimulator};
use qjo_qubo::Qubo;

/// Amplitude passes and noisy evolutions counted while `f` runs.
fn work(f: impl FnOnce()) -> (u64, u64) {
    let before = qjo_obs::global().snapshot();
    f();
    let deltas = qjo_obs::global().snapshot().counter_deltas_since(&before);
    let count = |name: &str| deltas.get(name).copied().unwrap_or(0);
    (count("gatesim.amplitude_passes"), count("gatesim.evolutions"))
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
    let noisy =
        |model, trajectories| NoisySimulator { trajectories, ..NoisySimulator::new(model, 5) };
    let auckland = |trajectories| noisy(NoiseModel::ibm_auckland(), trajectories);

    // p = 1 ⟨H⟩ is closed-form: no state vector at all.
    assert_eq!(work(|| assert!(sim.expectation(&p1).is_finite())), (0, 0));
    // p = 2: per layer a cost pass and 3 RX passes, then the energy sum.
    assert_eq!(work(|| assert!(sim.expectation(&p2).is_finite())), (2 * (1 + 3) + 1, 0));
    // Sampling: one layer, then the sampler's prefix pass.
    let mut rng = StdRng::seed_from_u64(1);
    assert_eq!(work(|| assert_eq!(sim.sample(&p1, 10, &mut rng).len(), 10)), (1 + 3 + 1, 0));

    // An evolution of the QAOA circuit: the H layer, the RZ fields and the
    // RZZ run are one product-state write, then 3 RX passes, whatever
    // errors the frame absorbed. Each trajectory adds its prefix pass
    // (which also reads the frame's X part). Without noise, the 5
    // trajectories share one gate list: 1 evolution, 1 + 3 + 5 passes.
    let circuit = qaoa_circuit(&qubo.to_ising(), &p1);
    let sample = |sim: NoisySimulator, circuit: &Circuit, shots| {
        work(|| assert_eq!(sim.sample(circuit, shots).len(), shots))
    };
    assert_eq!(sample(noisy(NoiseModel::noiseless(), 5), &circuit, 64), (1 + 3 + 5, 1));
    // Under Auckland noise at seed 5, neither of 2 trajectories' frames
    // negates a gate: 1 evolution, 1 + 3 + 2 passes.
    assert_eq!(sample(auckland(2), &circuit, 64), (1 + 3 + 2, 1));
    // At 20× Auckland's depolarising rates, seed 5's 6 trajectories hold
    // 3 distinct lists: 3 × (1 + 3) + 6 passes.
    let heavy = NoiseModel {
        p_depol_1q: 20.0 * NoiseModel::ibm_auckland().p_depol_1q,
        p_depol_2q: 20.0 * NoiseModel::ibm_auckland().p_depol_2q,
        ..NoiseModel::ibm_auckland()
    };
    assert_eq!(sample(noisy(heavy, 6), &circuit, 64), (3 * (1 + 3) + 6, 3));

    // A non-diagonal gate splits diagonal runs: the H prefix is the
    // product write, CX one pass, RZ·RZZ one fused pass, X one pass, the
    // lone trailing RZ one pass — 5 per evolution — and each trajectory's
    // prefix pass one. At seed 5 the 3 trajectories share one list: 5 + 3.
    let mut c = Circuit::new(2);
    for g in [H(0), H(1), Cx(0, 1), Rz(0, 0.4), Rzz(0, 1, 0.7), X(1), Rz(1, 0.2)] {
        c.push(g);
    }
    assert_eq!(sample(auckland(3), &c, 30), (5 + 3, 1));
}
