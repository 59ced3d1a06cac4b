//! Chaos tests for the gate-sim layer: lost noisy-sim trajectories and
//! diverging (NaN) QAOA optimiser steps.
//!
//! Own test binary: fault plans are process-global, and every test here
//! serialises through [`qjo_resil::fault::scoped`]'s guard mutex so the
//! seed-pinned unit tests never observe an injection.

use qjo_exec::Parallelism;
use qjo_gatesim::optim::{GradientDescent, NelderMead};
use qjo_gatesim::{Circuit, Gate, NoiseModel, NoisySimulator};
use qjo_resil::fault::{scoped, without_faults};
use qjo_resil::FaultPlan;

fn deltas_since(before: &qjo_obs::Snapshot) -> std::collections::BTreeMap<String, u64> {
    qjo_obs::global().snapshot().counter_deltas_since(before)
}

fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.push(Gate::H(0));
    for q in 1..n {
        c.push(Gate::Cx(0, q));
    }
    c
}

/// A shifted quadratic bowl with minimum 2.5 at (1, -2).
fn bowl(x: &[f64]) -> f64 {
    (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2) + 2.5
}

#[test]
fn lost_trajectories_are_rerun_reseeded() {
    let sim = |seed| NoisySimulator {
        trajectories: 8,
        ..NoisySimulator::new(NoiseModel::ibm_auckland(), seed)
    };
    let baseline = without_faults(|| sim(5).sample(&ghz(4), 64));
    let _guard = scoped(FaultPlan::new(11).with_rate("gatesim.trajectory", 1.0));
    let before = qjo_obs::global().snapshot();
    let chaotic = sim(5).sample(&ghz(4), 64);
    let d = deltas_since(&before);
    // p = 1 burns the whole per-trajectory budget: 2 retries × 8 units.
    assert_eq!(d.get("resil.gatesim.trajectory.retries"), Some(&16));
    assert_ne!(baseline, chaotic, "retries reseed the trajectory streams");
    assert_eq!(sim(5).sample(&ghz(4), 64), chaotic, "but deterministically");
}

#[test]
fn chaotic_sampling_is_thread_count_invariant() {
    let _guard = scoped(FaultPlan::new(12).with_rate("gatesim.trajectory", 0.4));
    let at = |threads| {
        NoisySimulator {
            trajectories: 8,
            parallelism: Parallelism::new(threads),
            ..NoisySimulator::new(NoiseModel::ibm_auckland(), 9)
        }
        .sample(&ghz(5), 96)
    };
    let sequential = at(1);
    for threads in [2, 8] {
        assert_eq!(sequential, at(threads), "threads={threads}");
    }
}

#[test]
fn optimisers_survive_injected_nan_steps() {
    // A fifth of all objective evaluations come back NaN; every
    // optimiser must still drive the bowl well below its start value
    // (11.5 at the usual start) without poisoning its state.
    let _guard = scoped(FaultPlan::new(13).with_rate("qaoa.step", 0.2));
    let before = qjo_obs::global().snapshot();
    let runs = [
        GradientDescent { iterations: 150, learning_rate: 0.2, fd_step: 1e-4 }
            .minimize(bowl, &[4.0, 3.0]),
        NelderMead { max_iterations: 400, ..Default::default() }.minimize(bowl, &[4.0, 3.0]),
    ];
    for (i, r) in runs.iter().enumerate() {
        assert!(r.fx.is_finite(), "optimiser {i} reported a non-finite best");
        assert!(r.fx < 6.0, "optimiser {i} stalled at {}", r.fx);
        assert!((bowl(&r.x) - r.fx).abs() < 1e-9, "optimiser {i} reported a poisoned x");
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "optimiser {i} history not monotone");
        }
    }
    let d = deltas_since(&before);
    assert!(
        d.get("resil.qaoa.step.divergences").copied().unwrap_or(0) > 50,
        "p = 0.2 over thousands of evals must count divergences: {d:?}"
    );
}

#[test]
fn total_divergence_is_reported_not_hidden() {
    // With every evaluation NaN the optimiser cannot improve: the best
    // value stays +∞ rather than pretending NaN progress happened.
    let _guard = scoped(FaultPlan::new(14).with_rate("qaoa.step", 1.0));
    let r = GradientDescent { iterations: 5, ..Default::default() }.minimize(bowl, &[4.0, 3.0]);
    assert!(r.fx.is_infinite());
    assert_eq!(r.x, vec![4.0, 3.0], "no finite evidence, no movement");
    // Nelder–Mead's simplex holds only +∞, so its best-so-far history
    // never shows a finite value.
    let r = NelderMead { max_iterations: 12, ..NelderMead::default() }.minimize(bowl, &[0.1, 0.1]);
    assert!(!r.history.is_empty());
    assert!(r.history.iter().all(|e| !e.is_finite()), "{:?}", r.history);
}

#[test]
fn chaotic_optimisation_is_deterministic() {
    let _guard = scoped(FaultPlan::new(15).with_rate("qaoa.step", 0.3));
    let run =
        || NelderMead { max_iterations: 120, ..Default::default() }.minimize(bowl, &[4.0, 3.0]);
    let (a, b) = (run(), run());
    assert_eq!(a.x, b.x);
    assert_eq!(a.fx, b.fx);
    assert_eq!(a.history, b.history);
}
