//! Property-style tests for the QUBO substrate.
//!
//! Each property is exercised over a deterministic family of random
//! instances drawn from a seeded [`StdRng`] — the hermetic stand-in for the
//! proptest strategies the suite originally used. Seeds are fixed so
//! failures reproduce exactly.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use qjo_exec::Parallelism;
use qjo_qubo::io::{from_text, to_text};
use qjo_qubo::solve::{ExactSolver, SimulatedAnnealing, TabuSearch};
use qjo_qubo::{ising, CompiledQubo, Qubo};

/// Draws a dense random QUBO with `1..=max_vars` variables.
fn arb_qubo(rng: &mut StdRng, max_vars: usize) -> Qubo {
    let n = rng.random_range(1..=max_vars);
    let mut q = Qubo::new(n);
    q.add_offset(rng.random_range(-3.0..3.0));
    for i in 0..n {
        q.add_linear(i, rng.random_range(-5.0..5.0));
        for j in i + 1..n {
            q.add_quadratic(i, j, rng.random_range(-5.0..5.0));
        }
    }
    q
}

fn for_cases(cases: u64, mut body: impl FnMut(&mut StdRng, u64)) {
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(0xFEED_0000 + case);
        body(&mut rng, case);
    }
}

/// QUBO → Ising conversion preserves energies on every assignment.
#[test]
fn ising_conversion_preserves_energy() {
    for_cases(64, |rng, case| {
        let q = arb_qubo(rng, 7);
        let m = q.to_ising();
        let n = q.num_vars();
        for bits in 0..1u32 << n {
            let x: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let s = ising::bits_to_spins(&x);
            let eq = q.energy(&x).unwrap();
            let ei = m.energy(&s);
            assert!((eq - ei).abs() < 1e-9 * (1.0 + eq.abs()), "case {case}: {eq} vs {ei}");
        }
    });
}

/// Ising → QUBO round-trips to the same polynomial values.
#[test]
fn ising_round_trip() {
    for_cases(64, |rng, case| {
        let q = arb_qubo(rng, 6);
        let back = q.to_ising().to_qubo();
        let n = q.num_vars();
        for bits in 0..1u32 << n {
            let x: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let a = q.energy(&x).unwrap();
            let b = back.energy(&x).unwrap();
            assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "case {case}");
        }
    });
}

/// The exact solver's reported energy re-evaluates to itself and is a
/// lower bound on every enumerated assignment.
#[test]
fn exact_solver_returns_global_minimum() {
    for_cases(64, |rng, case| {
        let q = arb_qubo(rng, 8);
        let s = ExactSolver::new().solve(&q).unwrap();
        let n = q.num_vars();
        assert!((q.energy(&s.assignment).unwrap() - s.energy).abs() < 1e-9, "case {case}");
        for bits in 0..1u32 << n {
            let x: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            assert!(q.energy(&x).unwrap() >= s.energy - 1e-9, "case {case}");
        }
    });
}

/// Heuristics never report an energy below the exact ground state, and
/// their reported energy matches a re-evaluation of their assignment.
#[test]
fn heuristics_are_sound() {
    for_cases(32, |rng, case| {
        let q = arb_qubo(rng, 8);
        let exact = ExactSolver::new().min_energy(&q).unwrap();
        let sa = SimulatedAnnealing::with_seed(1).solve(&q).unwrap();
        assert!((q.energy(&sa.assignment).unwrap() - sa.energy).abs() < 1e-9, "case {case}");
        assert!(sa.energy >= exact - 1e-9, "case {case}");

        let ts = TabuSearch::with_seed(1).solve(&q).unwrap();
        assert!((q.energy(&ts.assignment).unwrap() - ts.energy).abs() < 1e-9, "case {case}");
        assert!(ts.energy >= exact - 1e-9, "case {case}");
    });
}

/// Compiled flip gains agree with explicit energy differences.
#[test]
fn flip_gains_agree_with_energy_deltas() {
    for_cases(64, |rng, case| {
        let q = arb_qubo(rng, 7);
        let bits: u32 = rng.random();
        let n = q.num_vars();
        let c = q.compile();
        let x: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        for i in 0..n {
            let mut y = x.clone();
            y[i] = !y[i];
            let delta = q.energy(&y).unwrap() - q.energy(&x).unwrap();
            assert!((c.flip_gain(&x, i) - delta).abs() < 1e-9, "case {case} var {i}");
        }
    });
}

/// Draws a sparse QUBO with small integer coefficients, a quarter of its
/// linear terms `+0.0` and a quarter `−0.0` (which the additive builder
/// stores as `+0.0`: `0.0 + −0.0 = +0.0`). Integer couplings cancel
/// exactly, so zero partial sums, and zero gains of both signs, are common.
fn arb_signed_zero_qubo(rng: &mut StdRng, max_vars: usize) -> Qubo {
    let n = rng.random_range(1..=max_vars);
    let mut q = Qubo::new(n);
    for i in 0..n {
        let lin = match rng.random_range(0..4u32) {
            0 => 0.0,
            1 => -0.0,
            _ => f64::from(rng.random_range(-3..=3i32)),
        };
        q.add_linear(i, lin);
        for j in i + 1..n {
            if rng.random_bool(0.3) {
                q.add_quadratic(i, j, f64::from(rng.random_range(-2..=2i32)));
            }
        }
    }
    q
}

/// The branch-free flip gain equals the branchy neighbour loop it replaced
/// in every bit, signed zeros included.
#[test]
fn flip_gain_is_bit_identical_to_the_branchy_loop() {
    fn branchy(q: &Qubo, c: &CompiledQubo, x: &[bool], i: usize) -> f64 {
        let mut partial = q.linear(i);
        for (j, w) in c.neighbors(i) {
            if x[j] {
                partial += w;
            }
        }
        if x[i] {
            -partial
        } else {
            partial
        }
    }
    let mut signed_zeros = 0usize;
    for_cases(256, |rng, case| {
        let q = arb_signed_zero_qubo(rng, 12);
        let c = q.compile();
        let n = q.num_vars();
        // Sparse, dense, all-false and all-true assignments: sparse ones
        // leave whole neighbourhoods false.
        for density in [0.0, 0.15, 0.5, 1.0] {
            let x: Vec<bool> = (0..n).map(|_| rng.random_bool(density)).collect();
            for i in 0..n {
                let got = c.flip_gain(&x, i);
                let want = branchy(&q, &c, &x, i);
                assert_eq!(got.to_bits(), want.to_bits(), "case {case} var {i}: {got} vs {want}");
                signed_zeros += usize::from(got == 0.0);
            }
        }
    });
    assert!(signed_zeros > 100, "only {signed_zeros} zero gains: the ±0.0 case went unexercised");
}

/// Text serialisation round-trips energies exactly.
#[test]
fn text_io_round_trips() {
    for_cases(64, |rng, case| {
        let q = arb_qubo(rng, 6);
        let back = from_text(&to_text(&q)).expect("own output parses");
        let n = q.num_vars();
        for bits in 0..1u32 << n {
            let x: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(q.energy(&x).unwrap(), back.energy(&x).unwrap(), "case {case}");
        }
    });
}

/// k-best solutions are sorted and each re-evaluates to its energy.
#[test]
fn k_best_is_sorted() {
    for_cases(64, |rng, case| {
        let q = arb_qubo(rng, 6);
        let k = rng.random_range(1usize..6);
        let sols = ExactSolver::new().solve_k_best(&q, k).unwrap();
        assert!(!sols.is_empty(), "case {case}");
        for w in sols.windows(2) {
            assert!(w[0].energy <= w[1].energy + 1e-12, "case {case}");
        }
        for s in &sols {
            assert!((q.energy(&s.assignment).unwrap() - s.energy).abs() < 1e-9, "case {case}");
        }
    });
}

/// Both restart-parallel heuristics return bit-identical solutions at any
/// thread count — the workspace determinism contract, checked on random
/// models rather than the unit tests' fixed ones.
#[test]
fn solver_results_are_thread_count_invariant() {
    for_cases(12, |rng, case| {
        let q = arb_qubo(rng, 10);

        let sa_at = |threads| {
            SimulatedAnnealing {
                restarts: 3,
                sweeps: 200,
                parallelism: Parallelism::new(threads),
                ..SimulatedAnnealing::with_seed(7)
            }
            .solve(&q)
            .unwrap()
        };
        let sa_seq = sa_at(1);
        for threads in [2, 8] {
            assert_eq!(sa_seq, sa_at(threads), "case {case}: SA at {threads} threads");
        }

        let ts_at = |threads| {
            TabuSearch {
                restarts: 3,
                iterations: 200,
                parallelism: Parallelism::new(threads),
                ..TabuSearch::with_seed(7)
            }
            .solve(&q)
            .unwrap()
        };
        let ts_seq = ts_at(1);
        for threads in [2, 8] {
            assert_eq!(ts_seq, ts_at(threads), "case {case}: tabu at {threads} threads");
        }
    });
}

/// SA's sample() distribution object is likewise thread-count invariant.
#[test]
fn sample_sets_are_thread_count_invariant() {
    for_cases(8, |rng, case| {
        let q = arb_qubo(rng, 9);
        let at = |threads| {
            SimulatedAnnealing {
                restarts: 4,
                sweeps: 150,
                parallelism: Parallelism::new(threads),
                ..SimulatedAnnealing::with_seed(11)
            }
            .sample(&q)
            .unwrap()
        };
        let sequential = at(1);
        for threads in [2, 8] {
            assert_eq!(sequential, at(threads), "case {case}: {threads} threads");
        }
    });
}
