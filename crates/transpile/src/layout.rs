//! Initial placement of logical qubits onto physical qubits.
//!
//! A good initial layout puts strongly-interacting logical qubits on
//! physically adjacent hardware qubits, reducing the SWAPs routing must
//! insert. We use a greedy interaction-degree placement with optional
//! seed-dependent perturbation — the perturbation models the run-to-run
//! variance of heuristic transpilers that the paper measures with 20
//! transpilation repetitions per scenario (Fig. 2).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use qjo_gatesim::Circuit;

use crate::topology::Topology;

/// Logical-qubit interaction weights: `w[a][b]` counts two-qubit gates
/// between logical qubits `a` and `b`.
pub fn interaction_weights(circuit: &Circuit) -> Vec<Vec<usize>> {
    let n = circuit.num_qubits();
    let mut w = vec![vec![0usize; n]; n];
    for g in circuit.gates() {
        if let qjo_gatesim::gate::GateQubits::Two(a, b) = g.qubits() {
            w[a][b] += 1;
            w[b][a] += 1;
        }
    }
    w
}

/// A layout maps logical qubit `l` to physical qubit `layout[l]`.
pub type Layout = Vec<usize>;

/// Greedy interaction-driven placement.
///
/// Physical candidates are explored by BFS from the highest-degree hardware
/// qubit; logical qubits are placed in decreasing interaction order, each
/// onto the free physical qubit minimising distance-weighted cost to its
/// already-placed partners. `perturbation` applies that many random
/// transpositions afterwards (0 = deterministic).
pub fn greedy_layout(
    circuit: &Circuit,
    topology: &Topology,
    seed: u64,
    perturbation: usize,
) -> Layout {
    let n_log = circuit.num_qubits();
    let n_phys = topology.num_qubits();
    assert!(n_log <= n_phys, "circuit needs {n_log} qubits but device has only {n_phys}");
    let weights = interaction_weights(circuit);

    // Logical order: decreasing total interaction weight.
    let mut logical_order: Vec<usize> = (0..n_log).collect();
    let strength = |l: usize| -> usize { weights[l].iter().sum() };
    logical_order.sort_by_key(|&l| std::cmp::Reverse(strength(l)));

    // Physical exploration order: BFS from the max-degree qubit keeps the
    // placement compact.
    let start = (0..n_phys).max_by_key(|&q| topology.degree(q)).unwrap_or(0);
    let mut phys_order = Vec::with_capacity(n_phys);
    let mut seen = vec![false; n_phys];
    let mut queue = std::collections::VecDeque::from([start]);
    seen[start] = true;
    while let Some(v) = queue.pop_front() {
        phys_order.push(v);
        for &w in topology.neighbors(v) {
            if !seen[w] {
                seen[w] = true;
                queue.push_back(w);
            }
        }
    }
    // Disconnected leftovers (if any) go last.
    phys_order.extend(seen.iter().enumerate().filter(|(_, s)| !**s).map(|(q, _)| q));

    let mut layout = vec![usize::MAX; n_log];
    let mut used = vec![false; n_phys];
    for &l in &logical_order {
        // Cost of placing l at p: Σ weight(l, placed partner) · dist(p, partner).
        let mut best: Option<(usize, f64)> = None;
        for &p in &phys_order {
            if used[p] {
                continue;
            }
            let mut cost = 0.0;
            for (other, &w) in weights[l].iter().enumerate() {
                if w > 0 && layout[other] != usize::MAX {
                    let d = topology.distance(p, layout[other]).map(|d| d as f64).unwrap_or(1e6);
                    cost += w as f64 * d;
                }
            }
            match best {
                Some((_, c)) if c <= cost => {}
                _ => best = Some((p, cost)),
            }
        }
        let (p, _) = best.expect("enough physical qubits checked above");
        layout[l] = p;
        used[p] = true;
    }

    if perturbation > 0 {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..perturbation {
            let a = rng.random_range(0..n_log);
            let b = rng.random_range(0..n_log);
            layout.swap(a, b);
        }
    }
    layout
}

/// Checks a layout is injective and within the device.
pub fn validate_layout(layout: &Layout, topology: &Topology) -> bool {
    let mut used = vec![false; topology.num_qubits()];
    for &p in layout {
        if p >= topology.num_qubits() || used[p] {
            return false;
        }
        used[p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjo_gatesim::gate::Gate::*;

    fn chain_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n - 1 {
            c.push(Cx(q, q + 1));
        }
        c
    }

    #[test]
    fn interaction_weights_count_two_qubit_gates() {
        let mut c = Circuit::new(3);
        c.push(Cx(0, 1));
        c.push(Cx(0, 1));
        c.push(Rzz(1, 2, 0.5));
        c.push(H(0));
        let w = interaction_weights(&c);
        assert_eq!(w[0][1], 2);
        assert_eq!(w[1][0], 2);
        assert_eq!(w[1][2], 1);
        assert_eq!(w[0][2], 0);
    }

    #[test]
    fn greedy_layout_is_valid_and_deterministic() {
        let c = chain_circuit(5);
        let t = Topology::grid(3, 3);
        let a = greedy_layout(&c, &t, 0, 0);
        let b = greedy_layout(&c, &t, 99, 0);
        assert_eq!(a, b, "unperturbed layout must not depend on seed");
        assert!(validate_layout(&a, &t));
    }

    #[test]
    fn greedy_layout_places_chain_compactly() {
        let c = chain_circuit(4);
        let t = Topology::line(8);
        let layout = greedy_layout(&c, &t, 0, 0);
        // Total distance over interacting pairs should be minimal (= 3).
        let total: usize = (0..3).map(|q| t.distance(layout[q], layout[q + 1]).unwrap()).sum();
        assert_eq!(total, 3, "layout {layout:?} is not compact");
    }

    #[test]
    fn perturbation_changes_layout_but_stays_valid() {
        let c = chain_circuit(6);
        let t = Topology::grid(3, 3);
        let base = greedy_layout(&c, &t, 7, 0);
        let perturbed = greedy_layout(&c, &t, 7, 3);
        assert!(validate_layout(&perturbed, &t));
        assert_ne!(base, perturbed, "3 transpositions should alter a 6-qubit layout");
    }

    #[test]
    #[should_panic(expected = "device has only")]
    fn rejects_circuits_larger_than_device() {
        greedy_layout(&chain_circuit(10), &Topology::line(5), 0, 0);
    }

    #[test]
    fn validate_layout_catches_duplicates_and_range() {
        let t = Topology::line(4);
        assert!(validate_layout(&vec![0, 1, 2], &t));
        assert!(!validate_layout(&vec![0, 0], &t));
        assert!(!validate_layout(&vec![5], &t));
    }
}
