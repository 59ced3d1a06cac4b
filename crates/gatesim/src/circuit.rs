//! Quantum circuits: ordered gate lists with depth and count metrics.
//!
//! Depth is the length of the longest chain of gates that share qubits —
//! the quantity the paper's Figures 2 and 5 report, and the one that decides
//! whether a circuit fits inside the coherence window of a NISQ device.

use std::collections::BTreeMap;

use crate::gate::{Gate, GateQubits};

/// An ordered sequence of gates over a fixed number of qubits.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit { num_qubits, gates: Vec::new() }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The gate sequence.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Appends a gate, panicking on out-of-range qubit indices.
    pub fn push(&mut self, gate: Gate) {
        assert!(
            gate.qubits().max() < self.num_qubits,
            "gate {gate:?} exceeds {} qubits",
            self.num_qubits
        );
        if let GateQubits::Two(a, b) = gate.qubits() {
            assert_ne!(a, b, "two-qubit gate {gate:?} must touch distinct qubits");
        }
        self.gates.push(gate);
    }

    /// Appends every gate of `other` (qubit counts must match).
    pub fn extend(&mut self, other: &Circuit) {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit count mismatch");
        self.gates.extend_from_slice(&other.gates);
    }

    /// Total gate count.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True when the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Gate counts per mnemonic, deterministically ordered.
    pub fn counts_by_name(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for g in &self.gates {
            *m.entry(g.name()).or_insert(0) += 1;
        }
        m
    }

    /// Circuit depth: longest chain of gates sharing qubits.
    pub fn depth(&self) -> usize {
        self.depth_where(|_| true)
    }

    /// Depth counting only two-qubit gates (single-qubit gates are free).
    ///
    /// Two-qubit depth is the usual proxy for error exposure, since 2q gates
    /// dominate both duration and error rates on superconducting hardware.
    pub fn two_qubit_depth(&self) -> usize {
        self.depth_where(Gate::is_two_qubit)
    }

    fn depth_where<F: Fn(&Gate) -> bool>(&self, counts: F) -> usize {
        let mut frontier = vec![0usize; self.num_qubits];
        let mut max = 0;
        for g in &self.gates {
            let weight = usize::from(counts(g));
            let level = g.qubits().iter().map(|q| frontier[q]).max().unwrap_or(0) + weight;
            for q in g.qubits().iter() {
                frontier[q] = level;
            }
            max = max.max(level);
        }
        max
    }

    /// Schedules gates into ASAP layers; gates in one layer act on disjoint
    /// qubits. `layers().len() == depth()`.
    pub fn layers(&self) -> Vec<Vec<Gate>> {
        let mut frontier = vec![0usize; self.num_qubits];
        let mut layers: Vec<Vec<Gate>> = Vec::new();
        for g in &self.gates {
            let level = g.qubits().iter().map(|q| frontier[q]).max().unwrap_or(0);
            for q in g.qubits().iter() {
                frontier[q] = level + 1;
            }
            if level >= layers.len() {
                layers.resize_with(level + 1, Vec::new);
            }
            layers[level].push(*g);
        }
        layers
    }

    /// The adjoint circuit (reversed order, inverted gates).
    pub fn inverse(&self) -> Circuit {
        use Gate::*;
        let mut inv = Circuit::new(self.num_qubits);
        for g in self.gates.iter().rev() {
            let ig = match *g {
                H(q) => H(q),
                X(q) => X(q),
                Y(q) => Y(q),
                Z(q) => Z(q),
                S(q) => Sdg(q),
                Sdg(q) => S(q),
                Sx(q) => Rx(q, -std::f64::consts::FRAC_PI_2),
                Rx(q, t) => Rx(q, -t),
                Ry(q, t) => Ry(q, -t),
                Rz(q, t) => Rz(q, -t),
                Phase(q, t) => Phase(q, -t),
                Cx(a, b) => Cx(a, b),
                Cz(a, b) => Cz(a, b),
                Swap(a, b) => Swap(a, b),
                Rzz(a, b, t) => Rzz(a, b, -t),
                Rxx(a, b, t) => Rxx(a, b, -t),
            };
            inv.gates.push(ig);
        }
        inv
    }

    /// Total execution duration given per-gate durations in seconds, using
    /// the ASAP layering (gates in one layer run concurrently).
    pub fn duration(&self, time_1q: f64, time_2q: f64) -> f64 {
        let mut frontier = vec![0.0f64; self.num_qubits];
        let mut end = 0.0f64;
        for g in &self.gates {
            let t = if g.is_two_qubit() { time_2q } else { time_1q };
            let start = g.qubits().iter().map(|q| frontier[q]).fold(0.0f64, f64::max);
            let finish = start + t;
            for q in g.qubits().iter() {
                frontier[q] = finish;
            }
            end = end.max(finish);
        }
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate::*;

    #[test]
    fn depth_counts_longest_chain() {
        let mut c = Circuit::new(3);
        c.push(H(0));
        c.push(H(1));
        c.push(Cx(0, 1)); // depends on both H's -> level 2
        c.push(H(2)); // parallel -> level 1
        c.push(Cx(1, 2)); // level 3
        assert_eq!(c.depth(), 3);
        assert_eq!(c.two_qubit_depth(), 2);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn parallel_gates_share_a_layer() {
        let mut c = Circuit::new(4);
        c.push(H(0));
        c.push(H(1));
        c.push(H(2));
        c.push(H(3));
        assert_eq!(c.depth(), 1);
        let layers = c.layers();
        assert_eq!(layers.len(), 1);
        assert_eq!(layers[0].len(), 4);
    }

    #[test]
    fn layers_len_equals_depth() {
        let mut c = Circuit::new(3);
        for g in [H(0), Cx(0, 1), Rz(1, 0.3), Cx(1, 2), H(2), Cx(0, 1)] {
            c.push(g);
        }
        assert_eq!(c.layers().len(), c.depth());
        let total: usize = c.layers().iter().map(Vec::len).sum();
        assert_eq!(total, c.len());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn push_rejects_out_of_range() {
        Circuit::new(2).push(H(2));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn push_rejects_degenerate_two_qubit_gate() {
        Circuit::new(2).push(Cx(1, 1));
    }

    #[test]
    fn counts_by_name_aggregates() {
        let mut c = Circuit::new(2);
        c.push(H(0));
        c.push(H(1));
        c.push(Cx(0, 1));
        let counts = c.counts_by_name();
        assert_eq!(counts["h"], 2);
        assert_eq!(counts["cx"], 1);
    }

    #[test]
    fn inverse_reverses_and_negates() {
        let mut c = Circuit::new(2);
        c.push(S(0));
        c.push(Rz(1, 0.5));
        c.push(Rzz(0, 1, 0.25));
        let inv = c.inverse();
        assert_eq!(inv.gates()[0], Rzz(0, 1, -0.25));
        assert_eq!(inv.gates()[1], Rz(1, -0.5));
        assert_eq!(inv.gates()[2], Sdg(0));
    }

    #[test]
    fn duration_uses_critical_path() {
        let mut c = Circuit::new(2);
        c.push(H(0)); // 10ns
        c.push(H(0)); // 10ns (sequential)
        c.push(H(1)); // parallel
        c.push(Cx(0, 1)); // 100ns after max(20, 10)
        let d = c.duration(10e-9, 100e-9);
        assert!((d - 120e-9).abs() < 1e-15);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Circuit::new(2);
        a.push(H(0));
        let mut b = Circuit::new(2);
        b.push(X(1));
        a.extend(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.gates()[1], X(1));
    }

    #[test]
    fn empty_circuit_has_zero_depth() {
        let c = Circuit::new(5);
        assert_eq!(c.depth(), 0);
        assert!(c.is_empty());
        assert_eq!(c.duration(1.0, 1.0), 0.0);
    }
}
