//! Transpiler pipelines: layout → routing → decomposition → optimisation.
//!
//! Two strategies model the two production compilers the paper evaluates:
//!
//! * [`Strategy::QiskitLike`] — Qiskit at optimisation level 1: moderate
//!   routing lookahead, then full peephole optimisation (pair cancellation
//!   and rotation fusion).
//! * [`Strategy::TketLike`] — a more conservative pipeline: short-sighted
//!   routing and pair cancellation only (no rotation fusion), which on
//!   sparse superconducting topologies produces the ≈2× depth overhead the
//!   paper reports, while remaining competitive on complete meshes.
//!
//! A `seed` perturbs the initial layout, reproducing the run-to-run spread
//! of heuristic compilation that Fig. 2 captures with 20 repetitions.

use qjo_gatesim::Circuit;

use crate::decompose::NativeGateSet;
use crate::error::TranspileError;
use crate::layout::{greedy_layout, Layout};
use crate::optimize::{cancel_pairs, merge_rotations};
use crate::routing::{route, RoutedCircuit, RouterConfig};
use crate::topology::Topology;

/// Which compilation pipeline to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Qiskit optimisation-level-1 analogue.
    QiskitLike,
    /// tket default-pass analogue.
    TketLike,
}

/// A configured transpiler.
#[derive(Debug, Clone, Copy)]
pub struct Transpiler {
    /// Pipeline flavour.
    pub strategy: Strategy,
    /// Seed for layout perturbation (vary to sample compiler variance).
    pub seed: u64,
}

/// Everything a transpilation run produces.
#[derive(Debug, Clone)]
pub struct TranspileResult {
    /// The hardware-executable circuit (physical qubit indices, native
    /// gates only, couplings respected).
    pub circuit: Circuit,
    /// Logical → physical mapping chosen before routing.
    pub initial_layout: Layout,
    /// Logical → physical mapping after all inserted SWAPs.
    pub final_layout: Layout,
    /// Number of SWAP gates routing inserted (pre-decomposition).
    pub swaps_inserted: usize,
}

impl TranspileResult {
    /// Depth of the final circuit.
    pub fn depth(&self) -> usize {
        self.circuit.depth()
    }

    /// Two-qubit depth of the final circuit.
    pub fn two_qubit_depth(&self) -> usize {
        self.circuit.two_qubit_depth()
    }
}

impl Transpiler {
    /// Creates a transpiler.
    pub fn new(strategy: Strategy, seed: u64) -> Self {
        Transpiler { strategy, seed }
    }

    /// Compiles `circuit` for a device with the given coupling graph and
    /// native gate set.
    ///
    /// A routing failure injected at the `transpile.route` fault site
    /// (a device rejecting the mapped circuit) restarts the pipeline
    /// with a reseeded layout, bounded by an attempt budget.
    ///
    /// Returns [`TranspileError::DisconnectedQubits`] when the circuit
    /// needs a two-qubit gate between qubits the device cannot connect.
    pub fn transpile(
        &self,
        circuit: &Circuit,
        topology: &Topology,
        gate_set: NativeGateSet,
    ) -> Result<TranspileResult, TranspileError> {
        let _span = qjo_obs::span!("transpile.run");
        qjo_obs::counter!("transpile.runs").incr();
        // Bounded pre-roll: each rejected route costs one attempt and
        // reseeds the layout stream; the final attempt always runs.
        const ROUTE_ATTEMPTS: u64 = 3;
        const ROUTE_RESEED_SALT: u64 = 0x726f_7574_655f_7273;
        let mut attempt: u64 = 0;
        while attempt + 1 < ROUTE_ATTEMPTS
            && qjo_resil::should_inject("transpile.route", self.seed, attempt)
        {
            qjo_obs::counter!("resil.transpile.route.retries").incr();
            attempt += 1;
        }
        let effective_seed = match attempt {
            0 => self.seed,
            _ => qjo_resil::stream_seed(self.seed ^ ROUTE_RESEED_SALT, attempt),
        };
        let perturbation = 2;
        let seed_layout = {
            let _pass = qjo_obs::span!("transpile.layout");
            greedy_layout(circuit, topology, effective_seed, perturbation)
        };
        let router = match self.strategy {
            Strategy::QiskitLike => RouterConfig { lookahead: 4, decay: 0.5 },
            Strategy::TketLike => RouterConfig { lookahead: 1, decay: 0.5 },
        };
        let routed = {
            let _pass = qjo_obs::span!("transpile.route");
            route(circuit, topology, &seed_layout, router)?
        };
        let RoutedCircuit { circuit: routed, final_layout, swaps_inserted } = routed;
        qjo_obs::counter!("transpile.swaps_inserted").add(swaps_inserted as u64);
        let decomposed = {
            let _pass = qjo_obs::span!("transpile.decompose");
            gate_set.decompose_circuit(&routed)
        };
        let optimised = {
            let _pass = qjo_obs::span!("transpile.optimize");
            match self.strategy {
                Strategy::QiskitLike => merge_rotations(&decomposed),
                Strategy::TketLike => cancel_pairs(&decomposed),
            }
        };
        // Pass-by-pass convergence series (stride 1: the step is a pass
        // index, not an iteration count): depth after input / routing /
        // decomposition / optimisation, plus the routing swap count.
        // `depth()` walks the whole gate list, so gate on an active
        // recorder before computing anything.
        let depth_curve = qjo_obs::convergence::series_with_stride("transpile", "depth", 1);
        if depth_curve.is_active() {
            for (pass, depth) in
                [circuit.depth(), routed.depth(), decomposed.depth(), optimised.depth()]
                    .into_iter()
                    .enumerate()
            {
                depth_curve.record(pass as u64, depth as f64);
            }
            qjo_obs::convergence::series_with_stride("transpile", "swaps", 1)
                .record(1, swaps_inserted as f64);
        }
        Ok(TranspileResult {
            circuit: optimised,
            initial_layout: seed_layout,
            final_layout,
            swaps_inserted,
        })
    }

    /// Transpiles `repetitions` times with seeds `seed..seed+repetitions`,
    /// returning the depth of each run — the distribution Fig. 2 plots.
    pub fn depth_distribution(
        &self,
        circuit: &Circuit,
        topology: &Topology,
        gate_set: NativeGateSet,
        repetitions: usize,
    ) -> Result<Vec<usize>, TranspileError> {
        (0..repetitions)
            .map(|r| {
                Transpiler { strategy: self.strategy, seed: self.seed + r as u64 }
                    .transpile(circuit, topology, gate_set)
                    .map(|result| result.depth())
            })
            .collect()
    }
}

/// Summary statistics over a depth distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthStats {
    /// Smallest observed depth.
    pub min: usize,
    /// Median depth.
    pub median: usize,
    /// Largest observed depth.
    pub max: usize,
    /// Arithmetic mean.
    pub mean: f64,
}

impl DepthStats {
    /// Computes stats from raw samples (panics on empty input).
    pub fn from_samples(samples: &[usize]) -> DepthStats {
        assert!(!samples.is_empty(), "need at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        DepthStats {
            min: sorted[0],
            median: sorted[sorted.len() / 2],
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<usize>() as f64 / sorted.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heavy_hex::falcon_27;
    use crate::routing::respects_topology;
    use qjo_qubo::Qubo;

    fn dense_qaoa_circuit(n: usize) -> Circuit {
        let mut q = Qubo::new(n);
        for i in 0..n {
            q.add_linear(i, 1.0);
            for j in i + 1..n {
                q.add_quadratic(i, j, 0.5 + (i + j) as f64 * 0.1);
            }
        }
        let params = qjo_gatesim::QaoaParams { gammas: vec![0.4], betas: vec![0.3] };
        qjo_gatesim::qaoa_circuit(&q.to_ising(), &params)
    }

    #[test]
    fn output_respects_topology_and_gate_set() {
        let c = dense_qaoa_circuit(8);
        let topo = falcon_27();
        for strategy in [Strategy::QiskitLike, Strategy::TketLike] {
            for set in [NativeGateSet::Ibm, NativeGateSet::Unrestricted] {
                let r = Transpiler::new(strategy, 0).transpile(&c, &topo, set).unwrap();
                assert!(respects_topology(&r.circuit, &topo), "{strategy:?}/{set:?}");
                assert!(
                    r.circuit.gates().iter().all(|g| set.is_native(g)),
                    "{strategy:?}/{set:?} emitted non-native gates"
                );
            }
        }
    }

    #[test]
    fn tket_like_is_deeper_on_sparse_topology() {
        let c = dense_qaoa_circuit(10);
        let topo = falcon_27();
        let qk = Transpiler::new(Strategy::QiskitLike, 0)
            .transpile(&c, &topo, NativeGateSet::Ibm)
            .unwrap()
            .depth();
        let tk = Transpiler::new(Strategy::TketLike, 0)
            .transpile(&c, &topo, NativeGateSet::Ibm)
            .unwrap()
            .depth();
        assert!(tk > qk, "tket-like {tk} should exceed qiskit-like {qk}");
    }

    #[test]
    fn strategies_are_comparable_on_complete_mesh() {
        let c = dense_qaoa_circuit(8);
        let topo = Topology::complete(8);
        let qk = Transpiler::new(Strategy::QiskitLike, 0)
            .transpile(&c, &topo, NativeGateSet::Ionq)
            .unwrap()
            .depth();
        let tk = Transpiler::new(Strategy::TketLike, 0)
            .transpile(&c, &topo, NativeGateSet::Ionq)
            .unwrap()
            .depth();
        let ratio = tk as f64 / qk as f64;
        assert!(ratio < 1.8, "mesh ratio {ratio} too large (qk={qk}, tk={tk})");
    }

    #[test]
    fn unrestricted_gates_give_shallower_circuits() {
        let c = dense_qaoa_circuit(10);
        let topo = falcon_27();
        let t = Transpiler::new(Strategy::QiskitLike, 0);
        let native = t.transpile(&c, &topo, NativeGateSet::Ibm).unwrap().depth();
        let unrestricted = t.transpile(&c, &topo, NativeGateSet::Unrestricted).unwrap().depth();
        assert!(unrestricted < native, "unrestricted {unrestricted} should beat native {native}");
    }

    #[test]
    fn depth_distribution_shows_seed_variance() {
        let c = dense_qaoa_circuit(9);
        let topo = falcon_27();
        let depths = Transpiler::new(Strategy::QiskitLike, 0)
            .depth_distribution(&c, &topo, NativeGateSet::Ibm, 10)
            .unwrap();
        assert_eq!(depths.len(), 10);
        let stats = DepthStats::from_samples(&depths);
        assert!(stats.max >= stats.median && stats.median >= stats.min);
        assert!(stats.max > stats.min, "heuristic should show spread: {depths:?}");
    }

    #[test]
    fn same_seed_reproduces_identical_output() {
        let c = dense_qaoa_circuit(7);
        let topo = falcon_27();
        let t = Transpiler::new(Strategy::QiskitLike, 42);
        let a = t.transpile(&c, &topo, NativeGateSet::Ibm).unwrap();
        let b = t.transpile(&c, &topo, NativeGateSet::Ibm).unwrap();
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.initial_layout, b.initial_layout);
    }

    #[test]
    fn convergence_recorder_captures_pass_depths() {
        let c = dense_qaoa_circuit(6);
        let topo = falcon_27();
        qjo_obs::convergence::start(4);
        let r = Transpiler::new(Strategy::QiskitLike, 0)
            .transpile(&c, &topo, NativeGateSet::Ibm)
            .unwrap();
        let drained = qjo_obs::convergence::drain_csv();
        let csv =
            &drained.iter().find(|(g, _)| g == "transpile").expect("transpile group recorded").1;
        // Stride 1 keeps every pass even though the default stride is 4.
        // Concurrent tests may also transpile while the recorder is live,
        // so assert over all recorded instances rather than instance 0.
        let steps: std::collections::BTreeSet<u64> = csv
            .lines()
            .filter(|l| l.contains(",depth,"))
            .map(|l| l.split(',').nth(4).unwrap().parse().unwrap())
            .collect();
        assert_eq!(steps, (0..4).collect(), "stride 1 keeps every pass: {csv}");
        assert!(
            csv.lines()
                .any(|l| l.contains(",swaps,") && l.ends_with(&format!(",1,{}", r.swaps_inserted))),
            "{csv}"
        );
    }

    #[test]
    fn disconnected_device_errors_for_every_strategy() {
        // A two-island device cannot host a circuit that entangles across
        // the islands; both pipelines must surface TranspileError instead
        // of panicking.
        let topo = Topology::new(4, &[(0, 1), (2, 3)]);
        let mut c = Circuit::new(4);
        c.push(qjo_gatesim::gate::Gate::Cx(0, 1));
        c.push(qjo_gatesim::gate::Gate::Cx(1, 2));
        for strategy in [Strategy::QiskitLike, Strategy::TketLike] {
            let err = Transpiler::new(strategy, 0)
                .transpile(&c, &topo, NativeGateSet::Unrestricted)
                .unwrap_err();
            assert!(
                matches!(err, TranspileError::DisconnectedQubits { .. }),
                "{strategy:?}: {err:?}"
            );
            assert!(err.to_string().contains("different connected components"));
        }
        assert!(Transpiler::new(Strategy::QiskitLike, 0)
            .depth_distribution(&c, &topo, NativeGateSet::Unrestricted, 3)
            .is_err());
    }

    #[test]
    fn depth_stats_computation() {
        let s = DepthStats::from_samples(&[5, 1, 3]);
        assert_eq!(s.min, 1);
        assert_eq!(s.median, 3);
        assert_eq!(s.max, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
    }
}
