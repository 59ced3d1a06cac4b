//! Transpilation substrate for gate-based QPUs: hardware topologies, qubit
//! layout, SWAP routing, native gate-set decomposition, peephole
//! optimisation, and whole-pipeline transpilers.
//!
//! This crate plays the role of Qiskit's and tket's compilation stacks in
//! the paper's experiments, plus the *topology extrapolation* machinery of
//! the co-design study (Section 6): size-extrapolated IBM/Rigetti lattices,
//! density-augmented coupling graphs, and complete-mesh IonQ devices.
//!
//! # Example
//!
//! ```
//! use qjo_qubo::Qubo;
//! use qjo_gatesim::{qaoa_circuit, QaoaParams};
//! use qjo_transpile::{Device, NativeGateSet, Strategy, Transpiler};
//!
//! let mut q = Qubo::new(4);
//! for i in 0..4 {
//!     for j in i + 1..4 {
//!         q.add_quadratic(i, j, 1.0);
//!     }
//! }
//! let circuit = qaoa_circuit(&q.to_ising(), &QaoaParams { gammas: vec![0.4], betas: vec![0.3] });
//!
//! let device = Device::ibm_auckland();
//! let result = Transpiler::new(Strategy::QiskitLike, 0)
//!     .transpile(&circuit, &device.topology, device.gate_set)
//!     .expect("connected device");
//! assert!(result.depth() >= circuit.depth()); // routing + decomposition cost
//! ```

pub mod aspen;
pub mod decompose;
pub mod density;
pub mod device;
pub mod error;
pub mod heavy_hex;
pub mod layout;
pub mod metrics;
pub mod optimize;
pub mod routing;
pub mod topology;
pub mod transpiler;

pub use decompose::NativeGateSet;
pub use device::Device;
pub use error::TranspileError;
pub use metrics::{stats, TopologyStats};
pub use routing::{respects_topology, RoutedCircuit, RouterConfig};
pub use topology::Topology;
pub use transpiler::{DepthStats, Strategy, TranspileResult, Transpiler};
