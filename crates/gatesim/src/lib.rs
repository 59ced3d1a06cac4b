//! Gate-based quantum computing substrate: circuit IR, dense state-vector
//! simulation, a stochastic NISQ noise model, QAOA, and classical optimisers
//! for the hybrid loop.
//!
//! This crate plays the role of IBM Q hardware plus Qiskit's execution stack
//! in the paper's experiments: the join-ordering QUBO built by `qjo-core` is
//! lowered to a QAOA circuit here, transpiled onto a hardware topology by
//! `qjo-transpile`, and sampled — ideally or under a calibrated noise model.
//!
//! # Example: solving a toy QUBO with QAOA
//!
//! ```
//! use qjo_qubo::Qubo;
//! use qjo_gatesim::qaoa::{QaoaParams, QaoaSimulator};
//! use qjo_gatesim::optim::NelderMead;
//!
//! let mut q = Qubo::new(2);
//! q.add_linear(0, -1.0);
//! q.add_linear(1, -1.0);
//! q.add_quadratic(0, 1, 2.0);
//!
//! let sim = QaoaSimulator::new(&q);
//! let result = NelderMead::default().minimize(
//!     |x| sim.expectation(&QaoaParams::from_flat(1, x)),
//!     &[0.2, 0.2],
//! );
//! assert!(result.fx < 0.0); // below the uniform-state expectation
//! ```

pub mod circuit;
pub mod complex;
pub mod gate;
pub mod noise;
pub mod optim;
pub mod qaoa;
pub mod statevector;
pub mod timing;

/// Packed shot buffers (re-export of [`qjo_qubo::shots`]) — the type every
/// sampler in this crate returns.
pub use qjo_qubo::shots;

pub use circuit::Circuit;
pub use complex::C64;
pub use gate::Gate;
pub use noise::{NoiseModel, NoisySimulator};
pub use qaoa::{qaoa_circuit, DiagonalHamiltonian, QaoaParams, QaoaSimulator};
pub use shots::ShotBuffer;
pub use statevector::{BasisSampler, StateVector};
pub use timing::QpuTimingModel;
