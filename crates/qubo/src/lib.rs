//! Quadratic unconstrained binary optimisation (QUBO) models and solvers.
//!
//! This crate is the substrate every quantum backend in the `qjo` workspace
//! consumes: the join-ordering formulation in `qjo-core` lowers to a [`Qubo`],
//! which is then either
//!
//! * turned into an [`IsingModel`] and handed to the QAOA machinery in
//!   `qjo-gatesim`,
//! * minor-embedded and annealed by `qjo-anneal`, or
//! * solved classically by one of the solvers in [`solve`] (exact
//!   enumeration, simulated annealing, tabu search) to obtain ground truth
//!   and classical baselines.
//!
//! # Conventions
//!
//! A QUBO over binary variables `x ∈ {0,1}^n` is the polynomial
//!
//! ```text
//! f(x) = offset + Σ_i  c_ii x_i  +  Σ_{i<j} c_ij x_i x_j
//! ```
//!
//! Quadratic coefficients are stored once per unordered pair `{i, j}` with
//! `i < j`. The equivalent Ising model uses spins `s ∈ {−1,+1}^n` with the
//! mapping `x_i = (1 + s_i) / 2`.
//!
//! # Example
//!
//! ```
//! use qjo_qubo::{Qubo, solve::ExactSolver};
//!
//! // min  -x0 - x1 + 2 x0 x1   (a 2-variable "pick exactly one" gadget)
//! let mut q = Qubo::new(2);
//! q.add_linear(0, -1.0);
//! q.add_linear(1, -1.0);
//! q.add_quadratic(0, 1, 2.0);
//!
//! let best = ExactSolver::new().solve(&q).expect("tiny model");
//! assert_eq!(best.energy, -1.0);
//! assert_ne!(best.assignment[0], best.assignment[1]);
//! ```

pub mod error;
pub mod io;
pub mod ising;
pub mod model;
pub mod sample;
pub mod shots;
pub mod solve;

pub use error::QuboError;
pub use ising::{CompiledIsing, IsingModel, IsingTerm};
pub use model::{CompiledQubo, Qubo};
pub use sample::{Sample, SampleSet};
pub use shots::ShotBuffer;
