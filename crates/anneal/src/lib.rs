//! Quantum-annealing substrate: hardware graphs (Chimera, Pegasus-like),
//! heuristic minor embedding, chain handling, integrated-control-error
//! noise, path-integral simulated quantum annealing, and a D-Wave-like
//! end-to-end sampler.
//!
//! This crate plays the role of the D-Wave Advantage system plus the Ocean
//! SDK (minorminer, embedding composites) in the paper's experiments.
//!
//! # Example
//!
//! ```
//! use qjo_qubo::Qubo;
//! use qjo_anneal::{hardware, AnnealerSampler};
//!
//! let mut q = Qubo::new(2);
//! q.add_linear(0, -1.0);
//! q.add_linear(1, -1.0);
//! q.add_quadratic(0, 1, 2.0);
//!
//! let sampler = AnnealerSampler::new(hardware::chimera(2));
//! let outcome = sampler.sample_qubo(&q).expect("tiny problem embeds");
//! assert_eq!(outcome.samples.best().unwrap().energy, -1.0);
//! ```

pub mod chain;
pub mod clique;
pub mod embed;
pub mod gauge;
pub mod hardware;
pub mod ice;
pub mod sampler;
pub mod sqa;

pub use clique::pegasus_clique_embedding;
pub use embed::{Embedder, Embedding, EmbeddingError};
pub use ice::IceNoise;
pub use sampler::{AnnealError, AnnealOutcome, AnnealerSampler};
pub use sqa::{anneal_compiled, SqaConfig, MIN_SWEEPS};
