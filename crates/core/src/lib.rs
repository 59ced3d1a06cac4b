//! Join ordering on quantum hardware — the core library.
//!
//! Implements the contribution of *"Ready to Leap (by Co-Design)? Join
//! Order Optimisation on Quantum Hardware"* (Schönberger, Scherzinger,
//! Mauerer): the first QUBO reformulation of the join-ordering problem,
//! built as the chain
//!
//! ```text
//! Query ──► pruned MILP ──► BILP (binary slack at precision ω) ──► QUBO
//! ```
//!
//! plus everything needed around it: a random query generator
//! (chain/star/cycle/clique graphs), exact and greedy classical optimisers
//! for ground truth, the qubit-count upper bound of Theorem 5.3, and the
//! sample decoding / validity assessment of Section 3.5.
//!
//! The QUBO output plugs into the workspace's two quantum backends:
//! QAOA simulation via `qjo-gatesim` + `qjo-transpile`, and simulated
//! quantum annealing via `qjo-anneal`.
//!
//! # Quickstart
//!
//! ```
//! use qjo_core::prelude::*;
//! use qjo_qubo::solve::ExactSolver;
//!
//! // A 3-relation query: |R| = |S| = |T| = 100, sel(R ⋈ S) = 0.1.
//! let query = Query::new(
//!     vec![2.0, 2.0, 2.0],
//!     vec![Predicate { rel_a: 0, rel_b: 1, log_sel: -1.0 }],
//! );
//!
//! // Two thresholds (θ = 100, 1000) make the cardinality staircase fine
//! // enough to rank the candidate orders faithfully; a single threshold
//! // (the default) saves qubits but may leave the optimum degenerate.
//! let encoded = JoEncoder {
//!     thresholds: ThresholdSpec::ExplicitLogs(vec![2.0, 3.0]),
//!     ..JoEncoder::default()
//! }
//! .encode(&query);
//! let ground = ExactSolver::new().solve(&encoded.qubo).unwrap();
//! let order = decode_assignment(&ground.assignment, &encoded.registry, &query)
//!     .expect("the QUBO minimum is a valid join order");
//!
//! let (_, optimal_cost) = dp_optimal(&query);
//! assert_eq!(order.cost(&query), optimal_cost);
//! ```

pub mod bounds;
pub mod classical;
pub mod decode;
pub mod encode;
pub mod formulate;
pub mod jointree;
pub mod query;
pub mod querygen;

pub use bounds::{qubit_upper_bound, qubit_upper_bound_raw, QubitBound};
pub use decode::{assess_samples, decode_assignment, SampleQuality};
pub use encode::{JoEncoder, JoQubo, ThresholdSpec};
pub use jointree::JoinOrder;
pub use query::{Predicate, Query, QueryGraph};
pub use querygen::{
    BenchmarkGenerator, BenchmarkSchema, GenError, GenParams, QErrorInjector, QueryGenerator,
};

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::bounds::qubit_upper_bound;
    pub use crate::classical::{dp_optimal, greedy_min_cost};
    pub use crate::decode::{assess_samples, decode_assignment};
    pub use crate::encode::{JoEncoder, JoQubo, ThresholdSpec};
    pub use crate::jointree::JoinOrder;
    pub use crate::query::{Predicate, Query, QueryGraph};
    pub use crate::querygen::{
        BenchmarkGenerator, BenchmarkSchema, QErrorInjector, QueryGenerator,
    };
}
