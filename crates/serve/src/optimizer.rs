//! The PostBOUND-style optimizer abstraction.
//!
//! Every solver in the workspace — classical DP/greedy, QUBO
//! metaheuristics, the SQA engine, the annealer pipeline, and the QAOA
//! statevector simulator — is wrapped behind one small trait with the
//! two calls the serving loop makes: `pre_check` a request
//! (deterministic admission and cost model) and, once admitted,
//! `optimize_join_order` it.
//!
//! Cost estimates are *nominal microseconds from a static work model*,
//! not measurements: admission and deadline decisions must be
//! bit-identical across thread counts and machine speeds, so wall-clock
//! never feeds back into control flow.

use qjo_core::Query;

use crate::cache::CacheStatus;

/// A served join order.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Join order in the requester's original relation labels.
    pub order: Vec<usize>,
    /// Cost of that order under the requester's *exact* query (not the
    /// bucketed canonical one), as the paper's `C_out` (Equation 2).
    pub cost: f64,
    /// Formulation-cache outcome, for backends that formulate.
    pub cache: Option<CacheStatus>,
    /// Embedding-cache outcome *actually observed during this solve*
    /// (`"cold"` ran the embedder, whether or not it found an embedding;
    /// `"hit"` reused one), for backends that embed. Carried in the plan
    /// — rather than inferred from global cache-stat deltas — so
    /// telemetry attribution stays correct when concurrent requests
    /// interleave their cache traffic.
    pub embed: Option<&'static str>,
    /// True when the solver failed to decode a valid order and the plan
    /// came from the greedy fallback instead.
    pub fallback: bool,
}

/// A join-order optimisation backend, PostBOUND-style.
///
/// The contract: a backend declines a query in [`pre_check`], or answers
/// it with a valid left-deep permutation of the query's relations.
///
/// [`pre_check`]: JoinOrderOptimizer::pre_check
pub trait JoinOrderOptimizer: Send + Sync {
    /// Optimises the join order of a query that [`pre_check`] admitted.
    ///
    /// [`pre_check`]: JoinOrderOptimizer::pre_check
    fn optimize_join_order(&self, query: &Query) -> Plan;

    /// Deterministic admission check: the nominal cost of answering
    /// `query` in model-microseconds, compared against `deadline_ms *
    /// 1000` by the service, or `None` when this backend cannot answer
    /// it. Must be cheap, side-effect free, and identical across thread
    /// counts.
    fn pre_check(&self, query: &Query) -> Option<u64>;
}
