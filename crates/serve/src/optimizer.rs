//! The PostBOUND-style optimizer abstraction.
//!
//! Every solver in the workspace — classical DP/greedy, QUBO
//! metaheuristics, the SQA engine, the annealer pipeline, and the QAOA
//! statevector simulator — is wrapped behind one small trait so the
//! serving loop can treat them interchangeably: `pre_check` a request
//! (deterministic admission + cost model), `optimize_join_order` it, or
//! `describe` the backend for reports.
//!
//! Cost estimates are *nominal microseconds from a static work model*,
//! not measurements: admission and deadline decisions must be
//! bit-identical across thread counts and machine speeds, so wall-clock
//! never feeds back into control flow.

use qjo_core::Query;

use crate::cache::CacheStatus;

/// What a backend is, for reports and routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendInfo {
    /// Stable identifier used in requests, reports, and counters
    /// (e.g. `"dp"`, `"annealer"`).
    pub name: &'static str,
    /// Coarse family: `"classical"`, `"qubo"` or `"quantum-sim"`.
    pub family: &'static str,
}

/// Deterministic admission verdict for a request.
#[derive(Debug, Clone, PartialEq)]
pub struct PreCheck {
    /// Whether the backend can answer this query at all.
    pub admissible: bool,
    /// Why not, when `admissible` is false.
    pub reason: Option<String>,
    /// Nominal work in model-microseconds. Compared against
    /// `deadline_ms * 1000` by the service; never a measurement.
    pub cost_estimate_us: u64,
}

impl PreCheck {
    /// An admissible verdict with the given nominal cost.
    pub fn ok(cost_estimate_us: u64) -> Self {
        PreCheck { admissible: true, reason: None, cost_estimate_us }
    }

    /// An inadmissible verdict carrying its reason.
    pub fn reject(reason: impl Into<String>) -> Self {
        PreCheck { admissible: false, reason: Some(reason.into()), cost_estimate_us: u64::MAX }
    }
}

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

/// Serving errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The backend's `pre_check` rejects this query.
    Unsupported {
        /// Backend that rejected the request.
        backend: &'static str,
        /// Human-readable rejection reason.
        reason: String,
    },
    /// The solve itself failed after retries and fallback.
    Solve {
        /// Backend that failed.
        backend: &'static str,
        /// Human-readable failure reason.
        reason: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Unsupported { backend, reason } => {
                write!(f, "{backend}: unsupported request: {reason}")
            }
            ServeError::Solve { backend, reason } => write!(f, "{backend}: solve failed: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A join-order optimisation backend, PostBOUND-style.
pub trait JoinOrderOptimizer: Send + Sync {
    /// Optimises the join order of `query`.
    fn optimize_join_order(&self, query: &Query) -> Result<Plan, ServeError>;

    /// Identifies the backend.
    fn describe(&self) -> BackendInfo;

    /// Deterministic admission check and nominal cost estimate. Must be
    /// cheap, side-effect free, and identical across thread counts.
    fn pre_check(&self, query: &Query) -> PreCheck;
}
