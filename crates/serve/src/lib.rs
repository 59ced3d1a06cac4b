//! An always-on join-order optimisation service over the whole workspace.
//!
//! The batch pipeline (MILP→BILP→QUBO → anneal/QAOA → decode) only
//! answers the paper's co-design question if it can answer *queries under
//! a latency budget*. This crate turns every solver into a
//! [`JoinOrderOptimizer`] behind one registry ([`Service`]), fronted by a
//! line-oriented JSON request loop ([`server`]) and measured by a seeded
//! load generator ([`loadgen`]).
//!
//! The core subsystem is the content-addressed [`cache`]: requests are
//! canonicalised by a graph-isomorphism [`fingerprint`] over topology +
//! bucketed cardinalities, and the expensive derived artifacts — the QUBO
//! formulation and (for the annealer) the Pegasus minor-embedding — are
//! cached per fingerprint class. Two structurally-equal queries that
//! differ only by relation labels or sub-bucket cardinality noise share
//! one formulation and one embedding.
//!
//! Determinism contract: admission, fallback, cache, and report contents
//! are pure functions of the request stream (wall-clock is observed but
//! never steers control flow), so serving reports are byte-identical at
//! any `QJO_THREADS`.
//!
//! Telemetry: every handled request records one structured
//! [`ServeEvent`] ([`events`]) in the service's per-instance
//! [`telemetry`] sink, which also feeds an online work model of observed
//! latencies. The serve loop answers an in-band `{"cmd": "stats"}` with
//! a live snapshot, and admission can optionally run *calibrated* from
//! the observed rates ([`AdmissionMode::Calibrated`]) instead of the
//! static work model (the drift-gateable default).

#![warn(missing_docs)]

pub mod backends;
pub mod cache;
pub mod events;
pub mod fingerprint;
pub mod loadgen;
pub mod optimizer;
pub mod request;
pub mod server;
pub mod service;
pub mod telemetry;

pub use backends::{
    AnnealerBackend, DpBackend, GreedyBackend, QaoaBackend, SaBackend, SqaBackend, TabuBackend,
};
pub use cache::{CacheCounters, CacheEntry, CacheStatus, FormulationCache};
pub use events::{parse_event, validate_events, ServeEvent};
pub use fingerprint::{canonicalize, CanonicalQuery, FingerprintConfig};
pub use optimizer::{BackendInfo, JoinOrderOptimizer, Plan, PreCheck, ServeError};
pub use request::{parse_request, render_response, Request, Response};
pub use service::{AdmissionMode, Service};
pub use telemetry::Telemetry;
