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
//! [`Service::smoke`] registers eight backends: the seven solver
//! families and `auto` ([`AutoBackend`]), which answers with greedy's
//! plan or, on small queries, DP's when that is strictly cheaper.
//!
//! Determinism contract: admission is the backends' static `pre_check`
//! model — a request with a deadline is admitted iff its backend's
//! nominal cost fits the budget — so admission, fallback, cache, report
//! and stats-snapshot contents are pure functions of the request stream
//! (wall-clock is observed but never steers control flow), and serving
//! reports are byte-identical at any `QJO_THREADS`.
//!
//! Telemetry: every handled request records one structured
//! [`ServeEvent`] ([`events`]) in the service's per-instance
//! [`telemetry`] sink. The serve loop answers an in-band
//! `{"cmd": "stats"}` with a snapshot of the service's counters, cache
//! occupancy and event tallies.

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
    AnnealerBackend, AutoBackend, DpBackend, GreedyBackend, QaoaBackend, SaBackend, SqaBackend,
    TabuBackend,
};
pub use cache::{CacheCounters, CacheEntry, CacheStatus, FormulationCache};
pub use events::{parse_event, validate_events, ServeEvent};
pub use fingerprint::{canonicalize, CanonicalQuery, FingerprintConfig};
pub use optimizer::{JoinOrderOptimizer, Plan};
pub use request::{parse_request, render_response, Request, Response};
pub use service::Service;
pub use telemetry::Telemetry;
