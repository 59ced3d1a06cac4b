//! Deterministic resilience: seeded fault injection, attempt-bounded
//! retry/fallback policies, and crash-safe artifact IO.
//!
//! The pipeline this workspace reproduces runs on hardware that fails
//! operationally, not just physically: QPU job schedulers reject jobs,
//! embeddings fail, optimisers diverge, and long sweeps get killed
//! mid-flight. This crate makes those failure modes *first-class and
//! reproducible*:
//!
//! - [`fault`] draws per-site/per-unit fault decisions from a seeded
//!   [`FaultPlan`] (parsed from the `--faults` flag of the `experiments`
//!   driver). A decision is a pure function of
//!   `(plan seed, site, salt, unit)` — never of wall-clock time, thread
//!   count, or global event order — so a chaos run is bit-identical at
//!   any `QJO_THREADS`.
//! - [`retry`] is the attempt-count-based policy engine: bounded retries
//!   with per-site budgets, reporting `resil.<site>.{retries, recovered,
//!   exhausted}` counters to `qjo-obs`.
//! - [`atomic`] writes artifacts via temp-file + rename, so a crash (or
//!   an injected `io.write` fault) never leaves a torn CSV/JSON behind.
//!
//! Every fault, retry, fallback, and degradation event increments a
//! `fault.*` or `resil.*` counter; the run-manifest layer routes those
//! into a dedicated `resilience` section so CI drift-gates chaos runs
//! like any other experiment.

pub mod atomic;
pub mod fault;
pub mod retry;

pub use atomic::atomic_write;
pub use fault::{should_inject, FaultPlan, FaultSpecError, SITES};
pub use retry::with_retries;

// Re-exported so downstream crates can derive reseeded retry streams
// without taking their own `qjo-exec` dependency.
pub use qjo_exec::stream_seed;
