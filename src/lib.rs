//! `qjo` — join-order optimisation on (simulated) quantum hardware.
//!
//! The facade crate of the workspace: re-exports the public API of every
//! subsystem so applications depend on one crate.
//!
//! * [`core`] — the paper's contribution: query model, MILP → BILP → QUBO
//!   reformulation chain, qubit bounds, classical baselines, decoding.
//! * [`qubo`] — QUBO/Ising types and classical solvers.
//! * [`gatesim`] — circuit IR, state-vector simulation, NISQ noise, QAOA.
//! * [`transpile`] — hardware topologies, routing, gate-set decomposition,
//!   transpiler pipelines, co-design extrapolation.
//! * [`anneal`] — Pegasus-like hardware graphs, minor embedding, simulated
//!   quantum annealing, the D-Wave-like sampler.
//! * [`exec`] — deterministic parallel execution: seeded per-unit RNG
//!   streams and order-preserving `par_map`, so results are bit-identical
//!   at any thread count.
//! * [`serve`] — the always-on optimisation service: every backend behind
//!   one `JoinOrderOptimizer` trait (`auto` among them: greedy, or the
//!   exact DP plan when that is strictly cheaper and the query has at
//!   most 12 relations), a content-addressed formulation and embedding
//!   cache, and a JSON request loop that answers each line before it
//!   reads the next.
//! * [`sched`] — `smoke_service`, a shim over `serve::Service::smoke`
//!   kept for the benchmark package.
//!
//! See the `examples/` directory for end-to-end walkthroughs and the
//! `experiments` binary (`cargo run -p qjo-bench --release --bin
//! experiments`) for the paper's tables and figures.
//!
//! ```
//! use qjo::core::prelude::*;
//! use qjo::qubo::solve::ExactSolver;
//!
//! let query = QueryGenerator::paper_defaults(QueryGraph::Chain, 3).generate(7);
//! let encoded = JoEncoder::default().encode(&query);
//! let ground = ExactSolver::new().solve(&encoded.qubo).unwrap();
//! let order = decode_assignment(&ground.assignment, &encoded.registry, &query);
//! assert!(order.is_some(), "the QUBO minimum decodes to a valid join order");
//! ```

pub use qjo_anneal as anneal;
pub use qjo_core as core;
pub use qjo_exec as exec;
pub use qjo_gatesim as gatesim;
pub use qjo_qubo as qubo;
pub use qjo_sched as sched;
pub use qjo_serve as serve;
pub use qjo_transpile as transpile;
