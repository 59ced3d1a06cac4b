//! Experiment harness for the paper's evaluation.
//!
//! One module per table/figure, each with a `Config` (defaults scaled to
//! simulator throughput; the paper's exact parameters are reachable by
//! raising the knobs), a `run` producing typed rows, and a `render`
//! producing the text table / CSV.
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`table1`] | Table 1 — original vs. pruned MILP size |
//! | [`fig2`] | Fig. 2 — transpiled QAOA depths on IBM Q |
//! | [`table2`] | Table 2 — QAOA valid/optimal fractions under noise |
//! | [`fig3`] | Fig. 3 — Pegasus embedding sizes |
//! | [`table3`] | Table 3 — annealing valid/optimal fractions |
//! | [`fig4`] | Fig. 4 — Theorem 5.3 qubit bounds |
//! | [`fig5`] | Fig. 5 — co-design topology/gate-set extrapolation |
//! | [`timing`] | §4.2.1 — `t_s` vs. `t_qpu` decomposition |
//!
//! [`serve_bench`] is not a paper artefact: it replays the committed
//! serving smoke mixes against `qjo-serve` and backs the
//! `experiments serve-bench` subcommand (see `EXPERIMENTS.md`).

pub mod ablation;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod report;
pub mod robustness;
pub mod scaling;
pub mod serve_bench;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod timing;
