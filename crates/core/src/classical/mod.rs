//! Classical join-ordering baselines: exact optimisation (exhaustive and
//! dynamic programming) and greedy heuristics.
//!
//! These provide the ground truth against which quantum samples are judged
//! "optimal" in Tables 2 and 3 of the paper, and stand in for the classical
//! side of any quantum-vs-classical comparison.

mod dp;
mod greedy;
mod randomized;

pub use dp::{dp_optimal, exhaustive_optimal};
pub use greedy::greedy_min_cost;
pub use randomized::{iterative_improvement, simulated_annealing_jo};
