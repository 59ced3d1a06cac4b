//! Classical QUBO solvers.
//!
//! These provide ground truth (exact enumeration for small models) and
//! classical heuristic baselines (simulated annealing, tabu search) against
//! which the simulated quantum backends are assessed.

mod exact;
mod sa;
mod tabu;

pub use exact::ExactSolver;
pub use sa::{CoolingSchedule, SimulatedAnnealing};
pub use tabu::TabuSearch;

use crate::sample::Sample;

/// The outcome of a single solver run: the best assignment found.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Best assignment found.
    pub assignment: Vec<bool>,
    /// Its energy.
    pub energy: f64,
}

impl From<Solution> for Sample {
    fn from(s: Solution) -> Sample {
        Sample { assignment: s.assignment, energy: s.energy, occurrences: 1 }
    }
}
