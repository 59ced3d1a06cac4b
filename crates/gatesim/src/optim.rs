//! Classical optimisers for the hybrid QAOA loop.
//!
//! Each optimiser minimises a black-box objective `f: R^d → R` (the QAOA
//! energy expectation as a function of the variational parameters). The
//! paper uses Qiskit's AQGD (analytic quantum gradient descent); our
//! [`GradientDescent`] plays that role with central-difference gradients.
//! The derivative-free [`NelderMead`] is the one alternative, and the
//! only other series `convergence_optim.csv` records.

/// Domain-separation salt of the `qaoa.step` fault site. Every
/// `minimize` call rolls the same per-evaluation-index stream, which is
/// deliberate: decisions stay pure in the plan and the index.
const QAOA_STEP_SALT: u64 = 0x7161_6f61_2e73_7465;

/// Wraps an objective with the `qaoa.step` fault site: a rolled
/// evaluation returns NaN — a diverged/garbage energy estimate from the
/// quantum processor — keyed purely by the evaluation index within this
/// `minimize` call.
struct ChaosObjective<F> {
    f: F,
    evals: u64,
}

impl<F: FnMut(&[f64]) -> f64> ChaosObjective<F> {
    fn new(f: F) -> Self {
        ChaosObjective { f, evals: 0 }
    }

    fn eval(&mut self, x: &[f64]) -> f64 {
        let unit = self.evals;
        self.evals += 1;
        if qjo_resil::should_inject("qaoa.step", QAOA_STEP_SALT, unit) {
            f64::NAN
        } else {
            (self.f)(x)
        }
    }
}

/// Counts recovered divergences (injected or real NaN/∞ evaluations the
/// optimiser routed around) once per `minimize` call.
fn record_divergences(divergences: u64) {
    if divergences > 0 {
        qjo_obs::counter!("resil.qaoa.step.divergences").add(divergences);
    }
}

/// Records an optimiser's running-best trajectory into the convergence
/// recorder (`optim` group, one series per `minimize` call, step =
/// iteration). Inert unless a recorder is active.
fn record_history(optimiser: &str, history: &[f64]) {
    let curve = qjo_obs::convergence::series("optim", optimiser);
    if !curve.is_active() {
        return;
    }
    for (step, &fx) in history.iter().enumerate() {
        curve.record(step as u64, fx);
    }
}

/// Result of an optimisation run.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// The best parameter vector found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
    /// Number of objective evaluations used.
    pub evals: usize,
    /// Best objective value after each iteration (monotone non-increasing).
    pub history: Vec<f64>,
}

/// Gradient descent with central-difference gradients and a fixed step.
///
/// Stands in for Qiskit's AQGD optimiser used in the paper's experiments.
#[derive(Debug, Clone)]
pub struct GradientDescent {
    /// Number of iterations (each costs `2d + 1` evaluations).
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Finite-difference step.
    pub fd_step: f64,
}

impl Default for GradientDescent {
    fn default() -> Self {
        GradientDescent { iterations: 50, learning_rate: 0.1, fd_step: 1e-3 }
    }
}

impl GradientDescent {
    /// Minimises `f` starting from `x0`.
    ///
    /// Divergence recovery: a non-finite gradient or objective (real, or
    /// injected at the `qaoa.step` fault site) never poisons the state —
    /// the iterate reverts to the best known point and the run continues,
    /// counted under `resil.qaoa.step.divergences`.
    pub fn minimize<F: FnMut(&[f64]) -> f64>(&self, f: F, x0: &[f64]) -> OptResult {
        let _span = qjo_obs::span!("gatesim.optim.gd");
        qjo_obs::counter!("gatesim.gd_iterations").add(self.iterations as u64);
        let d = x0.len();
        let mut f = ChaosObjective::new(f);
        let mut divergences = 0u64;
        let mut x = x0.to_vec();
        let mut evals = 0usize;
        let mut fx = f.eval(&x);
        evals += 1;
        if !fx.is_finite() {
            divergences += 1;
            fx = f64::INFINITY;
        }
        let mut best_x = x.clone();
        let mut best_fx = fx;
        let mut history = Vec::with_capacity(self.iterations);

        for _ in 0..self.iterations {
            let mut grad = vec![0.0; d];
            for k in 0..d {
                let mut xp = x.clone();
                xp[k] += self.fd_step;
                let mut xm = x.clone();
                xm[k] -= self.fd_step;
                grad[k] = (f.eval(&xp) - f.eval(&xm)) / (2.0 * self.fd_step);
                evals += 2;
            }
            if grad.iter().any(|g| !g.is_finite()) {
                divergences += 1;
                x.copy_from_slice(&best_x);
                history.push(best_fx);
                continue;
            }
            for k in 0..d {
                x[k] -= self.learning_rate * grad[k];
            }
            fx = f.eval(&x);
            evals += 1;
            if !fx.is_finite() {
                divergences += 1;
                x.copy_from_slice(&best_x);
            } else if fx < best_fx {
                best_fx = fx;
                best_x.copy_from_slice(&x);
            }
            history.push(best_fx);
        }
        record_divergences(divergences);
        record_history("gd", &history);
        OptResult { x: best_x, fx: best_fx, evals, history }
    }
}

/// Downhill-simplex (Nelder–Mead) derivative-free minimisation.
#[derive(Debug, Clone)]
pub struct NelderMead {
    /// Maximum iterations.
    pub max_iterations: usize,
    /// Initial simplex edge length.
    pub init_step: f64,
    /// Convergence tolerance on the objective spread across the simplex.
    pub tolerance: f64,
}

impl Default for NelderMead {
    fn default() -> Self {
        NelderMead { max_iterations: 200, init_step: 0.5, tolerance: 1e-8 }
    }
}

impl NelderMead {
    /// Minimises `f` starting from `x0`.
    ///
    /// Divergence recovery: non-finite evaluations (real, or injected at
    /// the `qaoa.step` fault site) enter the simplex as `+∞` — a total
    /// order the vertex sort handles — so one diverged vertex is simply
    /// the first to be reflected away, counted under
    /// `resil.qaoa.step.divergences`.
    pub fn minimize<F: FnMut(&[f64]) -> f64>(&self, f: F, x0: &[f64]) -> OptResult {
        let d = x0.len();
        assert!(d >= 1, "need at least one dimension");
        let mut chaos = ChaosObjective::new(f);
        let mut divergences = 0u64;
        let mut f = |x: &[f64]| {
            let fx = chaos.eval(x);
            if fx.is_finite() {
                fx
            } else {
                divergences += 1;
                f64::INFINITY
            }
        };
        let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
        let mut evals = 0usize;
        let mut history = Vec::new();

        // Initial simplex: x0 plus one step along each axis.
        let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(d + 1);
        let fx0 = f(x0);
        evals += 1;
        simplex.push((x0.to_vec(), fx0));
        for k in 0..d {
            let mut v = x0.to_vec();
            v[k] += self.init_step;
            let fv = f(&v);
            evals += 1;
            simplex.push((v, fv));
        }

        for _ in 0..self.max_iterations {
            simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            history.push(simplex[0].1);
            let spread = simplex[d].1 - simplex[0].1;
            if spread.abs() < self.tolerance {
                break;
            }

            // Centroid of all but the worst point.
            let mut centroid = vec![0.0; d];
            for (v, _) in &simplex[..d] {
                for (c, vi) in centroid.iter_mut().zip(v) {
                    *c += vi / d as f64;
                }
            }
            let worst = simplex[d].clone();

            let reflect: Vec<f64> =
                centroid.iter().zip(&worst.0).map(|(c, w)| c + alpha * (c - w)).collect();
            let fr = f(&reflect);
            evals += 1;

            if fr < simplex[0].1 {
                // Try expanding further.
                let expand: Vec<f64> =
                    centroid.iter().zip(&reflect).map(|(c, r)| c + gamma * (r - c)).collect();
                let fe = f(&expand);
                evals += 1;
                simplex[d] = if fe < fr { (expand, fe) } else { (reflect, fr) };
            } else if fr < simplex[d - 1].1 {
                simplex[d] = (reflect, fr);
            } else {
                // Contract toward the centroid.
                let contract: Vec<f64> =
                    centroid.iter().zip(&worst.0).map(|(c, w)| c + rho * (w - c)).collect();
                let fc = f(&contract);
                evals += 1;
                if fc < worst.1 {
                    simplex[d] = (contract, fc);
                } else {
                    // Shrink everything toward the best vertex.
                    let best = simplex[0].0.clone();
                    for entry in simplex.iter_mut().skip(1) {
                        for (v, b) in entry.0.iter_mut().zip(&best) {
                            *v = b + sigma * (*v - b);
                        }
                        entry.1 = f(&entry.0);
                        evals += 1;
                    }
                }
            }
        }

        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        record_divergences(divergences);
        record_history("nelder_mead", &history);
        let (x, fx) = simplex.swap_remove(0);
        OptResult { x, fx, evals, history }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shifted quadratic bowl with minimum 2.5 at (1, -2).
    fn bowl(x: &[f64]) -> f64 {
        (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2) + 2.5
    }

    #[test]
    fn gradient_descent_finds_quadratic_minimum() {
        let r = GradientDescent { iterations: 200, learning_rate: 0.2, fd_step: 1e-4 }
            .minimize(bowl, &[4.0, 3.0]);
        assert!((r.x[0] - 1.0).abs() < 1e-3, "x0 = {}", r.x[0]);
        assert!((r.x[1] + 2.0).abs() < 1e-3, "x1 = {}", r.x[1]);
        assert!((r.fx - 2.5).abs() < 1e-5);
    }

    #[test]
    fn nelder_mead_finds_quadratic_minimum() {
        let r = NelderMead::default().minimize(bowl, &[4.0, 3.0]);
        assert!((r.fx - 2.5).abs() < 1e-5, "fx = {}", r.fx);
    }

    #[test]
    fn nelder_mead_handles_rosenbrock() {
        let rosen = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = NelderMead { max_iterations: 2000, init_step: 0.5, tolerance: 1e-12 }
            .minimize(rosen, &[-1.2, 1.0]);
        assert!(r.fx < 1e-6, "fx = {}", r.fx);
        assert!((r.x[0] - 1.0).abs() < 1e-2 && (r.x[1] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn histories_are_monotone_non_increasing() {
        for history in [
            GradientDescent::default().minimize(bowl, &[3.0, 3.0]).history,
            NelderMead::default().minimize(bowl, &[3.0, 3.0]).history,
        ] {
            for w in history.windows(2) {
                assert!(w[1] <= w[0] + 1e-12);
            }
        }
    }

    #[test]
    fn reported_fx_matches_reported_x() {
        let r = NelderMead::default().minimize(bowl, &[2.0, 2.0]);
        assert!((bowl(&r.x) - r.fx).abs() < 1e-12);
        let r = GradientDescent::default().minimize(bowl, &[2.0, 2.0]);
        assert!((bowl(&r.x) - r.fx).abs() < 1e-12);
    }

    #[test]
    fn convergence_recorder_captures_optimiser_trajectories() {
        qjo_obs::convergence::start(1);
        let gd =
            GradientDescent { iterations: 6, ..Default::default() }.minimize(bowl, &[3.0, 3.0]);
        let nm = NelderMead { max_iterations: 6, ..Default::default() }.minimize(bowl, &[3.0, 3.0]);
        let drained = qjo_obs::convergence::drain_csv();
        let csv = &drained.iter().find(|(g, _)| g == "optim").expect("optim group recorded").1;
        assert!(csv.matches(",gd,").count() >= gd.history.len(), "{csv}");
        assert!(csv.matches(",nelder_mead,").count() >= nm.history.len(), "{csv}");
    }
}
