//! Classical optimisers for the hybrid QAOA loop.
//!
//! Each optimiser minimises a black-box objective `f: R^d → R` (the QAOA
//! energy expectation as a function of the variational parameters). The
//! paper uses Qiskit's AQGD (analytic quantum gradient descent); our
//! [`GradientDescent`] plays that role with central-difference gradients,
//! and [`NelderMead`], [`Spsa`], and [`GridSearch`] are provided as
//! alternatives with different evaluation budgets.

use qjo_exec::Parallelism;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Domain-separation salt of the `qaoa.step` fault site. Every
/// `minimize` call rolls the same per-evaluation-index stream, which is
/// deliberate: decisions stay pure in the plan and the index.
const QAOA_STEP_SALT: u64 = 0x7161_6f61_2e73_7465;

/// Domain-separation constant for SPSA's reseeded divergence restarts.
const SPSA_RESTART_SALT: u64 = 0x7370_7361_5f72_7374;

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

/// Simultaneous-perturbation stochastic approximation: two evaluations per
/// iteration regardless of dimension.
#[derive(Debug, Clone)]
pub struct Spsa {
    /// Number of iterations (2 evaluations each).
    pub iterations: usize,
    /// Initial step size `a` of the gain sequence `a_k = a / (k+1)^0.602`.
    pub a: f64,
    /// Initial perturbation size `c` of `c_k = c / (k+1)^0.101`.
    pub c: f64,
    /// RNG seed for the perturbation directions.
    pub seed: u64,
}

impl Default for Spsa {
    fn default() -> Self {
        Spsa { iterations: 100, a: 0.2, c: 0.2, seed: 0 }
    }
}

impl Spsa {
    /// Minimises `f` starting from `x0`.
    ///
    /// Divergence recovery: a non-finite evaluation restarts the
    /// iteration from the best known point with the perturbation RNG
    /// reseeded (deterministically, from the iteration index), counted
    /// under `resil.qaoa.step.divergences`.
    pub fn minimize<F: FnMut(&[f64]) -> f64>(&self, f: F, x0: &[f64]) -> OptResult {
        let d = x0.len();
        let mut f = ChaosObjective::new(f);
        let mut divergences = 0u64;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut x = x0.to_vec();
        let mut evals = 0usize;
        let mut best_x = x.clone();
        let mut best_fx = f.eval(&x);
        evals += 1;
        if !best_fx.is_finite() {
            divergences += 1;
            best_fx = f64::INFINITY;
        }
        let mut history = Vec::with_capacity(self.iterations);

        for k in 0..self.iterations {
            let restart_seed = || {
                StdRng::seed_from_u64(qjo_resil::stream_seed(
                    self.seed ^ SPSA_RESTART_SALT,
                    k as u64,
                ))
            };
            let ak = self.a / ((k + 1) as f64).powf(0.602);
            let ck = self.c / ((k + 1) as f64).powf(0.101);
            let delta: Vec<f64> =
                (0..d).map(|_| if rng.random_bool(0.5) { 1.0 } else { -1.0 }).collect();
            let xp: Vec<f64> = x.iter().zip(&delta).map(|(v, s)| v + ck * s).collect();
            let xm: Vec<f64> = x.iter().zip(&delta).map(|(v, s)| v - ck * s).collect();
            let fp = f.eval(&xp);
            let fm = f.eval(&xm);
            evals += 2;
            if !fp.is_finite() || !fm.is_finite() {
                divergences += 1;
                x.copy_from_slice(&best_x);
                rng = restart_seed();
                history.push(best_fx);
                continue;
            }
            for i in 0..d {
                let g = (fp - fm) / (2.0 * ck * delta[i]);
                x[i] -= ak * g;
            }
            let fx = f.eval(&x);
            evals += 1;
            if !fx.is_finite() {
                divergences += 1;
                x.copy_from_slice(&best_x);
                rng = restart_seed();
            } else if fx < best_fx {
                best_fx = fx;
                best_x.copy_from_slice(&x);
            }
            history.push(best_fx);
        }
        record_divergences(divergences);
        record_history("spsa", &history);
        OptResult { x: best_x, fx: best_fx, evals, history }
    }
}

/// Adam (adaptive-moment) gradient descent with central-difference
/// gradients — more robust than plain gradient descent on the rugged QAOA
/// landscapes that appear at larger `p`.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Iterations (each costs `2d + 1` evaluations).
    pub iterations: usize,
    /// Step size α.
    pub learning_rate: f64,
    /// First-moment decay β₁.
    pub beta1: f64,
    /// Second-moment decay β₂.
    pub beta2: f64,
    /// Finite-difference step.
    pub fd_step: f64,
}

impl Default for Adam {
    fn default() -> Self {
        Adam { iterations: 100, learning_rate: 0.05, beta1: 0.9, beta2: 0.999, fd_step: 1e-3 }
    }
}

impl Adam {
    /// Minimises `f` starting from `x0`.
    ///
    /// Divergence recovery: a coordinate whose gradient comes back
    /// non-finite skips its moment update for that iteration; a
    /// non-finite objective reverts the iterate to the best known point.
    /// Both are counted under `resil.qaoa.step.divergences`.
    pub fn minimize<F: FnMut(&[f64]) -> f64>(&self, f: F, x0: &[f64]) -> OptResult {
        let d = x0.len();
        let mut f = ChaosObjective::new(f);
        let mut divergences = 0u64;
        let mut x = x0.to_vec();
        let mut m = vec![0.0; d];
        let mut v = vec![0.0; d];
        let mut evals = 0usize;
        let mut best_x = x.clone();
        let mut best_fx = f.eval(&x);
        evals += 1;
        if !best_fx.is_finite() {
            divergences += 1;
            best_fx = f64::INFINITY;
        }
        let mut history = Vec::with_capacity(self.iterations);
        const EPS: f64 = 1e-8;

        for t in 1..=self.iterations {
            for k in 0..d {
                let mut xp = x.clone();
                xp[k] += self.fd_step;
                let mut xm = x.clone();
                xm[k] -= self.fd_step;
                let g = (f.eval(&xp) - f.eval(&xm)) / (2.0 * self.fd_step);
                evals += 2;
                if !g.is_finite() {
                    divergences += 1;
                    continue;
                }
                m[k] = self.beta1 * m[k] + (1.0 - self.beta1) * g;
                v[k] = self.beta2 * v[k] + (1.0 - self.beta2) * g * g;
                let m_hat = m[k] / (1.0 - self.beta1.powi(t as i32));
                let v_hat = v[k] / (1.0 - self.beta2.powi(t as i32));
                x[k] -= self.learning_rate * m_hat / (v_hat.sqrt() + EPS);
            }
            let fx = f.eval(&x);
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
        record_history("adam", &history);
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

/// Exhaustive grid search over a box — practical for the `2p = 2` parameters
/// of depth-1 QAOA, and deterministic.
///
/// Evaluations are independent work units and run in parallel under
/// [`Parallelism`]; the argmin and the running-best history are reduced in
/// grid order afterwards (first grid point wins ties), so the result is
/// identical at any thread count. The objective must therefore be `Fn +
/// Sync` — a pure function of its input.
#[derive(Debug, Clone)]
pub struct GridSearch {
    /// Per-dimension `(low, high)` bounds.
    pub bounds: Vec<(f64, f64)>,
    /// Grid points per dimension.
    pub resolution: usize,
    /// Worker threads for the evaluation loop; affects wall-clock only,
    /// never results.
    pub parallelism: Parallelism,
}

impl Default for GridSearch {
    /// A placeholder grid for struct-update syntax; `bounds` must be set
    /// before calling [`GridSearch::minimize`].
    fn default() -> Self {
        GridSearch { bounds: Vec::new(), resolution: 2, parallelism: Parallelism::auto() }
    }
}

impl GridSearch {
    /// Minimises `f` over the grid.
    pub fn minimize<F: Fn(&[f64]) -> f64 + Sync>(&self, f: F) -> OptResult {
        let d = self.bounds.len();
        assert!(d >= 1 && self.resolution >= 2, "degenerate grid");

        // Enumerate grid points in odometer order (dimension 0 fastest),
        // matching the sequential evaluation order exactly.
        let mut points: Vec<Vec<f64>> = Vec::new();
        let mut idx = vec![0usize; d];
        'enumerate: loop {
            points.push(
                idx.iter()
                    .zip(&self.bounds)
                    .map(|(&i, &(lo, hi))| lo + (hi - lo) * i as f64 / (self.resolution - 1) as f64)
                    .collect(),
            );
            let mut k = 0;
            loop {
                idx[k] += 1;
                if idx[k] < self.resolution {
                    break;
                }
                idx[k] = 0;
                k += 1;
                if k == d {
                    break 'enumerate;
                }
            }
        }

        qjo_obs::counter!("gatesim.grid_evals").add(points.len() as u64);
        // Injection is keyed by the grid index, so the decision is pure
        // per point and the parallel map stays order-independent.
        let indexed: Vec<(usize, Vec<f64>)> = points.iter().cloned().enumerate().collect();
        let values = qjo_exec::par_map(indexed, self.parallelism, |(i, x)| {
            if qjo_resil::should_inject("qaoa.step", QAOA_STEP_SALT, i as u64) {
                f64::NAN
            } else {
                f(&x)
            }
        });

        let mut best_x = Vec::new();
        let mut best_fx = f64::INFINITY;
        let mut history = Vec::with_capacity(values.len());
        let evals = values.len();
        let mut divergences = 0u64;
        for (x, fx) in points.into_iter().zip(values) {
            if !fx.is_finite() {
                divergences += 1;
            } else if fx < best_fx {
                best_fx = fx;
                best_x = x;
            }
            history.push(best_fx);
        }
        record_divergences(divergences);
        record_history("grid", &history);
        OptResult { x: best_x, fx: best_fx, evals, history }
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
    fn adam_finds_quadratic_minimum() {
        let r = Adam { iterations: 400, ..Default::default() }.minimize(bowl, &[4.0, 3.0]);
        assert!((r.x[0] - 1.0).abs() < 1e-2, "x0 = {}", r.x[0]);
        assert!((r.x[1] + 2.0).abs() < 1e-2, "x1 = {}", r.x[1]);
        assert!((r.fx - 2.5).abs() < 1e-3);
        assert!((bowl(&r.x) - r.fx).abs() < 1e-12);
    }

    #[test]
    fn adam_handles_badly_scaled_objectives() {
        // Plain GD with a fixed step diverges or crawls on 100:1 scaling;
        // Adam's per-coordinate normalisation copes.
        let skewed = |x: &[f64]| 100.0 * x[0].powi(2) + 0.01 * x[1].powi(2);
        let r = Adam { iterations: 600, ..Default::default() }.minimize(skewed, &[1.0, 10.0]);
        assert!(r.fx < 0.05, "fx = {}", r.fx);
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
    fn spsa_improves_from_start() {
        let r = Spsa { iterations: 300, ..Default::default() }.minimize(bowl, &[4.0, 3.0]);
        assert!(r.fx < bowl(&[4.0, 3.0]), "no improvement");
        assert!(r.fx < 3.5, "fx = {}", r.fx);
    }

    #[test]
    fn grid_search_hits_grid_optimum() {
        let g = GridSearch {
            bounds: vec![(-3.0, 3.0), (-3.0, 3.0)],
            resolution: 13,
            ..Default::default()
        };
        let r = g.minimize(bowl);
        // Grid spacing 0.5 puts exact points on (1, -2).
        assert!((r.x[0] - 1.0).abs() < 1e-9);
        assert!((r.x[1] + 2.0).abs() < 1e-9);
        assert_eq!(r.evals, 169);
    }

    #[test]
    fn grid_search_is_identical_at_any_thread_count() {
        let at = |threads| {
            GridSearch {
                bounds: vec![(-2.0, 2.0), (-2.0, 2.0)],
                resolution: 9,
                parallelism: Parallelism::new(threads),
            }
            .minimize(bowl)
        };
        let sequential = at(1);
        for threads in [2, 4, 8] {
            let parallel = at(threads);
            assert_eq!(sequential.x, parallel.x);
            assert_eq!(sequential.fx, parallel.fx);
            assert_eq!(sequential.evals, parallel.evals);
            assert_eq!(sequential.history, parallel.history);
        }
    }

    #[test]
    fn histories_are_monotone_non_increasing() {
        for history in [
            GradientDescent::default().minimize(bowl, &[3.0, 3.0]).history,
            Spsa::default().minimize(bowl, &[3.0, 3.0]).history,
            NelderMead::default().minimize(bowl, &[3.0, 3.0]).history,
            GridSearch { bounds: vec![(-1.0, 1.0); 2], resolution: 5, ..Default::default() }
                .minimize(bowl)
                .history,
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
        let grid = GridSearch { bounds: vec![(-1.0, 1.0); 2], resolution: 3, ..Default::default() }
            .minimize(bowl);
        let drained = qjo_obs::convergence::drain_csv();
        let csv = &drained.iter().find(|(g, _)| g == "optim").expect("optim group recorded").1;
        assert!(csv.matches(",gd,").count() >= gd.history.len(), "{csv}");
        assert!(csv.matches(",grid,").count() >= grid.history.len(), "{csv}");
    }

    #[test]
    fn spsa_is_deterministic_per_seed() {
        let a = Spsa { seed: 3, ..Default::default() }.minimize(bowl, &[2.0, 2.0]);
        let b = Spsa { seed: 3, ..Default::default() }.minimize(bowl, &[2.0, 2.0]);
        assert_eq!(a.x, b.x);
        assert_eq!(a.fx, b.fx);
    }
}
