//! The [`Qubo`] builder type and its solver-friendly compiled form.

use std::collections::BTreeMap;

use crate::error::QuboError;
use crate::ising::IsingModel;

/// A quadratic unconstrained binary optimisation problem.
///
/// `Qubo` is a *builder*: coefficients accumulate via [`Qubo::add_linear`] and
/// [`Qubo::add_quadratic`], which is the natural fit for penalty-term
/// construction (the join-ordering encoding repeatedly adds squared
/// constraint expansions onto the same pairs). Solvers work on the
/// [`CompiledQubo`] produced by [`Qubo::compile`], which holds the same
/// polynomial in CSR-style adjacency form for O(deg) incremental energy
/// updates.
#[derive(Debug, Clone, PartialEq)]
pub struct Qubo {
    num_vars: usize,
    offset: f64,
    linear: Vec<f64>,
    /// Upper-triangular quadratic coefficients keyed by `(i, j)` with `i < j`.
    /// A BTreeMap keeps iteration deterministic, which keeps downstream
    /// circuit construction and embeddings reproducible under fixed seeds.
    quadratic: BTreeMap<(u32, u32), f64>,
}

impl Qubo {
    /// Creates an empty QUBO over `num_vars` binary variables.
    pub fn new(num_vars: usize) -> Self {
        Qubo { num_vars, offset: 0.0, linear: vec![0.0; num_vars], quadratic: BTreeMap::new() }
    }

    /// Number of declared variables (including ones with no coefficients).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The constant term of the polynomial.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Adds `value` to the constant term.
    pub fn add_offset(&mut self, value: f64) {
        self.offset += value;
    }

    /// Adds `value` to the linear coefficient of variable `i`.
    pub fn add_linear(&mut self, i: usize, value: f64) {
        assert!(i < self.num_vars, "variable {i} out of range ({})", self.num_vars);
        self.linear[i] += value;
    }

    /// Adds `value` to the quadratic coefficient of the pair `{i, j}`.
    ///
    /// The order of `i` and `j` is irrelevant; `i == j` is folded into the
    /// linear term since `x_i^2 = x_i` for binary variables.
    pub fn add_quadratic(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.num_vars, "variable {i} out of range ({})", self.num_vars);
        assert!(j < self.num_vars, "variable {j} out of range ({})", self.num_vars);
        if i == j {
            self.linear[i] += value;
            return;
        }
        let key = (i.min(j) as u32, i.max(j) as u32);
        *self.quadratic.entry(key).or_insert(0.0) += value;
    }

    /// Linear coefficient of variable `i`.
    pub fn linear(&self, i: usize) -> f64 {
        self.linear[i]
    }

    /// Quadratic coefficient of the pair `{i, j}` (0.0 when absent).
    pub fn quadratic(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let key = (i.min(j) as u32, i.max(j) as u32);
        self.quadratic.get(&key).copied().unwrap_or(0.0)
    }

    /// Iterates over the non-zero quadratic terms as `(i, j, c_ij)` with `i < j`.
    pub fn quadratic_iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.quadratic.iter().map(|(&(i, j), &c)| (i as usize, j as usize, c))
    }

    /// Iterates over the linear terms as `(i, c_ii)`, including zeros.
    pub fn linear_iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.linear.iter().copied().enumerate()
    }

    /// Number of stored (possibly zero after cancellation) quadratic entries.
    pub fn num_quadratic_terms(&self) -> usize {
        self.quadratic.len()
    }

    /// Number of non-zero quadratic entries, i.e. edges of the QUBO graph.
    pub fn num_interactions(&self) -> usize {
        self.quadratic.values().filter(|c| **c != 0.0).count()
    }

    /// Removes exact-zero quadratic entries left behind by cancellation.
    pub fn prune_zeros(&mut self) {
        self.quadratic.retain(|_, c| *c != 0.0);
    }

    /// Largest absolute coefficient (linear or quadratic); 0.0 for an empty model.
    pub fn max_abs_coefficient(&self) -> f64 {
        let lin = self.linear.iter().fold(0.0_f64, |m, c| m.max(c.abs()));
        let quad = self.quadratic.values().fold(0.0_f64, |m, c| m.max(c.abs()));
        lin.max(quad)
    }

    /// Checks all coefficients are finite.
    pub fn validate(&self) -> Result<(), QuboError> {
        for (i, c) in self.linear.iter().enumerate() {
            if !c.is_finite() {
                return Err(QuboError::NonFiniteCoefficient { i, j: i });
            }
        }
        for (&(i, j), c) in &self.quadratic {
            if !c.is_finite() {
                return Err(QuboError::NonFiniteCoefficient { i: i as usize, j: j as usize });
            }
        }
        Ok(())
    }

    /// Evaluates the polynomial at the given binary assignment.
    pub fn energy(&self, x: &[bool]) -> Result<f64, QuboError> {
        if x.len() != self.num_vars {
            return Err(QuboError::AssignmentLength { got: x.len(), expected: self.num_vars });
        }
        let mut e = self.offset;
        for (i, &c) in self.linear.iter().enumerate() {
            if x[i] {
                e += c;
            }
        }
        for (&(i, j), &c) in &self.quadratic {
            if x[i as usize] && x[j as usize] {
                e += c;
            }
        }
        Ok(e)
    }

    /// Converts to the spin (Ising) formulation with `x_i = (1 + s_i) / 2`.
    ///
    /// Energies are preserved exactly: for every assignment,
    /// `qubo.energy(x) == ising.energy(s)` when `s_i = 2 x_i − 1`.
    pub fn to_ising(&self) -> IsingModel {
        let n = self.num_vars;
        let mut h = vec![0.0; n];
        let mut j_terms: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        let mut offset = self.offset;

        for (i, &c) in self.linear.iter().enumerate() {
            // c * x = c (1+s)/2
            h[i] += c / 2.0;
            offset += c / 2.0;
        }
        for (&(a, b), &c) in &self.quadratic {
            // c * x_a x_b = c (1+s_a)(1+s_b)/4
            offset += c / 4.0;
            h[a as usize] += c / 4.0;
            h[b as usize] += c / 4.0;
            *j_terms.entry((a, b)).or_insert(0.0) += c / 4.0;
        }
        IsingModel::from_parts(h, j_terms, offset)
    }

    /// Compiles into adjacency (CSR) form for fast incremental solvers.
    pub fn compile(&self) -> CompiledQubo {
        let n = self.num_vars;
        let mut neighbor_counts = vec![0usize; n];
        for (&(i, j), &c) in &self.quadratic {
            if c != 0.0 {
                neighbor_counts[i as usize] += 1;
                neighbor_counts[j as usize] += 1;
            }
        }
        let mut row_starts = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        row_starts.push(0);
        for count in &neighbor_counts {
            acc += count;
            row_starts.push(acc);
        }
        let mut cols = vec![0u32; acc];
        let mut weights = vec![0.0f64; acc];
        let mut cursor = row_starts[..n].to_vec();
        for (&(i, j), &c) in &self.quadratic {
            if c != 0.0 {
                cols[cursor[i as usize]] = j;
                weights[cursor[i as usize]] = c;
                cursor[i as usize] += 1;
                cols[cursor[j as usize]] = i;
                weights[cursor[j as usize]] = c;
                cursor[j as usize] += 1;
            }
        }
        CompiledQubo {
            num_vars: n,
            offset: self.offset,
            linear: self.linear.clone(),
            row_starts,
            cols,
            weights,
        }
    }
}

/// A [`Qubo`] flattened into CSR adjacency form.
///
/// Supports O(degree) *flip gains*: the energy change of flipping one
/// variable given the current assignment, which is the inner-loop primitive
/// of simulated annealing and tabu search.
#[derive(Debug, Clone)]
pub struct CompiledQubo {
    num_vars: usize,
    offset: f64,
    linear: Vec<f64>,
    row_starts: Vec<usize>,
    cols: Vec<u32>,
    weights: Vec<f64>,
}

impl CompiledQubo {
    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Constant term.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Neighbours of variable `i` with their coupling weights.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.row_starts[i]..self.row_starts[i + 1];
        self.cols[range.clone()].iter().zip(&self.weights[range]).map(|(&c, &w)| (c as usize, w))
    }

    /// Full energy of an assignment (O(n + m)).
    pub fn energy(&self, x: &[bool]) -> f64 {
        debug_assert_eq!(x.len(), self.num_vars);
        let mut e = self.offset;
        for (i, &c) in self.linear.iter().enumerate() {
            if x[i] {
                e += c;
            }
        }
        // Each edge is stored twice in CSR; count pairs once via i < j.
        for i in 0..self.num_vars {
            if !x[i] {
                continue;
            }
            for (j, w) in self.neighbors(i) {
                if j > i && x[j] {
                    e += w;
                }
            }
        }
        e
    }

    /// Energy change from flipping variable `i` in assignment `x`.
    ///
    /// The neighbour loop is branch-free: `x[j]` picks the addend `w` or
    /// `−0.0` through an all-ones / all-zeros integer mask, because the
    /// branchy `if x[j] { partial += w }` mispredicts on about half of
    /// annealing's random assignments. The select is exact: `p + (−0.0)`
    /// is `p` bit for bit for every `p`, `+0.0` and `−0.0` included
    /// (`+0.0 + −0.0 = +0.0` under round-to-nearest), so the sum is the
    /// branchy loop's sum in every bit.
    pub fn flip_gain(&self, x: &[bool], i: usize) -> f64 {
        const NEG_ZERO: u64 = 1 << 63;
        let mut partial = self.linear[i];
        for (j, w) in self.neighbors(i) {
            let take = u64::from(x[j]).wrapping_neg();
            partial += f64::from_bits((w.to_bits() & take) | (NEG_ZERO & !take));
        }
        if x[i] {
            -partial
        } else {
            partial
        }
    }

    /// Flip gains for every variable at once (O(n + m)).
    pub fn all_flip_gains(&self, x: &[bool]) -> Vec<f64> {
        (0..self.num_vars).map(|i| self.flip_gain(x, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Qubo {
        // f(x) = 1 - 2 x0 + 3 x1 + 4 x0 x1 - x2 + 0.5 x1 x2
        let mut q = Qubo::new(3);
        q.add_offset(1.0);
        q.add_linear(0, -2.0);
        q.add_linear(1, 3.0);
        q.add_quadratic(0, 1, 4.0);
        q.add_linear(2, -1.0);
        q.add_quadratic(2, 1, 0.5);
        q
    }

    #[test]
    fn energy_matches_hand_computation() {
        let q = toy();
        assert_eq!(q.energy(&[false, false, false]).unwrap(), 1.0);
        assert_eq!(q.energy(&[true, false, false]).unwrap(), -1.0);
        assert_eq!(q.energy(&[true, true, false]).unwrap(), 6.0);
        assert_eq!(q.energy(&[true, true, true]).unwrap(), 5.5);
        assert_eq!(q.energy(&[false, false, true]).unwrap(), 0.0);
    }

    #[test]
    fn quadratic_is_symmetric_and_accumulates() {
        let mut q = Qubo::new(2);
        q.add_quadratic(1, 0, 2.0);
        q.add_quadratic(0, 1, 3.0);
        assert_eq!(q.quadratic(0, 1), 5.0);
        assert_eq!(q.quadratic(1, 0), 5.0);
        assert_eq!(q.num_quadratic_terms(), 1);
    }

    #[test]
    fn diagonal_quadratic_folds_into_linear() {
        let mut q = Qubo::new(1);
        q.add_quadratic(0, 0, 4.0);
        assert_eq!(q.linear(0), 4.0);
        assert_eq!(q.num_quadratic_terms(), 0);
    }

    #[test]
    fn energy_rejects_wrong_length() {
        let q = toy();
        assert!(matches!(
            q.energy(&[true, false]),
            Err(QuboError::AssignmentLength { got: 2, expected: 3 })
        ));
    }

    #[test]
    fn prune_zeros_drops_cancelled_terms() {
        let mut q = Qubo::new(2);
        q.add_quadratic(0, 1, 2.0);
        q.add_quadratic(0, 1, -2.0);
        assert_eq!(q.num_quadratic_terms(), 1);
        assert_eq!(q.num_interactions(), 0);
        q.prune_zeros();
        assert_eq!(q.num_quadratic_terms(), 0);
    }

    #[test]
    fn compiled_energy_matches_builder_energy() {
        let q = toy();
        let c = q.compile();
        for bits in 0..8u32 {
            let x: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(q.energy(&x).unwrap(), c.energy(&x));
        }
    }

    #[test]
    fn flip_gain_matches_energy_difference() {
        let q = toy();
        let c = q.compile();
        for bits in 0..8u32 {
            let x: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            for i in 0..3 {
                let mut y = x.clone();
                y[i] = !y[i];
                let expected = c.energy(&y) - c.energy(&x);
                assert!((c.flip_gain(&x, i) - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn flip_gain_keeps_a_negative_zero_partial_sum() {
        // `Qubo`'s additive builder never stores −0.0, so set it directly:
        // with no neighbour set, the partial sum stays −0.0, which an
        // addend of +0.0 for unset neighbours would turn into +0.0.
        let mut q = Qubo::new(3);
        q.add_quadratic(0, 1, 2.0);
        q.add_quadratic(0, 2, -1.0);
        q.linear[0] = -0.0;
        let c = q.compile();
        assert_eq!(c.flip_gain(&[false, false, false], 0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(c.flip_gain(&[true, false, false], 0).to_bits(), 0.0f64.to_bits());
        assert_eq!(c.flip_gain(&[false, true, true], 0).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn ising_round_trip_preserves_energy() {
        let q = toy();
        let ising = q.to_ising();
        for bits in 0..8u32 {
            let x: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let s: Vec<i8> = x.iter().map(|&b| if b { 1 } else { -1 }).collect();
            let eq = q.energy(&x).unwrap();
            let ei = ising.energy(&s);
            assert!((eq - ei).abs() < 1e-12, "x={x:?}: {eq} vs {ei}");
        }
    }

    #[test]
    fn validate_flags_non_finite() {
        let mut q = Qubo::new(2);
        q.add_linear(0, f64::NAN);
        assert!(q.validate().is_err());

        let mut q = Qubo::new(2);
        q.add_quadratic(0, 1, f64::INFINITY);
        assert!(q.validate().is_err());

        assert!(toy().validate().is_ok());
    }

    #[test]
    fn max_abs_coefficient_scans_all_terms() {
        let q = toy();
        assert_eq!(q.max_abs_coefficient(), 4.0);
        assert_eq!(Qubo::new(3).max_abs_coefficient(), 0.0);
    }
}
