//! Spin-glass (Ising) form of a QUBO.
//!
//! Both QPU families in the paper natively minimise an Ising Hamiltonian
//!
//! ```text
//! H(s) = offset + Σ_i h_i s_i + Σ_{i<j} J_ij s_i s_j ,    s_i ∈ {−1, +1}.
//! ```
//!
//! The gate-based backend turns `h`/`J` into RZ / RZZ rotations of the QAOA
//! cost operator; the annealing backend programs them as qubit biases and
//! coupler strengths.

use std::collections::BTreeMap;

use crate::model::Qubo;

/// An Ising model over spins `s ∈ {−1,+1}^n`.
#[derive(Debug, Clone, PartialEq)]
pub struct IsingModel {
    h: Vec<f64>,
    j: BTreeMap<(u32, u32), f64>,
    offset: f64,
}

impl IsingModel {
    /// Builds an Ising model from raw parts. Keys of `j` must satisfy `i < j`.
    pub fn from_parts(h: Vec<f64>, j: BTreeMap<(u32, u32), f64>, offset: f64) -> Self {
        debug_assert!(j.keys().all(|&(a, b)| a < b && (b as usize) < h.len()));
        IsingModel { h, j, offset }
    }

    /// Creates a zero model over `n` spins.
    pub fn new(n: usize) -> Self {
        IsingModel { h: vec![0.0; n], j: BTreeMap::new(), offset: 0.0 }
    }

    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.h.len()
    }

    /// Constant term.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Field (linear bias) on spin `i`.
    pub fn field(&self, i: usize) -> f64 {
        self.h[i]
    }

    /// Coupling between spins `i` and `j` (0.0 when absent).
    pub fn coupling(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        self.j.get(&(i.min(j) as u32, i.max(j) as u32)).copied().unwrap_or(0.0)
    }

    /// Adds `value` to the field on spin `i`.
    pub fn add_field(&mut self, i: usize, value: f64) {
        self.h[i] += value;
    }

    /// Adds `value` to the coupling of pair `{i, j}` (`i != j`).
    pub fn add_coupling(&mut self, i: usize, j: usize, value: f64) {
        assert_ne!(i, j, "self-coupling is not representable; fold into the offset");
        let key = (i.min(j) as u32, i.max(j) as u32);
        *self.j.entry(key).or_insert(0.0) += value;
    }

    /// Iterates couplings as `(i, j, J_ij)` with `i < j`.
    pub fn couplings(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.j.iter().map(|(&(i, j), &v)| (i as usize, j as usize, v))
    }

    /// Iterates fields as `(i, h_i)`, including zeros.
    pub fn fields(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.h.iter().copied().enumerate()
    }

    /// Energy of a spin configuration.
    pub fn energy(&self, s: &[i8]) -> f64 {
        debug_assert_eq!(s.len(), self.h.len());
        let mut e = self.offset;
        for (i, &hi) in self.h.iter().enumerate() {
            e += hi * f64::from(s[i]);
        }
        for (&(i, j), &jij) in &self.j {
            e += jij * f64::from(s[i as usize]) * f64::from(s[j as usize]);
        }
        e
    }

    /// Largest absolute field or coupling.
    pub fn max_abs_coefficient(&self) -> f64 {
        let hmax = self.h.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let jmax = self.j.values().fold(0.0_f64, |m, v| m.max(v.abs()));
        hmax.max(jmax)
    }

    /// Converts back to QUBO form with `x_i = (1 + s_i) / 2`.
    ///
    /// Exact inverse of [`Qubo::to_ising`] up to floating-point rounding.
    pub fn to_qubo(&self) -> Qubo {
        let n = self.h.len();
        let mut q = Qubo::new(n);
        let mut offset = self.offset;
        for (i, &hi) in self.h.iter().enumerate() {
            // h s = h (2x - 1)
            q.add_linear(i, 2.0 * hi);
            offset -= hi;
        }
        for (&(i, j), &jij) in &self.j {
            // J s_i s_j = J (2x_i - 1)(2x_j - 1)
            q.add_quadratic(i as usize, j as usize, 4.0 * jij);
            q.add_linear(i as usize, -2.0 * jij);
            q.add_linear(j as usize, -2.0 * jij);
            offset += jij;
        }
        q.add_offset(offset);
        q
    }

    /// Rescales all fields and couplings by `factor` (offset untouched).
    ///
    /// Annealers have a bounded programmable range; problems are normalised
    /// to it before embedding.
    pub fn scale(&mut self, factor: f64) {
        for h in &mut self.h {
            *h *= factor;
        }
        for v in self.j.values_mut() {
            *v *= factor;
        }
    }

    /// Compiles into adjacency (CSR) form for fast incremental solvers.
    ///
    /// Mirrors [`Qubo::compile`]: the coupling map is flattened into
    /// row-start / column / weight arrays so that sweeping solvers (SQA,
    /// parallel tempering) can walk a spin's neighbourhood without hashing
    /// and evaluate flip costs in O(degree).
    pub fn compile(&self) -> CompiledIsing {
        let n = self.h.len();
        let mut neighbor_counts = vec![0usize; n];
        for (&(i, j), &v) in &self.j {
            if v != 0.0 {
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
        for (&(i, j), &v) in &self.j {
            if v != 0.0 {
                cols[cursor[i as usize]] = j;
                weights[cursor[i as usize]] = v;
                cursor[i as usize] += 1;
                cols[cursor[j as usize]] = i;
                weights[cursor[j as usize]] = v;
                cursor[j as usize] += 1;
            }
        }
        CompiledIsing {
            num_spins: n,
            offset: self.offset,
            fields: self.h.clone(),
            row_starts,
            cols,
            weights,
        }
    }
}

/// One coefficient of a [`CompiledIsing`], as visited by
/// [`CompiledIsing::perturb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsingTerm {
    /// The field `h_i`.
    Field(usize),
    /// The coupling `J_ij` with `i < j`.
    Coupling(usize, usize),
}

/// An [`IsingModel`] flattened into CSR adjacency form.
///
/// Supports the O(degree) primitives that dominate annealing inner loops:
/// the *local field* `Σ_j J_ij s_j` seen by one spin, and the exact energy
/// change of flipping it. The BTreeMap coupling store of [`IsingModel`] is
/// great for accumulation but pays a pointer chase per neighbour; the CSR
/// form is built once per anneal and then read millions of times.
#[derive(Debug, Clone)]
pub struct CompiledIsing {
    num_spins: usize,
    offset: f64,
    fields: Vec<f64>,
    row_starts: Vec<usize>,
    cols: Vec<u32>,
    weights: Vec<f64>,
}

impl CompiledIsing {
    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.num_spins
    }

    /// Constant term.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Field (linear bias) on spin `i`.
    pub fn field(&self, i: usize) -> f64 {
        self.fields[i]
    }

    /// Neighbours of spin `i` with their coupling strengths.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.row_starts[i]..self.row_starts[i + 1];
        self.cols[range.clone()].iter().zip(&self.weights[range]).map(|(&c, &w)| (c as usize, w))
    }

    /// Coupling contribution `Σ_j J_ij s_j` felt by spin `i` (field excluded).
    pub fn local_field(&self, s: &[i8], i: usize) -> f64 {
        let mut acc = 0.0;
        for (j, w) in self.neighbors(i) {
            acc += w * f64::from(s[j]);
        }
        acc
    }

    /// Energy change from flipping spin `i` in configuration `s`.
    ///
    /// `ΔE = −2 s_i (h_i + Σ_j J_ij s_j)`, the Ising analogue of
    /// [`crate::CompiledQubo::flip_gain`].
    pub fn flip_delta(&self, s: &[i8], i: usize) -> f64 {
        -2.0 * f64::from(s[i]) * (self.fields[i] + self.local_field(s, i))
    }

    /// Applies a spin-reversal gauge in place: `h_i ← g_i·h_i`,
    /// `J_ij ← g_i·g_j·J_ij`. Signs must be ±1; the transform is exact
    /// (multiplying by ±1 never rounds) and keeps the CSR mirror entries
    /// equal because the product is symmetric in `i` and `j`.
    pub fn apply_gauge(&mut self, signs: &[i8]) {
        assert_eq!(signs.len(), self.num_spins, "gauge size mismatch");
        for (h, &g) in self.fields.iter_mut().zip(signs) {
            *h *= f64::from(g);
        }
        for i in 0..self.num_spins {
            let gi = f64::from(signs[i]);
            let range = self.row_starts[i]..self.row_starts[i + 1];
            for (w, &j) in self.weights[range.clone()].iter_mut().zip(&self.cols[range]) {
                *w *= gi * f64::from(signs[j as usize]);
            }
        }
    }

    /// Rewrites every coefficient in place through `f`, visiting fields in
    /// index order and then couplings in `(i < j)` lexicographic order —
    /// the same order [`IsingModel::couplings`] iterates, so an `f` that
    /// draws random numbers consumes its stream identically to a rebuild
    /// of the uncompiled model. Each coupling is visited once; the CSR
    /// mirror entry receives the same rewritten value.
    pub fn perturb(&mut self, mut f: impl FnMut(IsingTerm, f64) -> f64) {
        for (i, h) in self.fields.iter_mut().enumerate() {
            *h = f(IsingTerm::Field(i), *h);
        }
        for i in 0..self.num_spins {
            let row = self.row_starts[i]..self.row_starts[i + 1];
            // Columns in a row are sorted ascending, so the `j > i`
            // entries form the row's suffix.
            let upper = self.cols[row.clone()].partition_point(|&j| (j as usize) <= i);
            for e in row.start + upper..row.end {
                let j = self.cols[e] as usize;
                let w = f(IsingTerm::Coupling(i, j), self.weights[e]);
                self.weights[e] = w;
                let jrow = self.row_starts[j]..self.row_starts[j + 1];
                let back = jrow.start
                    + self.cols[jrow]
                        .binary_search(&(i as u32))
                        .expect("CSR adjacency is symmetric");
                self.weights[back] = w;
            }
        }
    }

    /// Full energy of a spin configuration (O(n + m)).
    pub fn energy(&self, s: &[i8]) -> f64 {
        debug_assert_eq!(s.len(), self.num_spins);
        let mut e = self.offset;
        for (i, &hi) in self.fields.iter().enumerate() {
            e += hi * f64::from(s[i]);
        }
        // Each edge is stored twice in CSR; count pairs once via j > i.
        for i in 0..self.num_spins {
            let si = f64::from(s[i]);
            for (j, w) in self.neighbors(i) {
                if j > i {
                    e += w * si * f64::from(s[j]);
                }
            }
        }
        e
    }
}

/// Converts a binary assignment to spins (`true → +1`).
pub fn bits_to_spins(x: &[bool]) -> Vec<i8> {
    x.iter().map(|&b| if b { 1 } else { -1 }).collect()
}

/// Converts spins to a binary assignment (`+1 → true`).
pub fn spins_to_bits(s: &[i8]) -> Vec<bool> {
    s.iter().map(|&v| v > 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubo_ising_qubo_round_trip() {
        let mut q = Qubo::new(3);
        q.add_offset(0.5);
        q.add_linear(0, 1.5);
        q.add_linear(2, -2.0);
        q.add_quadratic(0, 1, 3.0);
        q.add_quadratic(1, 2, -1.0);

        let back = q.to_ising().to_qubo();
        for bits in 0..8u32 {
            let x: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let a = q.energy(&x).unwrap();
            let b = back.energy(&x).unwrap();
            assert!((a - b).abs() < 1e-12, "x={x:?}: {a} vs {b}");
        }
    }

    #[test]
    fn energy_of_uniform_spins() {
        let mut m = IsingModel::new(2);
        m.add_field(0, 1.0);
        m.add_field(1, -0.5);
        m.add_coupling(0, 1, 2.0);
        assert_eq!(m.energy(&[1, 1]), 1.0 - 0.5 + 2.0);
        assert_eq!(m.energy(&[-1, 1]), -1.0 - 0.5 - 2.0);
    }

    #[test]
    fn coupling_accumulates_symmetrically() {
        let mut m = IsingModel::new(3);
        m.add_coupling(2, 0, 1.0);
        m.add_coupling(0, 2, 0.5);
        assert_eq!(m.coupling(0, 2), 1.5);
        assert_eq!(m.coupling(2, 0), 1.5);
        assert_eq!(m.couplings().collect::<Vec<_>>(), vec![(0, 2, 1.5)]);
    }

    #[test]
    #[should_panic(expected = "self-coupling")]
    fn self_coupling_panics() {
        IsingModel::new(2).add_coupling(1, 1, 1.0);
    }

    #[test]
    fn scale_rescales_h_and_j_only() {
        let mut m = IsingModel::new(2);
        m.add_field(0, 2.0);
        m.add_coupling(0, 1, -4.0);
        let mut scaled = m.clone();
        scaled.scale(0.25);
        assert_eq!(scaled.field(0), 0.5);
        assert_eq!(scaled.coupling(0, 1), -1.0);
        assert_eq!(scaled.offset(), m.offset());
    }

    #[test]
    fn spin_bit_conversions_invert() {
        let x = vec![true, false, true, true];
        assert_eq!(spins_to_bits(&bits_to_spins(&x)), x);
        assert_eq!(bits_to_spins(&x), vec![1, -1, 1, 1]);
    }

    #[test]
    fn max_abs_coefficient_covers_fields_and_couplings() {
        let mut m = IsingModel::new(2);
        m.add_field(1, -3.0);
        m.add_coupling(0, 1, 2.0);
        assert_eq!(m.max_abs_coefficient(), 3.0);
    }

    fn compiled_toy() -> IsingModel {
        let mut m = IsingModel::new(4);
        m.add_field(0, 0.75);
        m.add_field(2, -1.25);
        m.add_coupling(0, 1, 1.5);
        m.add_coupling(1, 2, -0.5);
        m.add_coupling(0, 3, 2.0);
        m.add_coupling(2, 3, 0.25);
        m
    }

    #[test]
    fn compiled_energy_matches_model_energy() {
        let m = compiled_toy();
        let c = m.compile();
        for bits in 0..16u32 {
            let s: Vec<i8> = (0..4).map(|i| if bits >> i & 1 == 1 { 1 } else { -1 }).collect();
            let a = m.energy(&s);
            let b = c.energy(&s);
            assert!((a - b).abs() < 1e-12, "s={s:?}: {a} vs {b}");
        }
    }

    #[test]
    fn compiled_flip_delta_matches_energy_difference() {
        let m = compiled_toy();
        let c = m.compile();
        for bits in 0..16u32 {
            let s: Vec<i8> = (0..4).map(|i| if bits >> i & 1 == 1 { 1 } else { -1 }).collect();
            for i in 0..4 {
                let mut t = s.clone();
                t[i] = -t[i];
                let expected = c.energy(&t) - c.energy(&s);
                let got = c.flip_delta(&s, i);
                assert!((got - expected).abs() < 1e-12, "i={i} s={s:?}: {got} vs {expected}");
            }
        }
    }

    #[test]
    fn compiled_neighbors_skip_cancelled_couplings() {
        let mut m = IsingModel::new(3);
        m.add_coupling(0, 1, 1.0);
        m.add_coupling(0, 1, -1.0); // cancels to exact zero
        m.add_coupling(1, 2, 0.5);
        let c = m.compile();
        assert_eq!(c.neighbors(0).count(), 0);
        assert_eq!(c.neighbors(1).collect::<Vec<_>>(), vec![(2, 0.5)]);
        assert_eq!(c.num_spins(), 3);
    }

    fn glassy_model() -> IsingModel {
        let mut m = IsingModel::new(5);
        m.add_field(0, 0.75);
        m.add_field(3, -1.25);
        m.add_coupling(0, 1, 1.0);
        m.add_coupling(1, 2, -0.5);
        m.add_coupling(0, 4, 0.25);
        m.add_coupling(2, 4, 2.0);
        m.add_coupling(3, 4, -1.5);
        m
    }

    fn all_spin_configs(n: usize) -> impl Iterator<Item = Vec<i8>> {
        (0..1u32 << n)
            .map(move |bits| (0..n).map(|i| if bits >> i & 1 == 1 { 1 } else { -1 }).collect())
    }

    #[test]
    fn apply_gauge_matches_flipping_the_spins() {
        // E_gauged(s) must equal E(g ⊙ s): gauging the coefficients is the
        // same change of variables as flipping the spins.
        let model = glassy_model();
        let signs = [1i8, -1, -1, 1, -1];
        let mut gauged = model.compile();
        gauged.apply_gauge(&signs);
        let plain = model.compile();
        for s in all_spin_configs(5) {
            let flipped: Vec<i8> = s.iter().zip(signs).map(|(&v, g)| v * g).collect();
            assert_eq!(gauged.energy(&s), plain.energy(&flipped));
        }
    }

    #[test]
    fn perturb_visits_couplings_once_in_model_order_and_mirrors_values() {
        let model = glassy_model();
        let mut compiled = model.compile();
        let mut visited = Vec::new();
        compiled.perturb(|term, v| match term {
            IsingTerm::Field(i) => {
                assert_eq!(v, model.field(i));
                v
            }
            IsingTerm::Coupling(i, j) => {
                assert!(i < j, "couplings visit with i < j, got ({i},{j})");
                assert_eq!(v, model.coupling(i, j));
                visited.push((i, j));
                v + 1.0
            }
        });
        let expected: Vec<(usize, usize)> = model.couplings().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(visited, expected, "one visit per coupling, lexicographic");
        // Both CSR mirror entries carry the rewritten value.
        for (i, j, v) in model.couplings() {
            let forward = compiled.neighbors(i).find(|&(c, _)| c == j).expect("entry").1;
            let back = compiled.neighbors(j).find(|&(c, _)| c == i).expect("mirror").1;
            assert_eq!(forward, v + 1.0);
            assert_eq!(back, v + 1.0);
        }
    }
}
