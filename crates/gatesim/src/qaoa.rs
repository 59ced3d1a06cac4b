//! The Quantum Approximate Optimisation Algorithm (QAOA).
//!
//! QAOA prepares `|+⟩^{⊗n}` and alternates `p` times between the *cost
//! operator* `e^{−iγ H}` (diagonal, derived from the problem Ising
//! Hamiltonian) and the *mixer* `e^{−iβ Σ X_i}`. Measuring yields low-energy
//! assignments with enhanced probability; a classical optimiser tunes the
//! `2p` parameters between iterations (Farhi et al., 2014).
//!
//! Two execution paths are provided:
//!
//! * [`qaoa_circuit`] constructs the explicit gate sequence (H layer, RZ/RZZ
//!   cost network, RX mixer) — this is what gets transpiled onto hardware
//!   topologies and fed to the noisy simulator.
//! * [`QaoaSimulator`] evaluates the same unitary without a circuit, for the
//!   classical parameter-optimisation loop:
//!   - at `p = 1`, [`QaoaSimulator::expectation`] is closed-form: each
//!     `⟨s_u⟩` and `⟨s_u s_v⟩` is a product of sines and cosines over the
//!     spins' couplings (Ozaeta, van Dam & McMahon, "Expectation values from
//!     the single-layer quantum approximate optimization algorithm on Ising
//!     problems", arXiv:2012.03421), so one evaluation costs O(|E|·n)
//!     arithmetic and touches no state vector;
//!   - at `p ≥ 2`, and for [`QaoaSimulator::state`] and
//!     [`QaoaSimulator::sample`] at any depth, the state vector is evolved
//!     through a [`DiagonalHamiltonian`], built on first use: each cost layer
//!     costs one `e^{−iγE}` per *distinct* energy level plus one gather per
//!     basis state.
//!
//! The two expectation paths agree up to rounding. At the γ gradient descent
//! reaches on join-ordering QUBOs (up to about 10⁶) that rounding is of order
//! `γ·Σ|coef|·ε` relative, which is enough to send a chaotic optimiser to a
//! different endpoint; neither path is the more exact one.

use std::collections::HashMap;
use std::sync::OnceLock;

use rand::RngExt;

use qjo_qubo::{IsingModel, Qubo};

use crate::circuit::Circuit;
use crate::complex::C64;
use crate::gate::Gate;
use crate::statevector::{count_pass, StateVector};

/// A problem Hamiltonian that is diagonal in the computational basis,
/// stored as its distinct energy levels plus a level index per basis
/// state.
///
/// The level contract:
///
/// * [`levels`](Self::levels) holds each distinct energy exactly once,
///   distinct by bit pattern, in the order the construction first meets
///   them;
/// * [`level_of`](Self::level_of)`[z]` is the level of basis state `z`, and
///   every level is referenced by at least one basis state;
/// * [`energy`](Self::energy)`(z)` is `levels[level_of[z]]`, the exact `f64`
///   the O(2^n · m) Gray-code walk over the QUBO computes for `z`.
///
/// QUBOs from join ordering have a few hundred levels over 2^19 states, so
/// a cost layer evaluates a few hundred `cis` instead of one per basis
/// state. It multiplies amplitude `z` by the phase of `energy(z)` and the
/// expectation sums `|a_z|²·energy(z)` in basis-index order, so both are
/// bit-identical to a dense per-state energy table.
#[derive(Debug, Clone)]
pub struct DiagonalHamiltonian {
    num_qubits: usize,
    levels: Vec<f64>,
    level_of: Vec<u32>,
}

impl DiagonalHamiltonian {
    /// Tabulates the energy level of a QUBO for every basis state.
    ///
    /// Basis index `z` assigns variable `i` the bit `z >> i & 1`.
    pub fn from_qubo(qubo: &Qubo) -> Self {
        let n = qubo.num_vars();
        assert!(n <= 30, "level table for {n} qubits will not fit in memory");
        let compiled = qubo.compile();
        let mut levels = Vec::new();
        let mut index_of_bits: HashMap<u64, u32> = HashMap::new();
        let mut intern = |e: f64| {
            *index_of_bits.entry(e.to_bits()).or_insert_with(|| {
                levels.push(e);
                (levels.len() - 1) as u32
            })
        };
        let mut level_of = vec![0u32; 1usize << n];
        let mut x = vec![false; n];
        let mut e = qubo.offset();
        level_of[0] = intern(e);
        let mut gray = 0usize;
        for step in 1..1usize << n {
            let flip = step.trailing_zeros() as usize;
            e += compiled.flip_gain(&x, flip);
            x[flip] = !x[flip];
            gray ^= 1 << flip;
            level_of[gray] = intern(e);
        }
        DiagonalHamiltonian { num_qubits: n, levels, level_of }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The distinct energy levels, each once.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// The level index of every basis state (length `2^n`).
    pub fn level_of(&self) -> &[u32] {
        &self.level_of
    }

    /// Energy of one basis state.
    pub fn energy(&self, z: usize) -> f64 {
        self.levels[self.level_of[z] as usize]
    }

    /// The ground-state energy.
    pub fn min_energy(&self) -> f64 {
        self.levels.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The cost operator `e^{−iγH}`: multiplies amplitude `z` by
    /// `e^{−iγ·energy(z)}`, evaluating one phase per level.
    fn apply_cost(&self, state: &mut StateVector, gamma: f64) {
        assert_eq!(state.num_qubits(), self.num_qubits, "state/Hamiltonian size mismatch");
        count_pass();
        let phases: Vec<C64> = self.levels.iter().map(|&e| C64::cis(-gamma * e)).collect();
        for (amp, &level) in state.amplitudes_mut().iter_mut().zip(&self.level_of) {
            *amp *= phases[level as usize];
        }
    }

    /// `⟨ψ|H|ψ⟩`, summed in basis-index order.
    fn expectation(&self, state: &StateVector) -> f64 {
        assert_eq!(state.num_qubits(), self.num_qubits, "state/Hamiltonian size mismatch");
        count_pass();
        state
            .amplitudes()
            .iter()
            .zip(&self.level_of)
            .map(|(a, &level)| a.norm_sqr() * self.levels[level as usize])
            .sum()
    }
}

/// The `2p` variational parameters of a depth-`p` QAOA ansatz.
#[derive(Debug, Clone, PartialEq)]
pub struct QaoaParams {
    /// Cost-operator angles, one per layer.
    pub gammas: Vec<f64>,
    /// Mixer angles, one per layer.
    pub betas: Vec<f64>,
}

impl QaoaParams {
    /// Creates parameters for `p` layers from a flat `[γ..., β...]` vector.
    pub fn from_flat(p: usize, flat: &[f64]) -> Self {
        assert_eq!(flat.len(), 2 * p, "expected 2p = {} parameters", 2 * p);
        QaoaParams { gammas: flat[..p].to_vec(), betas: flat[p..].to_vec() }
    }

    /// Flattens to `[γ..., β...]`.
    pub fn to_flat(&self) -> Vec<f64> {
        self.gammas.iter().chain(&self.betas).copied().collect()
    }

    /// Number of layers.
    ///
    /// # Panics
    ///
    /// If `gammas` and `betas` differ in length: every layer needs one
    /// angle of each.
    pub fn p(&self) -> usize {
        assert_eq!(
            self.gammas.len(),
            self.betas.len(),
            "QaoaParams needs one gamma and one beta per layer, got {} gammas and {} betas",
            self.gammas.len(),
            self.betas.len()
        );
        self.gammas.len()
    }
}

impl QaoaParams {
    /// The INTERP warm start (Zhou et al.): extends an optimised depth-`p`
    /// schedule to depth `p + 1` by linear interpolation of the angle
    /// sequences — empirically a far better starting point than random
    /// restarts when sweeping depth.
    pub fn interpolate_to(&self, new_p: usize) -> QaoaParams {
        assert!(new_p >= self.p(), "can only extend to a deeper schedule");
        let stretch = |angles: &[f64]| -> Vec<f64> {
            let p = angles.len();
            if p == 0 {
                return vec![0.0; new_p];
            }
            if new_p == p {
                return angles.to_vec();
            }
            (0..new_p)
                .map(|i| {
                    // Map layer i of the new schedule onto fractional
                    // position of the old one.
                    let pos = if new_p == 1 {
                        0.0
                    } else {
                        i as f64 * (p - 1) as f64 / (new_p - 1) as f64
                    };
                    let lo = pos.floor() as usize;
                    let hi = (lo + 1).min(p - 1);
                    let frac = pos - lo as f64;
                    angles[lo] * (1.0 - frac) + angles[hi] * frac
                })
                .collect()
        };
        QaoaParams { gammas: stretch(&self.gammas), betas: stretch(&self.betas) }
    }
}

/// Builds the explicit QAOA circuit for an Ising Hamiltonian.
///
/// Uses the spin convention `s_i = +1` for bit 1 (so `s_i = −Z_i`), giving
/// cost gates `RZ_i(−2γ h_i)` and `RZZ_ij(2γ J_ij)`; the mixer layer is
/// `RX(2β)` on every qubit.
pub fn qaoa_circuit(ising: &IsingModel, params: &QaoaParams) -> Circuit {
    let n = ising.num_spins();
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(Gate::H(q));
    }
    for layer in 0..params.p() {
        let gamma = params.gammas[layer];
        let beta = params.betas[layer];
        for (i, h) in ising.fields() {
            if h != 0.0 {
                c.push(Gate::Rz(i, -2.0 * gamma * h));
            }
        }
        for (i, j, jij) in ising.couplings() {
            if jij != 0.0 {
                c.push(Gate::Rzz(i, j, 2.0 * gamma * jij));
            }
        }
        for q in 0..n {
            c.push(Gate::Rx(q, 2.0 * beta));
        }
    }
    c
}

/// The closed-form `p = 1` expectation of an Ising model (spin `s = +1` for
/// bit 1), after Ozaeta, van Dam & McMahon (arXiv:2012.03421):
///
/// ```text
/// ⟨s_u⟩     = sin 2β · sin 2γh_u · Π_{w≠u} cos 2γJ_uw
/// ⟨s_u s_v⟩ = ½ sin 4β · sin 2γJ_uv · [cos 2γh_u · Π_{w∉{u,v}} cos 2γJ_uw
///                                     + cos 2γh_v · Π_{w∉{u,v}} cos 2γJ_vw]
///           − ½ sin² 2β · [cos 2γ(h_u+h_v) · Π_{w∉{u,v}} cos 2γ(J_uw+J_vw)
///                          − cos 2γ(h_u−h_v) · Π_{w∉{u,v}} cos 2γ(J_uw−J_vw)]
/// ```
///
/// Every angle sum comes by angle addition from one `sin_cos` per field and
/// per coupling.
#[derive(Debug, Clone)]
struct SingleLayer {
    offset: f64,
    fields: Vec<f64>,
    /// `(u, v, J_uv)` for every non-zero coupling, `u < v`.
    couplings: Vec<(usize, usize, f64)>,
}

impl SingleLayer {
    fn new(ising: &IsingModel) -> Self {
        SingleLayer {
            offset: ising.offset(),
            fields: (0..ising.num_spins()).map(|i| ising.field(i)).collect(),
            couplings: ising.couplings().filter(|&(_, _, j)| j != 0.0).collect(),
        }
    }

    /// `offset + Σ h_u⟨s_u⟩ + Σ J_uv⟨s_u s_v⟩` in O(|E|·n).
    fn expectation(&self, gamma: f64, beta: f64) -> f64 {
        let n = self.fields.len();
        // (sin, cos) of 2γJ_uw as a dense matrix, (0, 1) where J_uw = 0.
        let mut coupling = vec![(0.0, 1.0); n * n];
        for &(u, v, j) in &self.couplings {
            let sc = (2.0 * gamma * j).sin_cos();
            coupling[u * n + v] = sc;
            coupling[v * n + u] = sc;
        }
        let field: Vec<(f64, f64)> =
            self.fields.iter().map(|&h| (2.0 * gamma * h).sin_cos()).collect();
        let (sin_2b, sin_4b) = ((2.0 * beta).sin(), (4.0 * beta).sin());

        let mut e = self.offset;
        for (u, &h) in self.fields.iter().enumerate() {
            let cos_prod: f64 = coupling[u * n..(u + 1) * n].iter().map(|&(_, c)| c).product();
            e += h * sin_2b * field[u].0 * cos_prod;
        }
        for &(u, v, j) in &self.couplings {
            let (mut prod_u, mut prod_v, mut prod_sum, mut prod_diff) = (1.0, 1.0, 1.0, 1.0);
            for w in (0..n).filter(|&w| w != u && w != v) {
                let (su, cu) = coupling[u * n + w];
                let (sv, cv) = coupling[v * n + w];
                prod_u *= cu;
                prod_v *= cv;
                prod_sum *= cu * cv - su * sv;
                prod_diff *= cu * cv + su * sv;
            }
            let ((sh_u, ch_u), (sh_v, ch_v)) = (field[u], field[v]);
            let linear = 0.5 * sin_4b * coupling[u * n + v].0 * (ch_u * prod_u + ch_v * prod_v);
            let quadratic = 0.5
                * sin_2b
                * sin_2b
                * ((ch_u * ch_v - sh_u * sh_v) * prod_sum
                    - (ch_u * ch_v + sh_u * sh_v) * prod_diff);
            e += j * (linear - quadratic);
        }
        e
    }
}

/// Noiseless QAOA evaluation: closed-form `⟨H⟩` at `p = 1`, and the state
/// vector through the diagonal Hamiltonian's levels otherwise.
#[derive(Debug, Clone)]
pub struct QaoaSimulator {
    qubo: Qubo,
    single_layer: SingleLayer,
    /// Built on first use of [`Self::hamiltonian`], [`Self::state`] or
    /// [`Self::sample`], so a `p = 1` parameter loop never pays for it.
    hamiltonian: OnceLock<DiagonalHamiltonian>,
}

impl QaoaSimulator {
    /// Creates a simulator for the given QUBO problem.
    pub fn new(qubo: &Qubo) -> Self {
        QaoaSimulator {
            qubo: qubo.clone(),
            single_layer: SingleLayer::new(&qubo.to_ising()),
            hamiltonian: OnceLock::new(),
        }
    }

    /// The underlying diagonal Hamiltonian, tabulated on first call.
    pub fn hamiltonian(&self) -> &DiagonalHamiltonian {
        self.hamiltonian.get_or_init(|| DiagonalHamiltonian::from_qubo(&self.qubo))
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.qubo.num_vars()
    }

    /// Prepares the QAOA state for the given parameters.
    pub fn state(&self, params: &QaoaParams) -> StateVector {
        let n = self.num_qubits();
        let hamiltonian = self.hamiltonian();
        let mut s = StateVector::plus(n);
        for layer in 0..params.p() {
            hamiltonian.apply_cost(&mut s, params.gammas[layer]);
            let beta = params.betas[layer];
            for q in 0..n {
                s.apply(Gate::Rx(q, 2.0 * beta));
            }
        }
        s
    }

    /// `⟨ψ(γ,β)| H |ψ(γ,β)⟩` — the objective the classical loop minimises.
    ///
    /// Closed-form at `p = 1`; the state vector's probability-weighted
    /// energy sum at any other depth.
    pub fn expectation(&self, params: &QaoaParams) -> f64 {
        if params.p() == 1 {
            return self.single_layer.expectation(params.gammas[0], params.betas[0]);
        }
        self.hamiltonian().expectation(&self.state(params))
    }

    /// Samples measurement shots from the QAOA state, packed one row per
    /// shot. The state is evolved and its [`BasisSampler`] built once for
    /// the whole batch.
    ///
    /// [`BasisSampler`]: crate::statevector::BasisSampler
    pub fn sample<R: RngExt + ?Sized>(
        &self,
        params: &QaoaParams,
        shots: usize,
        rng: &mut R,
    ) -> crate::shots::ShotBuffer {
        self.state(params).sample(rng, shots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn antiferro_pair() -> Qubo {
        // min -x0 - x1 + 2 x0 x1: ground states 01 and 10 at energy -1.
        let mut q = Qubo::new(2);
        q.add_linear(0, -1.0);
        q.add_linear(1, -1.0);
        q.add_quadratic(0, 1, 2.0);
        q
    }

    #[test]
    fn energy_table_matches_direct_evaluation() {
        let q = antiferro_pair();
        let h = DiagonalHamiltonian::from_qubo(&q);
        for z in 0..4usize {
            let x: Vec<bool> = (0..2).map(|i| z >> i & 1 == 1).collect();
            assert!((h.energy(z) - q.energy(&x).unwrap()).abs() < 1e-12);
        }
        assert_eq!(h.min_energy(), -1.0);
    }

    #[test]
    fn levels_intern_each_distinct_energy_once() {
        // The pair has energies 0 (z = 0), -1 (z = 1, 2) and 0 (z = 3).
        let h = DiagonalHamiltonian::from_qubo(&antiferro_pair());
        assert_eq!(h.levels(), &[0.0, -1.0]);
        assert_eq!(h.level_of(), &[0, 1, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "one gamma and one beta per layer, got 2 gammas and 1 betas")]
    fn state_rejects_more_gammas_than_betas() {
        let sim = QaoaSimulator::new(&antiferro_pair());
        sim.state(&QaoaParams { gammas: vec![0.1, 0.2], betas: vec![0.3] });
    }

    #[test]
    #[should_panic(expected = "one gamma and one beta per layer, got 1 gammas and 2 betas")]
    fn circuit_rejects_more_betas_than_gammas() {
        let ising = antiferro_pair().to_ising();
        qaoa_circuit(&ising, &QaoaParams { gammas: vec![0.1], betas: vec![0.2, 0.3] });
    }

    #[test]
    fn level_table_is_built_on_first_state_vector_use_only() {
        let sim = QaoaSimulator::new(&antiferro_pair());
        let params = QaoaParams { gammas: vec![0.3], betas: vec![0.2] };
        assert!(sim.expectation(&params).is_finite());
        assert!(sim.hamiltonian.get().is_none(), "p = 1 needs no level table");
        sim.state(&params);
        assert!(sim.hamiltonian.get().is_some());
    }

    #[test]
    fn zero_parameters_leave_uniform_state() {
        let q = antiferro_pair();
        let sim = QaoaSimulator::new(&q);
        let params = QaoaParams { gammas: vec![0.0], betas: vec![0.0] };
        let s = sim.state(&params);
        for p in s.probabilities() {
            assert!((p - 0.25).abs() < 1e-12);
        }
        // Expectation at zero parameters = mean energy.
        let mean: f64 = (0..4).map(|z| sim.hamiltonian().energy(z)).sum::<f64>() / 4.0;
        assert!((sim.expectation(&params) - mean).abs() < 1e-12);
    }

    #[test]
    fn fast_path_matches_explicit_circuit() {
        // Asymmetric model so both RZ and RZZ paths are exercised.
        let mut q = Qubo::new(2);
        q.add_linear(0, -1.0);
        q.add_linear(1, -3.0);
        q.add_quadratic(0, 1, 2.0);
        let ising = q.to_ising();
        let sim = QaoaSimulator::new(&q);
        let params = QaoaParams { gammas: vec![0.4, -0.2], betas: vec![0.7, 0.3] };

        let fast = sim.state(&params);
        let mut slow = StateVector::zero(2);
        slow.apply_circuit(&qaoa_circuit(&ising, &params));

        // Equal up to the global phase contributed by the Ising offset.
        assert!(fast.fidelity(&slow) > 1.0 - 1e-10);
        // And identical measurement statistics:
        let pf = fast.probabilities();
        let ps = slow.probabilities();
        for (a, b) in pf.iter().zip(&ps) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn optimised_parameters_beat_random_guessing() {
        // Coarse grid over (γ, β) must push ground-state probability above
        // the uniform baseline of 0.5 for the antiferromagnetic pair.
        let q = antiferro_pair();
        let sim = QaoaSimulator::new(&q);
        let mut best = f64::INFINITY;
        let mut best_params = QaoaParams { gammas: vec![0.0], betas: vec![0.0] };
        for gi in 0..24 {
            for bi in 0..24 {
                let params = QaoaParams {
                    gammas: vec![gi as f64 * std::f64::consts::PI / 12.0],
                    betas: vec![bi as f64 * std::f64::consts::PI / 24.0],
                };
                let e = sim.expectation(&params);
                if e < best {
                    best = e;
                    best_params = params;
                }
            }
        }
        let probs = sim.state(&best_params).probabilities();
        let ground = probs[1] + probs[2]; // |01> and |10>
        assert!(ground > 0.5, "ground-state probability only {ground}");
        assert!(best < -0.5, "best expectation {best} barely below uniform");
    }

    #[test]
    fn sampling_concentrates_on_ground_states_after_optimisation() {
        let q = antiferro_pair();
        let sim = QaoaSimulator::new(&q);
        // Optimise (γ, β) on a grid, then check sampling follows suit.
        let mut best = (f64::INFINITY, QaoaParams { gammas: vec![0.0], betas: vec![0.0] });
        for gi in 0..32 {
            for bi in 0..32 {
                let params = QaoaParams {
                    gammas: vec![gi as f64 * std::f64::consts::PI / 16.0],
                    betas: vec![bi as f64 * std::f64::consts::PI / 32.0],
                };
                let e = sim.expectation(&params);
                if e < best.0 {
                    best = (e, params);
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(11);
        let shots = sim.sample(&best.1, 2000, &mut rng);
        let good = shots.iter_bits().filter(|x| x[0] != x[1]).count() as f64 / 2000.0;
        assert!(good > 0.5, "ground-state shot fraction {good}");
    }

    #[test]
    fn circuit_structure_is_h_cost_mixer() {
        // Asymmetric linear terms so the Ising form keeps a non-zero field
        // (the symmetric pair has h = 0 and would emit no RZ at all).
        let mut q = Qubo::new(2);
        q.add_linear(0, -1.0);
        q.add_linear(1, -3.0);
        q.add_quadratic(0, 1, 2.0);
        let params = QaoaParams { gammas: vec![0.3], betas: vec![0.5] };
        let c = qaoa_circuit(&q.to_ising(), &params);
        let counts = c.counts_by_name();
        assert_eq!(counts["h"], 2);
        assert_eq!(counts["rx"], 2);
        assert_eq!(counts["rzz"], 1);
        // h0 = -0.5 + 0.5 = 0 (skipped); h1 = -1.5 + 0.5 = -1.0 → one RZ.
        assert_eq!(counts["rz"], 1);
    }

    #[test]
    fn deeper_qaoa_improves_the_expectation() {
        // Farhi et al.: approximation quality improves with p. Optimise
        // p = 1 on a grid, then extend to p = 2 with Nelder–Mead from the
        // p = 1 solution — the optimum must not get worse, and on this
        // frustrated instance strictly improves (the 2-qubit pair is
        // already exactly solvable at p = 1, so use a triangle + field).
        let mut q = Qubo::new(3);
        q.add_linear(0, -1.0);
        q.add_linear(1, -2.0);
        q.add_linear(2, -1.0);
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            q.add_quadratic(a, b, 2.0);
        }
        let sim = QaoaSimulator::new(&q);
        let ground = sim.hamiltonian().min_energy();

        let mut best1 = (f64::INFINITY, vec![0.0, 0.0]);
        for gi in 0..24 {
            for bi in 0..24 {
                let x = vec![
                    gi as f64 * std::f64::consts::PI / 12.0,
                    bi as f64 * std::f64::consts::PI / 24.0,
                ];
                let e = sim.expectation(&QaoaParams::from_flat(1, &x));
                if e < best1.0 {
                    best1 = (e, x);
                }
            }
        }

        let start2 = vec![best1.1[0], best1.1[0], best1.1[1], best1.1[1]];
        let r2 = crate::optim::NelderMead { max_iterations: 400, ..Default::default() }
            .minimize(|x| sim.expectation(&QaoaParams::from_flat(2, x)), &start2);
        assert!(r2.fx <= best1.0 + 1e-9, "p = 2 ({}) worse than p = 1 ({})", r2.fx, best1.0);
        assert!(
            best1.0 > ground + 1e-3,
            "instance too easy: p = 1 already reaches the ground state"
        );
        assert!(r2.fx < best1.0 - 1e-3, "p = 2 should strictly improve here");
        assert!(r2.fx > ground - 1e-9, "expectation cannot undershoot the spectrum");
    }

    #[test]
    fn interpolation_preserves_endpoints_and_monotone_schedules() {
        let p2 = QaoaParams { gammas: vec![0.2, 0.8], betas: vec![0.7, 0.1] };
        let p4 = p2.interpolate_to(4);
        assert_eq!(p4.p(), 4);
        // Endpoints preserved.
        assert!((p4.gammas[0] - 0.2).abs() < 1e-12);
        assert!((p4.gammas[3] - 0.8).abs() < 1e-12);
        assert!((p4.betas[0] - 0.7).abs() < 1e-12);
        assert!((p4.betas[3] - 0.1).abs() < 1e-12);
        // A monotone schedule stays monotone under interpolation.
        assert!(p4.gammas.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        assert!(p4.betas.windows(2).all(|w| w[0] >= w[1] - 1e-12));
        // Same depth is the identity.
        assert_eq!(p2.interpolate_to(2), p2);
    }

    #[test]
    fn interpolated_warm_start_is_at_least_as_good_as_repeating_layers() {
        // Extend the grid-optimised p = 1 solution to p = 2 two ways and
        // compare the starting expectations: INTERP must not be worse than
        // the crude layer-repetition start by a large margin (both then
        // converge under optimisation; this checks the starting point).
        let mut q = Qubo::new(3);
        q.add_linear(0, -1.0);
        q.add_linear(1, -2.0);
        q.add_linear(2, -1.0);
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            q.add_quadratic(a, b, 2.0);
        }
        let sim = QaoaSimulator::new(&q);
        let mut best1 = (f64::INFINITY, QaoaParams { gammas: vec![0.0], betas: vec![0.0] });
        for gi in 0..16 {
            for bi in 0..16 {
                let p = QaoaParams { gammas: vec![gi as f64 * 0.2], betas: vec![bi as f64 * 0.1] };
                let e = sim.expectation(&p);
                if e < best1.0 {
                    best1 = (e, p);
                }
            }
        }
        let interp = best1.1.interpolate_to(2);
        let e_interp = sim.expectation(&interp);
        // INTERP at the p = 1 optimum collapses to a constant schedule and
        // must reproduce the p = 1 value (the p = 2 ansatz contains it).
        assert!(
            e_interp <= best1.0 + 0.3,
            "INTERP start {e_interp} far above p=1 optimum {}",
            best1.0
        );
    }

    #[test]
    fn params_flat_round_trip() {
        let p = QaoaParams { gammas: vec![0.1, 0.2], betas: vec![0.3, 0.4] };
        let flat = p.to_flat();
        assert_eq!(flat, vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(QaoaParams::from_flat(2, &flat), p);
        assert_eq!(p.p(), 2);
    }
}
