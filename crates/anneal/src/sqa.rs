//! Path-integral Monte-Carlo simulated quantum annealing (SQA).
//!
//! The transverse-field Ising Hamiltonian
//! `H(s) = −Γ(s) Σ σ^x_i + B(s) H_problem` is simulated through the
//! Suzuki–Trotter mapping onto `P` coupled classical replicas ("imaginary
//! time slices"): the quantum kinetic term becomes a ferromagnetic coupling
//!
//! ```text
//! J_⊥(Γ) = −(P·T / 2) · ln tanh(Γ / (P·T))
//! ```
//!
//! between corresponding spins of adjacent slices (periodic). Annealing
//! lowers Γ from `gamma0` to ~0 over the sweep schedule; quantum
//! fluctuations (weak inter-slice coupling early on) let the state tunnel
//! between classical configurations, which is the mechanism quantum
//! annealers exploit. The annealing *time* maps linearly onto Monte-Carlo
//! sweeps.
//!
//! # The packed kernel
//!
//! The anneal runs on a packed `Lattice` kernel with three optimisations
//! over a naive slice-by-slice Metropolis loop:
//!
//! * **Multi-spin coding.** The `P ≤ 64` Trotter slices of each problem
//!   spin live in a single `u64` word (bit `k` set ⇔ slice `k` is `+1`).
//!   One rotate + XOR per site yields the inter-slice agreement pattern of
//!   *all* slices at once, and the ferromagnetic ΔE contribution reduces to
//!   a 3-entry table lookup indexed by how many of the two imaginary-time
//!   neighbours agree. Slices are visited in checkerboard (parity) batches
//!   so the agreement masks stay valid across a whole batch.
//! * **Incremental ΔE.** The coupling part of every spin's local field,
//!   `Σ_j J_ij s_j^(k)`, is cached per `(site, slice)` and updated in
//!   O(degree) only when a neighbouring flip is *accepted*. A proposal
//!   costs O(1) instead of the O(degree) field recomputation the previous
//!   implementation paid per proposal.
//! * **Branch-free spin reads.** A slice bit is random, so branching on
//!   it (`if bit { 1 } else { −1 }`) mispredicts about half the time.
//!   The sweep's sign `s` sets the sign bit of `1.0` from the cleared
//!   slice bit, and `±1` spins are `2·bit − 1`. Both are exact: each
//!   yields exactly `+1`/`−1` (`±1.0` differ from each other only in the
//!   sign bit), so every ΔE, acceptance and RNG draw is unchanged.
//!
//! The model itself is walked through [`CompiledIsing`] CSR adjacency, so
//! no per-anneal `Vec<Vec<…>>` neighbour tables are rebuilt.

use qjo_exec::{par_map_seeded, Parallelism};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt;

use qjo_qubo::{CompiledIsing, IsingModel};

/// Floor on the number of Monte-Carlo sweeps in any anneal, so even a
/// zero-time anneal ramps Γ down over a few sweeps.
pub const MIN_SWEEPS: usize = 4;

/// SQA parameters.
#[derive(Debug, Clone, Copy)]
pub struct SqaConfig {
    /// Number of Trotter slices `P` (clamped to `2..=64`; the packed
    /// kernel stores one slice per bit of a `u64` word).
    pub trotter_slices: usize,
    /// Simulation temperature (in problem-energy units). Annealers operate
    /// cold relative to the programmed problem scale.
    pub temperature: f64,
    /// Initial transverse field Γ(0) (in problem-energy units).
    pub gamma0: f64,
    /// Monte-Carlo sweeps executed per microsecond of annealing time.
    pub sweeps_per_us: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the read loop of [`sample`]; affects wall-clock
    /// only, never results.
    pub parallelism: Parallelism,
}

impl Default for SqaConfig {
    fn default() -> Self {
        SqaConfig {
            trotter_slices: 4,
            temperature: 0.08,
            gamma0: 3.0,
            sweeps_per_us: 2.0,
            seed: 0,
            parallelism: Parallelism::auto(),
        }
    }
}

/// The inter-slice coupling strength at transverse field `gamma`.
pub fn trotter_coupling(gamma: f64, slices: usize, temperature: f64) -> f64 {
    let pt = slices as f64 * temperature;
    let g = (gamma / pt).max(1e-12);
    -(pt / 2.0) * g.tanh().ln()
}

/// Number of Metropolis sweeps for a given annealing time, floored at
/// [`MIN_SWEEPS`].
pub fn sweep_count(annealing_time_us: f64, sweeps_per_us: f64) -> usize {
    ((annealing_time_us * sweeps_per_us).ceil() as usize).max(MIN_SWEEPS)
}

/// Metropolis rejection cutoff on `x = ΔE/T`: beyond `ln(2⁵³)` the
/// acceptance probability `exp(−x)` falls below 2⁻⁵³, the resolution of
/// the uniform draw, so the only representable uniform that could accept
/// is exactly 0.0 (a once-per-2⁵³-draws event). Such proposals are
/// rejected outright without spending a draw or an `exp` — which removes
/// the two most expensive operations from the late-anneal regime, where
/// most proposals fight the full `+4·J_⊥` ferromagnetic penalty.
const NEGLIGIBLE_ACCEPTANCE: f64 = 36.736_800_569_677_1;

/// Orders a and b such that NaN energies always lose: finite (and ±∞)
/// energies rank strictly before any NaN, and ties fall back to a total
/// order. `min_by(better_energy)` therefore never returns a NaN slice
/// while a non-NaN one exists — the previous `partial_cmp().unwrap_or
/// (Equal)` selection let a NaN replica win arbitrarily.
fn better_energy(a: f64, b: f64) -> std::cmp::Ordering {
    a.is_nan().cmp(&b.is_nan()).then_with(|| a.total_cmp(&b))
}

/// Spin `k` of a packed word as `±1`: bit 1 → `+1`, bit 0 → `−1`, by
/// arithmetic rather than a branch on the (random) bit.
#[inline]
fn spin_of(w: u64, k: usize) -> i8 {
    2 * (w >> k & 1) as i8 - 1
}

/// Spin `k` of a packed word as `±1.0`: the cleared bit becomes the sign
/// bit of `1.0`, so the result is exactly `1.0` or `−1.0` with no branch.
#[inline]
fn spin_sign(w: u64, k: usize) -> f64 {
    const ONE: u64 = 0x3ff0_0000_0000_0000; // 1.0f64.to_bits()
    f64::from_bits(ONE | (!(w >> k) & 1) << 63)
}

/// The shared SQA spin lattice: `P` Trotter slices of `n` problem spins,
/// packed one word per site.
struct Lattice<'a> {
    model: &'a CompiledIsing,
    /// Trotter slices (2..=64).
    p: usize,
    /// Low `p` bits set.
    slice_mask: u64,
    /// `words[i]` bit `k` is spin `i` of slice `k` (`1 ⇔ +1`).
    words: Vec<u64>,
    /// Cached coupling field `Σ_j J_ij s_j^(k)` at `[i * p + k]` (site-major
    /// so one site's slice row is contiguous). Fields `h_i` are excluded —
    /// they are constants read from the model.
    local: Vec<f64>,
    /// Scratch site visiting order, reshuffled every sweep.
    site_order: Vec<usize>,
    /// Checkerboard slice batches: same-parity slices are never
    /// imaginary-time neighbours, so one batch's agreement masks stay
    /// valid throughout the batch. Odd `P` puts the wrap-around slice
    /// `P−1` (adjacent to slice 0, same parity) in a batch of its own.
    batches: Vec<Vec<usize>>,
}

impl<'a> Lattice<'a> {
    /// Builds a lattice with independently random spins, consuming one
    /// `random_bool` draw per `(site, slice)` in site-major order.
    fn random(model: &'a CompiledIsing, p: usize, rng: &mut StdRng) -> Self {
        assert!((2..=64).contains(&p), "trotter slices must be in 2..=64, got {p}");
        let n = model.num_spins();
        let slice_mask = if p == 64 { u64::MAX } else { (1u64 << p) - 1 };
        let words = (0..n)
            .map(|_| {
                let mut w = 0u64;
                for k in 0..p {
                    if rng.random_bool(0.5) {
                        w |= 1u64 << k;
                    }
                }
                w
            })
            .collect();
        let mut batches: Vec<Vec<usize>> = vec![
            (0..p).step_by(2).filter(|&k| p.is_multiple_of(2) || k != p - 1).collect(),
            (1..p).step_by(2).collect(),
        ];
        if p % 2 == 1 {
            batches.push(vec![p - 1]);
        }
        let mut lattice = Lattice {
            model,
            p,
            slice_mask,
            words,
            local: vec![0.0; n * p],
            site_order: (0..n).collect(),
            batches,
        };
        for i in 0..n {
            for k in 0..p {
                lattice.local[i * p + k] = lattice.recompute_local(i, k);
            }
        }
        lattice
    }

    #[inline]
    fn spin(&self, i: usize, k: usize) -> i8 {
        spin_of(self.words[i], k)
    }

    /// Coupling field of `(i, k)` summed from scratch (test / init path).
    fn recompute_local(&self, i: usize, k: usize) -> f64 {
        let mut acc = 0.0;
        for (j, w) in self.model.neighbors(i) {
            acc += w * f64::from(self.spin(j, k));
        }
        acc
    }

    fn extract_slice(&self, k: usize) -> Vec<i8> {
        (0..self.words.len()).map(|i| self.spin(i, k)).collect()
    }

    /// One full Metropolis sweep over every `(site, slice)` at inter-slice
    /// coupling `j_perp`. Sites are visited in a freshly shuffled order;
    /// within a site, slices go batch by batch (see `batches`).
    fn sweep(&mut self, j_perp: f64, temp: f64, rng: &mut StdRng) {
        let model = self.model;
        let p = self.p;
        let mask = self.slice_mask;
        let inv_p = 1.0 / p as f64;
        let inv_temp = 1.0 / temp;
        // ΔE of the inter-slice term indexed by how many of the two
        // imaginary-time neighbours currently agree with the spin:
        // s·(s_up + s_down) = 2a − 2, so ΔE_⊥ = 2·J_⊥·(2a − 2).
        let dperp = [-4.0 * j_perp, 0.0, 4.0 * j_perp];

        let mut order = std::mem::take(&mut self.site_order);
        let batches = std::mem::take(&mut self.batches);
        order.shuffle(rng);

        for &i in &order {
            let hi = model.field(i);
            let row = i * p;
            for batch in &batches {
                let w = self.words[i];
                // Periodic imaginary-time neighbours of every slice at once.
                let up = ((w >> 1) | (w << (p - 1))) & mask;
                let down = ((w << 1) | (w >> (p - 1))) & mask;
                let agree_up = !(w ^ up) & mask;
                let agree_down = !(w ^ down) & mask;
                let mut flips = 0u64;
                for &k in batch {
                    let a = ((agree_up >> k) & 1) + ((agree_down >> k) & 1);
                    let s = spin_sign(w, k);
                    let local = hi + self.local[row + k];
                    // Problem term: s·local flips sign (−2·s·local, scaled
                    // by the 1/P slice weight); inter-slice term from the
                    // agreement table.
                    let delta = -2.0 * s * (inv_p * local) + dperp[a as usize];
                    let x = delta * inv_temp;
                    if delta <= 0.0
                        || (x < NEGLIGIBLE_ACCEPTANCE && rng.random::<f64>() < (-x).exp())
                    {
                        flips |= 1u64 << k;
                        let s_new = -s;
                        for (j, jij) in model.neighbors(i) {
                            self.local[j * p + k] += 2.0 * jij * s_new;
                        }
                    }
                }
                // Same-parity slices are not neighbours, so deferring the
                // word update to the end of the batch never feeds a stale
                // agreement mask to a later proposal.
                self.words[i] ^= flips;
            }
        }

        self.site_order = order;
        self.batches = batches;
    }

    /// True (recomputed) problem energies of every slice.
    fn true_energies(&self) -> Vec<f64> {
        (0..self.p).map(|k| self.model.energy(&self.extract_slice(k))).collect()
    }

    /// Returns the slice with the lowest problem energy. NaN energies
    /// never win while a non-NaN slice exists.
    fn best_slice(&self) -> Vec<i8> {
        let energies = self.true_energies();
        debug_assert!(
            energies.iter().all(|e| !e.is_nan()),
            "NaN replica energy: non-finite model coefficients reached the annealer"
        );
        let k = energies
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| better_energy(**a, **b))
            .map(|(k, _)| k)
            .expect("at least two slices");
        self.extract_slice(k)
    }

    /// Worst-case drift of the incremental field cache against
    /// from-scratch recomputation; exercised by the property tests.
    #[cfg(test)]
    fn consistency_error(&self) -> f64 {
        let mut err = 0.0f64;
        for i in 0..self.words.len() {
            for k in 0..self.p {
                err = err.max((self.local[i * self.p + k] - self.recompute_local(i, k)).abs());
            }
        }
        err
    }
}

/// Runs one SQA anneal on a pre-compiled model and returns the best
/// slice's spin configuration.
///
/// Prefer this over [`anneal_once`] when annealing the same model many
/// times: the CSR compilation happens once instead of per read.
pub fn anneal_compiled(
    model: &CompiledIsing,
    config: &SqaConfig,
    annealing_time_us: f64,
    rng: &mut StdRng,
) -> Vec<i8> {
    let p = config.trotter_slices.clamp(2, 64);
    let sweeps = sweep_count(annealing_time_us, config.sweeps_per_us);
    qjo_obs::counter!("sqa.anneals").incr();
    qjo_obs::counter!("sqa.sweeps").add(sweeps as u64);

    let temp = config.temperature.max(1e-9);
    let mut lattice = Lattice::random(model, p, rng);

    // Replica energies are expensive (P energy evaluations per kept
    // sweep), so only exemplar units record them — unit 0 of each
    // enclosing par_map, i.e. one read per sample() call.
    let replica_min = qjo_obs::convergence::exemplar_series("sqa", "replica_energy_min");
    let replica_mean = qjo_obs::convergence::exemplar_series("sqa", "replica_energy_mean");

    for sweep in 0..sweeps {
        // Forward anneal: Γ ramps linearly from `gamma0` down to 0.
        let s_frac = sweep as f64 / (sweeps - 1).max(1) as f64;
        let j_perp = trotter_coupling(config.gamma0 * (1.0 - s_frac), p, temp);
        lattice.sweep(j_perp, temp, rng);
        if replica_min.wants(sweep as u64) {
            let energies = lattice.true_energies();
            replica_min
                .record(sweep as u64, energies.iter().copied().fold(f64::INFINITY, f64::min));
            replica_mean.record(sweep as u64, energies.iter().sum::<f64>() / p as f64);
        }
    }

    // Γ ≈ 0 at the end: slices have (mostly) collapsed; report the best.
    lattice.best_slice()
}

/// Runs one SQA anneal and returns the best slice's spin configuration.
pub fn anneal_once(
    ising: &IsingModel,
    config: &SqaConfig,
    annealing_time_us: f64,
    rng: &mut StdRng,
) -> Vec<i8> {
    anneal_compiled(&ising.compile(), config, annealing_time_us, rng)
}

/// Runs `num_reads` independent anneals.
///
/// Read `i` derives its own RNG stream from `(config.seed, i)` via
/// [`qjo_exec::stream_seed`], so the returned reads are bit-identical at
/// any `config.parallelism` setting. The model is compiled to CSR once and
/// shared by every read.
pub fn sample(
    ising: &IsingModel,
    config: &SqaConfig,
    annealing_time_us: f64,
    num_reads: usize,
) -> Vec<Vec<i8>> {
    let compiled = ising.compile();
    let reads: Vec<usize> = (0..num_reads).collect();
    par_map_seeded(reads, config.seed, config.parallelism, |_, rng| {
        anneal_compiled(&compiled, config, annealing_time_us, rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ferromagnetic_ring(n: usize) -> IsingModel {
        let mut m = IsingModel::new(n);
        for i in 0..n {
            m.add_coupling(i, (i + 1) % n, -1.0);
        }
        m
    }

    /// A random Ising instance with mixed-sign couplings and fields.
    fn random_instance(n: usize, rng: &mut StdRng) -> IsingModel {
        let mut m = IsingModel::new(n);
        for i in 0..n {
            if rng.random_bool(0.7) {
                m.add_field(i, rng.random_range(-1.5..1.5));
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                if rng.random_bool(0.3) {
                    m.add_coupling(i, j, rng.random_range(-2.0..2.0));
                }
            }
        }
        m
    }

    #[test]
    fn trotter_coupling_diverges_as_gamma_vanishes() {
        let strong = trotter_coupling(1e-9, 8, 0.1);
        let weak = trotter_coupling(3.0, 8, 0.1);
        assert!(strong > weak, "{strong} vs {weak}");
        assert!(strong > 5.0, "slices must lock when Γ → 0: {strong}");
        assert!(weak >= 0.0);
    }

    #[test]
    fn finds_ground_state_of_ferromagnet() {
        let m = ferromagnetic_ring(12);
        let reads = sample(&m, &SqaConfig::default(), 100.0, 10);
        let best = reads.iter().map(|s| m.energy(s)).fold(f64::INFINITY, f64::min);
        assert_eq!(best, -12.0, "ferromagnetic ring ground energy");
    }

    #[test]
    fn finds_ground_state_with_fields() {
        // Fields pin each spin individually: trivially solvable, catches
        // sign errors in the local-field computation.
        let mut m = IsingModel::new(6);
        for i in 0..6 {
            m.add_field(i, if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let reads = sample(&m, &SqaConfig::default(), 50.0, 5);
        let best = reads.iter().map(|s| m.energy(s)).fold(f64::INFINITY, f64::min);
        assert_eq!(best, -6.0);
    }

    #[test]
    fn frustrated_triangle_reaches_degenerate_ground_state() {
        // Antiferromagnetic triangle: ground energy -1 (one unhappy bond).
        let mut m = IsingModel::new(3);
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            m.add_coupling(a, b, 1.0);
        }
        let reads = sample(&m, &SqaConfig::default(), 50.0, 10);
        let best = reads.iter().map(|s| m.energy(s)).fold(f64::INFINITY, f64::min);
        assert_eq!(best, -1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = ferromagnetic_ring(8);
        let a = sample(&m, &SqaConfig { seed: 5, ..Default::default() }, 20.0, 3);
        let b = sample(&m, &SqaConfig { seed: 5, ..Default::default() }, 20.0, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_reads() {
        let m = ferromagnetic_ring(10);
        let at = |threads| {
            let cfg =
                SqaConfig { seed: 3, parallelism: Parallelism::new(threads), ..Default::default() };
            sample(&m, &cfg, 20.0, 9)
        };
        let sequential = at(1);
        assert_eq!(sequential, at(2));
        assert_eq!(sequential, at(8));
    }

    #[test]
    fn annealing_time_controls_sweeps_but_saturates() {
        // Success probability on an easy instance should be high for both
        // short and long anneals (the paper's observation that annealing
        // time barely matters in the 20–100 µs regime).
        let m = ferromagnetic_ring(10);
        let hit_rate = |t_us: f64| {
            let reads = sample(&m, &SqaConfig { seed: 2, ..Default::default() }, t_us, 20);
            reads.iter().filter(|s| m.energy(s) == -10.0).count() as f64 / 20.0
        };
        let short = hit_rate(20.0);
        let long = hit_rate(100.0);
        assert!(short > 0.3, "20µs hit rate {short}");
        assert!(long > 0.3, "100µs hit rate {long}");
        assert!((long - short).abs() < 0.5, "time impact should be modest");
    }

    #[test]
    fn reads_are_independent_samples() {
        let m = ferromagnetic_ring(6);
        let reads = sample(&m, &SqaConfig::default(), 50.0, 8);
        assert_eq!(reads.len(), 8);
        // Both ferromagnetic ground states (+1…+1 and −1…−1) appear over
        // enough reads.
        let ups = reads.iter().filter(|s| s[0] == 1 && m.energy(s) == -6.0).count();
        let downs = reads.iter().filter(|s| s[0] == -1 && m.energy(s) == -6.0).count();
        assert!(ups + downs >= 6, "most reads should reach the ground state");
        assert!(ups > 0 && downs > 0, "degenerate states should both occur");
    }

    // ---- sweep floor -----------------------------------------------------

    #[test]
    fn sweep_floor_is_unified_at_min_sweeps() {
        assert_eq!(MIN_SWEEPS, 4);
        assert_eq!(sweep_count(0.0, 2.0), MIN_SWEEPS);
        assert_eq!(sweep_count(0.5, 2.0), MIN_SWEEPS);
        assert_eq!(sweep_count(100.0, 2.0), 200);
        // Zero-time anneals still work and burn exactly the floor.
        let m = ferromagnetic_ring(4);
        let before = qjo_obs::counter!("sqa.sweeps").get();
        let mut rng = StdRng::seed_from_u64(1);
        anneal_once(&m, &SqaConfig::default(), 0.0, &mut rng);
        assert_eq!(qjo_obs::counter!("sqa.sweeps").get() - before, MIN_SWEEPS as u64);
    }

    // ---- NaN-safe best-slice selection -----------------------------------

    #[test]
    fn nan_energies_never_win_selection() {
        use std::cmp::Ordering;
        assert_eq!(better_energy(f64::NAN, 1.0), Ordering::Greater);
        assert_eq!(better_energy(1.0, f64::NAN), Ordering::Less);
        assert_eq!(better_energy(f64::NEG_INFINITY, f64::NAN), Ordering::Less);
        // The sign-flipped NaN pattern that f64::total_cmp alone would
        // rank *below* −∞.
        let neg_nan = f64::from_bits(f64::NAN.to_bits() | 1 << 63);
        assert!(neg_nan.is_nan());
        assert_eq!(better_energy(neg_nan, f64::NEG_INFINITY), Ordering::Greater);
        let mut energies = [f64::NAN, -3.0, neg_nan, 1.0];
        energies.sort_by(|a, b| better_energy(*a, *b));
        assert_eq!(energies[0], -3.0);
        assert_eq!(energies[1], 1.0);
        assert!(energies[2].is_nan() && energies[3].is_nan());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "NaN replica energy")]
    fn injected_nan_model_trips_the_debug_assert() {
        // ∞ field + ∞ coupling produce ∞ − ∞ = NaN slice energies for some
        // spin configurations; the debug assert must catch them instead of
        // letting an arbitrary slice win.
        let mut m = IsingModel::new(2);
        m.add_field(0, f64::INFINITY);
        m.add_coupling(0, 1, f64::INFINITY);
        let mut rng = StdRng::seed_from_u64(0);
        // Many attempts: at least one final lattice contains both a NaN
        // and a non-NaN slice or an all-NaN set; either way the assert
        // fires as soon as any NaN energy is present.
        for seed in 0..20 {
            let mut rng2 = StdRng::seed_from_u64(seed);
            anneal_once(&m, &SqaConfig::default(), 5.0, &mut rng2);
        }
        anneal_once(&m, &SqaConfig::default(), 5.0, &mut rng);
    }

    // ---- packed-kernel property tests ------------------------------------

    /// Scalar mirror of the packed kernel: same proposal order, same RNG
    /// consumption, same float expressions — but spins stored as plain
    /// `i8`s and the inter-slice term read scalar-wise. Validates the u64
    /// bit manipulation (rotates, masks, deferred flips) bit-for-bit.
    struct ScalarLattice<'a> {
        model: &'a CompiledIsing,
        p: usize,
        /// `spins[i * p + k]`, site-major like the packed local cache.
        spins: Vec<i8>,
        local: Vec<f64>,
        site_order: Vec<usize>,
        batches: Vec<Vec<usize>>,
    }

    impl<'a> ScalarLattice<'a> {
        fn mirror(lattice: &Lattice<'a>) -> Self {
            let n = lattice.words.len();
            let p = lattice.p;
            let mut spins = vec![0i8; n * p];
            for i in 0..n {
                for k in 0..p {
                    spins[i * p + k] = lattice.spin(i, k);
                }
            }
            ScalarLattice {
                model: lattice.model,
                p,
                spins,
                local: lattice.local.clone(),
                site_order: lattice.site_order.clone(),
                batches: lattice.batches.clone(),
            }
        }

        fn sweep(&mut self, j_perp: f64, temp: f64, rng: &mut StdRng) {
            let model = self.model;
            let p = self.p;
            let inv_p = 1.0 / p as f64;
            let inv_temp = 1.0 / temp;
            let dperp = [-4.0 * j_perp, 0.0, 4.0 * j_perp];
            let mut order = std::mem::take(&mut self.site_order);
            let batches = std::mem::take(&mut self.batches);
            order.shuffle(rng);
            for &i in &order {
                let hi = model.field(i);
                let row = i * p;
                for batch in &batches {
                    for &k in batch {
                        let cur = self.spins[row + k];
                        let up = self.spins[row + (k + 1) % p];
                        let down = self.spins[row + (k + p - 1) % p];
                        let a = usize::from(up == cur) + usize::from(down == cur);
                        let s = f64::from(cur);
                        let local = hi + self.local[row + k];
                        let delta = -2.0 * s * (inv_p * local) + dperp[a];
                        let x = delta * inv_temp;
                        if delta <= 0.0
                            || (x < NEGLIGIBLE_ACCEPTANCE && rng.random::<f64>() < (-x).exp())
                        {
                            self.spins[row + k] = -cur;
                            let s_new = -s;
                            for (j, jij) in model.neighbors(i) {
                                self.local[j * p + k] += 2.0 * jij * s_new;
                            }
                        }
                    }
                }
            }
            self.site_order = order;
            self.batches = batches;
        }
    }

    #[test]
    fn packed_sweeps_match_scalar_reference_bit_for_bit() {
        for &p in &[2usize, 3, 4, 5, 8, 63, 64] {
            let mut rng = StdRng::seed_from_u64(1000 + p as u64);
            let model = random_instance(14, &mut rng).compile();
            let mut packed = Lattice::random(&model, p, &mut rng);
            let mut scalar = ScalarLattice::mirror(&packed);
            let mut rng_packed = StdRng::seed_from_u64(7 * p as u64);
            let mut rng_scalar = rng_packed.clone();
            for sweep in 0..30 {
                let gamma = 3.0 * (1.0 - sweep as f64 / 29.0);
                let j_perp = trotter_coupling(gamma, p, 0.08);
                packed.sweep(j_perp, 0.08, &mut rng_packed);
                scalar.sweep(j_perp, 0.08, &mut rng_scalar);
                for i in 0..model.num_spins() {
                    for k in 0..p {
                        assert_eq!(
                            packed.spin(i, k),
                            scalar.spins[i * p + k],
                            "p={p} sweep={sweep} site={i} slice={k}"
                        );
                    }
                }
                assert_eq!(packed.local, scalar.local, "p={p} sweep={sweep}");
            }
        }
    }

    #[test]
    fn branch_free_spin_reads_match_the_branchy_selects() {
        for k in 0..64 {
            for bit in [0u64, 1] {
                // The bit alone, and the bit amid all-ones neighbours, so a
                // wrong shift or a missing mask shows as a wrong sign.
                for w in [bit << k, !(1u64 << k) | bit << k] {
                    let branchy: i8 = if w >> k & 1 == 1 { 1 } else { -1 };
                    let branchy_f: f64 = if w >> k & 1 == 1 { 1.0 } else { -1.0 };
                    assert_eq!(spin_of(w, k), branchy, "k={k} w={w:#x}");
                    assert_eq!(spin_sign(w, k).to_bits(), branchy_f.to_bits(), "k={k} w={w:#x}");
                }
            }
        }
    }

    #[test]
    fn incremental_caches_agree_with_full_recomputation() {
        // After every sweep (i.e. after a few hundred accepted flips), the
        // incrementally maintained local fields must still agree with
        // from-scratch recomputation.
        for case in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(500 + case);
            let model = random_instance(12 + case as usize, &mut rng).compile();
            let p = 2 + (case as usize % 7);
            let mut lattice = Lattice::random(&model, p, &mut rng);
            assert!(lattice.consistency_error() < 1e-9, "fresh lattice must be consistent");
            for sweep in 0..25 {
                let gamma = 2.5 * (1.0 - sweep as f64 / 24.0);
                let j_perp = trotter_coupling(gamma, p, 0.1);
                lattice.sweep(j_perp, 0.1, &mut rng);
                let err = lattice.consistency_error();
                assert!(err < 1e-9, "case={case} sweep={sweep}: drift {err}");
            }
        }
    }

    #[test]
    fn compiled_and_uncompiled_entry_points_agree() {
        let m = ferromagnetic_ring(9);
        let compiled = m.compile();
        let cfg = SqaConfig::default();
        let mut a = StdRng::seed_from_u64(11);
        let mut b = a.clone();
        assert_eq!(
            anneal_once(&m, &cfg, 25.0, &mut a),
            anneal_compiled(&compiled, &cfg, 25.0, &mut b)
        );
    }
}
