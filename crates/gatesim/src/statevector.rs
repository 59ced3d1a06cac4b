//! Dense state-vector simulation.
//!
//! The state of `n` qubits is a vector of `2^n` complex amplitudes; basis
//! index `z` encodes qubit `q` in bit `q` (qubit 0 is the least significant
//! bit). Gates are applied in place: diagonal gates as pure phase updates,
//! general one- and two-qubit gates as strided 2×2 / 4×4 matrix actions.
//!
//! Sampling reads the state through a [`BasisSampler`], which keeps the
//! cumulative distribution only at every 1,024th amplitude: one prefix pass
//! builds it, and a shot re-adds one block. No 2^n table is written.
//!
//! Every full pass over the amplitudes — a gate, a fused diagonal run, a
//! product-state write, a sampler's prefix pass, a QAOA cost layer or
//! expectation sum — adds one to the `gatesim.amplitude_passes` counter, so
//! an algorithmic regression in the simulator shows as exact drift in the
//! run manifests.

use rand::RngExt;

use crate::complex::{C64, ONE, ZERO};
use crate::gate::{Gate, GateQubits};
use crate::shots::ShotBuffer;

/// Records one full pass over a state vector's amplitudes.
pub(crate) fn count_pass() {
    qjo_obs::counter!("gatesim.amplitude_passes").incr();
}

/// A normalised pure state over `num_qubits` qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// The computational-basis state `|0…0⟩`.
    pub fn zero(num_qubits: usize) -> Self {
        assert!(num_qubits <= 30, "state vector for {num_qubits} qubits will not fit in memory");
        let mut amps = vec![ZERO; 1usize << num_qubits];
        amps[0] = C64::real(1.0);
        StateVector { num_qubits, amps }
    }

    /// The uniform superposition `|+⟩^{⊗n}` (the QAOA start state).
    pub fn plus(num_qubits: usize) -> Self {
        assert!(num_qubits <= 30, "state vector for {num_qubits} qubits will not fit in memory");
        let dim = 1usize << num_qubits;
        let a = C64::real(1.0 / (dim as f64).sqrt());
        StateVector { num_qubits, amps: vec![a; dim] }
    }

    /// The product state `⊗_q (qubits[q][0]|0⟩ + qubits[q][1]|1⟩)` with a
    /// run of diagonal gates applied, written in one pass into `buffer`.
    ///
    /// The pass writes every amplitude, so nothing the buffer held before
    /// reaches the state; only its allocation is reused.
    ///
    /// # Panics
    ///
    /// If a gate in `diagonal` is not [`Gate::is_diagonal`].
    pub(crate) fn product_in(mut buffer: Vec<C64>, qubits: &[[C64; 2]], diagonal: &[Gate]) -> Self {
        let num_qubits = qubits.len();
        assert!(num_qubits <= 30, "state vector for {num_qubits} qubits will not fit in memory");
        buffer.resize(1usize << num_qubits, ZERO);
        let mut s = StateVector { num_qubits, amps: buffer };
        s.diagonal_pass(qubits.to_vec(), diagonal, |amp, d| *amp = d);
        s
    }

    /// Gives up the state's amplitude allocation for reuse.
    pub(crate) fn into_amplitudes(self) -> Vec<C64> {
        self.amps
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The amplitude vector (length `2^n`).
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Mutable amplitudes, for operators applied outside the gate set such
    /// as the QAOA cost layer. The caller keeps the state normalised.
    pub fn amplitudes_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// Applies one gate in place.
    ///
    /// Uses specialised kernels where the gate structure allows it:
    /// diagonal gates are pure phase scans, X and CX are (conditional)
    /// permutations with no arithmetic, everything else goes through the
    /// generic strided matrix path.
    pub fn apply(&mut self, gate: Gate) {
        count_pass();
        match gate.qubits() {
            GateQubits::One(q) => {
                assert!(q < self.num_qubits, "qubit {q} out of range");
                match gate {
                    Gate::X(_) => self.apply_x(q),
                    _ if gate.is_diagonal() => {
                        let u = gate.unitary_1q();
                        self.apply_diag_1q(q, u[0], u[3]);
                    }
                    _ => self.apply_1q(q, &gate.unitary_1q()),
                }
            }
            GateQubits::Two(a, b) => {
                assert!(a < self.num_qubits && b < self.num_qubits, "qubits out of range");
                assert_ne!(a, b);
                match gate {
                    Gate::Rzz(_, _, t) => {
                        let plus = C64::cis(t / 2.0);
                        let minus = C64::cis(-t / 2.0);
                        self.apply_diag_2q(a, b, minus, plus, plus, minus);
                    }
                    Gate::Cz(..) => {
                        let one = C64::real(1.0);
                        self.apply_diag_2q(a, b, one, one, one, C64::real(-1.0));
                    }
                    Gate::Cx(c, t) => self.apply_cx(c, t),
                    Gate::Swap(..) => self.apply_swap(a, b),
                    _ => self.apply_2q(a, b, &gate.unitary_2q()),
                }
            }
        }
    }

    /// X as a pure permutation: swap the amplitude pairs that differ in
    /// bit `q`.
    fn apply_x(&mut self, q: usize) {
        let stride = 1usize << q;
        let dim = self.amps.len();
        let mut base = 0usize;
        while base < dim {
            let (lo, hi) = self.amps[base..base + (stride << 1)].split_at_mut(stride);
            lo.swap_with_slice(hi);
            base += stride << 1;
        }
    }

    /// CX as a conditional permutation: where the control bit is set, swap
    /// the pair differing in the target bit.
    fn apply_cx(&mut self, control: usize, target: usize) {
        let mc = 1usize << control;
        let mt = 1usize << target;
        let dim = self.amps.len();
        for z in 0..dim {
            // Visit each swapped pair once: control set, target clear.
            if z & mc != 0 && z & mt == 0 {
                self.amps.swap(z, z | mt);
            }
        }
    }

    /// SWAP as a permutation: exchange amplitudes whose bits `a`/`b` differ.
    fn apply_swap(&mut self, a: usize, b: usize) {
        let ma = 1usize << a;
        let mb = 1usize << b;
        let dim = self.amps.len();
        for z in 0..dim {
            if z & ma != 0 && z & mb == 0 {
                self.amps.swap(z, z ^ ma ^ mb);
            }
        }
    }

    /// Applies a whole circuit.
    pub fn apply_circuit(&mut self, circuit: &crate::circuit::Circuit) {
        assert_eq!(circuit.num_qubits(), self.num_qubits, "circuit/state size mismatch");
        for g in circuit.gates() {
            self.apply(*g);
        }
    }

    /// Applies a run of diagonal gates in one pass, with the same result as
    /// applying them one by one up to rounding.
    ///
    /// # Panics
    ///
    /// If a gate is not [`Gate::is_diagonal`].
    pub(crate) fn apply_diagonal_run(&mut self, gates: &[Gate]) {
        let ones = vec![[ONE, ONE]; self.num_qubits];
        self.diagonal_pass(ones, gates, |amp, d| *amp *= d);
    }

    /// Combines `write(amp, d)` into every amplitude, where `d` is the
    /// product of the one-qubit factors `single[q][bit q]` and the diagonal
    /// entries of `gates` at that basis state.
    ///
    /// The qubits split into a low half (the index within a block of
    /// `2^lo` amplitudes) and a high half (the block number). The factors
    /// of each half multiply into a half-size table. A gate that crosses
    /// the split is a one-qubit factor on its low qubit once the block fixes
    /// its high bit, so each block builds its row of factors from the high
    /// table's entry by doubling. An amplitude then costs a few complex
    /// multiplications and no `sin_cos`.
    fn diagonal_pass(
        &mut self,
        mut single: Vec<[C64; 2]>,
        gates: &[Gate],
        write: impl Fn(&mut C64, C64),
    ) {
        count_pass();
        let n = self.num_qubits;
        let lo = n / 2;
        // Two-qubit factors as (qubit a, qubit b, diagonal indexed by
        // bit a | bit b << 1), by where they fall relative to the split.
        let (mut lo_pairs, mut hi_pairs, mut crossing) = (Vec::new(), Vec::new(), Vec::new());
        for gate in gates {
            assert!(gate.is_diagonal(), "{gate:?} is not diagonal");
            match gate.qubits() {
                GateQubits::One(q) => {
                    let u = gate.unitary_1q();
                    single[q][0] *= u[0];
                    single[q][1] *= u[3];
                }
                GateQubits::Two(a, b) => {
                    let u = gate.unitary_2q();
                    let d = [u[0][0], u[1][1], u[2][2], u[3][3]];
                    match (a < lo, b < lo) {
                        (true, true) => lo_pairs.push((a, b, d)),
                        (false, false) => hi_pairs.push((a - lo, b - lo, d)),
                        (true, false) => crossing.push((a, b - lo, d)),
                        (false, true) => crossing.push((b, a - lo, [d[0], d[2], d[1], d[3]])),
                    }
                }
            }
        }
        let table = |factors: &[[C64; 2]], pairs: &[(usize, usize, [C64; 4])]| {
            let mut t = vec![ONE; 1 << factors.len()];
            product_table(&mut t, factors);
            for &(a, b, d) in pairs {
                for (z, f) in t.iter_mut().enumerate() {
                    *f *= d[(z >> a & 1) | (z >> b & 1) << 1];
                }
            }
            t
        };
        let lo_table = table(&single[..lo], &lo_pairs);
        let hi_table = table(&single[lo..], &hi_pairs);
        let mut row = vec![ZERO; lo_table.len()];
        let mut cross = vec![[ONE, ONE]; lo];
        let blocks = self.amps.chunks_exact_mut(lo_table.len()).zip(&hi_table);
        for (zh, (block, &h)) in blocks.enumerate() {
            cross.fill([ONE, ONE]);
            for &(l, hq, d) in &crossing {
                let high = (zh >> hq & 1) << 1;
                cross[l][0] *= d[high];
                cross[l][1] *= d[1 | high];
            }
            row[0] = h;
            product_table(&mut row, &cross);
            for ((amp, &r), &l) in block.iter_mut().zip(&row).zip(&lo_table) {
                write(amp, r * l);
            }
        }
    }

    /// Multiplies every amplitude in `amps[start..start+len]` by `d` — the
    /// branch-free inner kernel of the diagonal fast paths. Each amplitude
    /// receives exactly one multiplication, so any block decomposition of
    /// the index space produces bit-identical state.
    #[inline]
    fn scale_block(&mut self, start: usize, len: usize, d: C64) {
        for amp in &mut self.amps[start..start + len] {
            *amp *= d;
        }
    }

    /// Multiplies even-indexed amplitudes of `amps[start..start+len]` by
    /// `d0` and odd-indexed ones by `d1` — the stride-1 diagonal kernel,
    /// where per-block dispatch would cost more than the multiply itself.
    #[inline]
    fn scale_interleaved(&mut self, start: usize, len: usize, d0: C64, d1: C64) {
        for pair in self.amps[start..start + len].chunks_exact_mut(2) {
            pair[0] *= d0;
            pair[1] *= d1;
        }
    }

    fn apply_diag_1q(&mut self, q: usize, d0: C64, d1: C64) {
        // Bit q partitions the index space into alternating contiguous
        // blocks of length 2^q: scan them pairwise instead of testing the
        // bit on every index.
        let stride = 1usize << q;
        let dim = self.amps.len();
        if stride == 1 {
            self.scale_interleaved(0, dim, d0, d1);
            return;
        }
        let mut base = 0usize;
        while base < dim {
            self.scale_block(base, stride, d0);
            self.scale_block(base + stride, stride, d1);
            base += stride << 1;
        }
    }

    fn apply_diag_2q(&mut self, a: usize, b: usize, d00: C64, d01: C64, d10: C64, d11: C64) {
        // Two-level block scan: the outer loop walks blocks of the higher
        // qubit, the inner loop walks blocks of the lower one, so each
        // `scale_block` run is contiguous with a constant diagonal factor.
        let sa = 1usize << a;
        let sb = 1usize << b;
        let (s_lo, s_hi) = (sa.min(sb), sa.max(sb));
        // Factor for (bit of hi qubit, bit of lo qubit).
        let d_of = |hi_set: bool, lo_set: bool| {
            let (a_set, b_set) = if sa < sb { (lo_set, hi_set) } else { (hi_set, lo_set) };
            match (a_set, b_set) {
                (false, false) => d00,
                (true, false) => d01,
                (false, true) => d10,
                (true, true) => d11,
            }
        };
        let dim = self.amps.len();
        let mut base_hi = 0usize;
        while base_hi < dim {
            for hi_set in [false, true] {
                let h = base_hi + if hi_set { s_hi } else { 0 };
                let (d0, d1) = (d_of(hi_set, false), d_of(hi_set, true));
                if s_lo == 1 {
                    self.scale_interleaved(h, s_hi, d0, d1);
                    continue;
                }
                let mut base_lo = h;
                while base_lo < h + s_hi {
                    self.scale_block(base_lo, s_lo, d0);
                    self.scale_block(base_lo + s_lo, s_lo, d1);
                    base_lo += s_lo << 1;
                }
            }
            base_hi += s_hi << 1;
        }
    }

    fn apply_1q(&mut self, q: usize, u: &[C64; 4]) {
        // Structure-specialised variants cover the frequent gates: H (all
        // components real) and Rx/Y (real diagonal, imaginary
        // off-diagonal) skip half of the generic complex arithmetic. The
        // specialisations drop only multiplications by an exact zero
        // component — that can flip the sign of a zero amplitude but
        // never changes a magnitude, so measurement statistics are
        // untouched.
        if u.iter().all(|c| c.im == 0.0) {
            return self.apply_1q_real(q, &[u[0].re, u[1].re, u[2].re, u[3].re]);
        }
        if u[0].im == 0.0 && u[3].im == 0.0 && u[1].re == 0.0 && u[2].re == 0.0 {
            return self.apply_1q_cross(q, &[u[0].re, u[1].im, u[2].im, u[3].re]);
        }
        // Split each pair-block in two and walk the halves in lockstep:
        // no bounds checks in the inner loop, and the |0⟩/|1⟩ partners are
        // contiguous streams the compiler can vectorise.
        let stride = 1usize << q;
        let dim = self.amps.len();
        let mut base = 0usize;
        while base < dim {
            let (lo, hi) = self.amps[base..base + (stride << 1)].split_at_mut(stride);
            for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
                let x0 = *a0;
                let x1 = *a1;
                *a0 = u[0] * x0 + u[1] * x1;
                *a1 = u[2] * x0 + u[3] * x1;
            }
            base += stride << 1;
        }
    }

    /// One-qubit gate with a real unitary `r` (H, Ry, …): the real and
    /// imaginary planes transform independently.
    fn apply_1q_real(&mut self, q: usize, r: &[f64; 4]) {
        let stride = 1usize << q;
        let dim = self.amps.len();
        let mut base = 0usize;
        while base < dim {
            let (lo, hi) = self.amps[base..base + (stride << 1)].split_at_mut(stride);
            for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
                let x0 = *a0;
                let x1 = *a1;
                *a0 = C64::new(r[0] * x0.re + r[1] * x1.re, r[0] * x0.im + r[1] * x1.im);
                *a1 = C64::new(r[2] * x0.re + r[3] * x1.re, r[2] * x0.im + r[3] * x1.im);
            }
            base += stride << 1;
        }
    }

    /// One-qubit gate with a real diagonal and purely imaginary
    /// off-diagonal (Rx, Y): `m = [d0, i·c0; i·c1, d1]` with all four
    /// coefficients real.
    fn apply_1q_cross(&mut self, q: usize, m: &[f64; 4]) {
        let [d0, c0, c1, d1] = *m;
        let stride = 1usize << q;
        let dim = self.amps.len();
        let mut base = 0usize;
        while base < dim {
            let (lo, hi) = self.amps[base..base + (stride << 1)].split_at_mut(stride);
            for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
                let x0 = *a0;
                let x1 = *a1;
                *a0 = C64::new(d0 * x0.re - c0 * x1.im, d0 * x0.im + c0 * x1.re);
                *a1 = C64::new(d1 * x1.re - c1 * x0.im, d1 * x1.im + c1 * x0.re);
            }
            base += stride << 1;
        }
    }

    fn apply_2q(&mut self, a: usize, b: usize, u: &[[C64; 4]; 4]) {
        // Basis convention of `Gate::unitary_2q`: local index
        // `l = (bit b << 1) | bit a` where `a` is the first listed qubit.
        let ma = 1usize << a;
        let mb = 1usize << b;
        let dim = self.amps.len();
        for z in 0..dim {
            if z & ma != 0 || z & mb != 0 {
                continue; // enumerate only base states with both bits clear
            }
            let idx = [z, z | ma, z | mb, z | ma | mb];
            let src = [self.amps[idx[0]], self.amps[idx[1]], self.amps[idx[2]], self.amps[idx[3]]];
            for (row, &target) in idx.iter().enumerate() {
                let mut acc = ZERO;
                for (col, &s) in src.iter().enumerate() {
                    acc += u[row][col] * s;
                }
                self.amps[target] = acc;
            }
        }
    }

    /// Measurement probability of each basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// `⟨ψ|ψ⟩` — should be 1 up to rounding for a valid state.
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// `|⟨ψ|φ⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits);
        let mut acc = ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            acc += a.conj() * *b;
        }
        acc.norm_sqr()
    }

    /// Builds a reusable computational-basis sampler for this state.
    ///
    /// Constructing the sampler pays one O(2^n) prefix pass that keeps a
    /// running sum per 1,024 amplitudes; each shot then costs a binary
    /// search over those sums and the re-adding of one block. Use this
    /// when the same evolved state is sampled more than once.
    pub fn sampler(&self) -> BasisSampler<'_> {
        BasisSampler::new(&self.amps, 0)
    }

    /// Samples `shots` measurement outcomes in the computational basis.
    ///
    /// Outcomes are returned packed, one row per shot with qubit `q` at
    /// bit `q`. Builds a [`BasisSampler`] for the call; to amortise its
    /// prefix pass across several calls on the same state, use
    /// [`Self::sampler`] directly.
    pub fn sample<R: RngExt + ?Sized>(&self, rng: &mut R, shots: usize) -> ShotBuffer {
        self.sampler().sample(rng, shots)
    }

    /// Probability of measuring qubit `q` as 1.
    pub fn prob_one(&self, q: usize) -> f64 {
        let mask = 1usize << q;
        self.amps.iter().enumerate().filter(|(z, _)| z & mask != 0).map(|(_, a)| a.norm_sqr()).sum()
    }
}

/// Fills `table` (of length `2^factors.len()`) from its entry 0 by
/// doubling its filled prefix in place once per entry of `factors`: entry
/// `z` becomes `table[0] · Π_i factors[i][bit i of z]`.
fn product_table(table: &mut [C64], factors: &[[C64; 2]]) {
    debug_assert_eq!(table.len(), 1 << factors.len());
    for (k, f) in factors.iter().enumerate() {
        let (low, high) = table[..2 << k].split_at_mut(1 << k);
        for (a, b) in low.iter_mut().zip(high) {
            let t = *a;
            *b = t * f[1];
            *a = t * f[0];
        }
    }
}

/// Amplitudes per block of a [`BasisSampler`], whose running sum it keeps
/// only at each block's end.
const SAMPLER_BLOCK: usize = 1024;

/// A computational-basis sampler of one state, borrowed from its
/// amplitudes and reusable across any number of shot batches.
///
/// The cumulative distribution `cdf[z] = Σ_{y ≤ z} |ψ_{y ^ flip}|²` is
/// never stored. One prefix pass keeps its value at the end of every block
/// of 1,024 amplitudes (a state under 10 qubits is one block). A shot
/// binary-searches the block ends and re-adds one block from the previous
/// end. Those are the additions of a full table in the same order, so every
/// uniform lands on the index the table would give, including the clamp to
/// the last index when it reaches the total.
#[derive(Debug, Clone)]
pub struct BasisSampler<'a> {
    amps: &'a [C64],
    /// Read `amps[z ^ flip]` as the amplitude of `z`: X on every qubit in
    /// `flip`, applied without a permuted copy.
    flip: usize,
    /// Running sum at the end of each block; the last is the total.
    ends: Vec<f64>,
}

impl<'a> BasisSampler<'a> {
    /// The sampler of the state `amps` with X applied to every qubit in
    /// `flip`, built in one prefix pass.
    pub(crate) fn new(amps: &'a [C64], flip: usize) -> Self {
        let dim = amps.len();
        assert!(dim.is_power_of_two(), "{dim} amplitudes are not a state");
        assert!(flip < dim, "flip mask {flip:#x} exceeds {} qubits", dim.trailing_zeros());
        count_pass();
        let block = dim.min(SAMPLER_BLOCK);
        // Within a block, `z ^ flip` keeps to one source block and permutes
        // its entries by the mask's low bits.
        let (flip_hi, flip_lo) = (flip & !(block - 1), flip & (block - 1));
        let mut norms = [0.0; SAMPLER_BLOCK];
        let norms = &mut norms[..block];
        let mut ends = Vec::with_capacity(dim / block);
        let mut acc = 0.0f64;
        for start in (0..dim).step_by(block) {
            let source = &amps[start ^ flip_hi..][..block];
            for (i, p) in norms.iter_mut().enumerate() {
                *p = source[i ^ flip_lo].norm_sqr();
            }
            for &p in norms.iter() {
                acc += p;
            }
            ends.push(acc);
        }
        BasisSampler { amps, flip, ends }
    }

    /// Number of qubits of the sampled state.
    pub fn num_qubits(&self) -> usize {
        self.amps.len().trailing_zeros() as usize
    }

    /// The basis index a uniform `u ∈ [0, total]` selects: the first `z`
    /// whose cumulative sum exceeds `u` (`cdf[z] <= u` fails), or the last
    /// index when none does.
    fn index_of(&self, u: f64) -> usize {
        let b = self.ends.partition_point(|&end| end <= u);
        if b == self.ends.len() {
            return self.amps.len() - 1;
        }
        let block = self.amps.len() / self.ends.len();
        let mut acc = if b == 0 { 0.0 } else { self.ends[b - 1] };
        for z in b * block..(b + 1) * block {
            acc += self.amps[z ^ self.flip].norm_sqr();
            // The cumulative table's search predicate, so a NaN `u` selects
            // index 0 as a search of the table does.
            if acc <= u {
                continue;
            }
            return z;
        }
        unreachable!("block {b} re-adds to its end sum, which exceeds {u}")
    }

    /// Draws one basis-state index, consuming exactly one uniform.
    pub fn sample_index<R: RngExt + ?Sized>(&self, rng: &mut R) -> u64 {
        let total = self.ends[self.ends.len() - 1];
        self.index_of(rng.random::<f64>() * total) as u64
    }

    /// Draws `shots` outcomes into a packed buffer, one uniform per shot.
    pub fn sample<R: RngExt + ?Sized>(&self, rng: &mut R, shots: usize) -> ShotBuffer {
        let mut out = ShotBuffer::with_capacity(self.num_qubits(), shots);
        for _ in 0..shots {
            out.push_index(self.sample_index(rng));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::gate::Gate::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-12;

    #[test]
    fn zero_state_is_basis_zero() {
        let s = StateVector::zero(3);
        assert_eq!(s.amplitudes()[0], C64::real(1.0));
        assert!((s.norm_sqr() - 1.0).abs() < EPS);
        assert_eq!(s.prob_one(0), 0.0);
    }

    #[test]
    fn plus_state_is_uniform() {
        let s = StateVector::plus(2);
        let p = s.probabilities();
        for v in p {
            assert!((v - 0.25).abs() < EPS);
        }
    }

    #[test]
    fn hadamards_build_plus_state() {
        let mut s = StateVector::zero(3);
        for q in 0..3 {
            s.apply(H(q));
        }
        assert!(s.fidelity(&StateVector::plus(3)) > 1.0 - EPS);
    }

    #[test]
    fn x_flips_the_right_qubit() {
        let mut s = StateVector::zero(3);
        s.apply(X(1));
        // basis index with bit 1 set = 2
        assert!((s.amplitudes()[2].norm_sqr() - 1.0).abs() < EPS);
        assert_eq!(s.prob_one(1), 1.0);
        assert_eq!(s.prob_one(0), 0.0);
    }

    #[test]
    fn cx_creates_bell_state() {
        let mut s = StateVector::zero(2);
        s.apply(H(0));
        s.apply(Cx(0, 1));
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < EPS); // |00>
        assert!((p[3] - 0.5).abs() < EPS); // |11>
        assert!(p[1].abs() < EPS && p[2].abs() < EPS);
    }

    #[test]
    fn cx_control_is_first_argument() {
        // control=1 (value 0), target=0 (value 1): nothing happens
        let mut s = StateVector::zero(2);
        s.apply(X(0));
        s.apply(Cx(1, 0));
        assert!((s.probabilities()[1] - 1.0).abs() < EPS);
        // control=0 (value 1): target flips
        let mut s = StateVector::zero(2);
        s.apply(X(0));
        s.apply(Cx(0, 1));
        assert!((s.probabilities()[3] - 1.0).abs() < EPS);
    }

    #[test]
    fn swap_exchanges_qubit_values() {
        let mut s = StateVector::zero(2);
        s.apply(X(0));
        s.apply(Swap(0, 1));
        assert!((s.probabilities()[2] - 1.0).abs() < EPS);
    }

    #[test]
    fn rzz_matches_cx_rz_cx_identity() {
        // RZZ(t) = CX(a,b) · RZ_b(t) · CX(a,b) up to global phase.
        let t = 0.731;
        let mut direct = StateVector::plus(2);
        direct.apply(Rzz(0, 1, t));

        let mut via = StateVector::plus(2);
        via.apply(Cx(0, 1));
        via.apply(Rz(1, t));
        via.apply(Cx(0, 1));

        assert!(direct.fidelity(&via) > 1.0 - 1e-10);
    }

    #[test]
    fn diagonal_fast_paths_match_generic_application() {
        let mut a = StateVector::plus(3);
        a.apply(H(1));
        a.apply(Rz(2, 0.37));
        a.apply(Cz(0, 2));
        a.apply(Rzz(1, 2, -0.9));

        // Re-run with the generic 2x2/4x4 matrix paths.
        let mut b = StateVector::plus(3);
        b.apply(H(1));
        b.apply_1q(2, &Rz(2, 0.37).unitary_1q());
        b.apply_2q(0, 2, &Cz(0, 2).unitary_2q());
        b.apply_2q(1, 2, &Rzz(1, 2, -0.9).unitary_2q());

        assert!(a.fidelity(&b) > 1.0 - 1e-10);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!((*x - *y).norm() < 1e-10);
        }
    }

    #[test]
    fn permutation_kernels_match_generic_matrices() {
        // Start from an asymmetric state and compare the specialised X /
        // CX / SWAP kernels against the generic matrix application.
        let mut prep = StateVector::zero(3);
        for (q, t) in [(0usize, 0.37), (1, 1.1), (2, -0.6)] {
            prep.apply(Ry(q, t));
            prep.apply(Rz(q, t / 2.0));
        }
        for gate in [X(1), Cx(0, 2), Cx(2, 0), Swap(1, 2), Swap(0, 2)] {
            let mut fast = prep.clone();
            fast.apply(gate);
            let mut slow = prep.clone();
            match gate.qubits() {
                crate::gate::GateQubits::One(q) => slow.apply_1q(q, &gate.unitary_1q()),
                crate::gate::GateQubits::Two(a, b) => slow.apply_2q(a, b, &gate.unitary_2q()),
            }
            for (x, y) in fast.amplitudes().iter().zip(slow.amplitudes()) {
                assert!((*x - *y).norm() < 1e-12, "{gate:?} kernels diverge");
            }
        }
    }

    #[test]
    fn unitarity_preserves_norm() {
        let mut s = StateVector::zero(4);
        let gates = [
            H(0),
            Rx(1, 0.3),
            Ry(2, -1.1),
            Cx(0, 2),
            Rzz(1, 3, 0.8),
            Rxx(0, 3, -0.4),
            Swap(1, 2),
            Sx(3),
        ];
        for g in gates {
            s.apply(g);
            assert!((s.norm_sqr() - 1.0).abs() < 1e-10, "norm drifted after {g:?}");
        }
    }

    #[test]
    fn circuit_and_inverse_return_to_start() {
        let mut c = Circuit::new(3);
        for g in [H(0), Cx(0, 1), Ry(2, 0.7), Rzz(1, 2, 0.4), Sx(0), S(1)] {
            c.push(g);
        }
        let mut s = StateVector::zero(3);
        s.apply_circuit(&c);
        s.apply_circuit(&c.inverse());
        assert!(s.fidelity(&StateVector::zero(3)) > 1.0 - 1e-10);
    }

    #[test]
    fn sampling_matches_probabilities() {
        let mut s = StateVector::zero(2);
        s.apply(H(0)); // uniform over qubit 0, qubit 1 stays 0
        let mut rng = StdRng::seed_from_u64(5);
        let shots = s.sample(&mut rng, 4000);
        assert_eq!(shots.len(), 4000);
        let ones = shots.count_ones(0) as f64 / 4000.0;
        assert!((ones - 0.5).abs() < 0.05, "qubit-0 frequency {ones}");
        assert_eq!(shots.count_ones(1), 0);
    }

    #[test]
    fn reused_sampler_matches_per_call_sampling() {
        let mut s = StateVector::zero(3);
        s.apply(H(0));
        s.apply(Cx(0, 1));
        s.apply(Ry(2, 0.4));
        // Two batches from one sampler must equal two `sample` calls on the
        // same RNG stream: reusing the prefix pass may not change any draw.
        let mut rng_a = StdRng::seed_from_u64(9);
        let sampler = s.sampler();
        let mut batched = sampler.sample(&mut rng_a, 100);
        batched.append(&sampler.sample(&mut rng_a, 57));
        let mut rng_b = StdRng::seed_from_u64(9);
        let mut per_call = s.sample(&mut rng_b, 100);
        per_call.append(&s.sample(&mut rng_b, 57));
        assert_eq!(batched, per_call);
        assert_eq!(batched.len(), 157);
    }

    /// An asymmetric state on `n ≥ 5` qubits, so every amplitude is
    /// distinct.
    fn scrambled(n: usize) -> StateVector {
        let mut s = StateVector::zero(n);
        for q in 0..n {
            s.apply(Ry(q, 0.3 + 0.4 * q as f64));
            s.apply(Rz(q, 0.2 * q as f64));
        }
        s.apply(Cx(0, 3));
        s.apply(Cx(4, 1));
        s
    }

    fn assert_close(a: &StateVector, b: &StateVector, label: &str) {
        for (z, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
            assert!((*x - *y).norm() < 1e-12, "{label}: amplitude {z} {x:?} vs {y:?}");
        }
    }

    #[test]
    fn diagonal_runs_match_gate_by_gate_application() {
        // Every diagonal variant, on qubit pairs below, above and across
        // the low/high split (qubits 0–1 | 2–4 at five qubits), in both
        // operand orders.
        let run = [
            Z(0),
            S(3),
            Sdg(1),
            Rz(4, 0.7),
            Phase(2, -1.1),
            Cz(0, 1),
            Cz(4, 2),
            Rzz(1, 3, 0.9),
            Rzz(4, 0, -0.4),
            Rzz(2, 3, 1.3),
            Rz(0, 2.1),
        ];
        let mut fused = scrambled(5);
        fused.apply_diagonal_run(&run);
        let mut gate_by_gate = scrambled(5);
        for g in run {
            gate_by_gate.apply(g);
        }
        assert_close(&fused, &gate_by_gate, "diagonal run");
    }

    #[test]
    fn product_states_match_gate_by_gate_application() {
        let layer = [H(0), Ry(1, 0.8), H(2), Rx(3, -0.5), Sx(4), Rz(0, 0.3), H(3)];
        let mut qubits = vec![[C64::real(1.0), ZERO]; 5];
        for g in layer {
            let GateQubits::One(q) = g.qubits() else { unreachable!() };
            let u = g.unitary_1q();
            let [a0, a1] = qubits[q];
            qubits[q] = [u[0] * a0 + u[1] * a1, u[2] * a0 + u[3] * a1];
        }
        let diagonal = [Rzz(0, 4, 0.6), Cz(1, 2), S(3)];
        let product = StateVector::product_in(Vec::new(), &qubits, &diagonal);
        let mut gate_by_gate = StateVector::zero(5);
        for g in layer.into_iter().chain(diagonal) {
            gate_by_gate.apply(g);
        }
        assert_close(&product, &gate_by_gate, "product state");
        // A reused buffer, longer than the state and full of NaN, gives the
        // same amplitudes bit for bit.
        let reused = StateVector::product_in(vec![C64::real(f64::NAN); 77], &qubits, &diagonal);
        assert_eq!(reused, product);
    }

    #[test]
    fn flipped_sampler_matches_applying_x_gates() {
        let s = scrambled(5);
        let mut flipped = s.clone();
        flipped.apply(X(1));
        flipped.apply(X(4));
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let via_mask = BasisSampler::new(s.amplitudes(), 0b10010).sample(&mut a, 500);
        assert_eq!(via_mask, flipped.sampler().sample(&mut b, 500));
    }

    /// The cumulative table the block sampler replaced, kept as its oracle:
    /// every running sum of the flipped state, searched for the first one
    /// above `u` and clamped to the last index.
    fn table_index(amps: &[C64], flip: usize, u: f64) -> usize {
        let mut acc = 0.0f64;
        let cdf: Vec<f64> = (0..amps.len())
            .map(|z| {
                acc += amps[z ^ flip].norm_sqr();
                acc
            })
            .collect();
        cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
    }

    #[test]
    fn block_sampler_matches_the_cumulative_table_bit_for_bit() {
        let twelve = scrambled(12);
        // The last 1,500 amplitudes exactly zero: a flat tail across a
        // partial block and a whole one.
        let mut zero_tail = twelve.clone();
        zero_tail.amps[4096 - 1500..].fill(ZERO);
        let cases = [
            ("12 qubits", &twelve, 0),
            ("12 qubits", &twelve, 0b101),
            ("12 qubits", &twelve, 0b1100_0000_0101),
            ("zero tail", &zero_tail, 0),
            ("zero tail", &zero_tail, 0b1100_0000_0101),
            ("5 qubits", &scrambled(5), 0),
            ("5 qubits", &scrambled(5), 0b10110),
        ];
        let mut rng = StdRng::seed_from_u64(21);
        for (label, state, flip) in cases {
            let sampler = BasisSampler::new(state.amplitudes(), flip);
            let blocks = state.amplitudes().len().div_ceil(SAMPLER_BLOCK);
            assert_eq!(sampler.ends.len(), blocks, "{label}");
            let total = sampler.ends[blocks - 1];
            // Every block end and its neighbouring doubles, zero, the total
            // (the clamp), then uniform draws.
            let mut us = vec![0.0, total];
            for &end in &sampler.ends {
                let bits = end.to_bits();
                us.extend([end, f64::from_bits(bits + 1), f64::from_bits(bits - 1)]);
            }
            us.extend((0..500).map(|_| rng.random::<f64>() * total));
            for u in us {
                assert_eq!(
                    sampler.index_of(u),
                    table_index(state.amplitudes(), flip, u),
                    "{label}, flip {flip:#b}, u = {u:e}"
                );
            }
        }
    }
}
