//! Stochastic NISQ noise model and noisy circuit sampling.
//!
//! Real QPU shots suffer gate errors, T1/T2 decoherence accumulating with
//! circuit duration, and readout misclassification. We model all three as
//! Monte-Carlo *trajectories*: each trajectory applies the ideal circuit
//! with stochastically inserted Pauli errors (the standard Pauli-twirl
//! approximation of the combined amplitude/phase-damping channel) and then
//! samples measurements with readout flips.
//!
//! A trajectory does not run its errors as gates. Its error draws never
//! depend on the state, so it draws them first, gate by gate and qubit by
//! qubit, and pushes each one to the end of the circuit as a *Pauli frame*:
//! a Clifford gate conjugates the frame, and a rotation whose axis
//! anticommutes with the frame runs with its angle negated. What is left is
//! an ideal gate list plus the frame's X part, which the sampler reads as a
//! permutation of the basis.
//!
//! [`NoisySimulator::sample`] therefore runs in two phases. It first draws
//! every trajectory's frame, then groups the trajectories whose gate lists
//! are equal bit for bit (most often those whose frame negated no gate).
//! Each distinct list is evolved once, with fused passes: the leading
//! one-qubit layer and the diagonal run after it as one product-state
//! write, each later diagonal run as one pass, every other gate on its
//! own. Every trajectory of the group then builds its own
//! [`BasisSampler`] through its flip mask and draws its shots from its own
//! stream. A 19-qubit QAOA evolution under Auckland noise makes 20 passes
//! over its amplitudes, and each trajectory adds 1 prefix pass, where
//! running every gate and error would make about 107 per trajectory. Every
//! shot's uniform lands on the basis state it would land on there, up to
//! rounding at a cumulative-sum boundary.
//!
//! Each thread evolves in one amplitude buffer that it reuses across
//! trajectories and calls. The buffer grows to the largest state the
//! thread has evolved and is freed when the thread exits.
//!
//! This reproduces the property the paper's evaluation hinges on: result
//! quality collapses once circuit duration approaches `min(T1, T2)`, and
//! deeper circuits (more gates) accumulate proportionally more error.
//!
//! Trajectories are independent work units: trajectory `i` derives its
//! own RNG stream from `(seed, i)` via [`qjo_exec::stream_seed`], and the
//! grouping is done on the drawn lists before any evolution, so the
//! returned shots, and the number of evolutions, are the same at any
//! [`Parallelism`] setting.

use std::cell::Cell;

use qjo_exec::{par_map, par_map_seeded, Parallelism};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::circuit::Circuit;
use crate::complex::{C64, ONE, ZERO};
use crate::gate::{Gate, GateQubits};
use crate::shots::ShotBuffer;
use crate::statevector::{BasisSampler, StateVector};

/// Attempt budget per trajectory (first run + reseeded re-runs).
const TRAJECTORY_ATTEMPTS: u64 = 3;
/// Domain-separation constant for reseeding lost trajectories.
const TRAJECTORY_RESEED_SALT: u64 = 0x7472_616a_5f72_6572;

/// Calibration data of a (real or hypothetical) gate-based QPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Relaxation time T1 in seconds.
    pub t1: f64,
    /// Dephasing time T2 in seconds.
    pub t2: f64,
    /// Duration of a single-qubit gate in seconds.
    pub time_1q: f64,
    /// Duration of a two-qubit gate in seconds.
    pub time_2q: f64,
    /// Depolarising error probability per single-qubit gate.
    pub p_depol_1q: f64,
    /// Depolarising error probability per two-qubit gate (per gate, split
    /// across both qubits).
    pub p_depol_2q: f64,
    /// Probability of misreading each measured bit.
    pub readout_error: f64,
}

impl NoiseModel {
    /// IBM Q Auckland (27 qubits, Falcon r5.11) at the calibration reported
    /// in the paper: T1 = 151.13 µs, T2 = 138.72 µs, average gate time
    /// 472.51 ns.
    pub fn ibm_auckland() -> Self {
        NoiseModel {
            t1: 151.13e-6,
            t2: 138.72e-6,
            time_1q: 35.0e-9,
            time_2q: 472.51e-9,
            p_depol_1q: 3.0e-4,
            p_depol_2q: 9.0e-3,
            readout_error: 1.3e-2,
        }
    }

    /// IBM Q Washington (127 qubits, Eagle r1): T1 = 92.81 µs,
    /// T2 = 93.36 µs, average gate time 550.41 ns.
    pub fn ibm_washington() -> Self {
        NoiseModel {
            t1: 92.81e-6,
            t2: 93.36e-6,
            time_1q: 40.0e-9,
            time_2q: 550.41e-9,
            p_depol_1q: 5.0e-4,
            p_depol_2q: 1.4e-2,
            readout_error: 2.0e-2,
        }
    }

    /// An ideal device: no errors, instantaneous gates relative to coherence.
    pub fn noiseless() -> Self {
        NoiseModel {
            t1: f64::INFINITY,
            t2: f64::INFINITY,
            time_1q: 0.0,
            time_2q: 0.0,
            p_depol_1q: 0.0,
            p_depol_2q: 0.0,
            readout_error: 0.0,
        }
    }

    /// Checks the calibration for physical consistency.
    ///
    /// Decoherence obeys `T2 ≤ 2·T1` (transverse decay is bounded by twice
    /// the longitudinal rate). A calibration violating it makes
    /// [`Self::pauli_rates`] clamp the dephasing channel to zero — the model
    /// then *silently* simulates less Z noise than the nominal `1/T2` decay,
    /// which is exactly the kind of miscalibration a co-design sweep should
    /// reject rather than average over. Infinite times are fine: `T2 = ∞`
    /// only passes together with `T1 = ∞` (the noiseless device).
    pub fn validate(&self) -> Result<(), String> {
        if self.t2 > 2.0 * self.t1 {
            return Err(format!(
                "physically inconsistent calibration: T2 = {:.3e} s exceeds 2·T1 = {:.3e} s",
                self.t2,
                2.0 * self.t1
            ));
        }
        Ok(())
    }

    /// The paper's calibration-average gate time.
    ///
    /// Transpiled QAOA circuits are dominated by two-qubit gates (every
    /// cost term is an RZZ plus routing SWAPs), so the device-level average
    /// the paper quotes — e.g. 472.51 ns for Auckland — is the two-qubit
    /// time, not the unweighted mean of the 1q/2q durations.
    pub fn avg_gate_time(&self) -> f64 {
        if self.time_2q > 0.0 {
            self.time_2q
        } else {
            self.time_1q
        }
    }

    /// Maximum circuit depth before the cumulative gate time exceeds the
    /// coherence window — the paper's `d = ⌊min(T1, T2) / g_avg⌋` with
    /// `g_avg` the calibration-average gate time ([`Self::avg_gate_time`]).
    pub fn max_coherent_depth(&self) -> usize {
        self.coherent_depth_for_gate_time(self.avg_gate_time())
    }

    /// Coherence-limited depth for a circuit's actual gate mix: the average
    /// layer time is the gate-count-weighted mean of the 1q/2q durations.
    pub fn max_coherent_depth_for(&self, gates_1q: usize, gates_2q: usize) -> usize {
        let total = gates_1q + gates_2q;
        if total == 0 {
            return usize::MAX;
        }
        let g = (gates_1q as f64 * self.time_1q + gates_2q as f64 * self.time_2q) / total as f64;
        self.coherent_depth_for_gate_time(g)
    }

    fn coherent_depth_for_gate_time(&self, g: f64) -> usize {
        // min(T1, T2) picks the finite window when only one time is
        // infinite; with both infinite (or zero-duration gates) there is no
        // coherence limit at all.
        let window = self.t1.min(self.t2);
        if !window.is_finite() || g <= 0.0 {
            return usize::MAX;
        }
        (window / g) as usize
    }

    /// Pauli-twirl error probabilities `(p_x, p_y, p_z)` accumulated over a
    /// duration `t`: amplitude damping at rate `1/T1` contributes X and Y
    /// errors, pure dephasing the remainder of the `1/T2` decay as Z errors.
    ///
    /// Each channel is evaluated independently, so a hypothetical
    /// pure-dephasing device (`t1 = ∞`, finite `t2`) still produces Z
    /// errors, and a pure-relaxation device (`t2 = 2·t1`) still produces
    /// X/Y errors. An infinite time simply switches its channel off.
    pub fn pauli_rates(&self, t: f64) -> (f64, f64, f64) {
        let p_relax = if self.t1.is_finite() { 1.0 - (-t / self.t1).exp() } else { 0.0 };
        let p_deph = if self.t2.is_finite() { 1.0 - (-t / self.t2).exp() } else { 0.0 };
        let px = p_relax / 4.0;
        let py = p_relax / 4.0;
        // The clamp only fires for T2 > 2·T1 calibrations, which
        // `Self::validate` rejects as physically inconsistent.
        let pz = (p_deph / 2.0 - p_relax / 4.0).max(0.0);
        (px, py, pz)
    }
}

/// Noisy circuit executor producing measurement shots.
#[derive(Debug, Clone)]
pub struct NoisySimulator {
    /// Device calibration.
    pub model: NoiseModel,
    /// Number of independent noise trajectories; shots are split across
    /// them. More trajectories sample gate errors more finely but cost one
    /// state-vector evolution of the circuit each.
    pub trajectories: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the trajectory loop; affects wall-clock only,
    /// never results.
    pub parallelism: Parallelism,
}

/// Per-gate-class error probabilities, folded once per `sample` call so the
/// hot trajectory loop never re-evaluates the `exp`s in
/// [`NoiseModel::pauli_rates`]. The cumulative thresholds are exactly the
/// `px`, `px + py`, `px + py + pz` sums the per-gate path used, so the
/// uniform-draw comparisons are bit-identical.
#[derive(Debug, Clone, Copy)]
struct GateNoise {
    p_depol: f64,
    thresh_x: f64,
    thresh_xy: f64,
    thresh_xyz: f64,
}

impl NoisySimulator {
    /// Creates an executor with a default of 16 trajectories.
    ///
    /// Debug builds assert [`NoiseModel::validate`]; call it yourself when
    /// sweeping hypothetical calibrations.
    pub fn new(model: NoiseModel, seed: u64) -> Self {
        debug_assert!(model.validate().is_ok(), "{}", model.validate().unwrap_err());
        NoisySimulator { model, trajectories: 16, seed, parallelism: Parallelism::auto() }
    }

    /// Runs `shots` measurements of `circuit` under the noise model,
    /// returned as a packed [`ShotBuffer`] in trajectory order.
    ///
    /// Every trajectory's Pauli frame is drawn first; trajectories whose
    /// gate lists come out equal bit for bit share one evolution (counted
    /// in `gatesim.evolutions`). Trajectory `i` derives its own RNG stream
    /// from `(self.seed, i)`, so the result does not depend on
    /// [`Self::parallelism`].
    pub fn sample(&self, circuit: &Circuit, shots: usize) -> ShotBuffer {
        assert!(self.trajectories >= 1, "need at least one trajectory");
        debug_assert!(self.model.validate().is_ok(), "{}", self.model.validate().unwrap_err());
        let _span = qjo_obs::span!("gatesim.noisy.sample");
        qjo_obs::counter!("gatesim.trajectories").add(self.trajectories as u64);
        qjo_obs::counter!("gatesim.shots").add(shots as u64);
        let groups = group_by_gates(self.draw_frames(circuit, shots));
        qjo_obs::counter!("gatesim.evolutions").add(groups.len() as u64);
        let n = circuit.num_qubits();
        let mut sampled: Vec<(usize, ShotBuffer)> =
            par_map(groups, self.parallelism, |mut group| {
                let gates = std::mem::take(&mut group[0].gates);
                with_evolved(n, &gates, |state| {
                    group
                        .into_iter()
                        .map(|mut d| {
                            let sampler = BasisSampler::new(state.amplitudes(), d.flip);
                            (d.index, self.read_out(&sampler, &mut d.rng, d.shots))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .into_iter()
            .flatten()
            .collect();
        sampled.sort_unstable_by_key(|&(index, _)| index);
        let mut all = ShotBuffer::with_capacity(n, shots);
        for (_, buf) in &sampled {
            all.append(buf);
        }
        all
    }

    /// Draws the Pauli frame of every trajectory that gets shots, each on
    /// its own stream, in trajectory order.
    fn draw_frames(&self, circuit: &Circuit, shots: usize) -> Vec<Drawn> {
        let noise = [self.gate_noise(false), self.gate_noise(true)];
        let trajectories: Vec<usize> = (0..self.trajectories).collect();
        par_map_seeded(trajectories, self.seed, self.parallelism, |index, rng| {
            let shots = self.shots_of(index, shots);
            if shots == 0 {
                return None;
            }
            let mut rng = self.trajectory_stream(index, rng);
            let (gates, flip) = frame_gates(circuit, &noise, &mut rng);
            Some(Drawn { index, shots, gates, flip, rng })
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Trajectory `t`'s share of `shots`: an even split, with the remainder
    /// going to the first trajectories.
    fn shots_of(&self, t: usize, shots: usize) -> usize {
        shots / self.trajectories + usize::from(t < shots % self.trajectories)
    }

    /// Trajectory `t`'s RNG stream, given the one the map handed it.
    ///
    /// A lost trajectory (the `gatesim.trajectory` fault site) is re-run on
    /// a reseeded stream. The decision is pure in `(plan, seed, t,
    /// attempt)`, so the retry count — and hence the replacement stream —
    /// is thread-count invariant.
    fn trajectory_stream(&self, t: usize, rng: &StdRng) -> StdRng {
        let mut attempt: u64 = 0;
        while attempt + 1 < TRAJECTORY_ATTEMPTS
            && qjo_resil::should_inject(
                "gatesim.trajectory",
                self.seed.wrapping_add(attempt),
                t as u64,
            )
        {
            qjo_obs::counter!("resil.gatesim.trajectory.retries").incr();
            attempt += 1;
        }
        if attempt == 0 {
            return rng.clone();
        }
        let stream = qjo_resil::stream_seed(self.seed ^ TRAJECTORY_RESEED_SALT, attempt);
        StdRng::seed_from_u64(qjo_resil::stream_seed(stream, t as u64))
    }

    /// Draws one trajectory's `shots` from `sampler` and then its readout
    /// flips, shot-major/bit-minor, so the flips of one shot land as a
    /// single word XOR. With the error draws before them, that is the
    /// trajectory stream's whole draw order.
    fn read_out(&self, sampler: &BasisSampler, rng: &mut StdRng, shots: usize) -> ShotBuffer {
        let mut out = sampler.sample(rng, shots);
        if self.model.readout_error > 0.0 {
            for s in 0..shots {
                let mut flips = 0u64;
                for q in 0..sampler.num_qubits() {
                    if rng.random_bool(self.model.readout_error) {
                        flips |= 1u64 << q;
                    }
                }
                out.xor_word(s, 0, flips);
            }
        }
        out
    }

    /// Folds the depolarising probability and cumulative Pauli-twirl
    /// thresholds for one gate class (1q or 2q).
    fn gate_noise(&self, two_qubit: bool) -> GateNoise {
        let (p_depol, t_gate) = if two_qubit {
            (self.model.p_depol_2q, self.model.time_2q)
        } else {
            (self.model.p_depol_1q, self.model.time_1q)
        };
        let (px, py, pz) = self.model.pauli_rates(t_gate);
        GateNoise { p_depol, thresh_x: px, thresh_xy: px + py, thresh_xyz: px + py + pz }
    }
}

/// Draws the errors that follow one gate on qubit `q` and hands each to
/// `error` as an X, Y or Z gate: a depolarising Pauli with probability
/// `p_depol`, then a Pauli-twirled T1/T2 decoherence error. The draws never
/// depend on the state, and their order is the RNG stream's contract.
fn draw_errors<R: RngExt + ?Sized>(
    noise: &GateNoise,
    q: usize,
    rng: &mut R,
    mut error: impl FnMut(Gate),
) {
    if noise.p_depol > 0.0 && rng.random_bool(noise.p_depol) {
        error(match rng.random_range(0..3) {
            0 => Gate::X(q),
            1 => Gate::Y(q),
            _ => Gate::Z(q),
        });
    }
    let u: f64 = rng.random();
    if u < noise.thresh_x {
        error(Gate::X(q));
    } else if u < noise.thresh_xy {
        error(Gate::Y(q));
    } else if u < noise.thresh_xyz {
        error(Gate::Z(q));
    }
}

/// A Pauli operator up to phase, `X^x · Z^z` with one bit per qubit.
#[derive(Debug, Default)]
struct PauliFrame {
    x: usize,
    z: usize,
}

impl PauliFrame {
    fn bit(mask: usize, q: usize) -> usize {
        mask >> q & 1
    }

    /// Multiplies a Pauli error gate into the frame.
    fn absorb(&mut self, error: Gate) {
        match error {
            Gate::X(q) => self.x ^= 1 << q,
            Gate::Y(q) => {
                self.x ^= 1 << q;
                self.z ^= 1 << q;
            }
            Gate::Z(q) => self.z ^= 1 << q,
            _ => unreachable!("errors are Pauli gates, not {error:?}"),
        }
    }

    /// Moves the frame from before `gate` to after it and returns the gate
    /// that runs in its place: `gate · F = F' · returned`. A Clifford gate
    /// conjugates the frame (`F' = gate · F · gate†`) and runs unchanged; a
    /// rotation `exp(−iθA/2)` leaves the frame as it is and runs with `−θ`
    /// when its axis `A` anticommutes with the frame.
    fn push_through(&mut self, gate: Gate) -> Gate {
        use Gate::*;
        let (x, z) = (self.x, self.z);
        let swap_bits = |m: usize, a: usize, b: usize| {
            let d = (m >> a ^ m >> b) & 1;
            m ^ (d << a | d << b)
        };
        let flip_if = |anticommutes: usize, negated: Gate| (anticommutes == 1).then_some(negated);
        let negated = match gate {
            X(_) | Y(_) | Z(_) => None,
            H(q) => {
                let d = Self::bit(x ^ z, q) << q;
                self.x ^= d;
                self.z ^= d;
                None
            }
            S(q) | Sdg(q) => {
                self.z ^= Self::bit(x, q) << q;
                None
            }
            Sx(q) => {
                self.x ^= Self::bit(z, q) << q;
                None
            }
            Cx(c, t) => {
                self.x ^= Self::bit(x, c) << t;
                self.z ^= Self::bit(z, t) << c;
                None
            }
            Cz(a, b) => {
                self.z ^= Self::bit(x, a) << b | Self::bit(x, b) << a;
                None
            }
            Swap(a, b) => {
                self.x = swap_bits(x, a, b);
                self.z = swap_bits(z, a, b);
                None
            }
            Rx(q, t) => flip_if(Self::bit(z, q), Rx(q, -t)),
            Ry(q, t) => flip_if(Self::bit(x ^ z, q), Ry(q, -t)),
            Rz(q, t) => flip_if(Self::bit(x, q), Rz(q, -t)),
            Phase(q, t) => flip_if(Self::bit(x, q), Phase(q, -t)),
            Rzz(a, b, t) => flip_if(Self::bit(x, a) ^ Self::bit(x, b), Rzz(a, b, -t)),
            Rxx(a, b, t) => flip_if(Self::bit(z, a) ^ Self::bit(z, b), Rxx(a, b, -t)),
        };
        negated.unwrap_or(gate)
    }
}

/// A trajectory after its error draws: the ideal gate list its Pauli frame
/// leaves behind, the frame's X part, and its stream as the draws left it.
struct Drawn {
    index: usize,
    shots: usize,
    gates: Vec<Gate>,
    flip: usize,
    rng: StdRng,
}

/// Draws one trajectory's errors into a Pauli frame and returns the ideal
/// gate list the frame leaves behind with the frame's X part.
fn frame_gates(circuit: &Circuit, noise: &[GateNoise; 2], rng: &mut StdRng) -> (Vec<Gate>, usize) {
    let mut frame = PauliFrame::default();
    let mut gates = Vec::with_capacity(circuit.len());
    for g in circuit.gates() {
        gates.push(frame.push_through(*g));
        let noise = &noise[usize::from(g.is_two_qubit())];
        for q in g.qubits().iter() {
            draw_errors(noise, q, rng, |e| frame.absorb(e));
        }
    }
    (gates, frame.x)
}

/// Groups trajectories whose gate lists are equal bit for bit (angles by
/// [`f64::to_bits`]), in order of first occurrence. The first member of a
/// group is the one whose list is evolved.
fn group_by_gates(drawn: Vec<Drawn>) -> Vec<Vec<Drawn>> {
    let same = |a: &Gate, b: &Gate| {
        std::mem::discriminant(a) == std::mem::discriminant(b)
            && a.qubits() == b.qubits()
            && a.angle().map(f64::to_bits) == b.angle().map(f64::to_bits)
    };
    let mut groups: Vec<Vec<Drawn>> = Vec::new();
    for d in drawn {
        let list = |g: &Vec<Drawn>| {
            g[0].gates.len() == d.gates.len()
                && g[0].gates.iter().zip(&d.gates).all(|(a, b)| same(a, b))
        };
        match groups.iter().position(list) {
            Some(g) => groups[g].push(d),
            None => groups.push(vec![d]),
        }
    }
    groups
}

thread_local! {
    /// The amplitude buffer this thread evolves trajectories in.
    static AMPLITUDES: Cell<Vec<C64>> = const { Cell::new(Vec::new()) };
}

/// Evolves `gates` (see [`evolve_fused`]) in this thread's amplitude buffer
/// and hands the state to `f`; the buffer is kept for the thread's next
/// evolution.
fn with_evolved<R>(num_qubits: usize, gates: &[Gate], f: impl FnOnce(&StateVector) -> R) -> R {
    let state = evolve_fused(num_qubits, gates, AMPLITUDES.take());
    let out = f(&state);
    AMPLITUDES.set(state.into_amplitudes());
    out
}

/// Evolves `|0…0⟩` through `gates` with fused passes, in `buffer`'s
/// allocation: the leading one-qubit gates act qubit by qubit and, with the
/// diagonal run that follows them, are written as one product state; each
/// later diagonal run is one pass; every other gate is applied on its own.
fn evolve_fused(num_qubits: usize, gates: &[Gate], buffer: Vec<C64>) -> StateVector {
    let diagonal_run = |gates: &[Gate]| gates.iter().take_while(|g| g.is_diagonal()).count();
    let prefix = gates.iter().take_while(|g| !g.is_two_qubit()).count();
    let mut qubits = vec![[ONE, ZERO]; num_qubits];
    for g in &gates[..prefix] {
        let GateQubits::One(q) = g.qubits() else { unreachable!("the prefix is one-qubit") };
        let u = g.unitary_1q();
        let [a0, a1] = qubits[q];
        qubits[q] = [u[0] * a0 + u[1] * a1, u[2] * a0 + u[3] * a1];
    }
    let run = diagonal_run(&gates[prefix..]);
    let mut state = StateVector::product_in(buffer, &qubits, &gates[prefix..prefix + run]);
    let mut rest = &gates[prefix + run..];
    while let Some(&g) = rest.first() {
        let run = diagonal_run(rest);
        if run > 1 {
            state.apply_diagonal_run(&rest[..run]);
        } else {
            state.apply(g);
        }
        rest = &rest[run.max(1)..];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate::*;
    use rand::SeedableRng;

    #[test]
    fn noiseless_model_reproduces_ideal_statistics() {
        let mut c = Circuit::new(2);
        c.push(H(0));
        c.push(Cx(0, 1));
        let sim = NoisySimulator::new(NoiseModel::noiseless(), 3);
        let shots = sim.sample(&c, 2000);
        assert_eq!(shots.len(), 2000);
        // Bell state: both bits always agree.
        assert!(shots.iter_bits().all(|b| b[0] == b[1]));
        let ones = shots.count_ones(0) as f64 / 2000.0;
        assert!((ones - 0.5).abs() < 0.05);
    }

    #[test]
    fn readout_error_flips_bits() {
        let c = Circuit::new(1); // state stays |0>
        let model = NoiseModel { readout_error: 0.25, ..NoiseModel::noiseless() };
        let sim = NoisySimulator::new(model, 7);
        let shots = sim.sample(&c, 4000);
        let flipped = shots.count_ones(0) as f64 / 4000.0;
        assert!((flipped - 0.25).abs() < 0.05, "flip rate {flipped}");
    }

    #[test]
    fn depolarising_noise_degrades_bell_correlations() {
        let mut c = Circuit::new(2);
        c.push(H(0));
        c.push(Cx(0, 1));
        // Pad with identity-equivalent work to accumulate error.
        for _ in 0..30 {
            c.push(X(0));
            c.push(X(0));
        }
        let model = NoiseModel { p_depol_1q: 0.02, p_depol_2q: 0.05, ..NoiseModel::noiseless() };
        let sim = NoisySimulator { trajectories: 64, ..NoisySimulator::new(model, 1) };
        let shots = sim.sample(&c, 2048);
        let agree = shots.iter_bits().filter(|b| b[0] == b[1]).count() as f64 / 2048.0;
        assert!(agree < 0.95, "correlations survived unrealistically: {agree}");
        assert!(agree > 0.5, "noise should not fully scramble: {agree}");
    }

    #[test]
    fn deeper_circuits_accumulate_more_error() {
        // Identity circuits of increasing depth on |0>: the fraction of
        // erroneous `1` readouts must grow with depth.
        let model = NoiseModel { p_depol_1q: 0.01, ..NoiseModel::noiseless() };
        let error_rate = |depth: usize| {
            let mut c = Circuit::new(1);
            for _ in 0..depth {
                c.push(X(0));
                c.push(X(0));
            }
            let sim = NoisySimulator { trajectories: 256, ..NoisySimulator::new(model, 5) };
            let shots = sim.sample(&c, 4096);
            shots.count_ones(0) as f64 / 4096.0
        };
        let shallow = error_rate(5);
        let deep = error_rate(80);
        assert!(deep > shallow + 0.05, "deep error {deep} not clearly above shallow {shallow}");
    }

    #[test]
    fn pauli_rates_are_probabilities_and_grow_with_time() {
        let m = NoiseModel::ibm_auckland();
        let (x1, y1, z1) = m.pauli_rates(1e-7);
        let (x2, y2, z2) = m.pauli_rates(1e-5);
        for p in [x1, y1, z1, x2, y2, z2] {
            assert!((0.0..=1.0).contains(&p));
        }
        assert!(x2 > x1 && y2 > y1 && z2 >= z1);
        // Noiseless model has zero rates at any duration.
        assert_eq!(NoiseModel::noiseless().pauli_rates(1.0), (0.0, 0.0, 0.0));
    }

    #[test]
    fn pure_dephasing_device_still_dephases() {
        // Regression: a hypothetical pure-dephasing calibration (finite T2,
        // infinite T1) used to short-circuit to zero noise because the old
        // `pauli_rates` required *both* times to be finite.
        let m = NoiseModel { t1: f64::INFINITY, t2: 100e-6, ..NoiseModel::noiseless() };
        let (px, py, pz) = m.pauli_rates(1e-6);
        assert_eq!(px, 0.0, "no amplitude damping without a T1 channel");
        assert_eq!(py, 0.0);
        assert!(pz > 0.0, "finite T2 must produce Z errors, got pz = {pz}");
        // And the Z rate matches the explicit p_deph/2 formula.
        let expected = (1.0 - (-1e-6f64 / 100e-6).exp()) / 2.0;
        assert!((pz - expected).abs() < 1e-15);
    }

    #[test]
    fn validate_accepts_physical_and_rejects_unphysical_calibrations() {
        assert!(NoiseModel::ibm_auckland().validate().is_ok());
        assert!(NoiseModel::ibm_washington().validate().is_ok());
        assert!(NoiseModel::noiseless().validate().is_ok());
        // Pure dephasing (T1 = ∞) satisfies T2 ≤ 2·T1.
        let deph = NoiseModel { t1: f64::INFINITY, t2: 100e-6, ..NoiseModel::noiseless() };
        assert!(deph.validate().is_ok());
        // T2 > 2·T1 is unphysical — this is exactly the regime where the
        // pz clamp in `pauli_rates` silently under-reports dephasing.
        let bad = NoiseModel { t1: 10e-6, t2: 50e-6, ..NoiseModel::noiseless() };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("2·T1"), "unexpected message: {err}");
        // Boundary: pure amplitude damping has exactly T2 = 2·T1.
        let boundary = NoiseModel { t1: 10e-6, t2: 20e-6, ..NoiseModel::noiseless() };
        assert!(boundary.validate().is_ok());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "inconsistent calibration")]
    fn debug_builds_reject_unphysical_models_at_construction() {
        let bad = NoiseModel { t1: 10e-6, t2: 50e-6, ..NoiseModel::noiseless() };
        let _ = NoisySimulator::new(bad, 0);
    }

    #[test]
    fn coherent_depth_matches_paper_formula() {
        // The paper's g_avg for QAOA workloads is the two-qubit gate time
        // (472.51 ns on Auckland), not the unweighted 1q/2q mean.
        let m = NoiseModel::ibm_auckland();
        assert_eq!(m.avg_gate_time(), m.time_2q);
        let expected = (m.t1.min(m.t2) / m.time_2q) as usize;
        assert_eq!(m.max_coherent_depth(), expected);
        assert!(expected > 100, "Auckland supports a few hundred layers");
        assert_eq!(NoiseModel::noiseless().max_coherent_depth(), usize::MAX);
    }

    #[test]
    fn coherent_depth_handles_gate_mix_and_infinite_times() {
        let m = NoiseModel::ibm_auckland();
        // All-2q mix reproduces the calibration-average depth; mixing in 1q
        // gates shortens the average layer and deepens the window.
        assert_eq!(m.max_coherent_depth_for(0, 1), m.max_coherent_depth());
        let mixed = m.max_coherent_depth_for(3, 1);
        let g = (3.0 * m.time_1q + m.time_2q) / 4.0;
        assert_eq!(mixed, (m.t2 / g) as usize);
        assert!(mixed > m.max_coherent_depth());
        assert_eq!(m.max_coherent_depth_for(0, 0), usize::MAX);
        // One infinite coherence time: the finite one bounds the window.
        let deph = NoiseModel { t1: f64::INFINITY, t2: 100e-6, ..NoiseModel::ibm_auckland() };
        assert_eq!(deph.max_coherent_depth(), (100e-6 / deph.time_2q) as usize);
    }

    #[test]
    fn washington_is_noisier_than_auckland() {
        // The paper's observation: more qubits, worse coherence.
        let a = NoiseModel::ibm_auckland();
        let w = NoiseModel::ibm_washington();
        assert!(w.t1 < a.t1 && w.t2 < a.t2);
        assert!(w.max_coherent_depth() < a.max_coherent_depth());
    }

    /// Auckland with every error rate scaled by `factor`, as the noise
    /// ablation scales it.
    fn auckland_times(factor: f64) -> NoiseModel {
        let base = NoiseModel::ibm_auckland();
        NoiseModel {
            p_depol_1q: base.p_depol_1q * factor,
            p_depol_2q: base.p_depol_2q * factor,
            readout_error: (base.readout_error * factor).min(0.45),
            t1: base.t1 / factor,
            t2: base.t2 / factor,
            ..base
        }
    }

    /// A 10-qubit QAOA circuit on a random Ising model with fields.
    fn qaoa_10() -> Circuit {
        let mut rng = StdRng::seed_from_u64(10);
        let mut ising = qjo_qubo::IsingModel::new(10);
        for i in 0..10 {
            ising.add_field(i, rng.random_range(-1.0..1.0));
            for j in i + 1..10 {
                if rng.random_bool(0.4) {
                    ising.add_coupling(i, j, rng.random_range(-1.0..1.0));
                }
            }
        }
        let params = crate::qaoa::QaoaParams { gammas: vec![0.37], betas: vec![-0.81] };
        crate::qaoa::qaoa_circuit(&ising, &params)
    }

    #[test]
    fn thread_count_does_not_change_shots() {
        let mut bell = Circuit::new(2);
        bell.push(H(0));
        bell.push(Cx(0, 1));
        // Under Auckland noise ×20 the QAOA trajectories carry X, Y and Z
        // frames through H, RZ/RZZ and RX; in the Bell circuit errors are
        // rare. Under Auckland noise ×0.1 most QAOA trajectories keep the
        // ideal gate list, so they share evolutions.
        let qaoa = qaoa_10();
        let low = auckland_times(0.1);
        let cases =
            [(&bell, NoiseModel::ibm_auckland()), (&qaoa, auckland_times(20.0)), (&qaoa, low)];
        for (c, model) in cases {
            let at = |threads| {
                let sim = NoisySimulator {
                    trajectories: 6,
                    parallelism: Parallelism::new(threads),
                    ..NoisySimulator::new(model, 11)
                };
                sim.sample(c, 300)
            };
            let sequential = at(1);
            assert_eq!(sequential, at(3));
            assert_eq!(sequential, at(8));
        }
        let sim = NoisySimulator { trajectories: 6, ..NoisySimulator::new(low, 11) };
        let lists = group_by_gates(sim.draw_frames(&qaoa, 300)).len();
        assert!(lists < 6, "the low-noise trajectories share no gate list ({lists} lists)");
    }

    #[test]
    fn trajectories_group_by_bit_equal_gate_lists_in_first_occurrence_order() {
        let drawn = |index: usize, gates: Vec<Gate>| Drawn {
            index,
            shots: 1,
            gates,
            flip: index,
            rng: StdRng::seed_from_u64(0),
        };
        let groups = group_by_gates(vec![
            drawn(0, vec![H(0), Rx(0, 0.5)]),
            drawn(1, vec![H(0), Rx(0, -0.5)]),
            drawn(2, vec![H(0), Rx(0, 0.5)]),
            // Equal under `==`, not bit for bit.
            drawn(3, vec![H(0), Rx(0, -0.0)]),
            drawn(4, vec![H(0), Rx(0, 0.0)]),
            drawn(5, vec![H(0), Rx(1, 0.5)]),
            drawn(6, vec![H(0), Ry(0, 0.5)]),
            drawn(7, vec![H(0)]),
            drawn(8, vec![H(0), Rx(0, -0.5)]),
        ]);
        let members: Vec<Vec<usize>> =
            groups.iter().map(|g| g.iter().map(|d| d.index).collect()).collect();
        assert_eq!(members, [vec![0, 2], vec![1, 8], vec![3], vec![4], vec![5], vec![6], vec![7]]);
    }

    /// The per-trajectory loop the frame path replaces, kept as its
    /// oracle: each trajectory runs every gate and every drawn error on its
    /// own state, then samples it.
    fn sample_per_gate(sim: &NoisySimulator, circuit: &Circuit, shots: usize) -> ShotBuffer {
        let noise = [sim.gate_noise(false), sim.gate_noise(true)];
        let trajectories: Vec<usize> = (0..sim.trajectories).collect();
        let per_trajectory = par_map_seeded(trajectories, sim.seed, sim.parallelism, |t, rng| {
            let this_shots = sim.shots_of(t, shots);
            if this_shots == 0 {
                return ShotBuffer::new(circuit.num_qubits());
            }
            let mut rng = sim.trajectory_stream(t, rng);
            let mut state = StateVector::zero(circuit.num_qubits());
            for g in circuit.gates() {
                state.apply(*g);
                let noise = &noise[usize::from(g.is_two_qubit())];
                for q in g.qubits().iter() {
                    draw_errors(noise, q, &mut rng, |e| state.apply(e));
                }
            }
            sim.read_out(&state.sampler(), &mut rng, this_shots)
        });
        let mut all = ShotBuffer::with_capacity(circuit.num_qubits(), shots);
        for buf in &per_trajectory {
            all.append(buf);
        }
        all
    }

    /// A random gate of every variant in turn over `n ≥ 2` qubits.
    fn any_gate(rng: &mut StdRng, n: usize, variant: usize) -> Gate {
        let q = rng.random_range(0..n);
        let r = (q + rng.random_range(1..n)) % n;
        let t = rng.random_range(-3.0..3.0);
        [
            H(q),
            X(q),
            Y(q),
            Z(q),
            S(q),
            Sdg(q),
            Sx(q),
            Rx(q, t),
            Ry(q, t),
            Rz(q, t),
            Phase(q, t),
            Cx(q, r),
            Cz(q, r),
            Swap(q, r),
            Rzz(q, r, t),
            Rxx(q, r, t),
        ][variant % 16]
    }

    #[test]
    fn frame_trajectories_match_the_per_gate_oracle() {
        let heavy = NoiseModel { p_depol_1q: 0.05, p_depol_2q: 0.1, ..NoiseModel::ibm_auckland() };
        for (case, model) in
            [NoiseModel::noiseless(), auckland_times(20.0), heavy].iter().enumerate()
        {
            for seed in 0..6u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let n = rng.random_range(2..=5);
                let mut c = Circuit::new(n);
                // A one-qubit prefix, then every variant in random order.
                for q in 0..n {
                    c.push(if rng.random_bool(0.5) { H(q) } else { Ry(q, 0.4 * q as f64) });
                }
                for _ in 0..40 {
                    let variant = rng.random_range(0..16);
                    c.push(any_gate(&mut rng, n, variant));
                }
                let sim = NoisySimulator { trajectories: 5, ..NoisySimulator::new(*model, seed) };
                let frame = sim.sample(&c, 400);
                assert_eq!(frame, sample_per_gate(&sim, &c, 400), "case {case}, seed {seed}");
            }
        }
        let qaoa = qaoa_10();
        let sim =
            NoisySimulator { trajectories: 8, ..NoisySimulator::new(auckland_times(20.0), 3) };
        assert_eq!(sim.sample(&qaoa, 512), sample_per_gate(&sim, &qaoa, 512), "QAOA");
    }

    #[test]
    fn sampling_records_trajectory_and_shot_counters() {
        let circuit = Circuit::new(1);
        let sim =
            NoisySimulator { trajectories: 3, ..NoisySimulator::new(NoiseModel::noiseless(), 0) };
        let before = qjo_obs::global().snapshot();
        sim.sample(&circuit, 10);
        let deltas = qjo_obs::global().snapshot().counter_deltas_since(&before);
        assert!(deltas["gatesim.trajectories"] >= 3, "{deltas:?}");
        assert!(deltas["gatesim.shots"] >= 10, "{deltas:?}");
        assert!(deltas["gatesim.evolutions"] >= 1, "{deltas:?}");
    }

    #[test]
    fn shots_split_across_trajectories_exactly() {
        // Property: for any (trajectories, shots) — shots below, equal to,
        // above, and non-divisible by the trajectory count, plus zero —
        // the returned buffer holds exactly the requested shots.
        let mut c = Circuit::new(2);
        c.push(H(0));
        let model = NoiseModel::ibm_auckland();
        for trajectories in [1usize, 2, 7, 16, 33] {
            for shots in [0usize, 1, 3, 7, 16, 23, 100] {
                let sim = NoisySimulator { trajectories, ..NoisySimulator::new(model, 0) };
                let out = sim.sample(&c, shots);
                assert_eq!(out.len(), shots, "trajectories={trajectories} shots={shots}");
                assert_eq!(out.num_bits(), 2);
            }
        }
    }

    #[test]
    fn empty_trajectories_short_circuit_without_touching_their_streams() {
        // With shots < trajectories only the first `shots` trajectories do
        // work; the trailing ones take the `this_shots == 0` early return.
        // Their RNG streams are keyed by (seed, index), so the populated
        // prefix must be identical to a run with exactly `shots`
        // trajectories — proving the empty units contribute nothing.
        let mut c = Circuit::new(2);
        c.push(H(0));
        c.push(Cx(0, 1));
        let model = NoiseModel::ibm_auckland();
        let sample_with = |trajectories| {
            let sim = NoisySimulator { trajectories, ..NoisySimulator::new(model, 13) };
            sim.sample(&c, 3)
        };
        assert_eq!(sample_with(9), sample_with(3));
    }
}
