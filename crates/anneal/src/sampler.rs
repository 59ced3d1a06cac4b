//! The end-to-end annealer pipeline: embed → program → anneal → unembed.
//!
//! [`AnnealerSampler`] plays the role of D-Wave's cloud sampler in the
//! paper's experiments: a QUBO is converted to Ising form, minor-embedded
//! onto the hardware graph, programmed with chain couplings, distorted by
//! ICE noise, annealed by the path-integral SQA engine, and read back with
//! majority-vote chain repair.
//!
//! Reads are independent work units: read `i` derives its own RNG stream
//! (ICE noise draws and SQA dynamics) from `(job seed, i)` via
//! [`qjo_exec::stream_seed`], so a job's sample set is bit-identical at
//! any [`Parallelism`] setting.

use qjo_exec::{par_map_seeded, Parallelism};

use qjo_qubo::{ising, IsingModel, Qubo, SampleSet, ShotBuffer};
use qjo_transpile::Topology;

use crate::chain::{chain_break_fraction, unembed_majority, uniform_torque_compensation};
use crate::embed::{Embedder, Embedding};
use crate::ice::{normalize, IceNoise};
use crate::sqa::{anneal_compiled, SqaConfig};

/// Errors of the annealing pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnealError {
    /// The embedder could not fit the problem onto the hardware graph —
    /// the paper's hard feasibility limit (Fig. 3).
    EmbeddingFailed {
        /// Number of logical variables that did not fit.
        num_vars: usize,
        /// Size of the hardware graph.
        num_qubits: usize,
    },
}

impl std::fmt::Display for AnnealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnnealError::EmbeddingFailed { num_vars, num_qubits } => write!(
                f,
                "could not embed {num_vars} logical variables onto {num_qubits} physical qubits"
            ),
        }
    }
}

impl std::error::Error for AnnealError {}

/// Embedding attempts before falling back to a clique template: the
/// configured embedder first, then reseeded retries.
const EMBED_ATTEMPTS: usize = 3;
/// Total sampling attempts a job may consume across rejected submissions
/// and chain-storm escalations.
const SAMPLE_ATTEMPTS: u64 = 4;
/// Chain-strength multiplier applied per chain-storm escalation.
const CHAIN_STORM_ESCALATION: f64 = 1.5;
/// Domain-separation constant for reseeding rejected job resubmissions.
const JOB_RESUBMIT_SALT: u64 = 0x6a6f_625f_7265_7375;

/// Everything one sampling job returns.
#[derive(Debug, Clone)]
pub struct AnnealOutcome {
    /// Aggregated logical-space samples; energies are evaluated against the
    /// *original* QUBO (not the noisy embedded problem).
    pub samples: SampleSet,
    /// The embedding used.
    pub embedding: Embedding,
    /// Fraction of chains broken across all reads.
    pub chain_break_fraction: f64,
    /// Physical qubits consumed (Fig. 3's metric).
    pub physical_qubits: usize,
    /// Chain strength that was programmed.
    pub chain_strength: f64,
}

/// A simulated quantum annealer with a fixed hardware graph.
#[derive(Debug, Clone)]
pub struct AnnealerSampler {
    /// Hardware connectivity.
    pub topology: Topology,
    /// Embedding heuristic configuration.
    pub embedder: Embedder,
    /// Explicit chain strength; `None` selects uniform torque compensation.
    pub chain_strength: Option<f64>,
    /// Prefactor for the torque-compensation heuristic.
    pub chain_strength_prefactor: f64,
    /// Analogue noise model.
    pub ice: IceNoise,
    /// Annealing dynamics parameters.
    pub sqa: SqaConfig,
    /// Reads (anneal repetitions) per job.
    pub num_reads: usize,
    /// Spin-reversal transforms to rotate through (1 = gauge averaging
    /// off; D-Wave practice is a handful of gauges per job).
    pub num_gauges: usize,
    /// Annealing time per read, microseconds.
    pub annealing_time_us: f64,
    /// Worker threads for the read loop; affects wall-clock only, never
    /// results.
    pub parallelism: Parallelism,
    /// Chain-break fraction above which a read batch counts as a
    /// *chain-break storm* and is resampled with the chain strength
    /// escalated ×1.5 (bounded attempts). `None` (the default) keeps
    /// storms injection-only, so existing seeds reproduce exactly.
    pub chain_storm_threshold: Option<f64>,
}

impl AnnealerSampler {
    /// A sampler with Advantage-like defaults on the given hardware graph.
    pub fn new(topology: Topology) -> Self {
        AnnealerSampler {
            topology,
            embedder: Embedder::default(),
            chain_strength: None,
            chain_strength_prefactor: 1.414,
            ice: IceNoise::advantage(),
            sqa: SqaConfig::default(),
            num_reads: 100,
            num_gauges: 4,
            annealing_time_us: 20.0,
            parallelism: Parallelism::auto(),
            chain_storm_threshold: None,
        }
    }

    /// Runs the full pipeline on a QUBO, embedding it first.
    pub fn sample_qubo(&self, qubo: &Qubo) -> Result<AnnealOutcome, AnnealError> {
        let embedding = self.embed(qubo)?;
        Ok(self.sample_qubo_with_embedding(qubo, embedding, self.sqa.seed))
    }

    /// Finds a minor embedding for a QUBO's interaction graph.
    ///
    /// Degradation ladder: the configured embedder runs first; a failure
    /// (real, or injected at the `anneal.embed` fault site) is retried
    /// with a reseeded embedder, and when the whole attempt budget runs
    /// dry a Pegasus clique template is tried as the fallback of last
    /// resort. Only then is [`AnnealError::EmbeddingFailed`] reported.
    pub fn embed(&self, qubo: &Qubo) -> Result<Embedding, AnnealError> {
        let _span = qjo_obs::span!("anneal.embed");
        let logical = qubo.to_ising();
        let source_edges: Vec<(usize, usize)> =
            logical.couplings().filter(|&(_, _, j)| j != 0.0).map(|(i, j, _)| (i, j)).collect();
        let num_vars = qubo.num_vars();
        let embedded = qjo_resil::with_retries("anneal.embed", EMBED_ATTEMPTS, |attempt| {
            if qjo_resil::should_inject("anneal.embed", self.embedder.seed, attempt as u64) {
                return Err(());
            }
            // Attempt 0 is the configured embedder (so fault-free runs
            // reproduce exactly); retries reseed it — the internal
            // restarts are exhausted, a fresh stream is the lever left.
            let seed = match attempt {
                0 => self.embedder.seed,
                _ => qjo_resil::stream_seed(self.embedder.seed, attempt as u64),
            };
            let embedder = Embedder { seed, ..self.embedder.clone() };
            embedder.embed(num_vars, &source_edges, &self.topology).ok_or(())
        });
        match embedded {
            Ok(embedding) => Ok(embedding),
            Err(()) => {
                self.clique_fallback(num_vars, &source_edges).ok_or(AnnealError::EmbeddingFailed {
                    num_vars,
                    num_qubits: self.topology.num_qubits(),
                })
            }
        }
    }

    /// Clique-template fallback: when the heuristic embedder gives up on
    /// a Pegasus-shaped target, the precomputed template (valid for any
    /// source graph it covers, since a clique majorises everything) may
    /// still fit. Validation gates it on arbitrary topologies.
    fn clique_fallback(
        &self,
        num_vars: usize,
        source_edges: &[(usize, usize)],
    ) -> Option<Embedding> {
        let num_qubits = self.topology.num_qubits();
        // pegasus_like(m) has 8m² qubits; recover m and check the shape.
        let m = ((num_qubits as f64) / 8.0).sqrt().round() as usize;
        if m == 0 || 8 * m * m != num_qubits {
            return None;
        }
        let embedding = crate::clique::template_embed(num_vars, m)?;
        embedding.validate(source_edges, &self.topology).ok()?;
        qjo_obs::counter!("resil.anneal.embed.fallback").incr();
        Some(embedding)
    }

    /// Runs the annealing pipeline with a previously computed embedding
    /// (e.g. to sweep annealing times without re-embedding). `seed` stands
    /// in for `self.sqa.seed` as the job's seed, so a caller can reseed a
    /// job without cloning the sampler; [`AnnealerSampler::sample_qubo`]
    /// passes `self.sqa.seed`.
    ///
    /// Two operational failure modes are handled here, both bounded by
    /// an attempt budget (never wall-clock): a *rejected job* (the
    /// `anneal.job` fault site — the scheduler turns the submission away
    /// before any read runs) is resubmitted under a reseeded stream, and
    /// a *chain-break storm* (the `anneal.chain_storm` site, or a real
    /// batch exceeding [`AnnealerSampler::chain_storm_threshold`]) is
    /// resampled with the chain strength escalated ×1.5.
    pub fn sample_qubo_with_embedding(
        &self,
        qubo: &Qubo,
        embedding: Embedding,
        seed: u64,
    ) -> AnnealOutcome {
        let _span = qjo_obs::span!("anneal.sample");
        let logical = qubo.to_ising();
        let base_strength = self.chain_strength.unwrap_or_else(|| {
            uniform_torque_compensation(&logical, self.chain_strength_prefactor)
        });
        let mut chain_strength = base_strength;
        let mut read_seed = seed;
        let mut attempt: u64 = 0;
        loop {
            if attempt + 1 < SAMPLE_ATTEMPTS
                && qjo_resil::should_inject("anneal.job", seed, attempt)
            {
                qjo_obs::counter!("resil.anneal.job.retries").incr();
                read_seed = qjo_resil::stream_seed(seed ^ JOB_RESUBMIT_SALT, attempt);
                attempt += 1;
                continue;
            }
            let outcome =
                self.sample_attempt(qubo, &logical, embedding.clone(), chain_strength, read_seed);
            let stormy = qjo_resil::should_inject("anneal.chain_storm", seed, attempt)
                || self.chain_storm_threshold.is_some_and(|t| outcome.chain_break_fraction > t);
            if stormy && attempt + 1 < SAMPLE_ATTEMPTS {
                qjo_obs::counter!("resil.anneal.chain_storm.escalations").incr();
                chain_strength *= CHAIN_STORM_ESCALATION;
                attempt += 1;
                continue;
            }
            return outcome;
        }
    }

    /// One programmed-anneal-unembed pass at a given chain strength and
    /// read-stream seed (the fault-free path runs exactly one).
    fn sample_attempt(
        &self,
        qubo: &Qubo,
        logical: &IsingModel,
        embedding: Embedding,
        chain_strength: f64,
        seed: u64,
    ) -> AnnealOutcome {
        qjo_obs::counter!("anneal.reads").add(self.num_reads as u64);
        // Compact the problem onto the qubits the embedding actually uses:
        // SQA sweeps every spin of its model, and a 5000-qubit hardware
        // graph with a 300-qubit embedding would waste 94% of each sweep.
        let used: Vec<usize> = {
            let mut v: Vec<usize> = embedding.chains.iter().flatten().copied().collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut dense_of = vec![usize::MAX; self.topology.num_qubits()];
        for (dense, &q) in used.iter().enumerate() {
            dense_of[q] = dense;
        }
        let dense_embedding = Embedding {
            chains: embedding
                .chains
                .iter()
                .map(|chain| chain.iter().map(|&q| dense_of[q]).collect())
                .collect(),
        };
        let mut programmed =
            self.program(logical, &embedding, chain_strength, &dense_of, used.len());
        normalize(&mut programmed);

        let gauges = crate::gauge::gauge_set(
            programmed.num_spins(),
            self.num_gauges.max(1),
            seed ^ 0x9e37_79b9,
        );
        // Compile the programmed problem once; each read clones the flat
        // CSR arrays and applies its gauge + ICE perturbation in place
        // instead of rebuilding two coupling maps per read.
        let compiled = programmed.compile();
        let read_indices: Vec<usize> = (0..self.num_reads).collect();
        let per_read = par_map_seeded(read_indices, seed, self.parallelism, |read_idx, rng| {
            // Spin-reversal transform: rotate through the gauge set so
            // analogue asymmetries average out across reads.
            let gauge = &gauges[read_idx % gauges.len()];
            let mut noisy = compiled.clone();
            gauge.apply_compiled(&mut noisy);
            self.ice.apply_compiled(&mut noisy, rng);
            let dense_spins = anneal_compiled(&noisy, &self.sqa, self.annealing_time_us, rng);
            let dense_spins = gauge.untransform_spins(&dense_spins);
            let read = unembed_majority(&dense_embedding, &dense_spins);
            (ising::spins_to_bits(&read.spins), read)
        });
        // Pack the logical reads into one bit matrix during the (ordered)
        // reduction; duplicate reads then aggregate by hashing packed words
        // and the QUBO energy is evaluated once per distinct assignment.
        let mut reads = ShotBuffer::with_capacity(qubo.num_vars(), self.num_reads);
        let mut unembedded = Vec::with_capacity(self.num_reads);
        for (bits, read) in per_read {
            reads.push_bits(&bits);
            unembedded.push(read);
        }

        // Per-read chain-break fractions, recorded after the deterministic
        // par_map reduction so the series is read-ordered at any thread
        // count. Stride 1: the step is a read index, not an iteration count.
        let chain_breaks = qjo_obs::convergence::series_with_stride("anneal", "chain_break", 1);
        if chain_breaks.is_active() {
            let num_chains = embedding.chains.len().max(1);
            for (read_idx, read) in unembedded.iter().enumerate() {
                chain_breaks.record(read_idx as u64, read.broken_chains as f64 / num_chains as f64);
            }
        }

        let cbf = chain_break_fraction(&unembedded, embedding.chains.len());
        // Written after the deterministic par_map reduction, so the gauge
        // holds the same value at any thread count.
        qjo_obs::gauge!("anneal.chain_break_fraction").set(cbf);
        let physical_qubits = embedding.num_physical_qubits();
        let samples =
            SampleSet::from_shots(&reads, |x| qubo.energy(x).expect("reads have model length"));
        AnnealOutcome {
            samples,
            embedding,
            chain_break_fraction: cbf,
            physical_qubits,
            chain_strength,
        }
    }

    /// Builds the physical Ising problem over the *dense* (used-qubit)
    /// index space: fields split across chain members, couplings split
    /// across available inter-chain couplers, ferromagnetic intra-chain
    /// couplings of `-chain_strength`.
    fn program(
        &self,
        logical: &IsingModel,
        embedding: &Embedding,
        chain_strength: f64,
        dense_of: &[usize],
        num_used: usize,
    ) -> IsingModel {
        let mut phys = IsingModel::new(num_used);
        for (i, h) in logical.fields() {
            if h == 0.0 {
                continue;
            }
            let chain = &embedding.chains[i];
            let share = h / chain.len() as f64;
            for &q in chain {
                phys.add_field(dense_of[q], share);
            }
        }
        for (i, j, jij) in logical.couplings() {
            if jij == 0.0 {
                continue;
            }
            let couplers: Vec<(usize, usize)> = embedding.chains[i]
                .iter()
                .flat_map(|&qa| {
                    embedding.chains[j]
                        .iter()
                        .filter(move |&&qb| self.topology.has_edge(qa, qb))
                        .map(move |&qb| (qa, qb))
                })
                .collect();
            assert!(!couplers.is_empty(), "validated embedding covers every edge");
            let share = jij / couplers.len() as f64;
            for (qa, qb) in couplers {
                phys.add_coupling(dense_of[qa], dense_of[qb], share);
            }
        }
        for chain in &embedding.chains {
            for (idx, &qa) in chain.iter().enumerate() {
                for &qb in &chain[idx + 1..] {
                    if self.topology.has_edge(qa, qb) {
                        phys.add_coupling(dense_of[qa], dense_of[qb], -chain_strength);
                    }
                }
            }
        }
        phys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::chimera;
    use qjo_qubo::solve::ExactSolver;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn antiferro_pair() -> Qubo {
        let mut q = Qubo::new(2);
        q.add_linear(0, -1.0);
        q.add_linear(1, -1.0);
        q.add_quadratic(0, 1, 2.0);
        q
    }

    fn random_qubo(seed: u64, n: usize) -> Qubo {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = Qubo::new(n);
        for i in 0..n {
            q.add_linear(i, rng.random_range(-1.0..1.0));
            for j in i + 1..n {
                if rng.random_bool(0.6) {
                    q.add_quadratic(i, j, rng.random_range(-1.0..1.0));
                }
            }
        }
        q
    }

    #[test]
    fn solves_tiny_problem_to_optimality() {
        let sampler = AnnealerSampler::new(chimera(2));
        let out = sampler.sample_qubo(&antiferro_pair()).expect("fits easily");
        let best = out.samples.best().expect("reads exist");
        assert_eq!(best.energy, -1.0);
        assert_ne!(best.assignment[0], best.assignment[1]);
        assert_eq!(out.samples.total_reads(), 100);
    }

    #[test]
    fn matches_exact_solver_on_random_problems() {
        for seed in 0..3 {
            let q = random_qubo(seed, 8);
            let exact = ExactSolver::new().min_energy(&q).unwrap();
            let sampler = AnnealerSampler { num_reads: 60, ..AnnealerSampler::new(chimera(4)) };
            let out = sampler.sample_qubo(&q).expect("K8-ish fits C4");
            let best = out.samples.best().unwrap().energy;
            assert!(
                best <= exact + 1e-9 + 0.15 * exact.abs().max(1.0),
                "seed {seed}: annealer {best} far from exact {exact}"
            );
        }
    }

    #[test]
    fn embedding_failure_is_reported() {
        // A 3-clique cannot embed in a 2-qubit "hardware" graph.
        let sampler = AnnealerSampler::new(Topology::line(2));
        let mut q = Qubo::new(3);
        for a in 0..3 {
            for b in a + 1..3 {
                q.add_quadratic(a, b, 1.0);
            }
        }
        let err = sampler.sample_qubo(&q).unwrap_err();
        assert_eq!(err, AnnealError::EmbeddingFailed { num_vars: 3, num_qubits: 2 });
    }

    #[test]
    fn outcome_reports_embedding_statistics() {
        let q = random_qubo(1, 6);
        let sampler = AnnealerSampler { num_reads: 20, ..AnnealerSampler::new(chimera(3)) };
        let out = sampler.sample_qubo(&q).unwrap();
        assert!(out.physical_qubits >= 6);
        assert_eq!(out.physical_qubits, out.embedding.num_physical_qubits());
        assert!((0.0..=1.0).contains(&out.chain_break_fraction));
        assert!(out.chain_strength > 0.0);
    }

    #[test]
    fn explicit_chain_strength_is_respected() {
        let q = antiferro_pair();
        let sampler = AnnealerSampler {
            chain_strength: Some(3.5),
            num_reads: 10,
            ..AnnealerSampler::new(chimera(2))
        };
        let out = sampler.sample_qubo(&q).unwrap();
        assert_eq!(out.chain_strength, 3.5);
    }

    #[test]
    fn weak_chains_break_more_often() {
        // Force long chains by embedding a K6 on Chimera, then compare
        // break rates at absurdly weak vs. solid chain strength.
        let mut q = Qubo::new(6);
        for a in 0..6 {
            for b in a + 1..6 {
                q.add_quadratic(a, b, if (a + b) % 2 == 0 { 1.0 } else { -1.0 });
            }
        }
        let base = AnnealerSampler::new(chimera(4));
        let weak = AnnealerSampler { chain_strength: Some(0.05), num_reads: 40, ..base.clone() };
        let solid = AnnealerSampler { chain_strength: Some(4.0), num_reads: 40, ..base };
        let weak_out = weak.sample_qubo(&q).unwrap();
        let solid_out = solid.sample_qubo(&q).unwrap();
        assert!(
            weak_out.chain_break_fraction > solid_out.chain_break_fraction,
            "weak {} vs solid {}",
            weak_out.chain_break_fraction,
            solid_out.chain_break_fraction
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let q = random_qubo(4, 5);
        let sampler = AnnealerSampler { num_reads: 15, ..AnnealerSampler::new(chimera(3)) };
        let a = sampler.sample_qubo(&q).unwrap();
        let b = sampler.sample_qubo(&q).unwrap();
        assert_eq!(a.samples.samples(), b.samples.samples());
        assert_eq!(a.chain_break_fraction, b.chain_break_fraction);
    }

    #[test]
    fn convergence_recorder_captures_per_read_chain_breaks() {
        let q = random_qubo(2, 5);
        let sampler = AnnealerSampler { num_reads: 7, ..AnnealerSampler::new(chimera(3)) };
        qjo_obs::convergence::start(4);
        let out = sampler.sample_qubo(&q).unwrap();
        let drained = qjo_obs::convergence::drain_csv();
        let csv = &drained.iter().find(|(g, _)| g == "anneal").expect("anneal group recorded").1;
        // Stride 1 keeps all 7 reads even though the default stride is 4,
        // and the recorded fractions average to the reported outcome.
        // Concurrent tests may also sample while the recorder is live, so
        // look for any series instance matching this call's statistics.
        let mut by_instance: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
        for line in csv.lines().filter(|l| l.contains(",chain_break,")) {
            let cols: Vec<&str> = line.split(',').collect();
            by_instance.entry(cols[3]).or_default().push(cols[5].parse().unwrap());
        }
        assert!(
            by_instance.values().any(|reads| reads.len() == 7
                && (reads.iter().sum::<f64>() / 7.0 - out.chain_break_fraction).abs() < 1e-12),
            "{csv}"
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let q = random_qubo(6, 6);
        let at = |threads| {
            AnnealerSampler {
                num_reads: 12,
                parallelism: qjo_exec::Parallelism::new(threads),
                ..AnnealerSampler::new(chimera(3))
            }
            .sample_qubo(&q)
            .unwrap()
        };
        let sequential = at(1);
        for threads in [2, 8] {
            let parallel = at(threads);
            assert_eq!(sequential.samples, parallel.samples, "threads={threads}");
            assert_eq!(
                sequential.chain_break_fraction, parallel.chain_break_fraction,
                "threads={threads}"
            );
        }
    }
}
