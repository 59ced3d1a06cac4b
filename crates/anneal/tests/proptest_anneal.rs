//! Property-style tests for the annealing substrate.
//!
//! Each property runs over a deterministic family of random instances
//! drawn from a seeded [`StdRng`] — the hermetic stand-in for the proptest
//! strategies the suite originally used. Seeds are fixed so failures
//! reproduce exactly.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use qjo_anneal::chain::{unembed_majority, uniform_torque_compensation};
use qjo_anneal::gauge::{gauge_set, Gauge};
use qjo_anneal::hardware::{chimera, pegasus_like};
use qjo_anneal::ice::{normalize, IceNoise};
use qjo_anneal::sqa::{sample, trotter_coupling, SqaConfig};
use qjo_anneal::{Embedder, Embedding};
use qjo_exec::Parallelism;
use qjo_qubo::IsingModel;
use qjo_transpile::Topology;

/// Draws a sparse random graph with `2..=max_vars` nodes and ≤ 12 edges.
fn arb_sparse_graph(rng: &mut StdRng, max_vars: usize) -> (usize, Vec<(usize, usize)>) {
    let n = rng.random_range(2..=max_vars);
    let all_pairs: Vec<(usize, usize)> =
        (0..n).flat_map(|a| ((a + 1)..n).map(move |b| (a, b))).collect();
    let len = all_pairs.len();
    let picks = rng.random_range(1..=len.min(12));
    let mut edges: Vec<(usize, usize)> =
        (0..picks).map(|_| all_pairs[rng.random_range(0..len)]).collect();
    edges.sort_unstable();
    edges.dedup();
    (n, edges)
}

/// Draws a dense random Ising model on `n` spins.
fn arb_ising(rng: &mut StdRng, n: usize) -> IsingModel {
    let mut m = IsingModel::new(n);
    for i in 0..n {
        m.add_field(i, rng.random_range(-2.0..2.0));
        for j in i + 1..n {
            m.add_coupling(i, j, rng.random_range(-2.0..2.0));
        }
    }
    m
}

fn for_cases(cases: u64, mut body: impl FnMut(&mut StdRng, u64)) {
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(0xA11EA1 + case);
        body(&mut rng, case);
    }
}

/// Whatever the embedder returns is a valid minor embedding.
#[test]
fn embeddings_are_always_valid() {
    for_cases(16, |rng, case| {
        let (n, edges) = arb_sparse_graph(rng, 6);
        let seed = rng.random_range(0u64..50);
        let target = chimera(3);
        let embedder = Embedder { seed, ..Default::default() };
        if let Some(e) = embedder.embed(n, &edges, &target) {
            assert!(e.validate(&edges, &target).is_ok(), "case {case}");
            assert_eq!(e.chains.len(), n, "case {case}");
        }
    });
}

/// Pegasus-like targets accept everything Chimera accepts.
#[test]
fn pegasus_is_at_least_as_capable() {
    for_cases(16, |rng, case| {
        let (n, edges) = arb_sparse_graph(rng, 6);
        let on_chimera = Embedder::default().embed(n, &edges, &chimera(3));
        if on_chimera.is_some() {
            let on_pegasus = Embedder::default().embed(n, &edges, &pegasus_like(3));
            assert!(
                on_pegasus.is_some(),
                "case {case}: pegasus rejected a chimera-embeddable graph"
            );
        }
    });
}

/// SQA returns actual spin configurations, so their energies are finite
/// and bounded below by the brute-force ground state.
#[test]
fn sqa_energies_are_sound() {
    for_cases(16, |rng, case| {
        let m = arb_ising(rng, 6);
        let time_us = rng.random_range(5.0..60.0);
        let cfg = SqaConfig { seed: 1, ..Default::default() };
        let reads = sample(&m, &cfg, time_us, 3);
        assert_eq!(reads.len(), 3, "case {case}");
        // Brute-force ground energy over 2^6 states.
        let mut ground = f64::INFINITY;
        for bits in 0..64u32 {
            let s: Vec<i8> = (0..6).map(|i| if bits >> i & 1 == 1 { 1 } else { -1 }).collect();
            ground = ground.min(m.energy(&s));
        }
        for r in &reads {
            let e = m.energy(r);
            assert!(e.is_finite(), "case {case}");
            assert!(e >= ground - 1e-9, "case {case}");
        }
    });
}

/// Trotter coupling is non-negative and monotone decreasing in Γ.
#[test]
fn trotter_coupling_behaviour() {
    for_cases(64, |rng, case| {
        let gamma = rng.random_range(0.01..5.0);
        let slices = rng.random_range(2usize..16);
        let temp = rng.random_range(0.01..1.0);
        let j1 = trotter_coupling(gamma, slices, temp);
        let j2 = trotter_coupling(gamma * 2.0, slices, temp);
        assert!(j1 >= 0.0, "case {case}");
        assert!(j2 <= j1 + 1e-12, "case {case}: J⊥ must fall as Γ grows");
    });
}

/// Majority-vote unembedding returns ±1 spins and counts breaks.
#[test]
fn unembed_majority_invariants() {
    for_cases(64, |rng, case| {
        let physical: Vec<i8> = (0..8).map(|_| if rng.random::<bool>() { 1 } else { -1 }).collect();
        let embedding = Embedding { chains: vec![vec![0, 1, 2], vec![3], vec![4, 5, 6, 7]] };
        let read = unembed_majority(&embedding, &physical);
        assert_eq!(read.spins.len(), 3, "case {case}");
        assert!(read.spins.iter().all(|&s| s == 1 || s == -1), "case {case}");
        assert!(read.broken_chains <= 3, "case {case}");
    });
}

/// Normalisation brings every coefficient into [−1, 1] and preserves
/// the argmin of the energy landscape.
#[test]
fn normalize_preserves_argmin() {
    for_cases(32, |rng, case| {
        let m = arb_ising(rng, 5);
        let mut scaled = m.clone();
        let factor = normalize(&mut scaled);
        assert!(factor > 0.0 && factor <= 1.0, "case {case}");
        assert!(scaled.max_abs_coefficient() <= 1.0 + 1e-12, "case {case}");
        let mut best_orig = (f64::INFINITY, 0u32);
        let mut best_scaled = (f64::INFINITY, 0u32);
        for bits in 0..32u32 {
            let s: Vec<i8> = (0..5).map(|i| if bits >> i & 1 == 1 { 1 } else { -1 }).collect();
            let eo = m.energy(&s);
            let es = scaled.energy(&s);
            if eo < best_orig.0 {
                best_orig = (eo, bits);
            }
            if es < best_scaled.0 {
                best_scaled = (es, bits);
            }
        }
        assert_eq!(best_orig.1, best_scaled.1, "case {case}: argmin moved under scaling");
    });
}

/// ICE noise keeps the coupling graph: no new interactions invented.
#[test]
fn ice_preserves_structure() {
    for_cases(32, |rng, case| {
        let m = arb_ising(rng, 5);
        let seed = rng.random_range(0u64..100);
        let mut normalized = m.clone();
        normalize(&mut normalized);
        let mut noise_rng = StdRng::seed_from_u64(seed);
        let noisy = IceNoise::advantage().apply(&normalized, &mut noise_rng);
        for (i, j, v) in noisy.couplings() {
            if v != 0.0 {
                assert!(
                    normalized.coupling(i, j) != 0.0,
                    "case {case}: noise invented coupling ({i},{j})"
                );
            }
        }
    });
}

/// Spin-reversal gauges preserve the spectrum: for every configuration,
/// the original energy equals the transformed problem's energy at the
/// gauged configuration, and untransform inverts the mapping.
#[test]
fn gauges_preserve_the_spectrum() {
    for_cases(32, |rng, case| {
        let m = arb_ising(rng, 5);
        let seed = rng.random_range(0u64..100);
        let mut gauge_rng = StdRng::seed_from_u64(seed);
        let g = Gauge::random(5, &mut gauge_rng);
        let t = g.transform(&m);
        for bits in 0..32u32 {
            let s: Vec<i8> = (0..5).map(|i| if bits >> i & 1 == 1 { 1 } else { -1 }).collect();
            let gauged: Vec<i8> = s.iter().zip(0..5).map(|(&v, i)| v * g.sign(i)).collect();
            assert!((m.energy(&s) - t.energy(&gauged)).abs() < 1e-9, "case {case}");
            assert_eq!(g.untransform_spins(&gauged), s, "case {case}");
        }
        // Gauge sets always lead with the identity.
        let gs = gauge_set(5, 3, seed);
        assert_eq!(&gs[0], &Gauge::identity(5), "case {case}");
    });
}

/// Chain strength is at least the problem scale for any model.
#[test]
fn chain_strength_dominates_scale() {
    for_cases(32, |rng, case| {
        let m = arb_ising(rng, 5);
        let s = uniform_torque_compensation(&m, 1.414);
        assert!(s >= m.max_abs_coefficient() - 1e-12, "case {case}");
    });
}

/// SQA reads are bit-identical at any thread count on random models —
/// the workspace determinism contract at the sampler level.
#[test]
fn sqa_reads_are_thread_count_invariant() {
    for_cases(8, |rng, case| {
        let m = arb_ising(rng, 6);
        let at = |threads| {
            let cfg =
                SqaConfig { seed: 5, parallelism: Parallelism::new(threads), ..Default::default() };
            sample(&m, &cfg, 20.0, 6)
        };
        let sequential = at(1);
        for threads in [2, 8] {
            assert_eq!(sequential, at(threads), "case {case}: {threads} threads");
        }
    });
}

#[test]
fn embedder_handles_disconnected_targets_gracefully() {
    // Two-component target: only problems fitting one component (or with
    // no cross edges) can embed; the embedder must not panic either way.
    let target = Topology::new(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]);
    let edges = vec![(0, 1), (1, 2)];
    if let Some(e) = Embedder::default().embed(3, &edges, &target) {
        assert!(e.validate(&edges, &target).is_ok());
    }
}

/// `has_edge` (a search of the sorted neighbour row) agrees with edge-set
/// membership for every ordered pair, `a == b` included, and answers
/// `false` for any index outside the graph, on every hardware family.
#[test]
fn has_edge_matches_edge_set_membership() {
    use qjo_anneal::hardware::zephyr_like;
    use qjo_transpile::device::Device;
    use qjo_transpile::heavy_hex::{eagle_127, falcon_27, heavy_hex};
    use std::collections::BTreeSet;

    let graphs = [
        ("pegasus_like(8)", pegasus_like(8)),
        ("chimera(6)", chimera(6)),
        ("zephyr_like(5)", zephyr_like(5)),
        ("heavy_hex(3,3,4)", heavy_hex(3, 3, 4)),
        ("falcon_27", falcon_27()),
        ("eagle_127", eagle_127()),
        ("ibm_auckland", Device::ibm_auckland().topology),
        ("ibm_washington", Device::ibm_washington().topology),
        ("grid(5,4)", Topology::grid(5, 4)),
        ("line(7)", Topology::line(7)),
        ("ring(9)", Topology::ring(9)),
        ("complete(8)", Topology::complete(8)),
    ];
    for (name, t) in &graphs {
        let n = t.num_qubits();
        let edges: BTreeSet<(usize, usize)> = t.edges().collect();
        for a in 0..n {
            for b in 0..n {
                let member = edges.contains(&(a.min(b), a.max(b)));
                assert_eq!(t.has_edge(a, b), member, "{name}: ({a},{b})");
            }
        }
        // Out-of-range indices are never coupled, including one that
        // aliases qubit 1 when truncated to 32 bits (and (0, 1) is an
        // edge of several of these graphs).
        let mut outside = vec![n, n + 1, usize::MAX];
        outside.extend(usize::try_from(1u64 << 32 | 1).ok());
        for &o in &outside {
            for q in [0, n - 1, o] {
                assert!(!t.has_edge(o, q) && !t.has_edge(q, o), "{name}: ({o},{q})");
            }
        }
    }
}
