//! Integration tests for the beyond-the-paper extensions that the
//! experiments and the service reach — the QUBO text format (the serving
//! cache), the Pegasus clique template (the embed fallback) and the
//! Zephyr-like annealer target (the scaling study) — exercised through the
//! public facade.

use qjo::anneal::hardware::{pegasus_like, zephyr_like};
use qjo::anneal::pegasus_clique_embedding;
use qjo::core::classical::dp_optimal;
use qjo::core::prelude::*;
use qjo::qubo::io::{from_text, to_text};

#[test]
fn qubo_serialization_round_trips_a_full_encoding() {
    let query = QueryGenerator::paper_defaults(QueryGraph::Chain, 3).generate(5);
    let encoded = JoEncoder::default().encode(&query);
    let text = to_text(&encoded.qubo);
    let back = from_text(&text).expect("own output parses");
    assert_eq!(back.num_vars(), encoded.num_qubits());
    // Energies agree on a few assignments.
    for seed in 0..5u64 {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<bool> = (0..back.num_vars()).map(|_| rng.random_bool(0.5)).collect();
        assert_eq!(encoded.qubo.energy(&x).unwrap(), back.energy(&x).unwrap());
    }
}

#[test]
fn clique_template_supports_the_annealing_pipeline() {
    // Use the deterministic template as the embedding for a full annealing
    // run — bypassing the heuristic entirely.
    use qjo::anneal::AnnealerSampler;
    let query = QueryGenerator::paper_defaults(QueryGraph::Chain, 3).generate(0);
    let encoded = JoEncoder::default().encode(&query);
    let m = 8;
    let template = pegasus_clique_embedding(encoded.num_qubits(), m).expect("template capacity");
    let sampler = AnnealerSampler { num_reads: 100, ..AnnealerSampler::new(pegasus_like(m)) };
    let outcome = sampler.sample_qubo_with_embedding(&encoded.qubo, template, sampler.sqa.seed);
    assert_eq!(outcome.samples.total_reads(), 100);
    let (_, optimal) = dp_optimal(&query);
    let quality = assess_samples(&outcome.samples, &encoded.registry, &query, optimal);
    // The template's long uniform chains hurt quality, but the pipeline
    // must run and produce in-range fractions.
    assert!((0.0..=1.0).contains(&quality.valid_fraction));
}

#[test]
fn zephyr_serves_as_an_annealer_target() {
    use qjo::anneal::AnnealerSampler;
    let query = QueryGenerator::paper_defaults(QueryGraph::Chain, 3).generate(1);
    let encoded = JoEncoder::default().encode(&query);
    let sampler = AnnealerSampler { num_reads: 80, ..AnnealerSampler::new(zephyr_like(6)) };
    let outcome = sampler.sample_qubo(&encoded.qubo).expect("dense lattice embeds easily");
    let (_, optimal) = dp_optimal(&query);
    let quality = assess_samples(&outcome.samples, &encoded.registry, &query, optimal);
    assert!(quality.valid_fraction > 0.0, "zephyr run produced no valid reads");
}
