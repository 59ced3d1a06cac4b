//! Chaos tests for the annealing pipeline's retry/fallback ladders.
//!
//! These live in their own test binary because a fault plan is
//! process-global: every test here installs one through
//! [`qjo_resil::fault::scoped`] (or runs under
//! [`qjo_resil::fault::without_faults`]), whose guard mutex serialises
//! them, so the seed-pinned unit tests elsewhere never see injections.

use qjo_anneal::hardware::{chimera, pegasus_like};
use qjo_anneal::{AnnealError, AnnealerSampler};
use qjo_qubo::Qubo;
use qjo_resil::fault::{scoped, should_inject, without_faults};
use qjo_resil::FaultPlan;

/// A K6 with mixed couplings: small enough to embed everywhere, dense
/// enough to need real chains.
fn k6() -> Qubo {
    let mut q = Qubo::new(6);
    for a in 0..6 {
        for b in a + 1..6 {
            q.add_quadratic(a, b, if (a + b) % 2 == 0 { 1.0 } else { -1.0 });
        }
    }
    q
}

fn deltas_since(before: &qjo_obs::Snapshot) -> std::collections::BTreeMap<String, u64> {
    qjo_obs::global().snapshot().counter_deltas_since(before)
}

#[test]
fn injected_embed_failure_recovers_with_a_reseeded_retry() {
    // Probe for a plan seed whose anneal.embed stream (salt = embedder
    // seed, 0) reads (fail, pass): attempt 0 dies, the retry embeds.
    let seed = (0..256)
        .find(|&seed| {
            let _guard = scoped(FaultPlan::new(seed).with_rate("anneal.embed", 0.5));
            should_inject("anneal.embed", 0, 0) && !should_inject("anneal.embed", 0, 1)
        })
        .expect("some seed in 0..256 yields (fail, pass)");
    let _guard = scoped(FaultPlan::new(seed).with_rate("anneal.embed", 0.5));
    let before = qjo_obs::global().snapshot();
    let sampler = AnnealerSampler { num_reads: 10, ..AnnealerSampler::new(chimera(4)) };
    let out = sampler.sample_qubo(&k6()).expect("retry recovers the embed");
    assert!(out.physical_qubits >= 6);
    let d = deltas_since(&before);
    assert_eq!(d.get("resil.anneal.embed.retries"), Some(&1));
    assert_eq!(d.get("resil.anneal.embed.recovered"), Some(&1));
    assert!(d.contains_key("fault.injected.anneal.embed"));
}

#[test]
fn exhausted_embed_budget_degrades_to_the_clique_template() {
    // Every embed attempt dies; on a Pegasus-shaped target the ladder's
    // last rung — the clique template — still carries the job.
    let _guard = scoped(FaultPlan::new(1).with_rate("anneal.embed", 1.0));
    let before = qjo_obs::global().snapshot();
    let sampler = AnnealerSampler { num_reads: 10, ..AnnealerSampler::new(pegasus_like(2)) };
    let out = sampler.sample_qubo(&k6()).expect("template fallback fits K6 on P-like m=2");
    assert!(out.physical_qubits >= 6);
    let d = deltas_since(&before);
    assert_eq!(d.get("fault.injected.anneal.embed"), Some(&3));
    assert_eq!(d.get("resil.anneal.embed.exhausted"), Some(&1));
    assert_eq!(d.get("resil.anneal.embed.fallback"), Some(&1));
}

#[test]
fn exhausted_embed_budget_without_a_template_reports_the_error() {
    // A line graph offers no clique template (and could not embed a K6
    // anyway), so the ladder runs out of rungs.
    let _guard = scoped(FaultPlan::new(1).with_rate("anneal.embed", 1.0));
    let sampler = AnnealerSampler::new(qjo_transpile::Topology::line(8));
    let err = sampler.sample_qubo(&k6()).unwrap_err();
    assert_eq!(err, AnnealError::EmbeddingFailed { num_vars: 6, num_qubits: 8 });
    assert_eq!(err.to_string(), "could not embed 6 logical variables onto 8 physical qubits");
}

#[test]
fn rejected_jobs_are_resubmitted_reseeded() {
    let q = k6();
    let run = || {
        let sampler = AnnealerSampler { num_reads: 20, ..AnnealerSampler::new(chimera(4)) };
        sampler.sample_qubo(&q).expect("embedding is fault-free here")
    };
    let baseline = without_faults(run);
    let _guard = scoped(FaultPlan::new(2).with_rate("anneal.job", 1.0));
    let before = qjo_obs::global().snapshot();
    let rejected = run();
    let d = deltas_since(&before);
    // Three submissions bounce; the final attempt always runs.
    assert_eq!(d.get("resil.anneal.job.retries"), Some(&3));
    assert_ne!(
        baseline.samples.samples(),
        rejected.samples.samples(),
        "resubmission reseeds the read streams"
    );
    assert_eq!(run().samples.samples(), rejected.samples.samples(), "but deterministically");
}

#[test]
fn chain_storms_escalate_chain_strength() {
    let q = k6();
    let base = without_faults(|| {
        let sampler = AnnealerSampler { num_reads: 10, ..AnnealerSampler::new(chimera(4)) };
        sampler.sample_qubo(&q).unwrap().chain_strength
    });
    let _guard = scoped(FaultPlan::new(3).with_rate("anneal.chain_storm", 1.0));
    let before = qjo_obs::global().snapshot();
    let sampler = AnnealerSampler { num_reads: 10, ..AnnealerSampler::new(chimera(4)) };
    let out = sampler.sample_qubo(&q).unwrap();
    let d = deltas_since(&before);
    assert_eq!(d.get("resil.anneal.chain_storm.escalations"), Some(&3));
    let expected = base * 1.5f64.powi(3);
    assert!((out.chain_strength - expected).abs() < 1e-12, "{} vs {expected}", out.chain_strength);
}

#[test]
fn real_storms_trigger_escalation_when_opted_in() {
    without_faults(|| {
        // Absurdly weak chains on a K6 break constantly; the opt-in
        // threshold turns that into an escalation ladder.
        let before = qjo_obs::global().snapshot();
        let sampler = AnnealerSampler {
            chain_strength: Some(0.05),
            chain_storm_threshold: Some(0.25),
            num_reads: 40,
            ..AnnealerSampler::new(chimera(4))
        };
        let out = sampler.sample_qubo(&k6()).unwrap();
        let d = deltas_since(&before);
        assert!(
            d.get("resil.anneal.chain_storm.escalations").copied().unwrap_or(0) >= 1,
            "0.05 chains on K6 must storm: {d:?}"
        );
        assert!(out.chain_strength > 0.05, "escalation raises the programmed strength");
    });
}

#[test]
fn chaos_results_are_thread_count_invariant() {
    let q = k6();
    let plan = FaultPlan::new(4)
        .with_rate("anneal.embed", 0.3)
        .with_rate("anneal.job", 0.5)
        .with_rate("anneal.chain_storm", 0.3);
    let at = |threads: usize| {
        let sampler = AnnealerSampler {
            num_reads: 16,
            parallelism: qjo_exec::Parallelism::new(threads),
            ..AnnealerSampler::new(chimera(4))
        };
        sampler.sample_qubo(&q).unwrap()
    };
    let _guard = scoped(plan);
    let sequential = at(1);
    for threads in [2, 8] {
        let parallel = at(threads);
        assert_eq!(sequential.samples, parallel.samples, "threads={threads}");
        assert_eq!(sequential.chain_break_fraction, parallel.chain_break_fraction);
        assert_eq!(sequential.chain_strength, parallel.chain_strength);
    }
}
