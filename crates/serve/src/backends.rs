//! [`JoinOrderOptimizer`] implementations over every workspace solver.
//!
//! Classical backends (`dp`, `greedy`, and `auto`, which picks between
//! the two) plan directly on the requester's query. Formulating backends
//! (`sa`, `tabu`, `sqa`, `annealer`, `qaoa`) share one
//! [`FormulationCache`]: a request is canonicalised, its
//! formulation fetched or built, solved in canonical labels, decoded, and
//! the order mapped back to the requester's labelling — so every member
//! of a fingerprint class reuses the same QUBO (and, for the annealer,
//! the same minor-embedding).
//!
//! A decode failure is retried with a reseeded solve under the
//! `resil.serve.solve.*` taxonomy; when the budget is exhausted the
//! backend degrades to the greedy plan (a [`Plan`] marked `fallback`,
//! which the service counts as `serve.solve.fallback`) rather than
//! erroring — the serving contract is "always an executable order".

use std::sync::Arc;

use qjo_anneal::AnnealerSampler;
use qjo_core::classical::{dp_optimal, greedy_min_cost};
use qjo_core::{decode_assignment, qubit_upper_bound, JoinOrder, Query};
use qjo_exec::stream_seed;
use qjo_gatesim::optim::NelderMead;
use qjo_gatesim::{QaoaParams, QaoaSimulator};
use qjo_qubo::ising::spins_to_bits;
use qjo_qubo::solve::{SimulatedAnnealing, TabuSearch};
use qjo_qubo::SampleSet;
use rand::{rngs::StdRng, SeedableRng};

use crate::cache::{CacheEntry, FormulationCache};
use crate::optimizer::{JoinOrderOptimizer, Plan};

/// Reseeded solve attempts before degrading to the greedy fallback.
const SOLVE_ATTEMPTS: usize = 3;
/// Nominal model-microseconds charged for a cold minor-embedding (the
/// measured smoke p90 is ≈ 2.1 s).
const EMBED_NOMINAL_US: u64 = 2_000_000;
/// Nominal model-microseconds to formulate (MILP→BILP→QUBO) on a miss.
const FORMULATE_NOMINAL_US: u64 = 100;

/// Upper bound on logical qubits for a request, matching the default
/// encoder configuration (one threshold, ω = 1). Used only for cost
/// models and admission — the true count comes from the formulation.
fn qubit_estimate(query: &Query) -> u64 {
    qubit_upper_bound(query, 1, 1.0).total() as u64
}

/// Shared plan construction for formulating backends: cache lookup,
/// retried solve-and-decode in canonical labels, relabelling back, greedy
/// degradation on exhaustion.
fn plan_via_cache(
    cache: &FormulationCache,
    query: &Query,
    mut solve: impl FnMut(usize, &CacheEntry) -> Option<Vec<bool>>,
) -> Plan {
    let t = query.num_relations();
    let (canon, entry, status) = cache.lookup(query);
    let decoded = qjo_resil::with_retries("serve.solve", SOLVE_ATTEMPTS, |attempt| {
        let bits = solve(attempt, &entry).ok_or("solver produced no assignment")?;
        decode_assignment(&bits, &entry.formulation.registry, &entry.canonical_query)
            .ok_or("assignment decodes to no valid join order")
    });
    match decoded {
        Ok(canonical) => {
            let order = canon.order_to_original(&canonical.order);
            let jo = JoinOrder::new(order.clone(), t).expect("decoded orders are permutations");
            let cost = jo.cost(query);
            Plan { order, cost, cache: Some(status), embed: None, fallback: false }
        }
        Err(_) => {
            let (jo, cost) = greedy_min_cost(query);
            Plan { order: jo.order, cost, cache: Some(status), embed: None, fallback: true }
        }
    }
}

/// Largest query the `dp` backend admits; the DP table is `O(2^t)`.
const DP_TABLE_MAX_RELATIONS: usize = 20;

/// Exact dynamic programming over connected subsets.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpBackend;

impl JoinOrderOptimizer for DpBackend {
    fn optimize_join_order(&self, query: &Query) -> Plan {
        let (jo, cost) = dp_optimal(query);
        Plan { order: jo.order, cost, cache: None, embed: None, fallback: false }
    }

    fn pre_check(&self, query: &Query) -> Option<u64> {
        let t = query.num_relations();
        // Subset-pair enumeration is Θ(3^t); charge ~1000 pairs/µs.
        (t <= DP_TABLE_MAX_RELATIONS).then(|| (3u64.saturating_pow(t as u32) / 1000).max(1))
    }
}

/// Greedy minimum-intermediate-cardinality construction. Always
/// admissible; also the service's deadline/degradation fallback.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyBackend;

impl JoinOrderOptimizer for GreedyBackend {
    fn optimize_join_order(&self, query: &Query) -> Plan {
        let (jo, cost) = greedy_min_cost(query);
        Plan { order: jo.order, cost, cache: None, embed: None, fallback: false }
    }

    fn pre_check(&self, query: &Query) -> Option<u64> {
        let t = query.num_relations() as u64;
        Some((t * t / 10).max(1))
    }
}

/// Largest query `auto` also solves exactly (DP's model cost is `3^t`).
pub const DP_MAX_RELATIONS: usize = 12;

/// The `auto` backend: greedy, or DP's plan when the query has at most
/// [`DP_MAX_RELATIONS`] relations and DP is strictly cheaper (a tie
/// keeps greedy's order).
///
/// This is what the racing portfolio it replaced (SA, SQA and tabu
/// racing this greedy/DP plan under the deadline budget) always reduced
/// to: up to the DP cap nothing beats DP's exact optimum, and past it no
/// racer ever decoded a valid plan — the paper's collapse of valid QUBO
/// samples past about five relations. EXPERIMENTS.md, "The `auto`
/// backend", records the evidence. `auto` never formulates, so it never
/// touches the formulation cache and its plans are a pure function of
/// the query.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoBackend;

impl JoinOrderOptimizer for AutoBackend {
    fn optimize_join_order(&self, query: &Query) -> Plan {
        let (greedy, mut cost) = greedy_min_cost(query);
        let mut order = greedy.order;
        if query.num_relations() <= DP_MAX_RELATIONS {
            let (dp, dp_cost) = dp_optimal(query);
            if dp_cost < cost {
                (order, cost) = (dp.order, dp_cost);
            }
        }
        Plan { order, cost, cache: None, embed: None, fallback: false }
    }

    fn pre_check(&self, query: &Query) -> Option<u64> {
        // The greedy and DP backends' own models, summed.
        let greedy = GreedyBackend.pre_check(query)?;
        let dp = if query.num_relations() <= DP_MAX_RELATIONS {
            DpBackend.pre_check(query)?
        } else {
            0
        };
        Some(greedy + dp)
    }
}

/// Simulated annealing on the cached QUBO formulation.
pub struct SaBackend {
    /// Shared formulation cache.
    pub cache: Arc<FormulationCache>,
    /// Solver template; attempt `i` reseeds from `(solver.seed, i)`.
    pub solver: SimulatedAnnealing,
}

impl JoinOrderOptimizer for SaBackend {
    fn optimize_join_order(&self, query: &Query) -> Plan {
        plan_via_cache(&self.cache, query, |attempt, entry| {
            let mut solver = self.solver.clone();
            solver.seed = stream_seed(self.solver.seed, attempt as u64);
            solver.solve(&entry.formulation.qubo).ok().map(|s| s.assignment)
        })
    }

    fn pre_check(&self, query: &Query) -> Option<u64> {
        let n = qubit_estimate(query);
        let flips = self.solver.restarts as u64 * self.solver.sweeps as u64 * n;
        Some(FORMULATE_NOMINAL_US + flips / 1000)
    }
}

/// Tabu search on the cached QUBO formulation.
pub struct TabuBackend {
    /// Shared formulation cache.
    pub cache: Arc<FormulationCache>,
    /// Solver template; attempt `i` reseeds from `(solver.seed, i)`.
    pub solver: TabuSearch,
}

impl JoinOrderOptimizer for TabuBackend {
    fn optimize_join_order(&self, query: &Query) -> Plan {
        plan_via_cache(&self.cache, query, |attempt, entry| {
            let mut solver = self.solver.clone();
            solver.seed = stream_seed(self.solver.seed, attempt as u64);
            solver.solve(&entry.formulation.qubo).ok().map(|s| s.assignment)
        })
    }

    fn pre_check(&self, query: &Query) -> Option<u64> {
        let n = qubit_estimate(query);
        // Each iteration scans the full neighbourhood (n candidate flips).
        let moves = self.solver.restarts as u64 * self.solver.iterations as u64 * n;
        Some(FORMULATE_NOMINAL_US + moves / 1000)
    }
}

/// Path-integral simulated quantum annealing on the logical Ising model
/// (no hardware graph, no embedding).
pub struct SqaBackend {
    /// Shared formulation cache.
    pub cache: Arc<FormulationCache>,
    /// SQA dynamics; attempt `i` reseeds from `(config.seed, i)`.
    pub config: qjo_anneal::SqaConfig,
    /// Annealing time per read, microseconds.
    pub annealing_time_us: f64,
    /// Independent reads per request.
    pub num_reads: usize,
}

impl JoinOrderOptimizer for SqaBackend {
    fn optimize_join_order(&self, query: &Query) -> Plan {
        plan_via_cache(&self.cache, query, |attempt, entry| {
            let qubo = &entry.formulation.qubo;
            let ising = qubo.to_ising();
            let mut config = self.config;
            config.seed = stream_seed(self.config.seed, attempt as u64);
            let reads =
                qjo_anneal::sqa::sample(&ising, &config, self.annealing_time_us, self.num_reads);
            let energy = |bits: &[bool]| qubo.energy(bits).expect("formulation-sized assignment");
            reads
                .iter()
                .map(|spins| spins_to_bits(spins))
                .min_by(|a, b| energy(a).partial_cmp(&energy(b)).expect("finite energies"))
        })
    }

    fn pre_check(&self, query: &Query) -> Option<u64> {
        let n = qubit_estimate(query);
        let sweeps = (self.annealing_time_us * self.config.sweeps_per_us).ceil() as u64;
        let slice_updates = self.num_reads as u64 * sweeps * self.config.trotter_slices as u64 * n;
        Some(FORMULATE_NOMINAL_US + slice_updates / 1000)
    }
}

/// The full annealer pipeline (embed → ICE → SQA → unembed) with the
/// minor-embedding cached per fingerprint class — the backend the cache
/// exists for.
pub struct AnnealerBackend {
    /// Shared formulation cache (embeddings live on its entries).
    pub cache: Arc<FormulationCache>,
    /// Pipeline template; attempt `i` samples with the job seed
    /// `stream_seed(sqa.seed, i)`.
    pub sampler: AnnealerSampler,
}

impl JoinOrderOptimizer for AnnealerBackend {
    fn optimize_join_order(&self, query: &Query) -> Plan {
        // The *first* attempt's embedding outcome is what the request
        // actually paid for (a retry reuses the outcome, embedding or
        // failure, that the attempt before it cached), so it is the status
        // telemetry should bill this request under.
        let embed_status = std::cell::Cell::new(None::<&'static str>);
        let mut plan = plan_via_cache(&self.cache, query, |attempt, entry| {
            let (embedded, status) = entry.embedding_with_status(|f| self.sampler.embed(&f.qubo));
            if embed_status.get().is_none() {
                embed_status.set(Some(status));
            }
            let embedding = embedded.ok()?;
            let seed = stream_seed(self.sampler.sqa.seed, attempt as u64);
            let outcome =
                self.sampler.sample_qubo_with_embedding(&entry.formulation.qubo, embedding, seed);
            outcome.samples.best().map(|s| s.assignment.clone())
        });
        plan.embed = embed_status.get();
        plan
    }

    fn pre_check(&self, query: &Query) -> Option<u64> {
        let n = qubit_estimate(query);
        if n as usize > self.sampler.topology.num_qubits() {
            return None;
        }
        let sweeps =
            (self.sampler.annealing_time_us * self.sampler.sqa.sweeps_per_us).ceil() as u64;
        let reads = self.sampler.num_reads as u64;
        // Chains inflate the lattice; charge 4 physical qubits per logical.
        let anneal =
            reads * sweeps * self.sampler.sqa.trotter_slices as u64 * n.saturating_mul(4) / 1000;
        let (_, resident) = self.cache.peek(query);
        let embed = match resident {
            Some(entry) if entry.has_embedding() => 0,
            _ => EMBED_NOMINAL_US,
        };
        Some(FORMULATE_NOMINAL_US + embed + anneal)
    }
}

/// Depth-`p` QAOA on the statevector simulator with a short Nelder–Mead
/// parameter search, then shot sampling.
pub struct QaoaBackend {
    /// Shared formulation cache.
    pub cache: Arc<FormulationCache>,
    /// Ansatz depth.
    pub p: usize,
    /// Measurement shots drawn from the optimised state.
    pub shots: usize,
    /// Nelder–Mead iteration budget for the parameter search.
    pub max_iterations: usize,
    /// Base RNG seed; attempt `i` reseeds from `(seed, i)`.
    pub seed: u64,
    /// Largest simulable formulation (statevector is `O(2^n)`).
    pub max_qubits: usize,
}

impl JoinOrderOptimizer for QaoaBackend {
    fn optimize_join_order(&self, query: &Query) -> Plan {
        plan_via_cache(&self.cache, query, |attempt, entry| {
            let qubo = &entry.formulation.qubo;
            if qubo.num_vars() > self.max_qubits {
                return None;
            }
            let sim = QaoaSimulator::new(qubo);
            let nm = NelderMead { max_iterations: self.max_iterations, ..NelderMead::default() };
            let x0 = vec![0.1; 2 * self.p];
            let result =
                nm.minimize(|flat| sim.expectation(&QaoaParams::from_flat(self.p, flat)), &x0);
            let params = QaoaParams::from_flat(self.p, &result.x);
            let mut rng = StdRng::seed_from_u64(stream_seed(self.seed, attempt as u64));
            let buffer = sim.sample(&params, self.shots, &mut rng);
            let set = SampleSet::from_shots(&buffer, |bits| {
                qubo.energy(bits).expect("shot rows match the formulation width")
            });
            set.best().map(|s| s.assignment.clone())
        })
    }

    fn pre_check(&self, query: &Query) -> Option<u64> {
        let n = qubit_estimate(query);
        if n as usize > self.max_qubits {
            return None;
        }
        // Each objective evaluation and each shot walks the 2^n state.
        let amplitudes = 1u64 << n.min(62);
        let evals = self.max_iterations as u64 + self.shots as u64 / 8;
        Some(FORMULATE_NOMINAL_US + amplitudes * evals / 10_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Request, Service};
    use qjo_core::{QueryGenerator, QueryGraph};
    use qjo_exec::Parallelism;

    fn req(id: &str, deadline_ms: Option<u64>, graph: QueryGraph, t: usize, seed: u64) -> Request {
        Request {
            id: id.into(),
            backend: "auto".into(),
            deadline_ms,
            query: QueryGenerator::paper_defaults(graph, t).generate(seed),
        }
    }

    #[test]
    fn auto_is_greedy_unless_dp_is_strictly_cheaper() {
        let svc = Service::smoke(7, Parallelism::sequential());
        let (mut dp_wins, mut greedy_kept) = (0, 0);
        let sizes = (3..=14).chain([20, 42]);
        for t in sizes {
            for graph in [QueryGraph::Chain, QueryGraph::Star, QueryGraph::Cycle] {
                for seed in 0..2 {
                    let r = req(&format!("{graph:?}-{t}-{seed}"), None, graph, t, seed);
                    let (greedy, greedy_cost) = greedy_min_cost(&r.query);
                    let mut expected = (greedy.order, greedy_cost);
                    if t <= DP_MAX_RELATIONS {
                        let (dp, dp_cost) = dp_optimal(&r.query);
                        if dp_cost < greedy_cost {
                            expected = (dp.order, dp_cost);
                            dp_wins += 1;
                        } else {
                            greedy_kept += 1;
                        }
                    }
                    let resp = svc.handle(&r);
                    let cost = resp.cost.expect("auto always answers");
                    assert_eq!(resp.order, expected.0, "{}", r.id);
                    assert_eq!(cost.to_bits(), expected.1.to_bits(), "{}", r.id);
                }
            }
        }
        assert!(dp_wins > 0 && greedy_kept > 0, "both arms of the rule are exercised");
        assert!(svc.cache().is_empty(), "auto never formulates");
        for e in svc.drain_events() {
            assert_eq!(e.cache, None, "{}", e.id);
            assert_eq!((e.portfolio, e.winner, e.cancelled), (None, None, None), "{}", e.id);
        }
    }

    #[test]
    fn auto_plans_under_estimates_recost_under_the_truth() {
        use qjo_core::QErrorInjector;
        let svc = Service::smoke(7, Parallelism::sequential());
        let truth = QueryGenerator::paper_defaults(QueryGraph::Star, 4).generate(5);
        let inj = QErrorInjector::new(11, 4.0).unwrap();
        let est = inj.inject(&truth, 0);
        let r = svc.handle(&Request {
            id: "est".into(),
            backend: "auto".into(),
            deadline_ms: None,
            query: est.clone(),
        });
        assert_eq!(r.error, None);
        // `auto` optimised under the estimates; its plan is a valid
        // permutation, so it re-costs under the truth to a finite value.
        let t = truth.num_relations();
        let order = JoinOrder::new(r.order.clone(), t).expect("valid permutation");
        let recost = order.clamped_cost(&est.true_query());
        assert!(recost.is_finite() && recost > 0.0);
        // The reported cost is the plan under the *estimated* statistics.
        let est_cost = order.clamped_cost(&est);
        assert!((r.cost.expect("cost") - est_cost).abs() / est_cost < 1e-9);
    }

    #[test]
    fn auto_is_byte_identical_across_thread_counts() {
        let run = |threads: usize| -> Vec<String> {
            let svc = Service::smoke(7, Parallelism::new(threads));
            let mut out = Vec::new();
            for (i, (graph, deadline)) in [
                (QueryGraph::Chain, None),
                (QueryGraph::Star, Some(30)),
                (QueryGraph::Cycle, Some(60_000)),
                (QueryGraph::Chain, Some(1)),
            ]
            .into_iter()
            .enumerate()
            {
                let r = svc.handle(&req(&format!("r{i}"), deadline, graph, 4, i as u64));
                out.push(format!("{:?}/{:?}/{}/{}", r.order, r.cost, r.fallback, r.deadline_miss));
            }
            for e in svc.drain_events() {
                out.push(e.render_deterministic());
            }
            out
        };
        assert_eq!(run(1), run(8));
    }
}
