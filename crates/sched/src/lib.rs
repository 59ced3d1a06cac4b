//! `qjo-sched`: the `auto` backend.
//!
//! Where `qjo-serve` routes a request to the *named* backend it asks
//! for, `auto` picks the plan itself with one rule: run greedy, and use
//! the exact DP plan instead when the query has at most
//! [`DP_MAX_RELATIONS`] relations and DP is strictly cheaper (a tie
//! keeps greedy's order).
//!
//! This is what the racing portfolio it replaced (SA, SQA and tabu
//! racing this greedy/DP plan under the deadline budget) always reduced
//! to: up to the DP cap nothing beats DP's exact optimum, and past it no
//! racer ever decoded a valid plan — the paper's collapse of valid QUBO
//! samples past about five relations. EXPERIMENTS.md, "Portfolio
//! scheduling", records the evidence.
//!
//! `auto` is classical: it never formulates, so it never touches the
//! formulation cache, and its plans are a pure function of the query.

use qjo_core::classical::{dp_optimal, greedy_min_cost};
use qjo_core::Query;
use qjo_exec::Parallelism;
use qjo_serve::{BackendInfo, JoinOrderOptimizer, Plan, PreCheck, ServeError, Service};

/// Largest query `auto` also solves exactly (DP's model cost is `3^t`).
pub const DP_MAX_RELATIONS: usize = 12;

/// The `auto` backend: greedy, or DP's plan when that is strictly
/// cheaper and the query is small enough to solve exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoBackend;

impl JoinOrderOptimizer for AutoBackend {
    fn optimize_join_order(&self, query: &Query) -> Result<Plan, ServeError> {
        let (greedy, mut cost) = greedy_min_cost(query);
        let mut order = greedy.order;
        if query.num_relations() <= DP_MAX_RELATIONS {
            let (dp, dp_cost) = dp_optimal(query);
            if dp_cost < cost {
                (order, cost) = (dp.order, dp_cost);
            }
        }
        Ok(Plan { order, cost, cache: None, embed: None, fallback: false })
    }

    fn describe(&self) -> BackendInfo {
        BackendInfo { name: "auto", family: "classical" }
    }

    fn pre_check(&self, query: &Query) -> PreCheck {
        // The greedy and DP backends' own models, summed.
        let t = query.num_relations() as u64;
        let greedy = (t * t / 10).max(1);
        let dp = if t as usize <= DP_MAX_RELATIONS {
            (3u64.saturating_pow(t as u32) / 1000).max(1)
        } else {
            0
        };
        PreCheck::ok(greedy + dp)
    }
}

/// [`Service::smoke`] plus the `auto` backend: the full roster the
/// `sched-bench` experiment replays. Returns a pair only because the
/// benchmark package reads `.0`.
pub fn smoke_service(seed: u64, parallelism: Parallelism) -> (Service, ()) {
    let mut service = Service::smoke(seed, parallelism);
    service.insert_backend("auto", Box::new(AutoBackend));
    (service, ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjo_core::{QueryGenerator, QueryGraph};
    use qjo_serve::{validate_events, AdmissionMode, Request};

    fn req(id: &str, deadline_ms: Option<u64>, graph: QueryGraph, t: usize, seed: u64) -> Request {
        Request {
            id: id.into(),
            backend: "auto".into(),
            deadline_ms,
            query: QueryGenerator::paper_defaults(graph, t).generate(seed),
        }
    }

    #[test]
    fn the_auto_backend_serves_valid_events_through_the_service() {
        let (svc, ()) = smoke_service(7, Parallelism::sequential());
        assert!(svc.backend_names().contains(&"auto"));
        let r = svc.handle(&req("a", Some(60_000), QueryGraph::Chain, 4, 1));
        assert_eq!(r.error, None);
        assert!(!r.fallback && !r.deadline_miss);
        let mut sorted = r.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        let events = svc.drain_events();
        assert_eq!(validate_events(&events), Vec::<String>::new());
        assert_eq!(events[0].backend, "auto");
        assert_eq!(events[0].slo, Some("met"));
    }

    #[test]
    fn auto_is_greedy_unless_dp_is_strictly_cheaper() {
        let (svc, ()) = smoke_service(7, Parallelism::sequential());
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
        use qjo_core::{CostModel, JoinOrder, QErrorInjector};
        let (svc, ()) = smoke_service(7, Parallelism::sequential());
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
        let recost = CostModel::Out.order_cost(&order, &est.true_query());
        assert!(recost.is_finite() && recost > 0.0);
        // The reported cost is the plan under the *estimated* statistics.
        let est_cost = CostModel::Out.order_cost(&order, &est);
        assert!((r.cost.expect("cost") - est_cost).abs() / est_cost < 1e-9);
    }

    #[test]
    fn calibrated_admission_reads_auto_observations_under_auto() {
        // Admission predicts a classical backend's work key as its bare
        // name, and the telemetry records a lookup-free request under the
        // same key, so calibrated admission finds its own observations.
        let (mut svc, ()) = smoke_service(7, Parallelism::sequential());
        svc.set_admission_mode(AdmissionMode::Calibrated { min_samples: 1 });
        svc.handle(&req("warm", None, QueryGraph::Chain, 4, 1));
        let observed = svc.telemetry().cost_estimate_us("auto", 1).expect("recorded under `auto`");
        svc.handle(&req("timed", Some(60_000), QueryGraph::Chain, 4, 1));
        let events = svc.drain_events();
        assert_eq!(events[1].est_cost_us, Some(observed));
    }

    #[test]
    fn service_races_are_byte_identical_across_thread_counts() {
        let run = |threads: usize| -> Vec<String> {
            let (svc, ()) = smoke_service(7, Parallelism::new(threads));
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
