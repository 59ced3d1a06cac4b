//! The serving contract, checked over every `Service::smoke` backend: a
//! backend declines a query in `pre_check`, and the service then answers
//! with greedy's plan, or it answers with a valid left-deep permutation.
//! Either way the reported cost is the order's cost under the request's
//! own query, no plan beats the DP optimum, and the answers and their
//! events do not depend on the thread count.

use qjo_core::classical::dp_optimal;
use qjo_core::{JoinOrder, Predicate, QErrorInjector, Query, QueryGenerator, QueryGraph};
use qjo_exec::Parallelism;
use qjo_serve::{render_response, Request, Service};

const BACKENDS: [&str; 8] = ["annealer", "auto", "dp", "greedy", "qaoa", "sa", "sqa", "tabu"];

/// Largest query whose plans are compared against `dp_optimal`.
const DP_CHECKED_RELATIONS: usize = 12;

/// Edge inputs and the shapes the backends are built for. Two relations
/// is the floor (`Query::new` refuses one); the 13- and 21-relation
/// chains are past the quantum backends' bounds and `dp`'s cap.
fn queries() -> Vec<(&'static str, Query)> {
    let shape = |graph, t, seed| QueryGenerator::paper_defaults(graph, t).generate(seed);
    let link = |rel_a, rel_b| Predicate { rel_a, rel_b, log_sel: -1.0 };
    let estimated = QErrorInjector::new(11, 4.0).expect("q-error ≥ 1");
    vec![
        ("chain-2", shape(QueryGraph::Chain, 2, 1)),
        ("cross-products-3", Query::new(vec![3.0, 2.0, 4.0], Vec::new())),
        ("single-rows-3", Query::new(vec![0.0; 3], vec![link(0, 1), link(1, 2)])),
        ("cycle-3", shape(QueryGraph::Cycle, 3, 2)),
        ("star-4", shape(QueryGraph::Star, 4, 3)),
        ("clique-4", shape(QueryGraph::Clique, 4, 4)),
        ("estimated-chain-4", estimated.inject(&shape(QueryGraph::Chain, 4, 5), 0)),
        ("chain-13", shape(QueryGraph::Chain, 13, 6)),
        ("chain-21", shape(QueryGraph::Chain, 21, 7)),
    ]
}

/// Serves every query on every backend, checks each answer against the
/// contract, and returns the responses and canonical events.
fn serve_and_check(threads: usize) -> Vec<String> {
    let svc = Service::smoke(7, Parallelism::new(threads));
    let mut rendered = Vec::new();
    for (name, query) in queries() {
        let t = query.num_relations();
        let optimum = (t <= DP_CHECKED_RELATIONS).then(|| dp_optimal(&query).1);
        for backend in BACKENDS {
            let id = format!("{name}/{backend}");
            let declined = svc.backend(backend).expect("registered").pre_check(&query).is_none();
            let req = Request {
                id: id.clone(),
                backend: backend.into(),
                deadline_ms: None,
                query: query.clone(),
            };
            let resp = svc.handle(&req);
            let event = svc.drain_events().pop().expect("one event per request");
            assert_eq!((resp.error.as_deref(), event.outcome == "error"), (None, false), "{id}");
            let order = JoinOrder::new(resp.order.clone(), t)
                .unwrap_or_else(|| panic!("{id}: {:?} is not a permutation", resp.order));
            let cost = resp.cost.expect("an answered request has a cost");
            assert_eq!(cost.to_bits(), order.cost(&query).to_bits(), "{id}: cost {cost}");
            if let Some(optimum) = optimum {
                assert!(cost >= optimum, "{id}: cost {cost} beats the DP optimum {optimum}");
                if matches!(backend, "dp" | "auto") {
                    assert_eq!(cost.to_bits(), optimum.to_bits(), "{id}: not DP's optimum");
                }
            }
            assert_eq!(event.reason == Some("unsupported"), declined, "{id}: {event:?}");
            rendered.push(render_response(&resp));
            rendered.push(event.render_deterministic());
        }
    }
    rendered
}

#[test]
fn every_backend_declines_in_pre_check_or_answers_a_valid_plan() {
    assert_eq!(serve_and_check(1), serve_and_check(8));
}
