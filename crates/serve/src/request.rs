//! The wire format: one JSON object per line, in and out.
//!
//! A request names a backend, an optional deadline, and the join graph —
//! log₁₀ cardinalities per relation plus join predicates:
//!
//! ```json
//! {"id": "q42", "backend": "annealer", "deadline_ms": 500,
//!  "relations": [3.0, 2.0, 4.0],
//!  "predicates": [{"rel_a": 0, "rel_b": 1, "log_sel": -1.0},
//!                 {"rel_a": 1, "rel_b": 2, "log_sel": -2.0}]}
//! ```
//!
//! A request may carry *estimated* cardinalities: when the optional
//! `true_relations` array is present, `relations` are the estimates the
//! optimiser plans under, `true_relations` are the true log cardinalities
//! retained alongside (see [`Query::with_estimates`]), and each predicate
//! may carry an optional `true_log_sel` next to its estimated `log_sel`.
//! Caching keys on the *estimates* — jitter within one fingerprint bucket
//! still hits the WL cache.
//!
//! The response echoes the id and backend and carries the plan (or the
//! error), the cache outcome, and whether the deadline model forced the
//! classical fallback:
//!
//! ```json
//! {"id": "q42", "backend": "annealer", "order": [1, 0, 2],
//!  "cost": 5.0, "cache": "hit", "fallback": false,
//!  "deadline_miss": false}
//! ```
//!
//! Parsing uses the workspace's own [`qjo_obs::json`] model (hermetic
//! build — no serde); rendering is deterministic (sorted keys).

use std::collections::BTreeMap;

use qjo_obs::json::Json;

use qjo_core::{Predicate, Query};

/// A parsed serving request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: String,
    /// Backend name (see [`crate::backends`]).
    pub backend: String,
    /// Answer deadline in milliseconds; `None` means best-effort.
    pub deadline_ms: Option<u64>,
    /// The join-ordering instance.
    pub query: Query,
}

/// The serving answer for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echoed request id.
    pub id: String,
    /// Backend that produced the plan (the fallback keeps the requested
    /// backend's name; `fallback` records the substitution).
    pub backend: String,
    /// Join order in request relation indices; empty on error.
    pub order: Vec<usize>,
    /// Cost of the order under the request's query; `None` on error. A
    /// cost that overflows `f64` (+∞) is kept here but, like `None`,
    /// renders as `null` on the wire.
    pub cost: Option<f64>,
    /// `"hit"` / `"miss"` when the backend formulates, else `None`.
    pub cache: Option<&'static str>,
    /// True when the plan came from the greedy fallback (deadline
    /// admission or solve degradation).
    pub fallback: bool,
    /// True when the deadline model predicted the backend could not
    /// answer in time.
    pub deadline_miss: bool,
    /// Error text when no plan could be produced.
    pub error: Option<String>,
}

fn field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("{ctx}: missing field `{key}`"))
}

fn usize_field(obj: &Json, key: &str, ctx: &str) -> Result<usize, String> {
    field(obj, key, ctx)?
        .as_u64()
        .map(|v| v as usize)
        .ok_or_else(|| format!("{ctx}: `{key}` must be a non-negative integer"))
}

/// Parses one request line. Validates everything [`Query::new`] asserts,
/// so malformed requests surface as protocol errors, not panics.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line).map_err(|e| format!("request is not valid JSON: {e:?}"))?;
    let id =
        field(&doc, "id", "request")?.as_str().ok_or("request: `id` must be a string")?.to_string();
    let backend = field(&doc, "backend", "request")?
        .as_str()
        .ok_or("request: `backend` must be a string")?
        .to_string();
    let deadline_ms = match doc.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.as_u64().ok_or("request: `deadline_ms` must be a non-negative integer")?),
    };
    let relations = field(&doc, "relations", "request")?
        .as_arr()
        .ok_or("request: `relations` must be an array of log10 cardinalities")?;
    let log_cards: Vec<f64> = relations
        .iter()
        .map(|v| v.as_f64().ok_or("request: relations entries must be numbers".to_string()))
        .collect::<Result<_, _>>()?;
    let t = log_cards.len();
    if !(2..=64).contains(&t) {
        return Err(format!("request: need 2..=64 relations, got {t}"));
    }
    if !log_cards.iter().all(|c| c.is_finite() && *c >= 0.0) {
        return Err("request: log cardinalities must be finite and >= 0".into());
    }
    let mut predicates = Vec::new();
    let mut true_sels = Vec::new();
    let mut any_true_sel = false;
    for (i, p) in field(&doc, "predicates", "request")?
        .as_arr()
        .ok_or("request: `predicates` must be an array")?
        .iter()
        .enumerate()
    {
        let ctx = format!("predicates[{i}]");
        let rel_a = usize_field(p, "rel_a", &ctx)?;
        let rel_b = usize_field(p, "rel_b", &ctx)?;
        let log_sel = field(p, "log_sel", &ctx)?
            .as_f64()
            .ok_or_else(|| format!("{ctx}: `log_sel` must be a number"))?;
        if rel_a >= t || rel_b >= t {
            return Err(format!("{ctx}: references relation out of range (t = {t})"));
        }
        if rel_a == rel_b {
            return Err(format!("{ctx}: self-join predicates are not supported"));
        }
        if !(log_sel.is_finite() && log_sel <= 0.0) {
            return Err(format!("{ctx}: `log_sel` must be finite and <= 0"));
        }
        let true_sel = match p.get("true_log_sel") {
            None | Some(Json::Null) => log_sel,
            Some(v) => {
                let s =
                    v.as_f64().ok_or_else(|| format!("{ctx}: `true_log_sel` must be a number"))?;
                if !(s.is_finite() && s <= 0.0) {
                    return Err(format!("{ctx}: `true_log_sel` must be finite and <= 0"));
                }
                any_true_sel = true;
                s
            }
        };
        true_sels.push(true_sel);
        predicates.push(Predicate { rel_a, rel_b, log_sel });
    }
    let query = match doc.get("true_relations") {
        None | Some(Json::Null) => {
            if any_true_sel {
                return Err("request: `true_log_sel` requires `true_relations`".into());
            }
            Query::new(log_cards, predicates)
        }
        Some(v) => {
            let arr = v
                .as_arr()
                .ok_or("request: `true_relations` must be an array of log10 cardinalities")?;
            let true_cards: Vec<f64> = arr
                .iter()
                .map(|v| {
                    v.as_f64().ok_or("request: true_relations entries must be numbers".to_string())
                })
                .collect::<Result<_, _>>()?;
            if true_cards.len() != t {
                return Err(format!(
                    "request: `true_relations` has {} entries for {t} relations",
                    true_cards.len()
                ));
            }
            if !true_cards.iter().all(|c| c.is_finite() && *c >= 0.0) {
                return Err("request: true log cardinalities must be finite and >= 0".into());
            }
            let est_sels: Vec<f64> = predicates.iter().map(|p| p.log_sel).collect();
            let true_preds: Vec<Predicate> = predicates
                .iter()
                .zip(&true_sels)
                .map(|(p, &log_sel)| Predicate { log_sel, ..*p })
                .collect();
            Query::new(true_cards, true_preds).with_estimates(log_cards, est_sels)
        }
    };
    Ok(Request { id, backend, deadline_ms, query })
}

/// Renders a response as one deterministic JSON line (no trailing
/// newline).
pub fn render_response(r: &Response) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("id".to_string(), Json::from(r.id.as_str()));
    obj.insert("backend".to_string(), Json::from(r.backend.as_str()));
    obj.insert(
        "order".to_string(),
        Json::Arr(r.order.iter().map(|&i| Json::from(i as u64)).collect()),
    );
    obj.insert(
        "cost".to_string(),
        match r.cost {
            Some(c) => Json::from(c),
            None => Json::Null,
        },
    );
    obj.insert(
        "cache".to_string(),
        match r.cache {
            Some(s) => Json::from(s),
            None => Json::Null,
        },
    );
    obj.insert("fallback".to_string(), Json::Bool(r.fallback));
    obj.insert("deadline_miss".to_string(), Json::Bool(r.deadline_miss));
    obj.insert(
        "error".to_string(),
        match &r.error {
            Some(e) => Json::from(e.as_str()),
            None => Json::Null,
        },
    );
    Json::Obj(obj).render_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"id": "q1", "backend": "dp", "deadline_ms": 100,
        "relations": [3.0, 2.0, 4.0],
        "predicates": [{"rel_a": 0, "rel_b": 1, "log_sel": -1.0}]}"#;

    #[test]
    fn parses_a_well_formed_request() {
        let r = parse_request(GOOD).expect("parses");
        assert_eq!(r.id, "q1");
        assert_eq!(r.backend, "dp");
        assert_eq!(r.deadline_ms, Some(100));
        assert_eq!(r.query.num_relations(), 3);
        assert_eq!(r.query.num_predicates(), 1);
        assert_eq!(r.query.log_card(2), 4.0);
    }

    #[test]
    fn deadline_is_optional() {
        let line = r#"{"id": "a", "backend": "greedy", "relations": [1.0, 1.0], "predicates": []}"#;
        assert_eq!(parse_request(line).expect("parses").deadline_ms, None);
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        let cases = [
            ("not json", "not valid JSON"),
            (r#"{"backend": "dp", "relations": [1.0, 1.0], "predicates": []}"#, "missing field"),
            (r#"{"id": "a", "backend": "dp", "relations": [1.0], "predicates": []}"#, "2..=64"),
            (r#"{"id": "a", "backend": "dp", "relations": [1.0, -2.0], "predicates": []}"#, ">= 0"),
            (
                r#"{"id": "a", "backend": "dp", "relations": [1.0, 1.0],
                   "predicates": [{"rel_a": 0, "rel_b": 5, "log_sel": -1.0}]}"#,
                "out of range",
            ),
            (
                r#"{"id": "a", "backend": "dp", "relations": [1.0, 1.0],
                   "predicates": [{"rel_a": 0, "rel_b": 0, "log_sel": -1.0}]}"#,
                "self-join",
            ),
            (
                r#"{"id": "a", "backend": "dp", "relations": [1.0, 1.0],
                   "predicates": [{"rel_a": 0, "rel_b": 1, "log_sel": 0.5}]}"#,
                "<= 0",
            ),
        ];
        for (line, want) in cases {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(want), "error {err:?} should mention {want:?}");
        }
    }

    #[test]
    fn estimated_requests_carry_the_truth_alongside() {
        let line = r#"{"id": "e1", "backend": "dp",
            "relations": [3.2, 1.9, 4.1], "true_relations": [3.0, 2.0, 4.0],
            "predicates": [{"rel_a": 0, "rel_b": 1, "log_sel": -1.3, "true_log_sel": -1.0}]}"#;
        let r = parse_request(line).expect("parses");
        assert!(r.query.has_estimates());
        assert_eq!(r.query.log_cards(), &[3.2, 1.9, 4.1]);
        assert_eq!(r.query.predicates()[0].log_sel, -1.3);
        assert_eq!(r.query.true_log_cards(), &[3.0, 2.0, 4.0]);
        assert_eq!(r.query.true_log_sels(), vec![-1.0]);
    }

    #[test]
    fn true_log_sel_defaults_to_the_estimate() {
        let line = r#"{"id": "e2", "backend": "dp",
            "relations": [3.0, 2.0], "true_relations": [2.0, 2.0],
            "predicates": [{"rel_a": 0, "rel_b": 1, "log_sel": -1.0}]}"#;
        let r = parse_request(line).expect("parses");
        assert!(r.query.has_estimates());
        assert_eq!(r.query.true_log_sels(), vec![-1.0]);
    }

    #[test]
    fn estimate_fields_are_validated() {
        let cases = [
            (
                r#"{"id": "a", "backend": "dp", "relations": [1.0, 1.0],
                   "true_relations": [1.0], "predicates": []}"#,
                "1 entries for 2 relations",
            ),
            (
                r#"{"id": "a", "backend": "dp", "relations": [1.0, 1.0],
                   "true_relations": [1.0, -1.0], "predicates": []}"#,
                "finite and >= 0",
            ),
            (
                r#"{"id": "a", "backend": "dp", "relations": [1.0, 1.0],
                   "predicates": [{"rel_a": 0, "rel_b": 1, "log_sel": -1.0,
                                   "true_log_sel": 0.5}],
                   "true_relations": [1.0, 1.0]}"#,
                "`true_log_sel` must be finite and <= 0",
            ),
            (
                r#"{"id": "a", "backend": "dp", "relations": [1.0, 1.0],
                   "predicates": [{"rel_a": 0, "rel_b": 1, "log_sel": -1.0,
                                   "true_log_sel": -1.0}]}"#,
                "requires `true_relations`",
            ),
        ];
        for (line, want) in cases {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(want), "error {err:?} should mention {want:?}");
        }
    }

    #[test]
    fn response_renders_deterministically() {
        let r = Response {
            id: "q1".into(),
            backend: "sa".into(),
            order: vec![2, 0, 1],
            cost: Some(5.5),
            cache: Some("hit"),
            fallback: false,
            deadline_miss: false,
            error: None,
        };
        let line = render_response(&r);
        assert_eq!(line, render_response(&r));
        let doc = Json::parse(&line).expect("round-trips");
        assert_eq!(doc.get("id").and_then(Json::as_str), Some("q1"));
        assert_eq!(doc.get("cache").and_then(Json::as_str), Some("hit"));
        let order: Vec<u64> = doc
            .get("order")
            .and_then(Json::as_arr)
            .expect("arr")
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        assert_eq!(order, vec![2, 0, 1]);
        assert_eq!(doc.get("error"), Some(&Json::Null));
    }
}
