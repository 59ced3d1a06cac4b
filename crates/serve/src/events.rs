//! Per-request structured serving events.
//!
//! Every request handled by a [`Service`](crate::service::Service) emits
//! exactly one [`ServeEvent`]: a flat JSON record of what the admission
//! pipeline decided (backend, cache/embed state, degradation reason, SLO
//! class, plan cost) plus one *volatile* wall-clock `latency_us` field.
//! Everything except the latency is a pure function of the request
//! stream, so the event log splits cleanly into
//!
//! * the **full** rendering ([`ServeEvent::render_full`]) — what
//!   `serve_events.jsonl` holds, latency included; and
//! * the **deterministic projection**
//!   ([`ServeEvent::render_deterministic`]) — the same record with
//!   `latency_us` stripped, byte-identical across thread counts and
//!   machines, and therefore hash-gated in the run manifest.
//!
//! [`parse_event`] and [`validate_events`] are the shared schema checker
//! behind `experiments events-check`.

use std::collections::BTreeMap;

use qjo_obs::json::Json;

/// The reason a request was degraded or failed. `None` means the named
/// backend answered.
pub const REASONS: [&str; 4] = ["deadline", "solve", "unknown_backend", "unsupported"];

/// Terminal outcome classes for a request.
pub const OUTCOMES: [&str; 3] = ["error", "fallback", "ok"];

/// SLO classes for deadline-carrying requests.
pub const SLO_CLASSES: [&str; 3] = ["degraded", "met", "missed"];

/// One structured record per served request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeEvent {
    /// Dense per-service sequence number, starting at 0.
    pub seq: u64,
    /// Client-supplied request id.
    pub id: String,
    /// Requested backend name (even when unknown).
    pub backend: String,
    /// WL-canonical fingerprint of the join graph ("" when the request
    /// never reached canonicalisation, i.e. unknown backend).
    pub fingerprint: String,
    /// The request's deadline, if it carried one.
    pub deadline_ms: Option<u64>,
    /// True when the request was admitted to its named backend's solver.
    pub admitted: bool,
    /// Formulation cache state ("hit"/"miss"), if a lookup happened.
    pub cache: Option<&'static str>,
    /// Embedding state ("hit"/"cold"), if an embedding was touched.
    pub embed: Option<&'static str>,
    /// "ok", "fallback", or "error".
    pub outcome: &'static str,
    /// Degradation/failure reason; `None` iff `outcome == "ok"`.
    pub reason: Option<&'static str>,
    /// SLO class ("met"/"degraded"/"missed"); present iff a deadline was.
    pub slo: Option<&'static str>,
    /// Plan cost of the returned order (absent for unanswerable requests).
    pub cost: Option<f64>,
    /// The admission cost estimate (µs) compared against the deadline
    /// budget; present iff the deadline check ran.
    pub est_cost_us: Option<u64>,
    /// Measured wall-clock handling latency in µs. **Volatile**: absent
    /// from the deterministic projection.
    pub latency_us: u64,
    // The three race fields below are always null now that `auto` no
    // longer races; they stay because the benchmark package reads them.
    /// Sorted, comma-joined race entrants of a racing-portfolio answer
    /// (always including `anytime`), as archived logs record them.
    pub portfolio: Option<String>,
    /// The race entrant whose plan was returned; present iff `portfolio`
    /// is.
    pub winner: Option<String>,
    /// Sorted, comma-joined racers cancelled on a convergence plateau
    /// ("" when none were); present iff `portfolio` is.
    pub cancelled: Option<String>,
}

impl ServeEvent {
    fn to_json(&self, with_latency: bool) -> Json {
        let mut obj: BTreeMap<String, Json> = BTreeMap::new();
        let opt_str = |v: Option<&'static str>| v.map(Json::from).unwrap_or(Json::Null);
        obj.insert("seq".into(), Json::from(self.seq));
        obj.insert("id".into(), Json::from(self.id.as_str()));
        obj.insert("backend".into(), Json::from(self.backend.as_str()));
        obj.insert("fingerprint".into(), Json::from(self.fingerprint.as_str()));
        obj.insert("deadline_ms".into(), self.deadline_ms.map(Json::from).unwrap_or(Json::Null));
        obj.insert("admitted".into(), Json::Bool(self.admitted));
        obj.insert("cache".into(), opt_str(self.cache));
        obj.insert("embed".into(), opt_str(self.embed));
        obj.insert("outcome".into(), Json::from(self.outcome));
        obj.insert("reason".into(), opt_str(self.reason));
        obj.insert("slo".into(), opt_str(self.slo));
        obj.insert("cost".into(), self.cost.map(Json::from).unwrap_or(Json::Null));
        obj.insert("est_cost_us".into(), self.est_cost_us.map(Json::from).unwrap_or(Json::Null));
        let opt_string =
            |v: &Option<String>| v.as_ref().map(|s| Json::from(s.as_str())).unwrap_or(Json::Null);
        obj.insert("portfolio".into(), opt_string(&self.portfolio));
        obj.insert("winner".into(), opt_string(&self.winner));
        obj.insert("cancelled".into(), opt_string(&self.cancelled));
        if with_latency {
            obj.insert("latency_us".into(), Json::from(self.latency_us));
        }
        Json::Obj(obj)
    }

    /// One-line JSON with every field, including the volatile latency.
    pub fn render_full(&self) -> String {
        self.to_json(true).render_compact()
    }

    /// One-line JSON of the deterministic fields only (no `latency_us`).
    pub fn render_deterministic(&self) -> String {
        self.to_json(false).render_compact()
    }
}

/// Renders events as the full event log (one record per line).
pub fn render_log(events: &[ServeEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.render_full());
        out.push('\n');
    }
    out
}

/// Renders the deterministic projection of events (one record per line).
pub fn render_canonical(events: &[ServeEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.render_deterministic());
        out.push('\n');
    }
    out
}

fn intern(value: &str, table: &[&'static str]) -> Option<&'static str> {
    table.iter().find(|&&t| t == value).copied()
}

fn field_opt_str(
    doc: &Json,
    key: &str,
    table: &[&'static str],
) -> Result<Option<&'static str>, String> {
    match doc.get(key) {
        None => Err(format!("missing field `{key}`")),
        Some(Json::Null) => Ok(None),
        Some(v) => {
            let s = v.as_str().ok_or_else(|| format!("field `{key}` must be a string"))?;
            intern(s, table)
                .map(Some)
                .ok_or_else(|| format!("field `{key}` has unknown value `{s}`"))
        }
    }
}

fn field_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

/// A free-string optional field. Absent-tolerant (unlike the required
/// fields): event logs written before the race fields existed parse with
/// `None`, keeping `events-check` usable on archived logs.
fn field_opt_string(doc: &Json, key: &str) -> Result<Option<String>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| format!("field `{key}` must be a string")),
    }
}

fn field_opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None => Err(format!("missing field `{key}`")),
        Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| format!("field `{key}` must be a u64")),
    }
}

/// Parses one event-log line (full or deterministic projection; a
/// missing `latency_us` parses as 0).
pub fn parse_event(line: &str) -> Result<ServeEvent, String> {
    let doc = Json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
    let admitted = match doc.get("admitted") {
        Some(Json::Bool(b)) => *b,
        _ => return Err("missing bool field `admitted`".into()),
    };
    let cost = match doc.get("cost") {
        None => return Err("missing field `cost`".into()),
        Some(Json::Null) => None,
        Some(v) => Some(v.as_f64().ok_or("field `cost` must be a number")?),
    };
    let outcome = match doc.get("outcome").and_then(Json::as_str) {
        Some(s) => intern(s, &OUTCOMES).ok_or_else(|| format!("unknown outcome `{s}`"))?,
        None => return Err("missing string field `outcome`".into()),
    };
    let latency_us = match doc.get("latency_us") {
        None => 0,
        Some(v) => v.as_u64().ok_or("field `latency_us` must be a u64")?,
    };
    Ok(ServeEvent {
        seq: doc.get("seq").and_then(Json::as_u64).ok_or("missing u64 field `seq`")?,
        id: field_str(&doc, "id")?,
        backend: field_str(&doc, "backend")?,
        fingerprint: field_str(&doc, "fingerprint")?,
        deadline_ms: field_opt_u64(&doc, "deadline_ms")?,
        admitted,
        cache: field_opt_str(&doc, "cache", &["hit", "miss"])?,
        embed: field_opt_str(&doc, "embed", &["cold", "hit"])?,
        outcome,
        reason: field_opt_str(&doc, "reason", &REASONS)?,
        slo: field_opt_str(&doc, "slo", &SLO_CLASSES)?,
        cost,
        est_cost_us: field_opt_u64(&doc, "est_cost_us")?,
        latency_us,
        portfolio: field_opt_string(&doc, "portfolio")?,
        winner: field_opt_string(&doc, "winner")?,
        cancelled: field_opt_string(&doc, "cancelled")?,
    })
}

/// Checks the per-request and cross-request invariants of an event
/// stream. Returns one message per violation (empty = valid).
pub fn validate_events(events: &[ServeEvent]) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let at = |msg: String| format!("event {i} (id `{}`): {msg}", e.id);
        if let Some(first) = events.first() {
            let expect = first.seq + i as u64;
            if e.seq != expect {
                errors.push(at(format!("seq {} breaks dense ordering (expected {expect})", e.seq)));
            }
        }
        if (e.outcome == "ok") != e.reason.is_none() {
            errors.push(at(format!(
                "outcome `{}` is inconsistent with reason {:?}",
                e.outcome, e.reason
            )));
        }
        if e.slo.is_some() != e.deadline_ms.is_some() {
            errors.push(at(format!(
                "slo {:?} must be present iff deadline_ms is (got {:?})",
                e.slo, e.deadline_ms
            )));
        }
        if e.reason == Some("deadline") {
            if e.outcome != "fallback" {
                errors.push(at("a deadline degradation must have outcome `fallback`".into()));
            }
            if !matches!(e.slo, Some("degraded") | Some("missed")) {
                errors.push(at(format!("a deadline degradation cannot have slo {:?}", e.slo)));
            }
        }
        if e.embed.is_some() && e.cache.is_none() {
            errors.push(at("embed state without a cache lookup".into()));
        }
        if e.reason == Some("unknown_backend")
            && (e.admitted || e.cache.is_some() || e.cost.is_some() || !e.fingerprint.is_empty())
        {
            errors.push(at("an unknown-backend error must carry no plan or cache state".into()));
        }
        if e.cost.is_none() && e.reason != Some("unknown_backend") {
            errors.push(at("only unknown-backend errors may lack a cost".into()));
        }
        if let Some(c) = e.cost {
            if !c.is_finite() {
                errors.push(at(format!("cost {c} is not finite")));
            }
        }
        let diverted =
            matches!(e.reason, Some("deadline") | Some("unsupported") | Some("unknown_backend"));
        if e.admitted == diverted {
            errors.push(at(format!(
                "admitted={} is inconsistent with reason {:?}",
                e.admitted, e.reason
            )));
        }
        // Race fields (archived logs only) come as a unit, only on
        // admitted portfolio answers.
        if e.winner.is_some() != e.portfolio.is_some()
            || e.cancelled.is_some() != e.portfolio.is_some()
        {
            errors.push(at("portfolio, winner, and cancelled must be present together".into()));
        }
        if let Some(portfolio) = &e.portfolio {
            if !e.admitted {
                errors.push(at("a race implies the request was admitted".into()));
            }
            let entrants: Vec<&str> = portfolio.split(',').collect();
            if let Some(winner) = &e.winner {
                if !entrants.contains(&winner.as_str()) {
                    errors.push(at(format!("winner `{winner}` is not in the portfolio")));
                }
            }
            if let Some(cancelled) = &e.cancelled {
                for name in cancelled.split(',').filter(|s| !s.is_empty()) {
                    if !entrants.contains(&name) {
                        errors
                            .push(at(format!("cancelled racer `{name}` is not in the portfolio")));
                    }
                }
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_event(seq: u64) -> ServeEvent {
        ServeEvent {
            seq,
            id: format!("r{seq}"),
            backend: "sa".into(),
            fingerprint: "abc123".into(),
            deadline_ms: Some(60_000),
            admitted: true,
            cache: Some("hit"),
            embed: None,
            outcome: "ok",
            reason: None,
            slo: Some("met"),
            cost: Some(12.5),
            est_cost_us: Some(400),
            latency_us: 1234,
            portfolio: None,
            winner: None,
            cancelled: None,
        }
    }

    fn race_event(seq: u64) -> ServeEvent {
        let mut e = ok_event(seq);
        e.backend = "auto".into();
        e.portfolio = Some("anytime,sa,sqa,tabu".into());
        e.winner = Some("tabu".into());
        e.cancelled = Some("sa,sqa".into());
        e
    }

    #[test]
    fn full_round_trips_and_deterministic_strips_latency() {
        let e = ok_event(0);
        let full = e.render_full();
        assert!(full.contains("\"latency_us\":1234"));
        let parsed = parse_event(&full).expect("parses");
        assert_eq!(parsed, e);
        let det = e.render_deterministic();
        assert!(!det.contains("latency_us"));
        let reparsed = parse_event(&det).expect("parses");
        assert_eq!(reparsed.latency_us, 0);
        assert_eq!(reparsed.render_deterministic(), det);
        // One line each, no timestamps.
        assert!(!full.contains('\n') && !det.contains('\n'));
    }

    #[test]
    fn validation_accepts_a_consistent_stream() {
        let events: Vec<ServeEvent> = (0..4).map(ok_event).collect();
        assert_eq!(validate_events(&events), Vec::<String>::new());
    }

    #[test]
    fn validation_flags_broken_invariants() {
        // Sparse seq.
        let sparse = vec![ok_event(0), ok_event(2)];
        assert!(validate_events(&sparse).iter().any(|e| e.contains("dense")));
        // ok with a reason.
        let mut bad = ok_event(0);
        bad.reason = Some("solve");
        assert!(validate_events(&[bad]).iter().any(|e| e.contains("inconsistent with reason")));
        // slo without a deadline.
        let mut bad = ok_event(0);
        bad.deadline_ms = None;
        assert!(validate_events(&[bad]).iter().any(|e| e.contains("slo")));
        // deadline degradation marked met.
        let mut bad = ok_event(0);
        bad.outcome = "fallback";
        bad.reason = Some("deadline");
        bad.admitted = false;
        assert!(validate_events(&[bad]).iter().any(|e| e.contains("cannot have slo")));
        // admitted but diverted.
        let mut bad = ok_event(0);
        bad.outcome = "fallback";
        bad.reason = Some("unsupported");
        assert!(validate_events(&[bad]).iter().any(|e| e.contains("admitted=true")));
    }

    #[test]
    fn race_fields_round_trip_and_tolerate_pre_race_logs() {
        let e = race_event(0);
        let full = e.render_full();
        assert!(full.contains("\"portfolio\":\"anytime,sa,sqa,tabu\""));
        assert_eq!(parse_event(&full).expect("parses"), e);
        assert_eq!(validate_events(std::slice::from_ref(&e)), Vec::<String>::new());
        // Logs written before the race fields existed lack the keys
        // entirely; they must still parse (as None).
        let legacy = ok_event(0)
            .render_full()
            .replace("\"portfolio\":null,", "")
            .replace("\"winner\":null,", "")
            .replace("\"cancelled\":null,", "");
        assert!(!legacy.contains("portfolio"));
        let parsed = parse_event(&legacy).expect("legacy logs parse");
        assert_eq!(parsed.portfolio, None);
        assert_eq!(parsed.winner, None);
        assert_eq!(parsed.cancelled, None);
    }

    #[test]
    fn validation_flags_inconsistent_race_fields() {
        // Winner without a portfolio.
        let mut bad = ok_event(0);
        bad.winner = Some("sa".into());
        assert!(validate_events(&[bad]).iter().any(|e| e.contains("present together")));
        // Winner outside the portfolio.
        let mut bad = race_event(0);
        bad.winner = Some("annealer".into());
        assert!(validate_events(&[bad]).iter().any(|e| e.contains("not in the portfolio")));
        // Cancelled racer outside the portfolio.
        let mut bad = race_event(0);
        bad.cancelled = Some("dp".into());
        assert!(validate_events(&[bad]).iter().any(|e| e.contains("cancelled racer `dp`")));
        // A race on an unadmitted request.
        let mut bad = race_event(0);
        bad.admitted = false;
        bad.outcome = "fallback";
        bad.reason = Some("deadline");
        bad.slo = Some("degraded");
        assert!(validate_events(&[bad]).iter().any(|e| e.contains("implies the request")));
        // An empty cancelled string is a valid "none cancelled".
        let mut ok = race_event(0);
        ok.cancelled = Some(String::new());
        assert_eq!(validate_events(&[ok]), Vec::<String>::new());
    }

    #[test]
    fn parse_rejects_unknown_enum_values() {
        let good = ok_event(0).render_full();
        let bad = good.replace("\"outcome\":\"ok\"", "\"outcome\":\"shrug\"");
        assert!(parse_event(&bad).unwrap_err().contains("unknown outcome"));
        let bad = good.replace("\"cache\":\"hit\"", "\"cache\":\"warmish\"");
        assert!(parse_event(&bad).unwrap_err().contains("unknown value"));
        assert!(parse_event("not json").is_err());
    }
}
