//! Self-time attribution of a traced pass.
//!
//! The benchmark wraps every op in a `bench.op/<id>` slice and every
//! public call it makes in a `bench.<call>/<id>` slice; inside those calls
//! the program records its own spans (`serve.formulate`, `anneal.embed`,
//! ...). On each thread track the slices nest, so a stack walk gives every
//! slice its parent, and a slice's self time is its duration minus the
//! durations of its direct children. Summing self time per layer
//! partitions each op's wall time exactly.

use std::collections::BTreeMap;

use qjo_obs::trace::TraceEvent;

/// Prefix of the benchmark's own slices.
const BENCH: &str = "bench.";
/// Kind of the slice that wraps one whole op.
const OP: &str = "bench.op";

/// Calls, total and self time of one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanRow {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The attribution of every op slice in a trace.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Per span kind, over slices inside ops.
    pub spans: BTreeMap<String, SpanRow>,
    /// Self time per layer, summed over ops.
    pub layers: BTreeMap<&'static str, u64>,
    /// Self time per layer for each op id.
    pub per_op: BTreeMap<String, BTreeMap<&'static str, u64>>,
    /// Summed duration of the op slices.
    pub op_ns: u64,
}

/// The aggregation key of a slice: a benchmark slice loses its op id, a
/// program span keeps the last component of its `outer/inner` path, and a
/// `par_map` unit slice is keyed by the span that launched it.
fn kind(name: &str) -> String {
    if let Some((label, _)) = name.split_once(" · unit ") {
        return format!("{} · unit", kind(label));
    }
    if name.starts_with(BENCH) {
        name.split('/').next().unwrap_or(name).to_string()
    } else {
        name.rsplit('/').next().unwrap_or(name).to_string()
    }
}

/// The layer (crate, and stage where one crate has several) a span kind
/// belongs to. Time in the op slice itself, between the benchmark's
/// calls, and in any kind not listed here is `unattributed`.
pub fn layer(kind: &str) -> &'static str {
    let kind = kind.strip_suffix(" · unit").unwrap_or(kind);
    match kind {
        "bench.parse_request" | "bench.canonicalize" | "bench.render_response" => "serve.wire",
        "bench.handle" | "serve.request" => "serve.handle_self",
        "serve.formulate" | "bench.encode" => "core.formulate",
        "bench.assess" => "core.assess",
        "qubo.sa.sample" | "qubo.tabu.solve" | "bench.from_shots" => "qubo",
        "anneal.embed" => "anneal.embed",
        "anneal.sample" => "anneal.sample",
        "bench.simulator" | "bench.optimize" | "bench.expectation" | "bench.circuit"
        | "bench.noisy_sample" => "gatesim",
        "bench.transpile" => "transpile",
        k if k.starts_with("formulate.") => "core.formulate",
        k if k.starts_with("gatesim.") => "gatesim",
        k if k.starts_with("transpile.") => "transpile",
        _ => "unattributed",
    }
}

/// Every layer a share is reported for, in report order.
pub const LAYERS: [&str; 10] = [
    "serve.wire",
    "serve.handle_self",
    "core.formulate",
    "core.assess",
    "qubo",
    "anneal.embed",
    "anneal.sample",
    "gatesim",
    "transpile",
    "unattributed",
];

/// Attributes every slice that lies inside a `bench.op/<id>` slice.
/// `events` must be sorted by `(tid, ts, longest first)`, as
/// [`qjo_obs::trace::snapshot_events`] returns them.
pub fn attribute(events: &[TraceEvent]) -> Attribution {
    struct Open {
        end: u64,
        index: usize,
    }
    let mut self_ns: Vec<u64> = events.iter().map(|e| e.dur_ns).collect();
    let mut op_of: Vec<Option<usize>> = vec![None; events.len()];
    let mut stack: Vec<Open> = Vec::new();
    let mut tid = None;
    for (i, e) in events.iter().enumerate() {
        if tid != Some(e.tid) {
            stack.clear();
            tid = Some(e.tid);
        }
        while stack.last().is_some_and(|top| top.end <= e.ts_ns) {
            stack.pop();
        }
        match stack.last() {
            Some(parent) => {
                self_ns[parent.index] = self_ns[parent.index].saturating_sub(e.dur_ns);
                op_of[i] = op_of[parent.index];
            }
            None if kind(&e.name) == OP => op_of[i] = Some(i),
            None => {}
        }
        stack.push(Open { end: e.ts_ns + e.dur_ns, index: i });
    }

    let mut out = Attribution::default();
    for (i, e) in events.iter().enumerate() {
        let Some(op) = op_of[i] else { continue };
        let k = kind(&e.name);
        if i == op {
            out.op_ns += e.dur_ns;
        }
        let l = layer(&k);
        let row = out.spans.entry(k).or_default();
        row.calls += 1;
        row.total_ns += e.dur_ns;
        row.self_ns += self_ns[i];
        *out.layers.entry(l).or_default() += self_ns[i];
        let id = op_id(&events[op].name);
        *out.per_op.entry(id.to_string()).or_default().entry(l).or_default() += self_ns[i];
    }
    out
}

/// The op id of a `bench.<call>/<id>` slice name.
fn op_id(name: &str) -> &str {
    name.split_once('/').map_or("", |(_, id)| id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent { name: name.into(), ts_ns: ts, dur_ns: dur, tid: 1, unit: None }
    }

    #[test]
    fn self_time_partitions_each_op() {
        let events = vec![
            ev("bench.op/r0", 0, 100),
            ev("bench.parse_request/r0", 0, 10),
            ev("bench.handle/r0", 10, 80),
            ev("serve.request", 12, 76),
            ev("serve.request/anneal.embed", 20, 50),
            ev("serve.request · unit 0", 70, 5),
            ev("bench.probe", 200, 40),
        ];
        let a = attribute(&events);
        assert_eq!(a.op_ns, 100);
        assert_eq!(a.layers.values().sum::<u64>(), 100);
        assert_eq!(a.layers["anneal.embed"], 50);
        assert_eq!(a.layers["serve.wire"], 10);
        assert_eq!(a.layers["serve.handle_self"], 4 + 21 + 5);
        assert_eq!(a.layers["unattributed"], 10);
        assert_eq!(a.spans["serve.request · unit"].calls, 1);
        assert!(!a.spans.contains_key("bench.probe"), "slices outside ops are not attributed");
        assert_eq!(a.per_op["r0"]["anneal.embed"], 50);
    }
}
