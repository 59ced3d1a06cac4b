//! Per-service telemetry: the event sink and serve-counter tallies.
//!
//! The global `qjo-obs` registry aggregates every service in the process
//! (tests included), which makes it useless for a *per-service* stats
//! snapshot. [`Telemetry`] therefore keeps its own tallies, incremented
//! by [`Service`](crate::service::Service) alongside the global
//! counters under the **same names** — so a stats snapshot reconciles
//! exactly with the run manifest whenever one service owns the process
//! (the `qjo-serve` binary and `serve-bench` both do).
//!
//! Events accumulate until drained. Their wall-clock latencies are
//! recorded, never read back: admission runs on the static model.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::events::ServeEvent;

struct TelemetryState {
    seq: u64,
    events: Vec<ServeEvent>,
    counters: BTreeMap<String, u64>,
}

/// One service's own event log and counter tallies.
pub struct Telemetry {
    state: Mutex<TelemetryState>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An empty telemetry sink.
    pub fn new() -> Self {
        Telemetry {
            state: Mutex::new(TelemetryState {
                seq: 0,
                events: Vec::new(),
                counters: BTreeMap::new(),
            }),
        }
    }

    /// Adds `n` to the local tally `name` (mirrors a global counter).
    pub fn add(&self, name: &str, n: u64) {
        let mut state = self.state.lock().expect("telemetry lock");
        *state.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Records one event: assigns the next dense sequence number and
    /// logs it. Returns the assigned sequence number.
    pub fn record(&self, mut event: ServeEvent) -> u64 {
        let mut state = self.state.lock().expect("telemetry lock");
        event.seq = state.seq;
        state.seq += 1;
        state.events.push(event);
        state.seq - 1
    }

    /// Takes every buffered event, leaving the tallies in place.
    /// Sequence numbers keep counting across drains.
    pub fn drain_events(&self) -> Vec<ServeEvent> {
        std::mem::take(&mut self.state.lock().expect("telemetry lock").events)
    }

    /// Total events recorded since construction (drained or not).
    pub fn events_recorded(&self) -> u64 {
        self.state.lock().expect("telemetry lock").seq
    }

    /// Events buffered and not yet drained.
    pub fn events_pending(&self) -> usize {
        self.state.lock().expect("telemetry lock").events.len()
    }

    /// A copy of the local counter tallies.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.state.lock().expect("telemetry lock").counters.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(backend: &str, cache: Option<&'static str>, latency_us: u64) -> ServeEvent {
        ServeEvent {
            seq: u64::MAX, // record() must overwrite this
            id: "r".into(),
            backend: backend.into(),
            fingerprint: "fp".into(),
            deadline_ms: None,
            admitted: true,
            cache,
            embed: None,
            outcome: "ok",
            reason: None,
            slo: None,
            cost: Some(1.0),
            est_cost_us: None,
            latency_us,
            portfolio: None,
            winner: None,
            cancelled: None,
        }
    }

    #[test]
    fn record_assigns_dense_sequence_numbers_across_drains() {
        let t = Telemetry::new();
        assert_eq!(t.record(event("sa", Some("miss"), 10)), 0);
        assert_eq!(t.record(event("sa", Some("hit"), 5)), 1);
        let drained = t.drain_events();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].seq, 0);
        assert_eq!(t.record(event("dp", None, 1)), 2);
        assert_eq!(t.events_recorded(), 3);
        assert_eq!(t.drain_events().len(), 1);
        assert!(t.drain_events().is_empty());
    }

    #[test]
    fn tallies_accumulate_under_their_counter_names() {
        let t = Telemetry::new();
        t.add("serve.requests", 1);
        t.add("serve.requests", 1);
        t.add("serve.slo.met.sa", 1);
        let c = t.counters();
        assert_eq!(c.get("serve.requests"), Some(&2));
        assert_eq!(c.get("serve.slo.met.sa"), Some(&1));
    }
}
