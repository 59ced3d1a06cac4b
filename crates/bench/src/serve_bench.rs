//! `experiments serve-bench`: the seeded serving load benchmark.
//!
//! Replays the committed smoke request mixes (closed loop, then the
//! open-loop batching companion) against a fresh [`Service`] and splits
//! the outcome into two artifacts:
//!
//! * `serve_report.csv` — per-backend request / cache / fallback / SLO
//!   counts and mean plan cost. Every cell is a pure function of the
//!   seed, so the report drift-gates byte-for-byte (at any thread count).
//! * `serve_latency.csv` — wall-clock latency percentiles per backend,
//!   with the annealer split into `:cold` (embedding built during the
//!   request) and `:warm` (embedding served from the cache). Values are
//!   volatile; only the row *set* is deterministic, so the manifest
//!   flags the artifact volatile and the drift gate checks shape only.
//!
//! The run also carries the full per-request telemetry: every handled
//! request's [`ServeEvent`] (the driver writes them as
//! `serve_events.jsonl` plus the latency-free canonical projection,
//! which drift-gates byte-for-byte) and the service's final stats
//! snapshot (`serve_stats.json`, a pure function of the request stream
//! that also drift-gates byte-for-byte, and whose counters reconcile
//! exactly with the manifest's counter deltas).
//!
//! The headline number is [`ServeBenchResult::embed_speedup`]: cold-embed
//! p50 over warm-embed p50 for the annealer backend — the latency the
//! content-addressed embedding cache saves on a hit.

use qjo_exec::{stream_seed, Parallelism};
use qjo_obs::json::Json;
use qjo_serve::loadgen::{self, LatencyRow, LoadMix, ReportRow};
use qjo_serve::service::Service;
use qjo_serve::ServeEvent;

use crate::report::Table;

/// Knobs for one serving benchmark run.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Root seed for the service and both request mixes.
    pub seed: u64,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig { seed: 7 }
    }
}

/// Aggregated outcome of one serving benchmark run.
#[derive(Debug, Clone)]
pub struct ServeBenchResult {
    /// Deterministic per-backend report rows.
    pub report: Vec<ReportRow>,
    /// Volatile latency rows (deterministic row set).
    pub latency: Vec<LatencyRow>,
    /// Cold-embed p50 / warm-embed p50 for the annealer backend; `None`
    /// until the mix produced both classes.
    pub embed_speedup: Option<f64>,
    /// Total requests served across both mixes.
    pub requests: u64,
    /// One structured event per handled request, in service order.
    pub events: Vec<ServeEvent>,
    /// The service's final stats snapshot (see
    /// [`Service::stats_snapshot`]).
    pub stats: Json,
}

/// Runs the smoke serving benchmark: the closed-loop mix first (clean
/// per-request latencies, embedding warm-up), then the open-loop mix
/// against the *same* service so its cache arrives warm — matching how a
/// long-lived server behaves after its first minutes of traffic.
pub fn run(cfg: &ServeBenchConfig, parallelism: Parallelism) -> ServeBenchResult {
    let service = Service::smoke(cfg.seed, parallelism);
    let closed_mix = LoadMix::smoke(cfg.seed);
    let closed = loadgen::generate_requests(&closed_mix);
    let (mut outcomes, mut events) = loadgen::run_with_events(&service, &closed, closed_mix.mode);
    let open_mix = LoadMix::smoke_open(stream_seed(cfg.seed, 1));
    let open = loadgen::generate_requests(&open_mix);
    let (open_outcomes, open_events) = loadgen::run_with_events(&service, &open, open_mix.mode);
    outcomes.extend(open_outcomes);
    events.extend(open_events);
    let latency = loadgen::aggregate_latency(&outcomes);
    ServeBenchResult {
        report: loadgen::aggregate_report(&outcomes),
        embed_speedup: loadgen::embed_speedup(&latency, "annealer"),
        latency,
        requests: outcomes.len() as u64,
        events,
        stats: service.stats_snapshot(),
    }
}

/// Renders the deterministic report table.
pub fn render_report(rows: &[ReportRow]) -> Table {
    let mut table = Table::new(vec![
        "backend",
        "requests",
        "cache_hits",
        "cache_misses",
        "embed_hits",
        "embed_cold",
        "deadline_misses",
        "fallbacks",
        "errors",
        "slo_met",
        "slo_degraded",
        "slo_missed",
        "mean_cost",
    ]);
    for r in rows {
        table.push_row(vec![
            r.backend.clone(),
            r.requests.to_string(),
            r.cache_hits.to_string(),
            r.cache_misses.to_string(),
            r.embed_hits.to_string(),
            r.embed_cold.to_string(),
            r.deadline_misses.to_string(),
            r.fallbacks.to_string(),
            r.errors.to_string(),
            r.slo_met.to_string(),
            r.slo_degraded.to_string(),
            r.slo_missed.to_string(),
            // Plan costs are linear C_out values spanning orders of
            // magnitude; fixed-precision scientific keeps the column
            // readable *and* byte-stable.
            format!("{:.6e}", r.mean_cost),
        ]);
    }
    table
}

/// Renders the volatile latency table.
pub fn render_latency(rows: &[LatencyRow]) -> Table {
    let mut table = Table::new(vec!["key", "count", "p50_us", "p99_us", "max_us"]);
    for r in rows {
        table.push_row(vec![
            r.key.clone(),
            r.count.to_string(),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
            r.max_us.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_rendering_is_deterministic_and_covers_every_backend() {
        let rows = vec![ReportRow {
            backend: "sa".to_string(),
            requests: 4,
            cache_hits: 2,
            cache_misses: 2,
            embed_hits: 0,
            embed_cold: 0,
            deadline_misses: 1,
            fallbacks: 1,
            errors: 0,
            slo_met: 3,
            slo_degraded: 1,
            slo_missed: 0,
            mean_cost: 12345.678,
        }];
        let a = render_report(&rows).to_csv();
        let b = render_report(&rows).to_csv();
        assert_eq!(a, b);
        assert!(a.contains("slo_met"), "{a}");
        assert!(a.contains("1.234568e4"), "{a}");
    }

    #[test]
    fn latency_rendering_keeps_the_row_order() {
        let rows = vec![
            LatencyRow { key: "annealer:cold".into(), count: 1, p50_us: 9, p99_us: 9, max_us: 9 },
            LatencyRow { key: "annealer:warm".into(), count: 1, p50_us: 3, p99_us: 3, max_us: 3 },
        ];
        let csv = render_latency(&rows).to_csv();
        let cold = csv.find("annealer:cold").expect("cold row");
        let warm = csv.find("annealer:warm").expect("warm row");
        assert!(cold < warm);
    }
}
