//! The `experiments serve` stage: the seeded serving load benchmark.
//!
//! Replays the committed smoke request mixes as one closed-loop stream
//! (the 60-request smoke mix, then its 16-request follow-up) against a
//! fresh [`Service`], one request at a time, and splits the outcome into
//! two artifacts:
//!
//! * `serve_report.csv` — per-backend request / cache / fallback / SLO
//!   counts and mean plan cost. Every cell is a pure function of the
//!   seed, so the report drift-gates byte-for-byte (at any thread count).
//! * `serve_latency.csv` — wall-clock latency percentiles per backend,
//!   with the annealer split into `:cold` (embedding built during the
//!   request) and `:warm` (embedding served from the cache). Values are
//!   volatile and informational; only the row *set* is deterministic, so
//!   the manifest flags the artifact volatile and the drift gate checks
//!   shape only.
//!
//! The run also carries the full per-request telemetry: every handled
//! request's [`ServeEvent`] (the driver writes them as
//! `serve_events.jsonl` plus the latency-free canonical projection,
//! which drift-gates byte-for-byte) and the service's final stats
//! snapshot (`serve_stats.json`, a pure function of the request stream
//! that also drift-gates byte-for-byte, and whose counters reconcile
//! exactly with the manifest's counter deltas).
//!
//! What the content-addressed embedding cache saves on a hit is gated
//! exactly, not by wall clock: a hit runs the embedder zero times, so the
//! manifest's `embed.tries` counter (per stage and global) drift-gates it
//! at any thread count.

use qjo_exec::{stream_seed, Parallelism};
use qjo_obs::json::Json;
use qjo_serve::loadgen::{self, LatencyRow, LoadMix, ReportRow};
use qjo_serve::service::Service;
use qjo_serve::ServeEvent;

use crate::report::Table;

/// Aggregated outcome of one serving benchmark run.
#[derive(Debug, Clone)]
pub struct ServeBenchResult {
    /// Deterministic per-backend report rows.
    pub report: Vec<ReportRow>,
    /// Volatile latency rows (deterministic row set).
    pub latency: Vec<LatencyRow>,
    /// One structured event per handled request, in service order.
    pub events: Vec<ServeEvent>,
    /// The service's final stats snapshot (see
    /// [`Service::stats_snapshot`]).
    pub stats: Json,
}

/// Runs the smoke serving benchmark: the smoke mix first (embedding
/// warm-up), then its follow-up mix against the *same* service so its
/// cache arrives warm — matching how a long-lived server behaves after
/// its first minutes of traffic. `seed` roots the service and both mixes.
pub fn run(seed: u64, parallelism: Parallelism) -> ServeBenchResult {
    let service = Service::smoke(seed, parallelism);
    let mut requests = loadgen::generate_requests(&LoadMix::smoke(seed));
    requests.extend(loadgen::generate_requests(&LoadMix::smoke_followup(stream_seed(seed, 1))));
    let events = loadgen::replay(&service, &requests);
    ServeBenchResult {
        report: loadgen::aggregate_report(&events),
        latency: loadgen::aggregate_latency(&events),
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
