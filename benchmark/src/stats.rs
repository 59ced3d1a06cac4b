//! Per-op records and the end-to-end metrics computed from them.

use std::time::Duration;

/// What one measured op produced, apart from its checked outputs.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Wall time of the op (request line in to response line out, or one
    /// paper instance).
    pub latency: Duration,
    /// The op neither errored, panicked nor failed an output check.
    pub ok: bool,
    /// The plan came from the named backend or pipeline, not the greedy
    /// fallback.
    pub by_backend: bool,
    /// Returned plan's cost over the exact optimum, when there is a plan.
    pub cost_ratio: Option<f64>,
    /// Share of the op's candidate plans (one per request, 1024 shots per
    /// paper instance) that are valid join orders.
    pub valid: f64,
    /// Share of the op's candidate plans that are optimal.
    pub optimal: f64,
}

/// Ops per chunk. `ops_per_s` and `latency_tail_ms` are medians over
/// consecutive chunks of about this many ops (one chunk when a run has
/// fewer), so a burst of co-tenant load moves one chunk's value, not the
/// reported one.
const CHUNK: usize = 1200;

/// The run's ops split into `max(1, n / CHUNK)` consecutive chunks of
/// near-equal size.
pub fn chunks(records: &[OpRecord]) -> Vec<&[OpRecord]> {
    let n = records.len();
    let k = (n / CHUNK).max(1);
    (0..k).map(|i| &records[i * n / k..(i + 1) * n / k]).collect()
}

/// The percentile reported as `latency_tail_ms` for `n` samples: the
/// highest nearest-rank percentile with at least ten samples beyond it,
/// or the maximum when `n <= 10`. Returns `(percentile, rank)` with a
/// 1-based rank into the sorted samples.
pub fn tail_rank(n: usize) -> (f64, usize) {
    let rank = if n > 10 { n - 10 } else { n };
    (100.0 * rank as f64 / n as f64, rank)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn latencies_ms(records: &[OpRecord]) -> Vec<f64> {
    records.iter().map(|r| r.latency.as_secs_f64() * 1e3).collect()
}

/// The tail latency of one chunk (see [`tail_rank`]).
fn tail_ms(records: &[OpRecord]) -> f64 {
    let mut sorted = latencies_ms(records);
    sorted.sort_by(f64::total_cmp);
    sorted[tail_rank(sorted.len()).1 - 1]
}

/// Every end-to-end metric except `setup_s` and `peak_rss_mb`, by name.
/// Throughput counts the time the client waited on the program, not the
/// time it spent checking responses.
pub fn end_to_end(records: &[OpRecord]) -> Vec<(&'static str, f64)> {
    let n = records.len();
    assert!(n > 0, "a workload measures at least one op");
    let chunks = chunks(records);
    let rate =
        |c: &[OpRecord]| c.len() as f64 / c.iter().map(|r| r.latency.as_secs_f64()).sum::<f64>();
    let ratios: Vec<f64> = records.iter().filter_map(|r| r.cost_ratio).collect();
    let geomean = if ratios.is_empty() {
        f64::NAN
    } else {
        (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
    };
    let share =
        |f: fn(&OpRecord) -> bool| records.iter().filter(|r| f(r)).count() as f64 / n as f64;
    vec![
        ("ops_per_s", median(&chunks.iter().map(|c| rate(c)).collect::<Vec<_>>())),
        ("latency_p50_ms", median(&latencies_ms(records))),
        ("latency_tail_ms", median(&chunks.iter().map(|c| tail_ms(c)).collect::<Vec<_>>())),
        ("plan_cost_ratio", geomean),
        ("backend_frac", share(|r| r.by_backend)),
        ("ok_frac", share(|r| r.ok)),
        ("valid_frac", mean(records.iter().map(|r| r.valid))),
        ("optimal_frac", mean(records.iter().map(|r| r.optimal))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_rank(2400), (100.0 * 2390.0 / 2400.0, 2390));
        assert_eq!(tail_rank(11), (100.0 / 11.0, 1));
        assert_eq!(tail_rank(4), (100.0, 4));
    }

    #[test]
    fn chunks_cover_every_op_once() {
        let record = OpRecord {
            latency: Duration::from_millis(1),
            ok: true,
            by_backend: true,
            cost_ratio: Some(1.0),
            valid: 1.0,
            optimal: 1.0,
        };
        for n in [1, 30, 1199, 2400, 9601] {
            let records = vec![record.clone(); n];
            let sizes: Vec<usize> = chunks(&records).iter().map(|c| c.len()).collect();
            assert_eq!(sizes.iter().sum::<usize>(), n);
            assert_eq!(sizes.len(), (n / CHUNK).max(1));
        }
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
