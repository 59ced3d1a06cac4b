//! Machine-readable run manifests.
//!
//! A [`RunManifest`] is the structured record an experiment run leaves
//! behind (`run_manifest.json`): volatile run metadata (git revision,
//! thread count, wall-clock durations), deterministic per-stage counter
//! deltas, final counter/gauge values, span timings, and a fingerprint of
//! every artifact (CSV) the run wrote.
//!
//! # Drift detection
//!
//! [`diff`] compares the **deterministic** sections of two manifests —
//! stage names and counters, global counters, resilience counters
//! (fault injections and recovery activity), gauges, and artifact
//! row counts / byte sizes / content hashes — and ignores everything
//! timing-dependent (the `run` section, `duration_ms` fields, and span
//! histograms). Two runs of the same code at any thread count therefore
//! diff clean, and CI uses this as its regression gate: a non-empty diff
//! against the committed baseline means a PR changed experiment outputs.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::Snapshot;

/// Current manifest schema version; bump on breaking layout changes.
pub const SCHEMA_VERSION: u64 = 1;

/// Fingerprint of one artifact (CSV) the run wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// File name relative to the output directory (e.g. `table2.csv`).
    pub name: String,
    /// Data rows (excluding the header).
    pub rows: u64,
    /// Size of the written bytes.
    pub bytes: u64,
    /// `fnv1a64` hex digest of the exact bytes written.
    pub hash: String,
    /// Whether the content is timing-dependent (e.g. a wall-clock
    /// benchmark table): [`diff`] then checks only the row count, not the
    /// hash or size.
    pub volatile: bool,
}

/// One pipeline stage of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage name (e.g. `table3`).
    pub name: String,
    /// Wall-clock duration (timing-dependent; ignored by [`diff`]).
    pub duration_ms: f64,
    /// Counter increments attributed to this stage.
    pub counters: BTreeMap<String, u64>,
}

/// Span timing summary (timing-dependent; ignored by [`diff`]).
///
/// Percentiles come from the log2-bucketed histogram, resolved to bucket
/// upper bounds (see
/// [`HistogramSnapshot::percentile_ns`](crate::HistogramSnapshot::percentile_ns)),
/// so they over-estimate by at most 2×.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Observations recorded under this span path.
    pub count: u64,
    /// Total milliseconds across observations.
    pub total_ms: f64,
    /// Median observation, in milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile observation, in milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile observation, in milliseconds.
    pub p99_ms: f64,
}

/// The full record of one experiment run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunManifest {
    /// Volatile run metadata (git rev, threads, totals) — never diffed.
    pub run: BTreeMap<String, Json>,
    /// Stages in execution order.
    pub stages: Vec<StageRecord>,
    /// Final global counter values (excluding the resilience taxonomy).
    pub counters: BTreeMap<String, u64>,
    /// Fault-injection and recovery counters (`fault.*` / `resil.*`),
    /// split out of [`counters`](Self::counters) so chaos activity is
    /// auditable — and drift-gated — as its own section.
    pub resilience: BTreeMap<String, u64>,
    /// Service-level-objective counters (`serve.slo.*`), split out of
    /// [`counters`](Self::counters) like the resilience taxonomy so the
    /// deadline budget accounting is auditable — and drift-gated — as its
    /// own section.
    pub slo: BTreeMap<String, u64>,
    /// Final global gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Span timings by path.
    pub spans: BTreeMap<String, SpanSummary>,
    /// Artifacts written, in emission order.
    pub artifacts: Vec<Artifact>,
    /// Counters whose value is wall-clock-dependent (e.g. attempts under
    /// a time budget): [`diff`] skips them in the global and per-stage
    /// counter sections. Declared by the producer, sorted.
    pub volatile_counters: Vec<String>,
}

impl RunManifest {
    /// Fills the counter/gauge/span sections from a registry snapshot,
    /// routing `fault.*` / `resil.*` counters into the
    /// [`resilience`](Self::resilience) section and `serve.slo.*`
    /// counters into the [`slo`](Self::slo) section.
    pub fn set_metrics(&mut self, snapshot: &Snapshot) {
        let (resilience, rest): (BTreeMap<_, _>, BTreeMap<_, _>) =
            snapshot.counters.clone().into_iter().partition(|(name, _)| is_resilience(name));
        let (slo, counters) = rest.into_iter().partition(|(name, _)| is_slo(name));
        self.counters = counters;
        self.resilience = resilience;
        self.slo = slo;
        self.gauges = snapshot.gauges.clone();
        self.spans = snapshot
            .histograms
            .iter()
            .map(|(path, h)| {
                let summary = SpanSummary {
                    count: h.count,
                    total_ms: h.sum_ns as f64 / 1e6,
                    p50_ms: h.percentile_ms(0.50),
                    p90_ms: h.percentile_ms(0.90),
                    p99_ms: h.percentile_ms(0.99),
                };
                (path.clone(), summary)
            })
            .collect();
    }

    /// The manifest as a JSON document.
    pub fn to_json(&self) -> Json {
        let mut root = BTreeMap::new();
        root.insert("schema_version".to_string(), Json::from(SCHEMA_VERSION));
        root.insert("run".to_string(), Json::Obj(self.run.clone()));
        let stages = self
            .stages
            .iter()
            .map(|stage| {
                let mut obj = BTreeMap::new();
                obj.insert("name".to_string(), Json::from(stage.name.as_str()));
                obj.insert("duration_ms".to_string(), Json::from(round3(stage.duration_ms)));
                obj.insert("counters".to_string(), counters_json(&stage.counters));
                Json::Obj(obj)
            })
            .collect();
        root.insert("stages".to_string(), Json::Arr(stages));
        root.insert("counters".to_string(), counters_json(&self.counters));
        root.insert("resilience".to_string(), counters_json(&self.resilience));
        root.insert("slo".to_string(), counters_json(&self.slo));
        root.insert(
            "gauges".to_string(),
            Json::Obj(self.gauges.iter().map(|(k, &v)| (k.clone(), Json::from(v))).collect()),
        );
        let spans = self
            .spans
            .iter()
            .map(|(path, span)| {
                let mut obj = BTreeMap::new();
                obj.insert("count".to_string(), Json::from(span.count));
                obj.insert("total_ms".to_string(), Json::from(round3(span.total_ms)));
                obj.insert("p50_ms".to_string(), Json::from(round3(span.p50_ms)));
                obj.insert("p90_ms".to_string(), Json::from(round3(span.p90_ms)));
                obj.insert("p99_ms".to_string(), Json::from(round3(span.p99_ms)));
                (path.clone(), Json::Obj(obj))
            })
            .collect();
        root.insert("spans".to_string(), Json::Obj(spans));
        let artifacts = self
            .artifacts
            .iter()
            .map(|a| {
                let mut obj = BTreeMap::new();
                obj.insert("name".to_string(), Json::from(a.name.as_str()));
                obj.insert("rows".to_string(), Json::from(a.rows));
                obj.insert("bytes".to_string(), Json::from(a.bytes));
                obj.insert("hash".to_string(), Json::from(a.hash.as_str()));
                if a.volatile {
                    obj.insert("volatile".to_string(), Json::Bool(true));
                }
                Json::Obj(obj)
            })
            .collect();
        root.insert("artifacts".to_string(), Json::Arr(artifacts));
        root.insert(
            "volatile_counters".to_string(),
            Json::Arr(
                self.volatile_counters.iter().map(|name| Json::from(name.as_str())).collect(),
            ),
        );
        Json::Obj(root)
    }

    /// Renders the manifest as pretty-printed JSON.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parses a manifest previously written by [`RunManifest::render`].
    pub fn parse(text: &str) -> Result<RunManifest, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("manifest lacks a numeric schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!("unsupported manifest schema_version {version}"));
        }
        let run = doc.get("run").and_then(Json::as_obj).cloned().unwrap_or_default();
        let stages = doc
            .get("stages")
            .and_then(Json::as_arr)
            .ok_or("manifest lacks a stages array")?
            .iter()
            .map(|stage| {
                Ok(StageRecord {
                    name: stage
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("stage lacks a name")?
                        .to_string(),
                    duration_ms: stage.get("duration_ms").and_then(Json::as_f64).unwrap_or(0.0),
                    counters: parse_counters(stage.get("counters"))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let counters = parse_counters(doc.get("counters"))?;
        let resilience = parse_counters(doc.get("resilience"))?;
        // Absent in manifests written before the SLO taxonomy existed;
        // those parse to an empty section and diff clean. A `sched`
        // section, written while the `auto` backend still raced, is
        // ignored.
        let slo = parse_counters(doc.get("slo"))?;
        let gauges = doc
            .get("gauges")
            .and_then(Json::as_obj)
            .map(|map| {
                map.iter()
                    .map(|(k, v)| {
                        let value =
                            v.as_f64().ok_or_else(|| format!("gauge {k} is not a number"))?;
                        Ok((k.clone(), value))
                    })
                    .collect::<Result<BTreeMap<_, _>, String>>()
            })
            .transpose()?
            .unwrap_or_default();
        let spans = doc
            .get("spans")
            .and_then(Json::as_obj)
            .map(|map| {
                map.iter()
                    .map(|(path, v)| {
                        let summary = SpanSummary {
                            count: v.get("count").and_then(Json::as_u64).unwrap_or(0),
                            total_ms: v.get("total_ms").and_then(Json::as_f64).unwrap_or(0.0),
                            p50_ms: v.get("p50_ms").and_then(Json::as_f64).unwrap_or(0.0),
                            p90_ms: v.get("p90_ms").and_then(Json::as_f64).unwrap_or(0.0),
                            p99_ms: v.get("p99_ms").and_then(Json::as_f64).unwrap_or(0.0),
                        };
                        (path.clone(), summary)
                    })
                    .collect()
            })
            .unwrap_or_default();
        let artifacts = doc
            .get("artifacts")
            .and_then(Json::as_arr)
            .ok_or("manifest lacks an artifacts array")?
            .iter()
            .map(|a| {
                Ok(Artifact {
                    name: a
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("artifact lacks a name")?
                        .to_string(),
                    rows: a.get("rows").and_then(Json::as_u64).ok_or("artifact lacks rows")?,
                    bytes: a.get("bytes").and_then(Json::as_u64).ok_or("artifact lacks bytes")?,
                    hash: a
                        .get("hash")
                        .and_then(Json::as_str)
                        .ok_or("artifact lacks a hash")?
                        .to_string(),
                    volatile: matches!(a.get("volatile"), Some(Json::Bool(true))),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let volatile_counters = doc
            .get("volatile_counters")
            .and_then(Json::as_arr)
            .map(|arr| arr.iter().filter_map(Json::as_str).map(str::to_string).collect())
            .unwrap_or_default();
        Ok(RunManifest {
            run,
            stages,
            counters,
            resilience,
            slo,
            gauges,
            spans,
            artifacts,
            volatile_counters,
        })
    }
}

/// Whether a counter belongs to the manifest's `resilience` section.
///
/// The resilience taxonomy is prefix-based: `fault.injected.<site>`
/// records injected faults, `resil.<site>.*` records the recovery
/// machinery's reaction (retries, fallbacks, escalations, divergences).
pub fn is_resilience(counter: &str) -> bool {
    counter.starts_with("fault.") || counter.starts_with("resil.")
}

/// Whether a counter belongs to the manifest's `slo` section.
///
/// The SLO taxonomy is prefix-based: `serve.slo.{met,degraded,missed}`
/// (optionally suffixed `.<backend>`) record how each deadline-carrying
/// request resolved against its budget.
pub fn is_slo(counter: &str) -> bool {
    counter.starts_with("serve.slo.")
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

fn counters_json(counters: &BTreeMap<String, u64>) -> Json {
    Json::Obj(counters.iter().map(|(k, &v)| (k.clone(), Json::from(v))).collect())
}

fn parse_counters(value: Option<&Json>) -> Result<BTreeMap<String, u64>, String> {
    value
        .and_then(Json::as_obj)
        .map(|map| {
            map.iter()
                .map(|(k, v)| {
                    let value = v.as_u64().ok_or_else(|| format!("counter {k} is not a u64"))?;
                    Ok((k.clone(), value))
                })
                .collect::<Result<BTreeMap<_, _>, String>>()
        })
        .transpose()
        .map(Option::unwrap_or_default)
}

/// One divergence found by [`diff_entries`]: which section and key
/// drifted, the expected (baseline) and actual (current) values, and the
/// one-line description [`diff`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftEntry {
    /// Manifest section (`stages`, `stage <name>`, `counters`,
    /// `resilience`, `slo`, `gauges`, or `artifacts`).
    pub section: String,
    /// Key within the section (counter/gauge/artifact name).
    pub key: String,
    /// Baseline value, `(absent)` when the key only exists in `current`.
    pub expected: String,
    /// Current value, `(absent)` when the key only exists in `baseline`.
    pub actual: String,
    /// Human-readable one-liner.
    pub detail: String,
}

const ABSENT: &str = "(absent)";

/// Compares the deterministic sections of two manifests, returning one
/// human-readable line per divergence (empty = no drift).
///
/// Ignored as timing-dependent: the `run` section, every `duration_ms`,
/// the `spans` section, and any counter either manifest lists in
/// `volatile_counters`.
pub fn diff(baseline: &RunManifest, current: &RunManifest) -> Vec<String> {
    diff_entries(baseline, current).into_iter().map(|entry| entry.detail).collect()
}

/// [`diff`] with structured per-key expected/actual values, for table
/// rendering via [`render_drift_table`].
pub fn diff_entries(baseline: &RunManifest, current: &RunManifest) -> Vec<DriftEntry> {
    let mut drift = Vec::new();
    let volatile: std::collections::BTreeSet<&str> = baseline
        .volatile_counters
        .iter()
        .chain(&current.volatile_counters)
        .map(String::as_str)
        .collect();

    let baseline_stages: Vec<&str> = baseline.stages.iter().map(|s| s.name.as_str()).collect();
    let current_stages: Vec<&str> = current.stages.iter().map(|s| s.name.as_str()).collect();
    if baseline_stages != current_stages {
        drift.push(DriftEntry {
            section: "stages".to_string(),
            key: "(order)".to_string(),
            expected: format!("{baseline_stages:?}"),
            actual: format!("{current_stages:?}"),
            detail: format!("stages changed: {baseline_stages:?} -> {current_stages:?}"),
        });
    } else {
        for (b, c) in baseline.stages.iter().zip(&current.stages) {
            diff_counters(
                &mut drift,
                &format!("stage {}", b.name),
                &b.counters,
                &c.counters,
                &volatile,
            );
        }
    }

    diff_counters(&mut drift, "counters", &baseline.counters, &current.counters, &volatile);
    diff_counters(&mut drift, "resilience", &baseline.resilience, &current.resilience, &volatile);
    diff_counters(&mut drift, "slo", &baseline.slo, &current.slo, &volatile);

    for (name, &b) in &baseline.gauges {
        match current.gauges.get(name) {
            None => drift.push(DriftEntry {
                section: "gauges".to_string(),
                key: name.clone(),
                expected: format!("{b}"),
                actual: ABSENT.to_string(),
                detail: format!("gauge {name} disappeared (was {b})"),
            }),
            Some(&c) if c != b => drift.push(DriftEntry {
                section: "gauges".to_string(),
                key: name.clone(),
                expected: format!("{b}"),
                actual: format!("{c}"),
                detail: format!("gauge {name}: {b} -> {c}"),
            }),
            Some(_) => {}
        }
    }
    for (name, &c) in &current.gauges {
        if !baseline.gauges.contains_key(name) {
            drift.push(DriftEntry {
                section: "gauges".to_string(),
                key: name.clone(),
                expected: ABSENT.to_string(),
                actual: format!("{c}"),
                detail: format!("gauge {name} appeared"),
            });
        }
    }

    let describe = |a: &Artifact| format!("hash {} ({} rows, {} bytes)", a.hash, a.rows, a.bytes);
    let baseline_artifacts: BTreeMap<&str, &Artifact> =
        baseline.artifacts.iter().map(|a| (a.name.as_str(), a)).collect();
    let current_artifacts: BTreeMap<&str, &Artifact> =
        current.artifacts.iter().map(|a| (a.name.as_str(), a)).collect();
    for (name, b) in &baseline_artifacts {
        match current_artifacts.get(name) {
            None => drift.push(DriftEntry {
                section: "artifacts".to_string(),
                key: (*name).to_string(),
                expected: describe(b),
                actual: ABSENT.to_string(),
                detail: format!("artifact {name} disappeared"),
            }),
            // Timing-dependent artifacts (benchmark tables) keep a stable
            // shape but not stable bytes: check the row count only.
            Some(c) if b.volatile || c.volatile => {
                if c.rows != b.rows {
                    drift.push(DriftEntry {
                        section: "artifacts".to_string(),
                        key: (*name).to_string(),
                        expected: format!("{} rows", b.rows),
                        actual: format!("{} rows", c.rows),
                        detail: format!(
                            "volatile artifact {name} changed shape: {} -> {} rows",
                            b.rows, c.rows
                        ),
                    });
                }
            }
            Some(c) if c.hash != b.hash => drift.push(DriftEntry {
                section: "artifacts".to_string(),
                key: (*name).to_string(),
                expected: describe(b),
                actual: describe(c),
                detail: format!(
                    "artifact {name} content drifted: hash {} -> {} ({} -> {} rows, {} -> {} \
                     bytes)",
                    b.hash, c.hash, b.rows, c.rows, b.bytes, c.bytes
                ),
            }),
            Some(_) => {}
        }
    }
    for (name, c) in &current_artifacts {
        if !baseline_artifacts.contains_key(name) {
            drift.push(DriftEntry {
                section: "artifacts".to_string(),
                key: (*name).to_string(),
                expected: ABSENT.to_string(),
                actual: describe(c),
                detail: format!("artifact {name} appeared"),
            });
        }
    }

    drift
}

fn diff_counters(
    drift: &mut Vec<DriftEntry>,
    context: &str,
    baseline: &BTreeMap<String, u64>,
    current: &BTreeMap<String, u64>,
    volatile: &std::collections::BTreeSet<&str>,
) {
    for (name, &b) in baseline {
        if volatile.contains(name.as_str()) {
            continue;
        }
        match current.get(name) {
            None => drift.push(DriftEntry {
                section: context.to_string(),
                key: name.clone(),
                expected: format!("{b}"),
                actual: ABSENT.to_string(),
                detail: format!("{context}: counter {name} disappeared (was {b})"),
            }),
            Some(&c) if c != b => drift.push(DriftEntry {
                section: context.to_string(),
                key: name.clone(),
                expected: format!("{b}"),
                actual: format!("{c}"),
                detail: format!("{context}: counter {name}: {b} -> {c}"),
            }),
            Some(_) => {}
        }
    }
    for (name, &c) in current {
        if !baseline.contains_key(name) && !volatile.contains(name.as_str()) {
            drift.push(DriftEntry {
                section: context.to_string(),
                key: name.clone(),
                expected: ABSENT.to_string(),
                actual: format!("{c}"),
                detail: format!("{context}: counter {name} appeared"),
            });
        }
    }
}

/// Renders drift entries as a column-aligned expected-vs-actual table, one
/// row per key, so CI failures are diagnosable from the log alone.
/// Returns an empty string for no entries.
pub fn render_drift_table(entries: &[DriftEntry]) -> String {
    if entries.is_empty() {
        return String::new();
    }
    let header = ["section", "key", "expected", "actual"];
    let rows: Vec<[&str; 4]> = entries
        .iter()
        .map(|e| [e.section.as_str(), e.key.as_str(), e.expected.as_str(), e.actual.as_str()])
        .collect();
    let mut widths: [usize; 4] = header.map(str::len);
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, row: &[&str; 4]| {
        for (c, cell) in row.iter().enumerate() {
            let pad = if c + 1 == row.len() { 0 } else { widths[c] + 2 - cell.len() };
            out.push_str(cell);
            for _ in 0..pad {
                out.push(' ');
            }
        }
        out.push('\n');
    };
    write_row(&mut out, &header);
    let total: usize = widths.iter().map(|w| w + 2).sum::<usize>() - 2;
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in &rows {
        write_row(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> RunManifest {
        let mut manifest = RunManifest::default();
        manifest.run.insert("git_rev".to_string(), Json::from("abc123"));
        manifest.run.insert("threads".to_string(), Json::from(8u64));
        manifest.stages.push(StageRecord {
            name: "table1".to_string(),
            duration_ms: 12.345678,
            counters: BTreeMap::from([("sa.restarts".to_string(), 40u64)]),
        });
        manifest.counters.insert("sa.restarts".to_string(), 40);
        manifest.gauges.insert("anneal.chain_break_fraction".to_string(), 0.125);
        manifest.spans.insert(
            "experiments/table1".to_string(),
            SpanSummary { count: 1, total_ms: 12.3, p50_ms: 12.0, p90_ms: 12.0, p99_ms: 12.0 },
        );
        manifest.artifacts.push(Artifact {
            name: "table1.csv".to_string(),
            rows: 4,
            bytes: 210,
            hash: crate::fnv1a64_hex(b"csv-bytes"),
            volatile: false,
        });
        manifest
    }

    #[test]
    fn renders_and_reparses_losslessly() {
        let manifest = sample_manifest();
        let parsed = RunManifest::parse(&manifest.render()).unwrap();
        // duration_ms is rounded to 3 decimals on render.
        assert_eq!(parsed.stages[0].duration_ms, 12.346);
        assert_eq!(parsed.counters, manifest.counters);
        assert_eq!(parsed.gauges, manifest.gauges);
        assert_eq!(parsed.artifacts, manifest.artifacts);
        assert_eq!(parsed.run["git_rev"], Json::from("abc123"));
        assert_eq!(parsed.spans, manifest.spans, "percentiles survive the round-trip");
    }

    #[test]
    fn diff_ignores_durations_and_run_metadata() {
        let baseline = sample_manifest();
        let mut current = sample_manifest();
        current.run.insert("git_rev".to_string(), Json::from("def456"));
        current.run.insert("threads".to_string(), Json::from(1u64));
        current.stages[0].duration_ms = 99999.0;
        current.spans.get_mut("experiments/table1").unwrap().total_ms = 1e9;
        assert_eq!(diff(&baseline, &current), Vec::<String>::new());
    }

    #[test]
    fn diff_reports_counter_and_artifact_drift() {
        let baseline = sample_manifest();
        let mut current = sample_manifest();
        current.counters.insert("sa.restarts".to_string(), 41);
        current.stages[0].counters.insert("sa.restarts".to_string(), 41);
        current.artifacts[0].hash = "0000000000000000".to_string();
        let drift = diff(&baseline, &current);
        assert_eq!(drift.len(), 3, "{drift:?}");
        assert!(drift.iter().any(|d| d.contains("stage table1")));
        assert!(drift.iter().any(|d| d.contains("counters: counter sa.restarts: 40 -> 41")));
        assert!(drift.iter().any(|d| d.contains("artifact table1.csv content drifted")));
    }

    #[test]
    fn diff_reports_added_and_removed_artifacts_and_stages() {
        let baseline = sample_manifest();
        let mut current = sample_manifest();
        current.stages.push(StageRecord {
            name: "fig9".to_string(),
            duration_ms: 0.0,
            counters: BTreeMap::new(),
        });
        current.artifacts.clear();
        let drift = diff(&baseline, &current);
        assert!(drift.iter().any(|d| d.contains("stages changed")));
        assert!(drift.iter().any(|d| d.contains("artifact table1.csv disappeared")));
    }

    #[test]
    fn volatile_counters_are_skipped_in_both_sections() {
        let mut baseline = sample_manifest();
        baseline.counters.insert("embed.tries".to_string(), 25);
        baseline.stages[0].counters.insert("embed.tries".to_string(), 25);
        baseline.volatile_counters = vec!["embed.tries".to_string()];
        // Round-trips through JSON.
        let mut current = RunManifest::parse(&baseline.render()).unwrap();
        assert_eq!(current.volatile_counters, baseline.volatile_counters);
        current.counters.insert("embed.tries".to_string(), 24);
        current.stages[0].counters.insert("embed.tries".to_string(), 24);
        assert_eq!(diff(&baseline, &current), Vec::<String>::new());
        // A volatile counter appearing only on one side is not drift either.
        current.counters.remove("embed.tries");
        current.stages[0].counters.remove("embed.tries");
        assert_eq!(diff(&baseline, &current), Vec::<String>::new());
        // Non-volatile counters still drift.
        current.counters.insert("sa.restarts".to_string(), 41);
        assert_eq!(diff(&baseline, &current).len(), 1);
    }

    #[test]
    fn volatile_artifacts_diff_on_shape_only() {
        let mut baseline = sample_manifest();
        baseline.artifacts[0].volatile = true;
        // Round-trips through JSON (the flag is only serialised when set).
        let mut current = RunManifest::parse(&baseline.render()).unwrap();
        assert!(current.artifacts[0].volatile);
        current.artifacts[0].hash = "0000000000000000".to_string();
        current.artifacts[0].bytes += 17;
        assert_eq!(diff(&baseline, &current), Vec::<String>::new());
        current.artifacts[0].rows += 1;
        let drift = diff(&baseline, &current);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("changed shape"), "{drift:?}");
    }

    #[test]
    fn set_metrics_splits_resilience_counters_out() {
        let reg = crate::Registry::new();
        reg.counter("sa.restarts").add(3);
        reg.counter("fault.injected.anneal.embed").add(2);
        reg.counter("resil.anneal.embed.fallback").add(1);
        let mut manifest = RunManifest::default();
        manifest.set_metrics(&reg.snapshot());
        assert_eq!(manifest.counters, BTreeMap::from([("sa.restarts".to_string(), 3)]));
        assert_eq!(
            manifest.resilience,
            BTreeMap::from([
                ("fault.injected.anneal.embed".to_string(), 2),
                ("resil.anneal.embed.fallback".to_string(), 1),
            ])
        );
    }

    #[test]
    fn resilience_section_round_trips_and_diffs() {
        let mut baseline = sample_manifest();
        baseline.resilience.insert("fault.injected.io.write".to_string(), 4);
        baseline.resilience.insert("resil.io.write.recovered".to_string(), 4);
        let mut current = RunManifest::parse(&baseline.render()).unwrap();
        assert_eq!(current.resilience, baseline.resilience);
        assert_eq!(diff(&baseline, &current), Vec::<String>::new());
        // A chaos plan firing differently is drift, same as any counter.
        current.resilience.insert("resil.io.write.recovered".to_string(), 3);
        current.resilience.insert("resil.io.write.exhausted".to_string(), 1);
        let drift = diff(&baseline, &current);
        assert_eq!(drift.len(), 2, "{drift:?}");
        assert!(drift
            .iter()
            .any(|d| d.contains("resilience: counter resil.io.write.recovered: 4 -> 3")));
        assert!(drift.iter().any(|d| d.contains("resilience: counter resil.io.write.exhausted")));
    }

    #[test]
    fn slo_section_round_trips_and_diffs() {
        let mut baseline = sample_manifest();
        baseline.slo.insert("serve.slo.met.annealer".to_string(), 9);
        baseline.slo.insert("serve.slo.missed.annealer".to_string(), 1);
        let mut current = RunManifest::parse(&baseline.render()).unwrap();
        assert_eq!(current.slo, baseline.slo);
        assert_eq!(diff(&baseline, &current), Vec::<String>::new());
        current.slo.insert("serve.slo.missed.annealer".to_string(), 2);
        current.slo.insert("serve.slo.degraded.sa".to_string(), 1);
        let drift = diff(&baseline, &current);
        assert_eq!(drift.len(), 2, "{drift:?}");
        assert!(drift.iter().any(|d| d.contains("slo: counter serve.slo.missed.annealer: 1 -> 2")));
        assert!(drift.iter().any(|d| d.contains("slo: counter serve.slo.degraded.sa appeared")));
    }

    #[test]
    fn pre_slo_manifests_parse_with_an_empty_section() {
        // Manifests written before the slo section existed lack the key.
        let text = sample_manifest().render();
        let Json::Obj(mut root) = Json::parse(&text).unwrap() else { panic!("manifest object") };
        root.remove("slo").expect("new manifests always render the slo key");
        let parsed = RunManifest::parse(&Json::Obj(root).render()).unwrap();
        assert!(parsed.slo.is_empty());
        // An empty current slo section diffs clean against it.
        assert_eq!(diff(&parsed, &sample_manifest()), Vec::<String>::new());
    }

    #[test]
    fn set_metrics_routes_slo_counters() {
        let reg = crate::Registry::new();
        reg.counter("serve.requests").add(10);
        reg.counter("serve.slo.met.annealer").add(8);
        reg.counter("serve.slo.missed.annealer").add(2);
        reg.counter("fault.injected.io").add(1);
        let mut manifest = RunManifest::default();
        manifest.set_metrics(&reg.snapshot());
        assert_eq!(manifest.counters, BTreeMap::from([("serve.requests".to_string(), 10)]));
        assert_eq!(
            manifest.slo,
            BTreeMap::from([
                ("serve.slo.met.annealer".to_string(), 8),
                ("serve.slo.missed.annealer".to_string(), 2),
            ])
        );
        assert_eq!(manifest.resilience, BTreeMap::from([("fault.injected.io".to_string(), 1)]));
        assert!(is_slo("serve.slo.degraded"));
        assert!(!is_slo("serve.deadline.miss"));
    }

    #[test]
    fn legacy_sched_sections_are_ignored() {
        // Manifests written while `auto` still raced carry a `sched`
        // section; they parse and diff clean against a current run.
        let text = sample_manifest().render();
        let Json::Obj(mut root) = Json::parse(&text).unwrap() else { panic!("manifest object") };
        let races = Json::Obj(BTreeMap::from([("sched.races".to_string(), Json::from(12u64))]));
        root.insert("sched".to_string(), races);
        let parsed = RunManifest::parse(&Json::Obj(root).render()).unwrap();
        assert_eq!(parsed, RunManifest::parse(&text).unwrap());
        assert_eq!(diff(&parsed, &sample_manifest()), Vec::<String>::new());
    }

    #[test]
    fn parse_rejects_wrong_schema_version() {
        let text =
            sample_manifest().render().replace("\"schema_version\": 1", "\"schema_version\": 2");
        assert!(RunManifest::parse(&text).unwrap_err().contains("schema_version"));
    }

    #[test]
    fn set_metrics_copies_a_snapshot() {
        let reg = crate::Registry::new();
        reg.counter("c").add(7);
        reg.gauge("g").set(2.5);
        reg.histogram("h").record_ns(2_000_000);
        let mut manifest = RunManifest::default();
        manifest.set_metrics(&reg.snapshot());
        assert_eq!(manifest.counters["c"], 7);
        assert_eq!(manifest.gauges["g"], 2.5);
        assert_eq!(manifest.spans["h"].count, 1);
        assert_eq!(manifest.spans["h"].total_ms, 2.0);
        // 2 ms lands in bucket 21 ([2^20, 2^21) ns): upper bound 2^21 - 1.
        let expected = ((1u64 << 21) - 1) as f64 / 1e6;
        assert_eq!(manifest.spans["h"].p50_ms, expected);
        assert_eq!(manifest.spans["h"].p99_ms, expected);
    }

    #[test]
    fn diff_entries_carry_expected_and_actual_values() {
        let baseline = sample_manifest();
        let mut current = sample_manifest();
        current.counters.insert("sa.restarts".to_string(), 41);
        current.gauges.remove("anneal.chain_break_fraction");
        current.artifacts[0].hash = "0000000000000000".to_string();
        let entries = diff_entries(&baseline, &current);
        assert_eq!(entries.len(), 3, "{entries:?}");

        let counter = entries.iter().find(|e| e.section == "counters").unwrap();
        assert_eq!(counter.key, "sa.restarts");
        assert_eq!(counter.expected, "40");
        assert_eq!(counter.actual, "41");

        let gauge = entries.iter().find(|e| e.section == "gauges").unwrap();
        assert_eq!(gauge.expected, "0.125");
        assert_eq!(gauge.actual, "(absent)");

        let artifact = entries.iter().find(|e| e.section == "artifacts").unwrap();
        assert_eq!(artifact.key, "table1.csv");
        assert!(artifact.expected.contains("4 rows"), "{artifact:?}");
        assert!(artifact.actual.contains("hash 0000000000000000"), "{artifact:?}");

        // The string diff stays in lockstep with the entries.
        let lines = diff(&baseline, &current);
        assert_eq!(lines, entries.iter().map(|e| e.detail.clone()).collect::<Vec<_>>());
    }

    #[test]
    fn drift_table_renders_aligned_columns() {
        let baseline = sample_manifest();
        let mut current = sample_manifest();
        current.counters.insert("sa.restarts".to_string(), 41);
        current.counters.insert("sqa.sweeps-with-a-long-name".to_string(), 7);
        let entries = diff_entries(&baseline, &current);
        let table = render_drift_table(&entries);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 2 + entries.len(), "{table}");
        assert!(lines[0].starts_with("section"), "{table}");
        assert!(lines[1].chars().all(|c| c == '-'), "{table}");
        // Every data row starts its "expected" column at the same offset.
        let offset = lines[0].find("expected").unwrap();
        assert_eq!(&lines[2][offset..offset + 2], "40");
        assert_eq!(&lines[3][offset..offset + 8], "(absent)");
        // No drift renders as nothing rather than an empty table.
        assert_eq!(render_drift_table(&[]), "");
    }
}
