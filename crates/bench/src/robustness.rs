//! The `experiments robust` stage: cardinality-misestimation robustness.
//!
//! A *dual-cost* sweep: for every schema shape and instance, each backend
//! first optimises the query under its **true** statistics, then again
//! under seeded q-error-injected **estimates**; both plans are re-costed
//! under the truth and the ratio
//!
//! ```text
//! degradation = C_out(plan from estimates, truth) / C_out(plan from truth, truth)
//! ```
//!
//! is the row metric. At q-error 1 the injection is the bitwise identity,
//! so the ratio is *exactly* 1.0 — the run's self-check gate.
//!
//! Requests carry no deadline (nothing is admission-diverted) and every
//! solve reseeds from per-service constants, so the whole report is a pure
//! function of the seed and drift-gates byte-for-byte at any thread count.

use qjo_core::{
    BenchmarkGenerator, BenchmarkSchema, JoinOrder, QErrorInjector, Query, QueryGenerator,
    QueryGraph,
};
use qjo_exec::{stream_seed, Parallelism};
use qjo_serve::{Request, Service};

use crate::report::Table;

/// Backends the sweep covers, in report order: `auto` first, the static
/// roster alphabetically after it.
pub const ROBUST_BACKENDS: [&str; 8] =
    ["auto", "annealer", "dp", "greedy", "qaoa", "sa", "sqa", "tabu"];

/// The default q-error sweep.
pub const QERROR_SWEEP: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// Schema shapes the sweep exercises. Chain and star are the paper's
/// Steinbrunn shapes; snowflake and FK-chain are the benchmark-derived
/// modes with key-respecting correlated selectivities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaShape {
    /// Steinbrunn chain, t = 4.
    Chain,
    /// Steinbrunn star, t = 4.
    Star,
    /// Fact + 3 dimensions (depth 1), t = 4.
    Snowflake,
    /// Foreign-key chain, t = 4.
    FkChain,
}

/// All shapes, in report order.
pub const SCHEMA_SHAPES: [SchemaShape; 4] =
    [SchemaShape::Chain, SchemaShape::Star, SchemaShape::Snowflake, SchemaShape::FkChain];

impl SchemaShape {
    /// Stable report name.
    pub fn name(&self) -> &'static str {
        match self {
            SchemaShape::Chain => "chain",
            SchemaShape::Star => "star",
            SchemaShape::Snowflake => "snowflake",
            SchemaShape::FkChain => "fkchain",
        }
    }

    /// Generates one true query for this shape. All shapes stay at t = 4
    /// so every smoke backend — the 16-qubit QAOA cap and the annealer's
    /// cold Pegasus embed included — genuinely solves each instance.
    pub fn generate(&self, seed: u64) -> Query {
        match self {
            SchemaShape::Chain => {
                QueryGenerator::paper_defaults(QueryGraph::Chain, 4).generate(seed)
            }
            SchemaShape::Star => QueryGenerator::paper_defaults(QueryGraph::Star, 4).generate(seed),
            SchemaShape::Snowflake => {
                BenchmarkGenerator::paper_defaults(BenchmarkSchema::Snowflake { dims: 3, depth: 1 })
                    .generate(seed)
            }
            SchemaShape::FkChain => {
                BenchmarkGenerator::paper_defaults(BenchmarkSchema::FkChain { len: 4 })
                    .generate(seed)
            }
        }
    }
}

/// Knobs for one robustness run.
#[derive(Debug, Clone)]
pub struct RobustnessConfig {
    /// Root seed for the service, the instances, and the injection.
    pub seed: u64,
    /// Instances per schema shape.
    pub instances: usize,
    /// Target q-errors to sweep (must include 1.0 for the unity gate to
    /// have anything to check).
    pub qerrors: Vec<f64>,
    /// Backends to sweep, in report order.
    pub backends: Vec<String>,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            seed: 7,
            instances: 2,
            qerrors: QERROR_SWEEP.to_vec(),
            backends: ROBUST_BACKENDS.iter().map(|b| b.to_string()).collect(),
        }
    }
}

/// One aggregated report row: a `(backend, schema, q-error)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustReportRow {
    /// Backend the cell was solved by.
    pub backend: String,
    /// Schema shape name.
    pub schema: &'static str,
    /// Target q-error of the injection.
    pub qerror: f64,
    /// Instances aggregated into this cell.
    pub instances: u64,
    /// Geometric mean of the degradation ratios.
    pub geomean_degradation: f64,
    /// Worst degradation ratio in the cell.
    pub max_degradation: f64,
    /// Worst realised q-error over the cell's estimated queries.
    pub realized_qerror: f64,
    /// Solves answered by the greedy fallback instead of the backend.
    pub fallbacks: u64,
}

/// One curve point: a single `(backend, schema, q-error, instance)` solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// Backend name.
    pub backend: String,
    /// Schema shape name.
    pub schema: &'static str,
    /// Target q-error.
    pub qerror: f64,
    /// Instance index within the schema.
    pub instance: usize,
    /// True cost of the plan optimised under the truth.
    pub true_cost: f64,
    /// True cost of the plan optimised under the estimates.
    pub est_plan_cost: f64,
    /// `est_plan_cost / true_cost`.
    pub degradation: f64,
}

/// The unity self-check: every q-error-1 cell must degrade by exactly 1.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustGate {
    /// q-error-1 cells checked.
    pub checked: u64,
    /// Human-readable violations (empty on pass).
    pub violations: Vec<String>,
    /// `violations.is_empty() && checked > 0`.
    pub pass: bool,
}

/// Aggregated outcome of one robustness run.
#[derive(Debug, Clone)]
pub struct RobustnessResult {
    /// Aggregated rows in (backend, schema, q-error) sweep order.
    pub report: Vec<RobustReportRow>,
    /// Per-instance curve points in the same order.
    pub curve: Vec<CurvePoint>,
    /// The unity gate verdict.
    pub gate: RobustGate,
}

/// The deterministic true instances for one shape: seeds split by shape
/// index so shapes never share a stream.
pub fn generate_instances(seed: u64, shape: SchemaShape, count: usize) -> Vec<Query> {
    let shape_idx = SCHEMA_SHAPES.iter().position(|s| *s == shape).expect("known shape") as u64;
    (0..count).map(|i| shape.generate(stream_seed(seed, shape_idx * 1_000 + i as u64))).collect()
}

/// Runs the sweep: every backend × schema × q-error × instance.
pub fn run(cfg: &RobustnessConfig, parallelism: Parallelism) -> RobustnessResult {
    let mut report = Vec::new();
    let mut curve = Vec::new();
    for backend in &cfg.backends {
        // A fresh service per backend: no replay sees another's cache.
        let service = Service::smoke(cfg.seed, parallelism);
        let solve = |id: String, query: &Query| -> Option<(JoinOrder, bool)> {
            let _span = qjo_obs::span!("robust.eval");
            qjo_obs::counter!("robust.evals").add(1);
            let req = Request {
                id,
                backend: backend.to_string(),
                deadline_ms: None,
                query: query.clone(),
            };
            let resp = service.handle(&req);
            let t = query.num_relations();
            JoinOrder::new(resp.order, t).map(|order| (order, resp.fallback))
        };
        for shape in SCHEMA_SHAPES {
            let truths = generate_instances(cfg.seed, shape, cfg.instances);
            // Denominators: each backend's own plan under the truth.
            let mut baselines = Vec::new();
            for (i, truth) in truths.iter().enumerate() {
                qjo_obs::counter!("robust.instances").add(1);
                let (order, _) = solve(format!("{backend}-{}-t{i}", shape.name()), truth)
                    .expect("smoke backends answer t = 4 instances");
                baselines.push(order.clamped_cost(truth));
            }
            for &q in &cfg.qerrors {
                let inj = QErrorInjector::new(stream_seed(cfg.seed, 0xE5), q)
                    .expect("sweep q-errors are >= 1");
                let mut row = RobustReportRow {
                    backend: backend.to_string(),
                    schema: shape.name(),
                    qerror: q,
                    instances: truths.len() as u64,
                    geomean_degradation: 0.0,
                    max_degradation: 0.0,
                    realized_qerror: 1.0,
                    fallbacks: 0,
                };
                let mut log_sum = 0.0;
                for (i, truth) in truths.iter().enumerate() {
                    let shape_idx = SCHEMA_SHAPES.iter().position(|s| s == &shape).unwrap() as u64;
                    // Injection is keyed by (schema, instance) only, so
                    // every backend answers the same estimated query.
                    let est = inj.inject(truth, shape_idx * 1_000 + i as u64);
                    let realized = 10f64.powf(est.max_abs_log_error());
                    let (order, fallback) =
                        solve(format!("{backend}-{}-q{q}-{i}", shape.name()), &est)
                            .expect("smoke backends answer t = 4 instances");
                    let est_plan_cost = order.clamped_cost(truth);
                    let ratio = est_plan_cost / baselines[i];
                    log_sum += ratio.ln();
                    row.max_degradation = row.max_degradation.max(ratio);
                    row.realized_qerror = row.realized_qerror.max(realized);
                    row.fallbacks += fallback as u64;
                    curve.push(CurvePoint {
                        backend: backend.to_string(),
                        schema: shape.name(),
                        qerror: q,
                        instance: i,
                        true_cost: baselines[i],
                        est_plan_cost,
                        degradation: ratio,
                    });
                }
                row.geomean_degradation =
                    if truths.is_empty() { 0.0 } else { (log_sum / truths.len() as f64).exp() };
                report.push(row);
            }
        }
        // Keep the service's telemetry out of the global event stream.
        let _ = service.drain_events();
    }
    let gate = evaluate_gate(&report);
    RobustnessResult { report, curve, gate }
}

/// Checks that every q-error-1 cell degrades by exactly 1.0.
pub fn evaluate_gate(report: &[RobustReportRow]) -> RobustGate {
    let mut checked = 0;
    let mut violations = Vec::new();
    for row in report.iter().filter(|r| r.qerror == 1.0) {
        checked += 1;
        if row.geomean_degradation != 1.0 || row.max_degradation != 1.0 {
            violations.push(format!(
                "{}/{} at q-error 1: geomean {} max {} (expected exactly 1)",
                row.backend, row.schema, row.geomean_degradation, row.max_degradation
            ));
        }
    }
    RobustGate { checked, pass: violations.is_empty() && checked > 0, violations }
}

/// Renders the aggregated degradation table.
pub fn render_report(rows: &[RobustReportRow]) -> Table {
    let mut table = Table::new(vec![
        "backend",
        "schema",
        "qerror",
        "instances",
        "geomean_degradation",
        "max_degradation",
        "realized_qerror",
        "fallbacks",
    ]);
    for r in rows {
        table.push_row(vec![
            r.backend.clone(),
            r.schema.to_string(),
            format!("{}", r.qerror),
            r.instances.to_string(),
            format!("{:.6e}", r.geomean_degradation),
            format!("{:.6e}", r.max_degradation),
            format!("{:.6e}", r.realized_qerror),
            r.fallbacks.to_string(),
        ]);
    }
    table
}

/// Renders the per-instance degradation curve.
pub fn render_curve(points: &[CurvePoint]) -> Table {
    let mut table = Table::new(vec![
        "backend",
        "schema",
        "qerror",
        "instance",
        "true_cost",
        "est_plan_cost",
        "degradation",
    ]);
    for p in points {
        table.push_row(vec![
            p.backend.clone(),
            p.schema.to_string(),
            format!("{}", p.qerror),
            p.instance.to_string(),
            format!("{:.6e}", p.true_cost),
            format!("{:.6e}", p.est_plan_cost),
            format!("{:.6e}", p.degradation),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_deterministic_and_shape_distinct() {
        for shape in SCHEMA_SHAPES {
            let a = generate_instances(7, shape, 2);
            let b = generate_instances(7, shape, 2);
            assert_eq!(a, b);
            assert!(a.iter().all(|q| q.num_relations() == 4), "{shape:?}");
        }
        // Different shapes draw from different streams.
        let chain = generate_instances(7, SchemaShape::Chain, 1);
        let star = generate_instances(7, SchemaShape::Star, 1);
        assert_ne!(chain[0].log_cards(), star[0].log_cards());
    }

    #[test]
    fn gate_requires_exact_unity_at_qerror_one() {
        let row = |qerror: f64, geo: f64, max: f64| RobustReportRow {
            backend: "dp".into(),
            schema: "chain",
            qerror,
            instances: 2,
            geomean_degradation: geo,
            max_degradation: max,
            realized_qerror: qerror,
            fallbacks: 0,
        };
        assert!(evaluate_gate(&[row(1.0, 1.0, 1.0), row(4.0, 1.7, 2.5)]).pass);
        let off = evaluate_gate(&[row(1.0, 1.0000001, 1.0)]);
        assert!(!off.pass);
        assert!(off.violations[0].contains("expected exactly 1"));
        // No q-error-1 rows at all is a failure, not a vacuous pass.
        assert!(!evaluate_gate(&[row(4.0, 1.7, 2.5)]).pass);
    }

    #[test]
    fn rendering_is_byte_stable() {
        let rows = vec![RobustReportRow {
            backend: "auto".into(),
            schema: "fkchain",
            qerror: 16.0,
            instances: 2,
            geomean_degradation: 1.5,
            max_degradation: 2.25,
            realized_qerror: 31.7,
            fallbacks: 1,
        }];
        let a = render_report(&rows).to_csv();
        assert_eq!(a, render_report(&rows).to_csv());
        assert!(a.contains("geomean_degradation"), "{a}");
        assert!(a.contains("1.500000e0"), "{a}");
        let pts = vec![CurvePoint {
            backend: "dp".into(),
            schema: "star",
            qerror: 2.0,
            instance: 0,
            true_cost: 1234.5,
            est_plan_cost: 2469.0,
            degradation: 2.0,
        }];
        let c = render_curve(&pts).to_csv();
        assert_eq!(c, render_curve(&pts).to_csv());
        assert!(c.contains("est_plan_cost"), "{c}");
    }

    #[test]
    fn classical_backends_sweep_deterministically_with_unity_at_one() {
        // A cheap two-backend variant of the full sweep (the full roster
        // runs in the experiments smoke): dp and greedy over every shape.
        let cfg = RobustnessConfig {
            seed: 7,
            instances: 1,
            qerrors: vec![1.0, 8.0],
            backends: vec!["dp".into(), "greedy".into()],
        };
        let run_csv = || {
            let res = run(&cfg, Parallelism::sequential());
            (render_report(&res.report).to_csv(), res)
        };
        let (a, res) = run_csv();
        let (b, _) = run_csv();
        assert_eq!(a, b, "the sweep must be a pure function of the seed");
        let dp_rows: Vec<_> = res.report.iter().filter(|r| r.backend == "dp").collect();
        assert_eq!(dp_rows.len(), SCHEMA_SHAPES.len() * 2);
        for row in dp_rows {
            assert!(row.geomean_degradation >= 1.0 - 1e-12, "{row:?}");
            if row.qerror == 1.0 {
                assert_eq!(row.geomean_degradation, 1.0, "{row:?}");
                assert_eq!(row.max_degradation, 1.0, "{row:?}");
                assert_eq!(row.realized_qerror, 1.0, "{row:?}");
            } else {
                assert!(row.realized_qerror > 1.0, "{row:?}");
            }
        }
        assert!(res.gate.pass, "{:?}", res.gate.violations);
        assert_eq!(res.curve.len(), res.report.len());
    }
}
