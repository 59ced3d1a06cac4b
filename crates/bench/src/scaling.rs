//! Scaling studies framing the quantum results.
//!
//! Three sweeps the paper's narrative leans on but does not tabulate:
//!
//! * [`run_classical`] — wall-clock scaling of the classical optimisers
//!   (exact DP is exponential in relations; greedy and the Steinbrunn
//!   heuristics are polynomial). This is the bar a QPU must clear.
//! * [`run_hardware_generations`] — embedding efficiency of Chimera
//!   (D-Wave 2X generation, degree 6) vs. the Pegasus-like lattice
//!   (Advantage generation, degree 15) on identical problems: the
//!   connectivity co-design argument measured on the annealer side.
//! * [`run_qaoa_depth`] — QAOA quality vs. circuit depth `p`, noiseless:
//!   the approximation-ratio gains that deeper circuits would buy if
//!   coherence allowed them (the paper is limited to p = 1 by hardware).

use std::time::Instant;

use qjo_anneal::hardware::{chimera, pegasus_like, zephyr_like};
use qjo_anneal::Embedder;
use qjo_core::classical::{
    dp_optimal, greedy_min_cost, iterative_improvement, simulated_annealing_jo,
};
use qjo_core::{JoEncoder, QueryGenerator, QueryGraph};
use qjo_gatesim::optim::NelderMead;
use qjo_gatesim::{QaoaParams, QaoaSimulator};

use crate::report::{num, pct, Table};

/// Classical-scaling configuration.
#[derive(Debug, Clone)]
pub struct ClassicalScalingConfig {
    /// Relation counts to time.
    pub relations: Vec<usize>,
    /// Query seed.
    pub seed: u64,
}

impl Default for ClassicalScalingConfig {
    fn default() -> Self {
        ClassicalScalingConfig { relations: vec![6, 10, 14, 18, 22], seed: 0 }
    }
}

/// One classical-scaling row.
#[derive(Debug, Clone)]
pub struct ClassicalRow {
    /// Relations.
    pub relations: usize,
    /// DP time (µs); `None` beyond the practical cut-off.
    pub dp_us: Option<f64>,
    /// Greedy time (µs) and its cost ratio to the best known.
    pub greedy_us: f64,
    /// Greedy cost / best-known cost.
    pub greedy_ratio: f64,
    /// Iterative improvement time (µs) and ratio.
    pub ii_us: f64,
    /// II cost / best-known cost.
    pub ii_ratio: f64,
    /// Simulated annealing (orders) time (µs) and ratio.
    pub sa_us: f64,
    /// SA cost / best-known cost.
    pub sa_ratio: f64,
}

/// Times the classical optimisers.
pub fn run_classical(config: &ClassicalScalingConfig) -> Vec<ClassicalRow> {
    let mut rows = Vec::new();
    for &t in &config.relations {
        let query = QueryGenerator::paper_defaults(QueryGraph::Cycle, t).generate(config.seed);

        let (dp_us, dp_cost) = if t <= 20 {
            let start = Instant::now();
            let (_, cost) = dp_optimal(&query);
            (Some(start.elapsed().as_secs_f64() * 1e6), Some(cost))
        } else {
            (None, None)
        };

        let start = Instant::now();
        let (_, greedy_cost) = greedy_min_cost(&query);
        let greedy_us = start.elapsed().as_secs_f64() * 1e6;

        let start = Instant::now();
        let (_, ii_cost) = iterative_improvement(&query, 5, 40, config.seed);
        let ii_us = start.elapsed().as_secs_f64() * 1e6;

        let start = Instant::now();
        let (_, sa_cost) = simulated_annealing_jo(&query, 60, config.seed);
        let sa_us = start.elapsed().as_secs_f64() * 1e6;

        let best = dp_cost.unwrap_or(f64::INFINITY).min(greedy_cost).min(ii_cost).min(sa_cost);
        rows.push(ClassicalRow {
            relations: t,
            dp_us,
            greedy_us,
            greedy_ratio: greedy_cost / best,
            ii_us,
            ii_ratio: ii_cost / best,
            sa_us,
            sa_ratio: sa_cost / best,
        });
    }
    rows
}

/// Renders the classical-scaling rows.
pub fn render_classical(rows: &[ClassicalRow]) -> Table {
    let mut t = Table::new(vec![
        "relations",
        "DP [µs]",
        "greedy [µs]",
        "greedy ×",
        "II [µs]",
        "II ×",
        "SA [µs]",
        "SA ×",
    ]);
    for r in rows {
        t.push_row(vec![
            r.relations.to_string(),
            r.dp_us.map_or("-".into(), |v| format!("{v:.0}")),
            format!("{:.0}", r.greedy_us),
            num(r.greedy_ratio),
            format!("{:.0}", r.ii_us),
            num(r.ii_ratio),
            format!("{:.0}", r.sa_us),
            num(r.sa_ratio),
        ]);
    }
    t
}

/// One hardware-generation comparison row.
#[derive(Debug, Clone)]
pub struct GenerationRow {
    /// Relations.
    pub relations: usize,
    /// Logical qubits.
    pub logical: usize,
    /// Physical qubits on Chimera (2X generation); `None` = failed.
    pub chimera_physical: Option<usize>,
    /// Physical qubits on the Pegasus-like lattice (Advantage generation).
    pub pegasus_physical: Option<usize>,
    /// Physical qubits on the Zephyr-like lattice (Advantage2 generation).
    pub zephyr_physical: Option<usize>,
}

/// Embeds identical problems on all three annealer generations, at equal
/// qubit budgets (`8m²` qubits each).
pub fn run_hardware_generations(relations: &[usize], seed: u64, m: usize) -> Vec<GenerationRow> {
    let chimera_graph = chimera(m);
    let pegasus_graph = pegasus_like(m);
    let zephyr_graph = zephyr_like(m);
    let embedder = Embedder { seed, ..Default::default() };
    relations
        .iter()
        .map(|&t| {
            let query = QueryGenerator::paper_defaults(QueryGraph::Chain, t).generate(seed);
            let enc = JoEncoder::default().encode(&query);
            let edges: Vec<(usize, usize)> =
                enc.qubo.quadratic_iter().map(|(i, j, _)| (i, j)).collect();
            let on = |target| {
                embedder.embed(enc.num_qubits(), &edges, target).map(|e| e.num_physical_qubits())
            };
            GenerationRow {
                relations: t,
                logical: enc.num_qubits(),
                chimera_physical: on(&chimera_graph),
                pegasus_physical: on(&pegasus_graph),
                zephyr_physical: on(&zephyr_graph),
            }
        })
        .collect()
}

/// Renders the hardware-generation rows.
pub fn render_generations(rows: &[GenerationRow]) -> Table {
    let mut t = Table::new(vec![
        "relations",
        "logical",
        "Chimera (deg 6)",
        "Pegasus-like (deg 15)",
        "Zephyr-like (deg 20)",
    ]);
    for r in rows {
        let f = |v: Option<usize>| v.map_or("FAIL".into(), |x| x.to_string());
        t.push_row(vec![
            r.relations.to_string(),
            r.logical.to_string(),
            f(r.chimera_physical),
            f(r.pegasus_physical),
            f(r.zephyr_physical),
        ]);
    }
    t
}

/// One QAOA-depth row.
#[derive(Debug, Clone)]
pub struct QaoaDepthRow {
    /// Number of QAOA layers `p`.
    pub p: usize,
    /// Optimised energy expectation.
    pub expectation: f64,
    /// Probability mass on ground states at the optimum.
    pub ground_probability: f64,
}

/// Sweeps QAOA depth noiselessly on a small JO instance.
pub fn run_qaoa_depth(max_p: usize, seed: u64) -> Vec<QaoaDepthRow> {
    let gen = QueryGenerator {
        log_card_range: (1.0, 2.0),
        ..QueryGenerator::paper_defaults(QueryGraph::Cycle, 3)
    };
    let query = gen.with_predicate_count(seed, 1);
    let enc = JoEncoder::default().encode(&query);
    let sim = QaoaSimulator::new(&enc.qubo);
    let hamiltonian = sim.hamiltonian();
    let ground = hamiltonian.min_energy();

    let mut rows = Vec::new();
    let mut warm = QaoaParams { gammas: vec![0.1], betas: vec![0.1] };
    for p in 1..=max_p {
        // INTERP warm start: stretch the previous depth's schedule.
        warm = warm.interpolate_to(p);
        let result = NelderMead { max_iterations: 120, ..Default::default() }
            .minimize(|x| sim.expectation(&QaoaParams::from_flat(p, x)), &warm.to_flat());
        warm = QaoaParams::from_flat(p, &result.x);
        let state = sim.state(&QaoaParams::from_flat(p, &result.x));
        let probs = state.probabilities();
        let ground_probability = probs
            .iter()
            .enumerate()
            .filter(|&(z, _)| (hamiltonian.energy(z) - ground).abs() < 1e-9)
            .map(|(_, p)| p)
            .sum();
        rows.push(QaoaDepthRow { p, expectation: result.fx, ground_probability });
    }
    rows
}

/// Renders the QAOA-depth rows.
pub fn render_qaoa_depth(rows: &[QaoaDepthRow]) -> Table {
    let mut t = Table::new(vec!["p", "⟨H⟩ at optimum", "ground-state probability"]);
    for r in rows {
        t.push_row(vec![r.p.to_string(), num(r.expectation), pct(r.ground_probability)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classical_scaling_produces_sane_timings() {
        let rows = run_classical(&ClassicalScalingConfig { relations: vec![5, 8], seed: 0 });
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.dp_us.is_some());
            assert!(r.greedy_ratio >= 1.0 - 1e-9);
            assert!(r.ii_ratio >= 1.0 - 1e-9);
            assert!(r.sa_ratio >= 1.0 - 1e-9);
        }
        // DP time grows with relations.
        assert!(rows[1].dp_us.unwrap() > rows[0].dp_us.unwrap());
        assert_eq!(render_classical(&rows).num_rows(), 2);
    }

    #[test]
    fn newer_generations_embed_more_efficiently() {
        let rows = run_hardware_generations(&[3, 4], 0, 10);
        for r in &rows {
            let p = r.pegasus_physical.expect("pegasus should embed small JO");
            let z = r.zephyr_physical.expect("zephyr should embed small JO");
            if let Some(c) = r.chimera_physical {
                assert!(
                    p <= c + c / 4,
                    "T={}: pegasus {p} should not be much worse than chimera {c}",
                    r.relations
                );
            }
            assert!(
                z <= p + p / 4,
                "T={}: zephyr {z} should not be much worse than pegasus {p}",
                r.relations
            );
        }
        assert_eq!(render_generations(&rows).num_rows(), 2);
    }

    #[test]
    fn deeper_qaoa_does_not_get_worse() {
        let rows = run_qaoa_depth(2, 0);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].expectation <= rows[0].expectation + 1e-6,
            "p=2 ⟨H⟩ {} vs p=1 {}",
            rows[1].expectation,
            rows[0].expectation
        );
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.ground_probability));
        }
    }
}
