//! Table 3: annealing solution quality vs. relations and annealing time.
//!
//! Queries of 3–5 relations per graph type are encoded, embedded, and
//! annealed on the simulated Advantage (SQA + ICE noise) for annealing
//! times of 20/60/100 µs. Reads are decoded into valid/optimal fractions,
//! averaged over several random instances — the paper uses 20 instances ×
//! 1000 reads; the defaults here are scaled to simulator throughput and
//! configurable up to the paper's numbers.

use qjo_anneal::hardware::pegasus_like;
use qjo_anneal::{AnnealerSampler, SqaConfig};
use qjo_core::classical::dp_optimal;
use qjo_core::{assess_samples, JoEncoder, QueryGenerator, QueryGraph, ThresholdSpec};
use qjo_exec::{par_map, Parallelism};

use crate::report::{pct, Table};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Table3Config {
    /// Relation counts (paper: 3, 4, 5).
    pub relations: Vec<usize>,
    /// Graph types.
    pub graphs: Vec<QueryGraph>,
    /// Annealing times in µs (paper: 20, 60, 100).
    pub annealing_times_us: Vec<f64>,
    /// Random instances per cell (paper: 20).
    pub instances: usize,
    /// Reads per instance (paper: 1000).
    pub num_reads: usize,
    /// Pegasus-like tile-grid size.
    pub pegasus_m: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Table3Config {
    fn default() -> Self {
        Table3Config {
            relations: vec![3, 4, 5],
            graphs: vec![QueryGraph::Chain, QueryGraph::Star, QueryGraph::Cycle],
            annealing_times_us: vec![20.0, 60.0, 100.0],
            instances: 5,
            num_reads: 200,
            pegasus_m: 12,
            seed: 0,
        }
    }
}

/// One table cell: averaged valid/optimal fractions.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Graph type.
    pub graph: QueryGraph,
    /// Relations.
    pub relations: usize,
    /// Annealing time, µs.
    pub annealing_time_us: f64,
    /// Mean fraction of valid reads across instances.
    pub valid: f64,
    /// Mean fraction of optimal reads across instances.
    pub optimal: f64,
    /// Mean chain-break fraction.
    pub chain_breaks: f64,
    /// Instances that failed to embed (excluded from the averages).
    pub embed_failures: usize,
}

/// Runs the sweep.
///
/// The `(graph, relations)` cells are independent and run in parallel; the
/// samplers inside each cell are pinned to [`Parallelism::sequential`] so
/// the sweep-level fan-out is the only source of threads. Cell results are
/// flattened in sweep order, so row order matches the sequential version.
pub fn run(config: &Table3Config) -> Vec<Table3Row> {
    let target = pegasus_like(config.pegasus_m);
    // A 3-relation star is identical to a 3-relation chain; the paper
    // leaves those cells blank.
    let cells: Vec<(QueryGraph, usize)> = config
        .graphs
        .iter()
        .flat_map(|&graph| config.relations.iter().map(move |&t| (graph, t)))
        .filter(|&(graph, t)| !(graph == QueryGraph::Star && t < 4))
        .collect();

    let per_cell = par_map(cells, Parallelism::auto(), |(graph, t)| {
        // Accumulators per annealing time, filled instance by instance
        // so each instance is embedded exactly once.
        let n_dt = config.annealing_times_us.len();
        let mut valid_sum = vec![0.0; n_dt];
        let mut optimal_sum = vec![0.0; n_dt];
        let mut cbf_sum = vec![0.0; n_dt];
        let mut ok = 0usize;
        let mut failures = 0usize;
        for inst in 0..config.instances {
            let seed = config.seed + inst as u64;
            let query = QueryGenerator::paper_defaults(graph, t).generate(seed);
            let enc = JoEncoder { thresholds: ThresholdSpec::Auto(1), ..Default::default() }
                .encode(&query);
            let base = AnnealerSampler {
                num_reads: config.num_reads,
                sqa: SqaConfig { seed, ..Default::default() },
                parallelism: Parallelism::sequential(),
                ..AnnealerSampler::new(target.clone())
            };
            let Ok(embedding) = base.embed(&enc.qubo) else {
                failures += 1;
                continue;
            };
            ok += 1;
            let (_, opt_cost) = dp_optimal(&query);
            for (k, &dt) in config.annealing_times_us.iter().enumerate() {
                let sampler = AnnealerSampler { annealing_time_us: dt, ..base.clone() };
                let outcome =
                    sampler.sample_qubo_with_embedding(&enc.qubo, embedding.clone(), seed);
                let quality = assess_samples(&outcome.samples, &enc.registry, &query, opt_cost);
                valid_sum[k] += quality.valid_fraction;
                optimal_sum[k] += quality.optimal_fraction;
                cbf_sum[k] += outcome.chain_break_fraction;
            }
        }
        let denom = ok.max(1) as f64;
        config
            .annealing_times_us
            .iter()
            .enumerate()
            .map(|(k, &dt)| Table3Row {
                graph,
                relations: t,
                annealing_time_us: dt,
                valid: valid_sum[k] / denom,
                optimal: optimal_sum[k] / denom,
                chain_breaks: cbf_sum[k] / denom,
                embed_failures: failures,
            })
            .collect::<Vec<_>>()
    });
    per_cell.into_iter().flatten().collect()
}

/// Renders the rows.
pub fn render(rows: &[Table3Row]) -> Table {
    let mut t = Table::new(vec![
        "graph",
        "relations",
        "Δt [µs]",
        "valid",
        "optimal",
        "chain breaks",
        "embed failures",
    ]);
    for r in rows {
        t.push_row(vec![
            format!("{:?}", r.graph),
            r.relations.to_string(),
            format!("{}", r.annealing_time_us),
            pct(r.valid),
            pct(r.optimal),
            pct(r.chain_breaks),
            r.embed_failures.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Table3Config {
        Table3Config {
            relations: vec![3, 4],
            graphs: vec![QueryGraph::Chain],
            annealing_times_us: vec![20.0],
            instances: 2,
            num_reads: 60,
            pegasus_m: 6,
            seed: 0,
        }
    }

    #[test]
    fn produces_fractions_in_range_and_embeds() {
        let rows = run(&tiny());
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.embed_failures, 0, "T={} failed to embed", r.relations);
            assert!((0.0..=1.0).contains(&r.valid));
            assert!(r.optimal <= r.valid + 1e-12);
        }
        assert_eq!(render(&rows).num_rows(), 2);
    }

    #[test]
    fn quality_declines_with_relations() {
        // The paper's steep collapse from 3 to 4+ relations.
        let rows = run(&Table3Config { num_reads: 150, instances: 3, ..tiny() });
        let at = |t: usize| rows.iter().find(|r| r.relations == t).expect("row");
        assert!(
            at(3).valid > at(4).valid,
            "3-relation validity {} should exceed 4-relation {}",
            at(3).valid,
            at(4).valid
        );
    }

    #[test]
    fn three_relation_star_is_skipped() {
        let rows = run(&Table3Config {
            graphs: vec![QueryGraph::Star],
            relations: vec![3, 4],
            instances: 1,
            num_reads: 30,
            ..tiny()
        });
        assert!(rows.iter().all(|r| r.relations == 4));
    }
}
