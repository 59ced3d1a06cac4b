//! Random query generation following Steinbrunn et al.
//!
//! The paper generates join-ordering instances with controlled query-graph
//! shapes (chain, star, cycle; we add clique) and randomised cardinalities
//! and selectivities, using the generator of Steinbrunn et al. via
//! Trummer's query-optimizer-lib. We reproduce the knobs that matter:
//! graph type, cardinality range, selectivity range, and the *integer-log*
//! mode the paper's QPU experiments rely on (Section 4.1).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::query::{Predicate, Query, QueryGraph};

/// Shared, validated sampling parameters for every generator mode.
///
/// Both the Steinbrunn sampler ([`QueryGenerator`]) and the benchmark-shaped
/// modes ([`BenchmarkGenerator`]) draw their logs from one of these, so the
/// domain rules (cardinality logs non-negative and ordered, selectivity logs
/// in `(0, 1]`, i.e. non-positive) are enforced in exactly one place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenParams {
    /// Inclusive range of base-10 log cardinalities.
    pub log_card_range: (f64, f64),
    /// Inclusive range of base-10 log selectivities (non-positive).
    pub log_sel_range: (f64, f64),
    /// Round all logs to integers (the paper's evaluation setting, which
    /// keeps QUBO coefficients exact at ω = 1).
    pub integer_log: bool,
}

impl GenParams {
    /// The paper's evaluation defaults: integer logs, cardinalities in
    /// `10^1..10^4`, selectivities in `10^−2..10^−1`.
    pub fn paper_defaults() -> Self {
        GenParams { log_card_range: (1.0, 4.0), log_sel_range: (-2.0, -1.0), integer_log: true }
    }

    /// Checks the parameter domains, returning the first violation.
    pub fn validate(&self) -> Result<(), GenError> {
        let (clo, chi) = self.log_card_range;
        if !clo.is_finite() || !chi.is_finite() || clo > chi {
            return Err(GenError::InvertedCardRange { lo: clo, hi: chi });
        }
        if clo < 0.0 {
            return Err(GenError::NegativeCardLog { lo: clo });
        }
        let (slo, shi) = self.log_sel_range;
        if !slo.is_finite() || !shi.is_finite() || slo > shi {
            return Err(GenError::InvertedSelRange { lo: slo, hi: shi });
        }
        if shi > 0.0 {
            return Err(GenError::SelectivityOutOfRange { hi: shi });
        }
        Ok(())
    }

    /// Draws one log value from `range`, honouring `integer_log`.
    fn draw(&self, rng: &mut StdRng, range: (f64, f64)) -> f64 {
        let v = if range.0 == range.1 { range.0 } else { rng.random_range(range.0..=range.1) };
        if self.integer_log {
            v.round()
        } else {
            v
        }
    }
}

/// A typed rejection from generator parameter validation.
///
/// Before this existed the generators either panicked deep inside the
/// vendored `rand` ("cannot sample empty range") or silently produced
/// degenerate queries; now every mode rejects bad knobs up front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GenError {
    /// `log_card_range` is inverted or non-finite.
    InvertedCardRange { lo: f64, hi: f64 },
    /// Cardinality logs below zero mean cardinalities below one.
    NegativeCardLog { lo: f64 },
    /// `log_sel_range` is inverted or non-finite.
    InvertedSelRange { lo: f64, hi: f64 },
    /// A positive selectivity log means a selectivity above one.
    SelectivityOutOfRange { hi: f64 },
    /// Fewer than two relations cannot form a join query.
    TooFewRelations { got: usize, need: usize },
    /// Relation sets are u64 bitmasks, so queries cap at 64 relations.
    TooManyRelations { got: usize, max: usize },
    /// Target q-error must be a finite value ≥ 1.
    BadTargetQError { got: f64 },
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::InvertedCardRange { lo, hi } => {
                write!(f, "inverted or non-finite log-cardinality range [{lo}, {hi}]")
            }
            GenError::NegativeCardLog { lo } => {
                write!(f, "log-cardinality lower bound {lo} is negative (cardinality < 1)")
            }
            GenError::InvertedSelRange { lo, hi } => {
                write!(f, "inverted or non-finite log-selectivity range [{lo}, {hi}]")
            }
            GenError::SelectivityOutOfRange { hi } => {
                write!(f, "log-selectivity upper bound {hi} is positive: selectivities must lie in (0, 1]")
            }
            GenError::TooFewRelations { got, need } => {
                write!(f, "need at least {need} relations, got {got}")
            }
            GenError::TooManyRelations { got, max } => {
                write!(f, "at most {max} relations supported, got {got}")
            }
            GenError::BadTargetQError { got } => {
                write!(f, "target q-error must be finite and >= 1, got {got}")
            }
        }
    }
}

impl std::error::Error for GenError {}

/// Configuration of the random query generator.
#[derive(Debug, Clone)]
pub struct QueryGenerator {
    /// Join-graph shape.
    pub graph: QueryGraph,
    /// Number of relations.
    pub num_relations: usize,
    /// Inclusive range of base-10 log cardinalities.
    pub log_card_range: (f64, f64),
    /// Inclusive range of base-10 log selectivities (non-positive).
    pub log_sel_range: (f64, f64),
    /// Round all logs to integers (the paper's evaluation setting, which
    /// keeps QUBO coefficients exact at ω = 1).
    pub integer_log: bool,
}

impl QueryGenerator {
    /// The paper's evaluation defaults: integer logs, cardinalities in
    /// `10^1..10^4`, selectivities in `10^−2..10^−1`.
    pub fn paper_defaults(graph: QueryGraph, num_relations: usize) -> Self {
        let p = GenParams::paper_defaults();
        QueryGenerator {
            graph,
            num_relations,
            log_card_range: p.log_card_range,
            log_sel_range: p.log_sel_range,
            integer_log: p.integer_log,
        }
    }

    /// The sampling parameters as the shared validated struct.
    pub fn params(&self) -> GenParams {
        GenParams {
            log_card_range: self.log_card_range,
            log_sel_range: self.log_sel_range,
            integer_log: self.integer_log,
        }
    }

    /// Checks the generator configuration, returning the first violation.
    pub fn validate(&self) -> Result<(), GenError> {
        self.params().validate()?;
        let need = if matches!(self.graph, QueryGraph::Cycle) { 3 } else { 2 };
        if self.num_relations < need {
            return Err(GenError::TooFewRelations { got: self.num_relations, need });
        }
        Ok(())
    }

    /// Generates one query from the given seed, rejecting invalid
    /// configurations with a typed error instead of panicking mid-sample.
    pub fn try_generate(&self, seed: u64) -> Result<Query, GenError> {
        self.validate()?;
        let params = self.params();
        let mut rng = StdRng::seed_from_u64(seed);
        let t = self.num_relations;

        let log_cards: Vec<f64> =
            (0..t).map(|_| params.draw(&mut rng, self.log_card_range)).collect();
        let pairs: Vec<(usize, usize)> = match self.graph {
            QueryGraph::Chain => (0..t - 1).map(|i| (i, i + 1)).collect(),
            QueryGraph::Star => (1..t).map(|i| (0, i)).collect(),
            QueryGraph::Cycle => {
                let mut v: Vec<_> = (0..t - 1).map(|i| (i, i + 1)).collect();
                v.push((t - 1, 0));
                v
            }
            QueryGraph::Clique => {
                let mut v = Vec::new();
                for a in 0..t {
                    for b in a + 1..t {
                        v.push((a, b));
                    }
                }
                v
            }
        };
        let predicates = pairs
            .into_iter()
            .map(|(rel_a, rel_b)| Predicate {
                rel_a,
                rel_b,
                log_sel: params.draw(&mut rng, self.log_sel_range).min(0.0),
            })
            .collect();
        Ok(Query::new(log_cards, predicates))
    }

    /// Generates one query from the given seed.
    ///
    /// Panics on invalid configurations; use [`QueryGenerator::try_generate`]
    /// to get a typed [`GenError`] instead.
    pub fn generate(&self, seed: u64) -> Query {
        match self.try_generate(seed) {
            Ok(q) => q,
            Err(e) => panic!("invalid query generator: {e}"),
        }
    }

    /// A query with `predicates` of the chain predicates kept and the rest
    /// dropped — the paper's "vary the number of predicates at fixed
    /// relations" scenario (0 predicates forces cross products everywhere).
    pub fn with_predicate_count(&self, seed: u64, predicates: usize) -> Query {
        let full = self.generate(seed);
        let kept: Vec<Predicate> = full.predicates().iter().copied().take(predicates).collect();
        Query::new(full.log_cards().to_vec(), kept)
    }
}

/// Fixed realistic schema shapes, modelled on the topologies of the JOB and
/// TPC-H benchmarks rather than Steinbrunn-style random graphs.
///
/// Unlike the random sampler, these generators produce *key-respecting*
/// correlated selectivities: every edge is a PK–FK join, so its selectivity
/// is exactly `1 / |parent|` (`log_sel = -log_card(parent)`), which makes
/// `|child ⋈ parent| = |child|` — the shape real cardinality estimators see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BenchmarkSchema {
    /// A central fact table joined to `dims` dimension chains, each `depth`
    /// tables long (depth 1 is a plain star; deeper chains add the
    /// "outrigger" tables that make TPC-H/JOB plans interesting). Total
    /// relations: `1 + dims * depth`.
    Snowflake {
        /// Number of dimension chains off the fact table.
        dims: usize,
        /// Length of each dimension chain.
        depth: usize,
    },
    /// A long foreign-key chain `R0 → R1 → … → R(len-1)` with monotonically
    /// non-increasing cardinalities — the many-joins-deep lookup pattern of
    /// normalised schemas. Total relations: `len`.
    FkChain {
        /// Number of relations in the chain.
        len: usize,
    },
}

impl BenchmarkSchema {
    /// Number of relations this schema produces.
    pub fn num_relations(&self) -> usize {
        match *self {
            BenchmarkSchema::Snowflake { dims, depth } => 1 + dims * depth,
            BenchmarkSchema::FkChain { len } => len,
        }
    }

    /// Short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            BenchmarkSchema::Snowflake { .. } => "snowflake",
            BenchmarkSchema::FkChain { .. } => "fkchain",
        }
    }
}

/// Benchmark-derived query generator: fixed schema topology, randomised but
/// key-respecting statistics.
#[derive(Debug, Clone)]
pub struct BenchmarkGenerator {
    /// Schema topology to instantiate.
    pub schema: BenchmarkSchema,
    /// Shared sampling parameters (cardinality range applies to the
    /// dimension/chain tables; the fact table is drawn above the range so
    /// the fact-to-dimension size skew of real star schemas is preserved).
    pub params: GenParams,
}

impl BenchmarkGenerator {
    /// A benchmark generator with the paper's sampling defaults.
    pub fn paper_defaults(schema: BenchmarkSchema) -> Self {
        BenchmarkGenerator { schema, params: GenParams::paper_defaults() }
    }

    /// Checks the configuration, returning the first violation.
    pub fn validate(&self) -> Result<(), GenError> {
        self.params.validate()?;
        let t = self.schema.num_relations();
        if t < 2 {
            return Err(GenError::TooFewRelations { got: t, need: 2 });
        }
        if t > 64 {
            return Err(GenError::TooManyRelations { got: t, max: 64 });
        }
        Ok(())
    }

    /// Generates one query from the given seed, with typed errors.
    pub fn try_generate(&self, seed: u64) -> Result<Query, GenError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let t = self.schema.num_relations();
        let (lo, hi) = self.params.log_card_range;

        match self.schema {
            BenchmarkSchema::Snowflake { dims, depth } => {
                // Relation 0 is the fact table: drawn one decade above the
                // dimension range so it dominates, as in a real star schema.
                let mut log_cards = vec![0.0; t];
                log_cards[0] = self.params.draw(&mut rng, (hi, hi + 1.0));
                // Dimension chain d occupies relations 1+d*depth .. 1+(d+1)*depth,
                // ordered fact → dim → outrigger → …, shrinking outward.
                let mut predicates = Vec::new();
                for d in 0..dims {
                    let mut chain: Vec<f64> =
                        (0..depth).map(|_| self.params.draw(&mut rng, (lo, hi))).collect();
                    chain.sort_by(|a, b| b.partial_cmp(a).unwrap());
                    let base = 1 + d * depth;
                    for (k, &card) in chain.iter().enumerate() {
                        log_cards[base + k] = card;
                        let child = if k == 0 { 0 } else { base + k - 1 };
                        predicates.push(Predicate {
                            rel_a: child,
                            rel_b: base + k,
                            log_sel: -card,
                        });
                    }
                }
                Ok(Query::new(log_cards, predicates))
            }
            BenchmarkSchema::FkChain { len } => {
                // R0 is the largest table; the chain shrinks as it walks the
                // foreign keys, like a normalised lookup path.
                let mut log_cards: Vec<f64> =
                    (0..len).map(|_| self.params.draw(&mut rng, (lo, hi))).collect();
                log_cards.sort_by(|a, b| b.partial_cmp(a).unwrap());
                let predicates = (0..len - 1)
                    .map(|i| Predicate { rel_a: i, rel_b: i + 1, log_sel: -log_cards[i + 1] })
                    .collect();
                Ok(Query::new(log_cards, predicates))
            }
        }
    }

    /// Generates one query from the given seed, panicking on bad knobs.
    pub fn generate(&self, seed: u64) -> Query {
        match self.try_generate(seed) {
            Ok(q) => q,
            Err(e) => panic!("invalid benchmark generator: {e}"),
        }
    }
}

/// Inverse normal CDF at 0.75: scaling a log-normal's σ by
/// `log10(q) / PROBIT_75` puts the *median* of the realised q-error
/// distribution at the target `q`.
const PROBIT_75: f64 = 0.674_489_750_196_082;

/// Seeded cardinality-misestimation injector.
///
/// Perturbs every cardinality and selectivity of a query by independent
/// log-normal factors calibrated so that the median realised q-error
/// (`max(est/true, true/est)`) equals `target_q`. Estimates are clamped to
/// the valid domains (`log_card ≥ 0`, `log_sel ≤ 0`) and the true values are
/// retained alongside via [`Query::with_estimates`].
///
/// Perturbations are keyed by `(seed, unit)` through the same SplitMix64
/// stream-splitting as the execution engine, so a sweep is deterministic
/// regardless of evaluation order or thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QErrorInjector {
    /// Base seed for the perturbation stream.
    pub seed: u64,
    /// Target median q-error, ≥ 1. A target of exactly 1 is the identity:
    /// no RNG draws, bitwise-equal estimates.
    pub target_q: f64,
}

impl QErrorInjector {
    /// Creates an injector, rejecting non-finite or sub-1 targets.
    pub fn new(seed: u64, target_q: f64) -> Result<Self, GenError> {
        if !target_q.is_finite() || target_q < 1.0 {
            return Err(GenError::BadTargetQError { got: target_q });
        }
        Ok(QErrorInjector { seed, target_q })
    }

    /// Standard deviation of the log10-perturbation.
    fn sigma_log10(&self) -> f64 {
        self.target_q.log10() / PROBIT_75
    }

    /// Perturbs `query`, keyed by `unit` (e.g. the instance index), returning
    /// a query whose visible values are the estimates and whose true values
    /// are retained alongside.
    pub fn inject(&self, query: &Query, unit: u64) -> Query {
        let true_cards = query.true_log_cards().to_vec();
        let true_sels = query.true_log_sels();
        if self.target_q == 1.0 {
            // Exact identity: no RNG draws, so estimates are bitwise equal
            // to the truth and the degradation ratio is exactly 1.
            return query.true_query().with_estimates(true_cards, true_sels);
        }
        let mut rng = StdRng::seed_from_u64(qjo_exec::stream_seed(self.seed, unit));
        let sigma = self.sigma_log10();
        let mut perturb = |v: f64| -> f64 {
            // Box–Muller: the vendored rand has no gaussian sampler.
            let u1: f64 = 1.0 - rng.random::<f64>(); // (0, 1]: keeps ln finite
            let u2: f64 = rng.random::<f64>();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            v + sigma * z
        };
        let est_cards: Vec<f64> = true_cards.iter().map(|&c| perturb(c).max(0.0)).collect();
        let est_sels: Vec<f64> = true_sels.iter().map(|&s| perturb(s).min(0.0)).collect();
        query.true_query().with_estimates(est_cards, est_sels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_shapes_have_expected_predicate_counts() {
        for (graph, expected) in [
            (QueryGraph::Chain, 4),
            (QueryGraph::Star, 4),
            (QueryGraph::Cycle, 5),
            (QueryGraph::Clique, 10),
        ] {
            let q = QueryGenerator::paper_defaults(graph, 5).generate(1);
            assert_eq!(q.num_predicates(), expected, "{graph:?}");
            assert_eq!(q.num_relations(), 5);
        }
    }

    #[test]
    fn chain_touches_consecutive_relations() {
        let q = QueryGenerator::paper_defaults(QueryGraph::Chain, 4).generate(0);
        let pairs: Vec<(usize, usize)> =
            q.predicates().iter().map(|p| (p.rel_a, p.rel_b)).collect();
        assert_eq!(pairs, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn star_centres_on_relation_zero() {
        let q = QueryGenerator::paper_defaults(QueryGraph::Star, 5).generate(0);
        assert!(q.predicates().iter().all(|p| p.rel_a == 0));
    }

    #[test]
    fn integer_log_mode_rounds_everything() {
        let q = QueryGenerator::paper_defaults(QueryGraph::Cycle, 6).generate(3);
        assert!(q.is_integer_log());
    }

    #[test]
    fn continuous_mode_produces_fractional_logs() {
        let gen = QueryGenerator {
            integer_log: false,
            ..QueryGenerator::paper_defaults(QueryGraph::Chain, 8)
        };
        let q = gen.generate(5);
        assert!(!q.is_integer_log(), "8 draws should not all be integers");
    }

    #[test]
    fn values_respect_ranges() {
        let gen = QueryGenerator::paper_defaults(QueryGraph::Clique, 6);
        for seed in 0..10 {
            let q = gen.generate(seed);
            for &c in q.log_cards() {
                assert!((1.0..=4.0).contains(&c), "card log {c}");
            }
            for p in q.predicates() {
                assert!((-2.0..=-1.0).contains(&p.log_sel), "sel log {}", p.log_sel);
            }
        }
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let gen = QueryGenerator::paper_defaults(QueryGraph::Chain, 5);
        assert_eq!(gen.generate(7), gen.generate(7));
        let distinct = (0..10).map(|s| gen.generate(s)).collect::<Vec<_>>();
        assert!(distinct.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn predicate_count_override() {
        let gen = QueryGenerator::paper_defaults(QueryGraph::Cycle, 3);
        for count in 0..=3 {
            let q = gen.with_predicate_count(2, count);
            assert_eq!(q.num_predicates(), count);
            assert_eq!(q.num_relations(), 3);
        }
    }

    #[test]
    fn inverted_card_range_is_a_typed_error() {
        let gen = QueryGenerator {
            log_card_range: (4.0, 1.0),
            ..QueryGenerator::paper_defaults(QueryGraph::Chain, 4)
        };
        assert_eq!(gen.try_generate(0), Err(GenError::InvertedCardRange { lo: 4.0, hi: 1.0 }));
    }

    #[test]
    fn positive_selectivity_log_is_a_typed_error() {
        let gen = QueryGenerator {
            log_sel_range: (-1.0, 0.5),
            ..QueryGenerator::paper_defaults(QueryGraph::Chain, 4)
        };
        assert_eq!(gen.try_generate(0), Err(GenError::SelectivityOutOfRange { hi: 0.5 }));
    }

    #[test]
    fn too_few_relations_is_a_typed_error() {
        let gen = QueryGenerator::paper_defaults(QueryGraph::Cycle, 2);
        assert_eq!(gen.try_generate(0), Err(GenError::TooFewRelations { got: 2, need: 3 }));
        let err = GenParams { log_card_range: (2.0, 1.0), ..GenParams::paper_defaults() }
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("inverted"));
    }

    #[test]
    #[should_panic(expected = "inverted or non-finite log-selectivity range")]
    fn generate_panics_with_the_typed_message() {
        let gen = QueryGenerator {
            log_sel_range: (-1.0, -2.0),
            ..QueryGenerator::paper_defaults(QueryGraph::Star, 4)
        };
        gen.generate(0);
    }

    #[test]
    fn snowflake_has_fact_dimension_shape() {
        let gen =
            BenchmarkGenerator::paper_defaults(BenchmarkSchema::Snowflake { dims: 3, depth: 2 });
        let q = gen.generate(7);
        assert_eq!(q.num_relations(), 7);
        assert_eq!(q.num_predicates(), 6);
        // The fact table is strictly the largest relation.
        let fact = q.log_cards()[0];
        assert!(q.log_cards()[1..].iter().all(|&c| c <= fact));
        // Every edge is key-respecting: log_sel = -log_card(parent), so the
        // join with the parent leaves the child's cardinality unchanged.
        for p in q.predicates() {
            assert_eq!(p.log_sel, -q.log_cards()[p.rel_b]);
        }
    }

    #[test]
    fn fk_chain_shrinks_monotonically() {
        let gen = BenchmarkGenerator::paper_defaults(BenchmarkSchema::FkChain { len: 6 });
        let q = gen.generate(11);
        assert_eq!(q.num_relations(), 6);
        assert_eq!(q.num_predicates(), 5);
        assert!(q.log_cards().windows(2).all(|w| w[0] >= w[1]));
        for (i, p) in q.predicates().iter().enumerate() {
            assert_eq!((p.rel_a, p.rel_b), (i, i + 1));
            assert_eq!(p.log_sel, -q.log_cards()[i + 1]);
        }
    }

    #[test]
    fn benchmark_generator_validates_size_and_params() {
        let too_small =
            BenchmarkGenerator::paper_defaults(BenchmarkSchema::Snowflake { dims: 0, depth: 3 });
        assert_eq!(too_small.try_generate(0), Err(GenError::TooFewRelations { got: 1, need: 2 }));
        let too_big = BenchmarkGenerator::paper_defaults(BenchmarkSchema::FkChain { len: 70 });
        assert_eq!(too_big.try_generate(0), Err(GenError::TooManyRelations { got: 70, max: 64 }));
        let bad_params = BenchmarkGenerator {
            params: GenParams { log_card_range: (-1.0, 4.0), ..GenParams::paper_defaults() },
            schema: BenchmarkSchema::FkChain { len: 4 },
        };
        assert_eq!(bad_params.try_generate(0), Err(GenError::NegativeCardLog { lo: -1.0 }));
    }

    #[test]
    fn injector_rejects_bad_targets() {
        assert!(QErrorInjector::new(0, 0.5).is_err());
        assert!(QErrorInjector::new(0, f64::NAN).is_err());
        assert!(QErrorInjector::new(0, f64::INFINITY).is_err());
        assert!(QErrorInjector::new(0, 1.0).is_ok());
    }

    #[test]
    fn q_one_injection_is_the_exact_identity() {
        let q = QueryGenerator::paper_defaults(QueryGraph::Chain, 5).generate(3);
        let inj = QErrorInjector::new(42, 1.0).unwrap();
        let est = inj.inject(&q, 0);
        assert!(est.has_estimates());
        assert_eq!(est.log_cards(), q.log_cards());
        assert_eq!(est.true_query(), q);
        assert_eq!(est.max_abs_log_error(), 0.0);
    }

    #[test]
    fn injection_is_deterministic_in_seed_and_unit() {
        let q = QueryGenerator::paper_defaults(QueryGraph::Star, 6).generate(9);
        let inj = QErrorInjector::new(42, 4.0).unwrap();
        assert_eq!(inj.inject(&q, 3), inj.inject(&q, 3));
        assert_ne!(inj.inject(&q, 3), inj.inject(&q, 4));
        let other = QErrorInjector::new(43, 4.0).unwrap();
        assert_ne!(inj.inject(&q, 3), other.inject(&q, 3));
    }

    #[test]
    fn injected_estimates_stay_in_domain() {
        // An extreme target exercises the clamps hard.
        let q = QueryGenerator::paper_defaults(QueryGraph::Clique, 6).generate(1);
        let inj = QErrorInjector::new(7, 1e6).unwrap();
        for unit in 0..20 {
            let est = inj.inject(&q, unit);
            assert!(est.log_cards().iter().all(|&c| c.is_finite() && c >= 0.0));
            assert!(est.predicates().iter().all(|p| p.log_sel.is_finite() && p.log_sel <= 0.0));
            assert_eq!(est.true_query(), q);
        }
    }
}
