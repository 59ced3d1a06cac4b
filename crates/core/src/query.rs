//! The join-ordering problem instance: relations, cardinalities, and join
//! predicates.
//!
//! Cardinalities and selectivities are stored as base-10 logarithms, the
//! representation both the MILP reformulation (Section 3 of the paper) and
//! the qubit-bound analysis (Section 5) work in. The paper's evaluation
//! restricts itself to *integer* logarithmic cardinalities and
//! selectivities to sidestep discretisation error; [`Query::is_integer_log`]
//! detects that regime.

/// A binary join predicate between two relations with a selectivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predicate {
    /// First referenced relation.
    pub rel_a: usize,
    /// Second referenced relation.
    pub rel_b: usize,
    /// Base-10 log of the selectivity; must satisfy `log_sel <= 0`
    /// (selectivities are in `(0, 1]`).
    pub log_sel: f64,
}

/// The shape of a query's join graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryGraph {
    /// `R0 — R1 — … — R(n−1)`.
    Chain,
    /// `R0` joined to every other relation.
    Star,
    /// A chain closed into a ring (one extra predicate).
    Cycle,
    /// Every pair of relations joined.
    Clique,
}

/// True cardinalities and selectivities retained alongside a perturbed
/// (estimated) query — see [`Query::with_estimates`].
#[derive(Debug, Clone, PartialEq)]
struct Truth {
    /// True base-10 log cardinalities, parallel to `Query::log_cards`.
    log_cards: Vec<f64>,
    /// True base-10 log selectivities, parallel to `Query::predicates`.
    log_sels: Vec<f64>,
}

/// A join-ordering problem instance.
///
/// The primary cardinalities/selectivities are what an optimiser *sees*
/// (its estimates). A query built through [`Query::with_estimates`]
/// additionally retains the true values, so a plan optimised under the
/// estimates can be re-costed under the truth ([`Query::true_query`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Base-10 log of each relation's cardinality (`log_card >= 0`).
    log_cards: Vec<f64>,
    /// Join predicates (uncorrelated, per the paper's footnote 3).
    predicates: Vec<Predicate>,
    /// True values when the primary ones are estimates; `None` means the
    /// primary values *are* the truth.
    truth: Option<Truth>,
}

impl Query {
    /// Builds a query, validating ranges and predicate endpoints.
    pub fn new(log_cards: Vec<f64>, predicates: Vec<Predicate>) -> Self {
        let t = log_cards.len();
        assert!(t >= 2, "a join-ordering problem needs at least two relations");
        assert!(t <= 64, "relation sets are represented as u64 bitmasks");
        assert!(
            log_cards.iter().all(|&c| c >= 0.0 && c.is_finite()),
            "log cardinalities must be finite and non-negative"
        );
        for p in &predicates {
            assert!(p.rel_a < t && p.rel_b < t, "predicate references unknown relation");
            assert_ne!(p.rel_a, p.rel_b, "self-join predicates are not supported");
            assert!(p.log_sel <= 0.0 && p.log_sel.is_finite(), "selectivities must be in (0, 1]");
        }
        Query { log_cards, predicates, truth: None }
    }

    /// A copy of this query whose *visible* values are the given
    /// estimates, with `self`'s values retained as the truth. Estimates
    /// must satisfy the same domain invariants as true values
    /// (`log_card >= 0`, `log_sel <= 0`, both finite) — perturbation
    /// code is expected to clamp before calling.
    ///
    /// # Panics
    /// Panics when the estimate vectors are mis-sized or out of domain.
    pub fn with_estimates(&self, est_log_cards: Vec<f64>, est_log_sels: Vec<f64>) -> Query {
        assert_eq!(est_log_cards.len(), self.log_cards.len(), "one estimate per relation");
        assert_eq!(est_log_sels.len(), self.predicates.len(), "one estimate per predicate");
        assert!(
            est_log_cards.iter().all(|&c| c >= 0.0 && c.is_finite()),
            "estimated log cardinalities must be finite and non-negative"
        );
        assert!(
            est_log_sels.iter().all(|&s| s <= 0.0 && s.is_finite()),
            "estimated selectivities must be in (0, 1]"
        );
        let predicates = self
            .predicates
            .iter()
            .zip(&est_log_sels)
            .map(|(p, &log_sel)| Predicate { log_sel, ..*p })
            .collect();
        let truth =
            Truth { log_cards: self.true_log_cards().to_vec(), log_sels: self.true_log_sels() };
        Query { log_cards: est_log_cards, predicates, truth: Some(truth) }
    }

    /// True when this query carries estimated values distinct from (or at
    /// least recorded alongside) retained true values.
    pub fn has_estimates(&self) -> bool {
        self.truth.is_some()
    }

    /// The true log cardinalities: the retained truth when estimates are
    /// in play, else the primary values themselves.
    pub fn true_log_cards(&self) -> &[f64] {
        match &self.truth {
            Some(t) => &t.log_cards,
            None => &self.log_cards,
        }
    }

    /// The true log selectivities, parallel to [`Query::predicates`].
    pub fn true_log_sels(&self) -> Vec<f64> {
        match &self.truth {
            Some(t) => t.log_sels.clone(),
            None => self.predicates.iter().map(|p| p.log_sel).collect(),
        }
    }

    /// The truth view: a query whose visible values are the true ones
    /// (and which carries no estimates). For a query without estimates
    /// this is simply a clone.
    pub fn true_query(&self) -> Query {
        match &self.truth {
            None => self.clone(),
            Some(t) => {
                let predicates = self
                    .predicates
                    .iter()
                    .zip(&t.log_sels)
                    .map(|(p, &log_sel)| Predicate { log_sel, ..*p })
                    .collect();
                Query::new(t.log_cards.clone(), predicates)
            }
        }
    }

    /// The largest absolute log10 estimation error across every
    /// cardinality and selectivity — `0.0` when no estimates are carried.
    /// The realised *q-error* of the estimates is `10^this`.
    pub fn max_abs_log_error(&self) -> f64 {
        let Some(t) = &self.truth else { return 0.0 };
        let cards = self.log_cards.iter().zip(&t.log_cards).map(|(e, c)| (e - c).abs());
        let sels = self.predicates.iter().zip(&t.log_sels).map(|(p, s)| (p.log_sel - s).abs());
        cards.chain(sels).fold(0.0, f64::max)
    }

    /// Number of relations `T`.
    pub fn num_relations(&self) -> usize {
        self.log_cards.len()
    }

    /// Number of joins `J = T − 1` in a left-deep tree.
    pub fn num_joins(&self) -> usize {
        self.log_cards.len() - 1
    }

    /// Number of predicates `P`.
    pub fn num_predicates(&self) -> usize {
        self.predicates.len()
    }

    /// Log cardinality of relation `t`.
    pub fn log_card(&self, t: usize) -> f64 {
        self.log_cards[t]
    }

    /// All log cardinalities.
    pub fn log_cards(&self) -> &[f64] {
        &self.log_cards
    }

    /// The predicates.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// True when every cardinality and selectivity has an integer log —
    /// the paper's evaluation regime (discretisation-exact at ω = 1).
    pub fn is_integer_log(&self) -> bool {
        let is_int = |v: f64| (v - v.round()).abs() < 1e-9;
        self.log_cards.iter().all(|&c| is_int(c))
            && self.predicates.iter().all(|p| is_int(p.log_sel))
    }

    /// Log cardinality of joining the set of relations in `set` (bitmask):
    /// `Σ log Card(t) + Σ log Sel(p)` over predicates with both endpoints
    /// inside the set (uncorrelated-predicate model).
    pub fn log_card_of_set(&self, set: u64) -> f64 {
        let mut acc = 0.0;
        for (t, &c) in self.log_cards.iter().enumerate() {
            if set >> t & 1 == 1 {
                acc += c;
            }
        }
        for p in &self.predicates {
            if set >> p.rel_a & 1 == 1 && set >> p.rel_b & 1 == 1 {
                acc += p.log_sel;
            }
        }
        acc
    }

    /// The paper's Lemma 5.2 quantity: the maximum possible log cardinality
    /// of the outer operand of join `j` — the sum of the `j + 1` largest
    /// log cardinalities, ignoring all predicates.
    pub fn max_outer_log_card(&self, j: usize) -> f64 {
        let mut sorted = self.log_cards.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        sorted.iter().take(j + 1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_rel() -> Query {
        // Cards 100, 100, 100; one predicate R0–R1 with selectivity 0.1.
        Query::new(vec![2.0, 2.0, 2.0], vec![Predicate { rel_a: 0, rel_b: 1, log_sel: -1.0 }])
    }

    #[test]
    fn basic_accessors() {
        let q = three_rel();
        assert_eq!(q.num_relations(), 3);
        assert_eq!(q.num_joins(), 2);
        assert_eq!(q.num_predicates(), 1);
        assert_eq!(q.log_card(1), 2.0);
        assert!(q.is_integer_log());
    }

    #[test]
    fn set_cardinality_applies_predicates() {
        let q = three_rel();
        // {R0} alone: 10^2.
        assert_eq!(q.log_card_of_set(0b001), 2.0);
        // {R0, R1}: 10^2 · 10^2 · 0.1 = 10^3.
        assert_eq!(q.log_card_of_set(0b011), 3.0);
        // {R0, R2}: cross product, no predicate: 10^4.
        assert_eq!(q.log_card_of_set(0b101), 4.0);
        // All three: 10^6 · 0.1 = 10^5.
        assert_eq!(q.log_card_of_set(0b111), 5.0);
        assert_eq!(q.log_card_of_set(0), 0.0);
    }

    #[test]
    fn max_outer_log_card_uses_largest_relations() {
        let q = Query::new(vec![1.0, 3.0, 2.0], vec![]);
        // Outer of join 0 holds 1 relation; of join 1 holds 2; of join 2
        // would hold all 3 (out of range here but the formula generalises).
        assert_eq!(q.max_outer_log_card(0), 3.0);
        assert_eq!(q.max_outer_log_card(1), 5.0);
        assert_eq!(q.max_outer_log_card(2), 6.0);
    }

    #[test]
    fn non_integer_logs_are_detected() {
        let q = Query::new(vec![2.0, 2.5], vec![]);
        assert!(!q.is_integer_log());
    }

    #[test]
    #[should_panic(expected = "at least two relations")]
    fn rejects_single_relation() {
        Query::new(vec![2.0], vec![]);
    }

    #[test]
    #[should_panic(expected = "u64 bitmasks")]
    fn rejects_more_than_64_relations() {
        Query::new(vec![1.0; 65], vec![]);
    }

    #[test]
    fn exactly_64_relations_is_supported() {
        let q = Query::new(vec![1.0; 64], vec![]);
        assert_eq!(q.num_relations(), 64);
        // The full-set mask exercises the top bit.
        assert_eq!(q.log_card_of_set(u64::MAX), 64.0);
    }

    #[test]
    #[should_panic(expected = "self-join")]
    fn rejects_self_join() {
        Query::new(vec![2.0, 2.0], vec![Predicate { rel_a: 1, rel_b: 1, log_sel: -1.0 }]);
    }

    #[test]
    #[should_panic(expected = "(0, 1]")]
    fn rejects_selectivity_above_one() {
        Query::new(vec![2.0, 2.0], vec![Predicate { rel_a: 0, rel_b: 1, log_sel: 0.5 }]);
    }

    #[test]
    fn estimates_retain_the_truth_alongside() {
        let truth = three_rel();
        assert!(!truth.has_estimates());
        assert_eq!(truth.max_abs_log_error(), 0.0);
        let est = truth.with_estimates(vec![2.5, 1.0, 2.0], vec![-1.25]);
        assert!(est.has_estimates());
        // The visible values are the estimates…
        assert_eq!(est.log_cards(), &[2.5, 1.0, 2.0]);
        assert_eq!(est.predicates()[0].log_sel, -1.25);
        // …the truth is retained…
        assert_eq!(est.true_log_cards(), truth.log_cards());
        assert_eq!(est.true_log_sels(), vec![-1.0]);
        // …and the truth view reconstructs the original query exactly.
        assert_eq!(est.true_query(), truth);
        // Largest |Δlog|: card 1 moved by 1.0, the rest by less.
        assert_eq!(est.max_abs_log_error(), 1.0);
    }

    #[test]
    fn re_estimating_keeps_the_original_truth() {
        let truth = three_rel();
        let est = truth.with_estimates(vec![3.0, 2.0, 2.0], vec![-1.0]);
        let re = est.with_estimates(vec![2.0, 4.0, 2.0], vec![-0.5]);
        assert_eq!(re.true_query(), truth);
        assert_eq!(re.max_abs_log_error(), 2.0);
    }

    #[test]
    #[should_panic(expected = "one estimate per relation")]
    fn estimates_must_match_relation_count() {
        three_rel().with_estimates(vec![1.0, 1.0], vec![-1.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn estimates_respect_the_cardinality_domain() {
        three_rel().with_estimates(vec![1.0, -0.5, 1.0], vec![-1.0]);
    }
}
