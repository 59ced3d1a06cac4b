//! Sample sets: what a (real or simulated) QPU returns.
//!
//! Both QAOA shot sampling and annealing reads produce a multiset of binary
//! assignments with energies. [`SampleSet`] aggregates duplicates, orders by
//! energy, and exposes the statistics the paper reports (fractions of shots
//! satisfying a predicate, best sample, ...).

use std::collections::HashMap;

use crate::shots::{unpack_row, ShotBuffer};

/// One distinct assignment observed while sampling, with its multiplicity.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The binary variable assignment.
    pub assignment: Vec<bool>,
    /// Model energy of the assignment.
    pub energy: f64,
    /// How many shots/reads produced this assignment.
    pub occurrences: u32,
}

/// An aggregated, energy-sorted collection of samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleSet {
    samples: Vec<Sample>,
    total_reads: u64,
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        SampleSet::default()
    }

    /// Builds a sample set from raw (possibly duplicated) reads, aggregating
    /// identical assignments and sorting ascending by energy.
    ///
    /// `energy_of` is called once per distinct assignment.
    pub fn from_reads<F>(reads: Vec<Vec<bool>>, mut energy_of: F) -> Self
    where
        F: FnMut(&[bool]) -> f64,
    {
        let mut counts: HashMap<Vec<bool>, u32> = HashMap::new();
        for read in reads {
            *counts.entry(read).or_insert(0) += 1;
        }
        let samples = counts
            .into_iter()
            .map(|(assignment, occurrences)| {
                let energy = energy_of(&assignment);
                Sample { assignment, energy, occurrences }
            })
            .collect();
        Self::from_samples(samples)
    }

    /// Builds a sample set from a packed [`ShotBuffer`], aggregating
    /// identical shots and sorting ascending by energy.
    ///
    /// Duplicate detection happens on the packed word rows (hashing
    /// `⌈n/64⌉` `u64`s per shot rather than `n` bytes); only the distinct
    /// rows are unpacked, and `energy_of` is called once per distinct
    /// assignment. Produces exactly the same set as
    /// [`Self::from_reads`] on the unpacked shots.
    pub fn from_shots<F>(shots: &ShotBuffer, mut energy_of: F) -> Self
    where
        F: FnMut(&[bool]) -> f64,
    {
        let mut counts: HashMap<&[u64], u32> = HashMap::new();
        for row in shots.rows() {
            *counts.entry(row).or_insert(0) += 1;
        }
        let samples = counts
            .into_iter()
            .map(|(row, occurrences)| {
                let assignment = unpack_row(row, shots.num_bits());
                let energy = energy_of(&assignment);
                Sample { assignment, energy, occurrences }
            })
            .collect();
        Self::from_samples(samples)
    }

    /// Sorts aggregated samples into canonical order and totals the reads.
    fn from_samples(mut samples: Vec<Sample>) -> Self {
        samples.sort_by(|a, b| {
            a.energy
                .partial_cmp(&b.energy)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.assignment.cmp(&b.assignment))
        });
        let total_reads = samples.iter().map(|s| u64::from(s.occurrences)).sum();
        SampleSet { samples, total_reads }
    }

    /// Distinct samples, ascending by energy.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Total number of reads aggregated (sum of occurrences).
    pub fn total_reads(&self) -> u64 {
        self.total_reads
    }

    /// Number of distinct assignments.
    pub fn num_distinct(&self) -> usize {
        self.samples.len()
    }

    /// The lowest-energy sample, if any.
    pub fn best(&self) -> Option<&Sample> {
        self.samples.first()
    }

    /// Fraction of reads whose assignment satisfies `pred` (0.0 when empty).
    pub fn fraction_where<F>(&self, mut pred: F) -> f64
    where
        F: FnMut(&Sample) -> bool,
    {
        if self.total_reads == 0 {
            return 0.0;
        }
        let hits: u64 =
            self.samples.iter().filter(|s| pred(s)).map(|s| u64::from(s.occurrences)).sum();
        hits as f64 / self.total_reads as f64
    }

    /// Lowest-energy sample satisfying `pred`.
    pub fn best_where<F>(&self, mut pred: F) -> Option<&Sample>
    where
        F: FnMut(&Sample) -> bool,
    {
        self.samples.iter().find(|s| pred(s))
    }

    /// Mean value of bit `i` across reads (occurrence-weighted).
    pub fn mean_bit(&self, i: usize) -> f64 {
        self.fraction_where(|s| s.assignment[i])
    }

    /// Merges another sample set into this one, re-aggregating duplicates.
    ///
    /// # Precondition
    /// Both sets must have been evaluated against the same model: when the
    /// same assignment appears in both, its energies must agree to within
    /// `1e-9` (debug builds assert this; release builds keep the
    /// first-seen energy). Merging sets built against different models is
    /// a logic error — the resulting energies would be meaningless.
    pub fn merge(&mut self, other: SampleSet) {
        let mut counts: HashMap<Vec<bool>, (f64, u32)> = HashMap::new();
        for s in self.samples.drain(..).chain(other.samples) {
            let entry = counts.entry(s.assignment).or_insert((s.energy, 0));
            debug_assert!(
                (entry.0 - s.energy).abs() <= 1e-9,
                "merging sample sets from different models: assignment seen with \
                 energy {} and {}",
                entry.0,
                s.energy,
            );
            entry.1 += s.occurrences;
        }
        let mut samples: Vec<Sample> = counts
            .into_iter()
            .map(|(assignment, (energy, occurrences))| Sample { assignment, energy, occurrences })
            .collect();
        samples.sort_by(|a, b| {
            a.energy
                .partial_cmp(&b.energy)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.assignment.cmp(&b.assignment))
        });
        self.total_reads = samples.iter().map(|s| u64::from(s.occurrences)).sum();
        self.samples = samples;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weight(x: &[bool]) -> f64 {
        x.iter().filter(|&&b| b).count() as f64
    }

    #[test]
    fn from_reads_aggregates_and_sorts() {
        let reads = vec![vec![true, true], vec![false, false], vec![true, true], vec![true, false]];
        let set = SampleSet::from_reads(reads, weight);
        assert_eq!(set.total_reads(), 4);
        assert_eq!(set.num_distinct(), 3);
        assert_eq!(set.best().unwrap().assignment, vec![false, false]);
        assert_eq!(set.samples()[2].occurrences, 2);
        assert_eq!(set.samples()[2].energy, 2.0);
    }

    #[test]
    fn from_shots_matches_from_reads_exactly() {
        let reads = vec![
            vec![true, true, false],
            vec![false, false, true],
            vec![true, true, false],
            vec![true, false, true],
        ];
        let packed = ShotBuffer::from_bit_vecs(&reads, 3);
        assert_eq!(SampleSet::from_shots(&packed, weight), SampleSet::from_reads(reads, weight));
    }

    #[test]
    fn from_shots_on_empty_buffer_is_empty() {
        let set = SampleSet::from_shots(&ShotBuffer::new(4), weight);
        assert_eq!(set.total_reads(), 0);
        assert!(set.best().is_none());
    }

    #[test]
    fn fraction_where_weights_by_occurrences() {
        let reads = vec![vec![true], vec![true], vec![true], vec![false]];
        let set = SampleSet::from_reads(reads, weight);
        let frac = set.fraction_where(|s| s.assignment[0]);
        assert!((frac - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_set_is_well_behaved() {
        let set = SampleSet::new();
        assert_eq!(set.total_reads(), 0);
        assert!(set.best().is_none());
        assert_eq!(set.fraction_where(|_| true), 0.0);
    }

    #[test]
    fn best_where_respects_energy_order() {
        let reads = vec![vec![false, true], vec![true, true], vec![false, false]];
        let set = SampleSet::from_reads(reads, weight);
        let best_with_first_set = set.best_where(|s| s.assignment[1]);
        assert_eq!(best_with_first_set.unwrap().assignment, vec![false, true]);
    }

    #[test]
    fn merge_re_aggregates_duplicates() {
        let a = SampleSet::from_reads(vec![vec![true], vec![false]], weight);
        let b = SampleSet::from_reads(vec![vec![true], vec![true]], weight);
        let mut merged = a;
        merged.merge(b);
        assert_eq!(merged.total_reads(), 4);
        assert_eq!(merged.num_distinct(), 2);
        let ones = merged.samples().iter().find(|s| s.assignment[0]).unwrap();
        assert_eq!(ones.occurrences, 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different models")]
    fn merge_rejects_conflicting_energies_in_debug_builds() {
        let a = SampleSet::from_reads(vec![vec![true]], weight);
        let b = SampleSet::from_reads(vec![vec![true]], |_| 100.0);
        let mut merged = a;
        merged.merge(b);
    }

    #[test]
    fn observables_compute_expected_statistics() {
        let reads = vec![vec![true, true], vec![true, true], vec![true, true], vec![false, false]];
        let set = SampleSet::from_reads(reads, weight);
        assert!((set.mean_bit(0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ties_break_deterministically_on_assignment() {
        let reads = vec![vec![true, false], vec![false, true]];
        let set = SampleSet::from_reads(reads, weight);
        // Same energy; sorted by assignment bits (false < true).
        assert_eq!(set.samples()[0].assignment, vec![false, true]);
    }
}
