//! Hardware connectivity graphs.
//!
//! A [`Topology`] is the undirected coupling graph of a QPU: vertices are
//! physical qubits, edges are pairs that can interact directly. Routing
//! inserts SWAPs along shortest paths, so all-pairs distances are
//! precomputed (BFS from every vertex) when the topology is frozen.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Above this size the all-pairs distance matrix is skipped and distance
/// queries go through a lazy per-source row cache instead (annealer graphs
/// have thousands of qubits and are consumed by the embedder, which runs
/// its own searches).
const EAGER_DISTANCE_LIMIT: usize = 2048;

/// An undirected coupling graph over `num_qubits` physical qubits.
#[derive(Debug)]
pub struct Topology {
    num_qubits: usize,
    edges: BTreeSet<(u32, u32)>,
    adjacency: Vec<Vec<usize>>,
    /// All-pairs hop distances (`u16::MAX` marks disconnected pairs);
    /// `None` for graphs above `EAGER_DISTANCE_LIMIT`.
    distances: Option<Vec<Vec<u16>>>,
    /// Lazily filled single-source BFS rows for graphs above the eager
    /// cutoff: routing asks for distances from the same few sources over
    /// and over (one per SWAP candidate endpoint), so each row is computed
    /// once and reused instead of re-running BFS per query. The topology
    /// is immutable after construction, so entries never go stale.
    row_cache: Mutex<BTreeMap<usize, Arc<Vec<u16>>>>,
}

impl Clone for Topology {
    fn clone(&self) -> Self {
        Topology {
            num_qubits: self.num_qubits,
            edges: self.edges.clone(),
            adjacency: self.adjacency.clone(),
            distances: self.distances.clone(),
            row_cache: Mutex::new(self.row_cache.lock().expect("row cache poisoned").clone()),
        }
    }
}

/// Equality is over the graph itself (vertex count + edge set); derived
/// caches never disagree for equal graphs and the lazy row cache is just
/// a warm-up detail.
impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        self.num_qubits == other.num_qubits && self.edges == other.edges
    }
}

impl Eq for Topology {}

impl Topology {
    /// Builds a topology from an edge list (self-loops are rejected,
    /// duplicates collapse).
    pub fn new(num_qubits: usize, edge_list: &[(usize, usize)]) -> Self {
        let mut edges = BTreeSet::new();
        for &(a, b) in edge_list {
            assert!(a < num_qubits && b < num_qubits, "edge ({a},{b}) out of range");
            assert_ne!(a, b, "self-loop at {a}");
            edges.insert((a.min(b) as u32, a.max(b) as u32));
        }
        let mut t = Topology {
            num_qubits,
            edges,
            adjacency: Vec::new(),
            distances: None,
            row_cache: Mutex::new(BTreeMap::new()),
        };
        t.rebuild_caches();
        t
    }

    fn rebuild_caches(&mut self) {
        let n = self.num_qubits;
        let mut adjacency = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            adjacency[a as usize].push(b as usize);
            adjacency[b as usize].push(a as usize);
        }
        for list in &mut adjacency {
            list.sort_unstable();
        }
        self.adjacency = adjacency;
        self.distances =
            (n <= EAGER_DISTANCE_LIMIT).then(|| (0..n).map(|start| self.bfs_row(start)).collect());
    }

    /// Single-source BFS distances from `start`.
    fn bfs_row(&self, start: usize) -> Vec<u16> {
        let mut row = vec![u16::MAX; self.num_qubits];
        row[start] = 0;
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            let d = row[v];
            for &w in &self.adjacency[v] {
                if row[w] == u16::MAX {
                    row[w] = d + 1;
                    queue.push_back(w);
                }
            }
        }
        row
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of couplers.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether qubits `a` and `b` are directly coupled (`false` for
    /// `a == b` and for any index outside the graph).
    ///
    /// A binary search of `a`'s sorted neighbour row: a few cache-local
    /// probes of one short row instead of a walk down the edge set's
    /// B-tree. The annealer programs a problem by asking this
    /// `|chain_i|·|chain_j|` times per logical coupling on every attempt.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adjacency.get(a).is_some_and(|row| row.binary_search(&b).is_ok())
    }

    /// Iterates edges as `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().map(|&(a, b)| (a as usize, b as usize))
    }

    /// Direct neighbours of `q`.
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.adjacency[q]
    }

    /// Degree of `q`.
    pub fn degree(&self, q: usize) -> usize {
        self.adjacency[q].len()
    }

    /// The BFS distance row from `a`, computed at most once per source.
    fn cached_row(&self, a: usize) -> Arc<Vec<u16>> {
        let mut cache = self.row_cache.lock().expect("row cache poisoned");
        Arc::clone(cache.entry(a).or_insert_with(|| Arc::new(self.bfs_row(a))))
    }

    /// Number of BFS rows currently held by the lazy cache (0 whenever the
    /// eager all-pairs matrix exists).
    pub fn cached_distance_rows(&self) -> usize {
        self.row_cache.lock().expect("row cache poisoned").len()
    }

    /// Hop distance between two qubits (`None` when disconnected).
    ///
    /// O(1) for topologies small enough to hold the all-pairs matrix;
    /// above `EAGER_DISTANCE_LIMIT` the source's BFS row is computed on
    /// first use and cached.
    pub fn distance(&self, a: usize, b: usize) -> Option<usize> {
        let d = match &self.distances {
            Some(m) => m[a][b],
            None => self.cached_row(a)[b],
        };
        (d != u16::MAX).then_some(d as usize)
    }

    /// True when every qubit can reach every other.
    pub fn is_connected(&self) -> bool {
        if self.num_qubits <= 1 {
            return true;
        }
        match &self.distances {
            Some(m) => m[0].iter().all(|&d| d != u16::MAX),
            None => self.bfs_row(0).iter().all(|&d| d != u16::MAX),
        }
    }

    /// Graph diameter (`None` when disconnected or empty).
    ///
    /// For large, uncached topologies this runs a BFS per vertex.
    pub fn diameter(&self) -> Option<usize> {
        if self.num_qubits == 0 || !self.is_connected() {
            return None;
        }
        let row_max = |row: &[u16]| row.iter().map(|&d| d as usize).max().unwrap_or(0);
        match &self.distances {
            Some(m) => m.iter().map(|r| row_max(r)).max(),
            None => (0..self.num_qubits).map(|s| row_max(&self.bfs_row(s))).max(),
        }
    }

    /// Edge density `M / (n(n−1)/2)` relative to the complete graph.
    pub fn density(&self) -> f64 {
        if self.num_qubits < 2 {
            return 1.0;
        }
        let full = self.num_qubits * (self.num_qubits - 1) / 2;
        self.edges.len() as f64 / full as f64
    }

    /// Returns a copy with extra edges added (used by density extrapolation).
    pub fn with_extra_edges(&self, extra: &[(usize, usize)]) -> Topology {
        let mut edges: Vec<(usize, usize)> = self.edges().collect();
        edges.extend_from_slice(extra);
        Topology::new(self.num_qubits, &edges)
    }

    /// Missing (uncoupled) pairs grouped by current hop distance:
    /// `result[d]` holds pairs at distance `d + 2` (distance-1 pairs are the
    /// existing edges). Disconnected pairs are appended as a final group.
    pub fn missing_pairs_by_distance(&self) -> Vec<Vec<(usize, usize)>> {
        let mut groups: Vec<Vec<(usize, usize)>> = Vec::new();
        let mut disconnected: Vec<(usize, usize)> = Vec::new();
        for a in 0..self.num_qubits {
            for b in a + 1..self.num_qubits {
                match self.distance(a, b) {
                    Some(0) | Some(1) => {}
                    Some(d) => {
                        let idx = d - 2;
                        if groups.len() <= idx {
                            groups.resize_with(idx + 1, Vec::new);
                        }
                        groups[idx].push((a, b));
                    }
                    None => disconnected.push((a, b)),
                }
            }
        }
        if !disconnected.is_empty() {
            groups.push(disconnected);
        }
        groups
    }

    // ---- stock shapes -------------------------------------------------

    /// The complete graph `K_n` (IonQ-style all-to-all connectivity).
    pub fn complete(n: usize) -> Topology {
        let mut edges = Vec::with_capacity(n * (n - 1) / 2);
        for a in 0..n {
            for b in a + 1..n {
                edges.push((a, b));
            }
        }
        Topology::new(n, &edges)
    }

    /// A path (line) graph.
    pub fn line(n: usize) -> Topology {
        let edges: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
        Topology::new(n, &edges)
    }

    /// A ring (cycle) graph.
    pub fn ring(n: usize) -> Topology {
        assert!(n >= 3, "a ring needs at least 3 vertices");
        let mut edges: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
        edges.push((n - 1, 0));
        Topology::new(n, &edges)
    }

    /// A `w × h` rectangular grid.
    pub fn grid(w: usize, h: usize) -> Topology {
        let idx = |x: usize, y: usize| y * w + x;
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((idx(x, y), idx(x + 1, y)));
                }
                if y + 1 < h {
                    edges.push((idx(x, y), idx(x, y + 1)));
                }
            }
        }
        Topology::new(w * h, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_distances_and_diameter() {
        let t = Topology::line(5);
        assert_eq!(t.num_edges(), 4);
        assert_eq!(t.distance(0, 4), Some(4));
        assert_eq!(t.distance(2, 2), Some(0));
        assert!(t.is_connected());
        assert_eq!(t.diameter(), Some(4));
    }

    #[test]
    fn complete_graph_is_distance_one_everywhere() {
        let t = Topology::complete(6);
        assert_eq!(t.num_edges(), 15);
        assert_eq!(t.density(), 1.0);
        for a in 0..6 {
            for b in 0..6 {
                if a != b {
                    assert_eq!(t.distance(a, b), Some(1));
                    assert!(t.has_edge(a, b));
                }
            }
        }
        assert!(t.missing_pairs_by_distance().is_empty());
    }

    #[test]
    fn grid_structure() {
        let t = Topology::grid(3, 2);
        assert_eq!(t.num_qubits(), 6);
        assert_eq!(t.num_edges(), 7);
        assert_eq!(t.distance(0, 5), Some(3)); // (0,0) -> (2,1)
        assert_eq!(t.degree(1), 3); // middle of top row
    }

    #[test]
    fn ring_wraps_around() {
        let t = Topology::ring(6);
        assert_eq!(t.distance(0, 3), Some(3));
        assert_eq!(t.distance(0, 5), Some(1));
        assert_eq!(t.diameter(), Some(3));
    }

    #[test]
    fn disconnected_graph_reports_none() {
        let t = Topology::new(4, &[(0, 1), (2, 3)]);
        assert!(!t.is_connected());
        assert_eq!(t.distance(0, 2), None);
        assert_eq!(t.diameter(), None);
        // Disconnected pairs land in the final group.
        let groups = t.missing_pairs_by_distance();
        assert_eq!(groups.last().unwrap().len(), 4);
    }

    #[test]
    fn duplicate_and_reversed_edges_collapse() {
        let t = Topology::new(3, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(t.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        Topology::new(2, &[(1, 1)]);
    }

    #[test]
    fn missing_pairs_grouped_by_distance() {
        let t = Topology::line(4); // distances: 0-2:2, 0-3:3, 1-3:2
        let groups = t.missing_pairs_by_distance();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![(0, 2), (1, 3)]); // distance 2
        assert_eq!(groups[1], vec![(0, 3)]); // distance 3
    }

    #[test]
    fn with_extra_edges_shortens_distances() {
        let t = Topology::line(5);
        let t2 = t.with_extra_edges(&[(0, 4)]);
        assert_eq!(t2.distance(0, 4), Some(1));
        assert_eq!(t2.num_edges(), 5);
        // Original untouched.
        assert_eq!(t.distance(0, 4), Some(4));
    }

    #[test]
    fn density_of_line_matches_formula() {
        let t = Topology::line(5);
        assert!((t.density() - 4.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn large_topology_caches_bfs_rows_lazily() {
        // 2100 qubits is above EAGER_DISTANCE_LIMIT: no all-pairs matrix,
        // but repeated queries from the same source reuse one BFS row.
        let t = Topology::line(2100);
        assert_eq!(t.cached_distance_rows(), 0);
        assert_eq!(t.distance(7, 2050), Some(2043));
        assert_eq!(t.cached_distance_rows(), 1);
        for b in [0, 6, 8, 2099] {
            assert_eq!(t.distance(7, b), Some(7usize.abs_diff(b)));
        }
        assert_eq!(t.cached_distance_rows(), 1, "same source must reuse its row");
        assert_eq!(t.distance(9, 7), Some(2));
        assert_eq!(t.cached_distance_rows(), 2);
    }

    #[test]
    fn small_topology_never_populates_the_row_cache() {
        let t = Topology::grid(4, 4);
        assert_eq!(t.distance(0, 15), Some(6));
        assert_eq!(t.cached_distance_rows(), 0, "eager matrix answers directly");
    }

    #[test]
    fn clone_and_equality_ignore_cache_state() {
        let a = Topology::line(2100);
        let b = a.clone();
        assert_eq!(a, b);
        a.distance(0, 1); // warms a's cache only
        assert_eq!(a, b, "cache warmth must not affect equality");
        let c = Topology::line(2100);
        assert_eq!(a, c);
        assert_ne!(a, Topology::ring(2100));
    }
}
