//! Topology metrics for co-design comparisons.
//!
//! The paper's Section 6 reasons about coupling graphs through summary
//! quantities: how many couplers, how far apart qubits sit on average, how
//! the degree budget is spent. This module computes those figures so
//! hypothetical topologies can be compared numerically before paying for a
//! transpilation sweep.

use crate::topology::Topology;

/// Summary statistics of a coupling graph.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyStats {
    /// Number of qubits.
    pub num_qubits: usize,
    /// Number of couplers.
    pub num_edges: usize,
    /// Edge density relative to the complete graph.
    pub density: f64,
    /// Minimum / mean / maximum vertex degree.
    pub degree_min: usize,
    /// Mean degree.
    pub degree_mean: f64,
    /// Maximum degree.
    pub degree_max: usize,
    /// Mean pairwise hop distance (`None` when disconnected).
    pub mean_distance: Option<f64>,
    /// Graph diameter (`None` when disconnected).
    pub diameter: Option<usize>,
}

/// Computes the statistics. Mean distance costs a BFS per vertex — fine
/// for gate-model topologies (≤ a few hundred qubits), slow on
/// annealer-scale graphs.
pub fn stats(topology: &Topology) -> TopologyStats {
    let n = topology.num_qubits();
    let degrees: Vec<usize> = (0..n).map(|q| topology.degree(q)).collect();
    let connected = topology.is_connected();
    let mean_distance = if n >= 2 && connected {
        let mut total = 0u64;
        let mut pairs = 0u64;
        for a in 0..n {
            for b in a + 1..n {
                total += topology.distance(a, b).expect("connected") as u64;
                pairs += 1;
            }
        }
        Some(total as f64 / pairs as f64)
    } else {
        None
    };
    TopologyStats {
        num_qubits: n,
        num_edges: topology.num_edges(),
        density: topology.density(),
        degree_min: degrees.iter().copied().min().unwrap_or(0),
        degree_mean: if n == 0 { 0.0 } else { degrees.iter().sum::<usize>() as f64 / n as f64 },
        degree_max: degrees.iter().copied().max().unwrap_or(0),
        mean_distance,
        diameter: topology.diameter(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heavy_hex::falcon_27;

    #[test]
    fn complete_graph_stats() {
        let s = stats(&Topology::complete(6));
        assert_eq!(s.num_qubits, 6);
        assert_eq!(s.num_edges, 15);
        assert_eq!(s.density, 1.0);
        assert_eq!(s.degree_min, 5);
        assert_eq!(s.degree_max, 5);
        assert_eq!(s.mean_distance, Some(1.0));
        assert_eq!(s.diameter, Some(1));
    }

    #[test]
    fn line_graph_stats() {
        let s = stats(&Topology::line(5));
        assert_eq!(s.degree_min, 1);
        assert_eq!(s.degree_max, 2);
        assert!((s.degree_mean - 8.0 / 5.0).abs() < 1e-12);
        // Mean distance of P5: (4·1 + 3·2 + 2·3 + 1·4) / 10 = 2.0.
        assert_eq!(s.mean_distance, Some(2.0));
        assert_eq!(s.diameter, Some(4));
    }

    #[test]
    fn falcon_stats_match_known_shape() {
        let s = stats(&falcon_27());
        assert_eq!(s.num_qubits, 27);
        assert_eq!(s.num_edges, 28);
        assert_eq!(s.degree_max, 3);
        assert!(s.mean_distance.expect("connected") > 3.0, "heavy-hex is sparse");
    }

    #[test]
    fn densification_improves_the_metrics() {
        let base = falcon_27();
        let denser = crate::density::densify(&base, 0.25, 3);
        let a = stats(&base);
        let b = stats(&denser);
        assert!(b.num_edges > a.num_edges);
        assert!(b.mean_distance.unwrap() < a.mean_distance.unwrap());
        assert!(b.diameter.unwrap() <= a.diameter.unwrap());
    }

    #[test]
    fn disconnected_graphs_skip_distance_metrics() {
        let t = Topology::new(4, &[(0, 1), (2, 3)]);
        let s = stats(&t);
        assert_eq!(s.mean_distance, None);
        assert_eq!(s.diameter, None);
        assert_eq!(s.num_edges, 2);
    }

    #[test]
    fn empty_graph_is_handled() {
        let s = stats(&Topology::new(0, &[]));
        assert_eq!(s.num_qubits, 0);
        assert_eq!(s.degree_mean, 0.0);
    }
}
