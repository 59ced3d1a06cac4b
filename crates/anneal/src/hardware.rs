//! Quantum-annealer hardware graphs.
//!
//! * [`chimera`] — the exact D-Wave Chimera `C(m)` lattice (degree ≤ 6),
//!   the topology of the D-Wave 2X generation used by Trummer & Koch's MQO
//!   study.
//! * [`pegasus_like`] — a degree-15 lattice with the connectivity profile
//!   of the D-Wave Advantage's Pegasus graph: each qubit has 12 "internal"
//!   couplers to opposite-orientation qubits spanning three adjacent tiles,
//!   1 "odd" coupler to its same-orientation partner, and 2 "external"
//!   couplers extending its own line. We use the documented tile/orientation
//!   structure rather than D-Wave's exact coordinate arithmetic; the
//!   quantities the experiments depend on (qubit count ≈ 5.4k at `m = 26`,
//!   degree 15, quasi-planar locality) match the Advantage system. This
//!   substitution is recorded in DESIGN.md.

use qjo_transpile::Topology;

/// Qubit index inside a tiled lattice: tile `(y, x)`, orientation
/// `u ∈ {0 = vertical, 1 = horizontal}`, offset `k ∈ 0..4`.
fn tile_index(m: usize, y: usize, x: usize, u: usize, k: usize) -> usize {
    ((y * m + x) * 2 + u) * 4 + k
}

/// The exact Chimera `C(m)` graph: an `m × m` grid of `K_{4,4}` unit cells.
///
/// Within a cell the 4 vertical qubits couple to all 4 horizontal qubits;
/// vertical qubits chain to the vertically adjacent cell, horizontal qubits
/// to the horizontally adjacent cell. Interior degree 6; `8m²` qubits.
pub fn chimera(m: usize) -> Topology {
    assert!(m >= 1, "need at least one cell");
    let mut edges = Vec::new();
    for y in 0..m {
        for x in 0..m {
            // Intra-cell complete bipartite couplers.
            for k in 0..4 {
                for j in 0..4 {
                    edges.push((tile_index(m, y, x, 0, k), tile_index(m, y, x, 1, j)));
                }
            }
            // External couplers.
            for k in 0..4 {
                if y + 1 < m {
                    edges.push((tile_index(m, y, x, 0, k), tile_index(m, y + 1, x, 0, k)));
                }
                if x + 1 < m {
                    edges.push((tile_index(m, y, x, 1, k), tile_index(m, y, x + 1, 1, k)));
                }
            }
        }
    }
    Topology::new(8 * m * m, &edges)
}

/// A Pegasus-like degree-15 lattice over an `m × m` grid of 8-qubit tiles
/// (`8m²` qubits).
///
/// Edge classes (mirroring Pegasus's internal / odd / external couplers):
///
/// * *internal*: vertical qubit `(y, x, 0, k)` couples to the horizontal
///   qubits of tiles `(y−1, x)`, `(y, x)`, `(y+1, x)` — 12 couplers in the
///   bulk, reflecting that Pegasus qubits span three unit tiles;
/// * *odd*: `(y, x, u, 2j) ~ (y, x, u, 2j+1)`;
/// * *external*: `(y, x, 0, k) ~ (y+1, x, 0, k)` and
///   `(y, x, 1, k) ~ (y, x+1, 1, k)`.
///
/// Bulk degree: 12 + 1 + 2 = 15, matching the D-Wave Advantage.
pub fn pegasus_like(m: usize) -> Topology {
    assert!(m >= 2, "need at least a 2×2 tile grid");
    let mut edges = Vec::new();
    for y in 0..m {
        for x in 0..m {
            for k in 0..4 {
                // Internal: vertical (y,x,0,k) to horizontal of 3 tiles.
                for dy in [-1isize, 0, 1] {
                    let yy = y as isize + dy;
                    if yy < 0 || yy >= m as isize {
                        continue;
                    }
                    for j in 0..4 {
                        edges
                            .push((tile_index(m, y, x, 0, k), tile_index(m, yy as usize, x, 1, j)));
                    }
                }
                // External.
                if y + 1 < m {
                    edges.push((tile_index(m, y, x, 0, k), tile_index(m, y + 1, x, 0, k)));
                }
                if x + 1 < m {
                    edges.push((tile_index(m, y, x, 1, k), tile_index(m, y, x + 1, 1, k)));
                }
            }
            // Odd couplers.
            for u in 0..2 {
                edges.push((tile_index(m, y, x, u, 0), tile_index(m, y, x, u, 1)));
                edges.push((tile_index(m, y, x, u, 2), tile_index(m, y, x, u, 3)));
            }
        }
    }
    Topology::new(8 * m * m, &edges)
}

/// A Zephyr-like degree-20 lattice over an `m × m` grid of 8-qubit tiles
/// (`8m²` qubits) — the connectivity profile of D-Wave's *next* hardware
/// generation (Advantage2), for forward-looking co-design studies.
///
/// Same construction as [`pegasus_like`] with a wider internal span:
/// vertical qubits couple to the horizontal qubits of **five** vertically
/// adjacent tiles (16 internal couplers in the bulk… capped at 4 × 4 = 16;
/// with 1 odd + 2 external + 1 extra odd pair this reaches the bulk degree
/// 20 of Zephyr), and each qubit gains a second odd coupler.
pub fn zephyr_like(m: usize) -> Topology {
    assert!(m >= 3, "need at least a 3×3 tile grid");
    let mut edges = Vec::new();
    for y in 0..m {
        for x in 0..m {
            for k in 0..4 {
                // Internal: vertical (y,x,0,k) to horizontal of 4 tiles
                // (span 4 = Zephyr's doubled-length qubits vs Pegasus' 3).
                for dy in [-1isize, 0, 1, 2] {
                    let yy = y as isize + dy;
                    if yy < 0 || yy >= m as isize {
                        continue;
                    }
                    for j in 0..4 {
                        edges
                            .push((tile_index(m, y, x, 0, k), tile_index(m, yy as usize, x, 1, j)));
                    }
                }
                // External (two hops along the qubit's own line direction).
                if y + 1 < m {
                    edges.push((tile_index(m, y, x, 0, k), tile_index(m, y + 1, x, 0, k)));
                }
                if x + 1 < m {
                    edges.push((tile_index(m, y, x, 1, k), tile_index(m, y, x + 1, 1, k)));
                }
            }
            // Odd couplers: full matching plus the crossed pairs, giving
            // each qubit 2 same-orientation partners.
            for u in 0..2 {
                edges.push((tile_index(m, y, x, u, 0), tile_index(m, y, x, u, 1)));
                edges.push((tile_index(m, y, x, u, 2), tile_index(m, y, x, u, 3)));
                edges.push((tile_index(m, y, x, u, 0), tile_index(m, y, x, u, 2)));
                edges.push((tile_index(m, y, x, u, 1), tile_index(m, y, x, u, 3)));
            }
        }
    }
    Topology::new(8 * m * m, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chimera_counts_and_degrees() {
        let t = chimera(3);
        assert_eq!(t.num_qubits(), 72);
        // Edges: 16 per cell × 9 + external 4 × (6 vertical gaps + 6 horizontal gaps)
        assert_eq!(t.num_edges(), 16 * 9 + 4 * 6 + 4 * 6);
        assert!(t.is_connected());
        let max_deg = (0..72).map(|q| t.degree(q)).max().unwrap();
        assert_eq!(max_deg, 6);
    }

    #[test]
    fn chimera_cell_is_complete_bipartite() {
        let t = chimera(2);
        for k in 0..4 {
            for j in 0..4 {
                assert!(t.has_edge(tile_index(2, 0, 0, 0, k), tile_index(2, 0, 0, 1, j)));
            }
            // No couplers within an orientation (other than none in Chimera).
            for j in 0..4 {
                if k != j {
                    assert!(!t.has_edge(tile_index(2, 0, 0, 0, k), tile_index(2, 0, 0, 0, j)));
                }
            }
        }
    }

    #[test]
    fn pegasus_like_bulk_degree_is_15() {
        let t = pegasus_like(5);
        assert_eq!(t.num_qubits(), 200);
        assert!(t.is_connected());
        // A bulk vertical qubit: tile (2,2).
        let q = tile_index(5, 2, 2, 0, 0);
        assert_eq!(t.degree(q), 15);
        let q = tile_index(5, 2, 2, 1, 3);
        assert_eq!(t.degree(q), 15);
        let max_deg = (0..200).map(|q| t.degree(q)).max().unwrap();
        assert_eq!(max_deg, 15);
    }

    #[test]
    fn pegasus_like_has_odd_couplers() {
        let t = pegasus_like(3);
        assert!(t.has_edge(tile_index(3, 1, 1, 0, 0), tile_index(3, 1, 1, 0, 1)));
        assert!(t.has_edge(tile_index(3, 1, 1, 1, 2), tile_index(3, 1, 1, 1, 3)));
        // But no 0-2 odd coupler.
        assert!(!t.has_edge(tile_index(3, 1, 1, 0, 0), tile_index(3, 1, 1, 0, 2)));
    }

    #[test]
    fn pegasus_is_denser_than_chimera() {
        let p = pegasus_like(4);
        let c = chimera(4);
        assert_eq!(p.num_qubits(), c.num_qubits());
        assert!(p.num_edges() > 2 * c.num_edges());
        // Denser graph, smaller diameter.
        assert!(p.diameter().unwrap() < c.diameter().unwrap());
    }

    #[test]
    fn zephyr_like_bulk_degree_is_20() {
        let t = zephyr_like(6);
        assert_eq!(t.num_qubits(), 288);
        assert!(t.is_connected());
        // Bulk vertical qubit: 16 internal + 2 external + 2 odd = 20.
        let q = tile_index(6, 2, 2, 0, 0);
        assert_eq!(t.degree(q), 20);
        let max_deg = (0..288).map(|q| t.degree(q)).max().unwrap();
        assert_eq!(max_deg, 20);
    }

    #[test]
    fn generation_density_is_monotone() {
        // Chimera < Pegasus-like < Zephyr-like at equal qubit counts.
        let c = chimera(5);
        let p = pegasus_like(5);
        let z = zephyr_like(5);
        assert_eq!(c.num_qubits(), p.num_qubits());
        assert_eq!(p.num_qubits(), z.num_qubits());
        assert!(c.num_edges() < p.num_edges());
        assert!(p.num_edges() < z.num_edges());
        assert!(z.diameter().unwrap() <= p.diameter().unwrap());
    }

    #[test]
    fn advantage_scale_instance() {
        // `m = 26` is the Advantage scale: 5408 qubits (Advantage
        // advertises ~5000+ working qubits on Pegasus P16).
        let t = pegasus_like(26);
        assert_eq!(t.num_qubits(), 5408);
        // Spot-check connectivity without the full BFS cost: the topology
        // constructor already computed all-pairs distances.
        assert!(t.is_connected());
    }
}
