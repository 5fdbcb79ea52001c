//! Whole-graph distance aggregates: eccentricities, diameter, sum of
//! distances, and the full distance matrix.
//!
//! All of these are "BFS from every source" computations that reuse one
//! `BfsScratch`, so the hot loop allocates nothing. The matrix splits its
//! rows across workers with **static chunking** (uniform per-source
//! cost), one scratch per worker.

use crate::bfs::{BfsScratch, UNREACHED};
use crate::csr::Csr;
use crate::node::NodeId;

/// Diameter of a possibly disconnected graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Diameter {
    /// Largest distance between any two vertices, all pairs reachable.
    Finite(u32),
    /// Some pair of vertices is in different components.
    Disconnected,
}

impl Diameter {
    /// The finite value, or `None` when disconnected.
    pub fn finite(self) -> Option<u32> {
        match self {
            Diameter::Finite(d) => Some(d),
            Diameter::Disconnected => None,
        }
    }

    /// The finite value.
    ///
    /// # Panics
    /// Panics when disconnected.
    pub fn unwrap(self) -> u32 {
        self.finite().expect("graph is disconnected")
    }
}

/// Eccentricity of every vertex *within its component* (largest BFS
/// distance from that vertex), computed serially.
pub fn eccentricities(csr: &Csr) -> Vec<u32> {
    let n = csr.n();
    let mut scratch = BfsScratch::new(n);
    (0..n)
        .map(|u| scratch.run(csr, NodeId::new(u)).max_dist)
        .collect()
}

/// Diameter of the graph. `Disconnected` if any BFS fails to span.
pub fn diameter(csr: &Csr) -> Diameter {
    let n = csr.n();
    if n == 0 {
        return Diameter::Finite(0);
    }
    let mut scratch = BfsScratch::new(n);
    let mut best = 0;
    for u in 0..n {
        let stats = scratch.run(csr, NodeId::new(u));
        if !stats.spanned(n) {
            return Diameter::Disconnected;
        }
        best = best.max(stats.max_dist);
    }
    Diameter::Finite(best)
}

/// Sum of distances from every vertex to all others *within its
/// component* plus the count of unreachable vertices, as
/// `(sum_within, unreachable)` pairs. The game layer turns `unreachable`
/// into `C_inf` penalties.
pub fn distance_sums(csr: &Csr) -> Vec<(u64, usize)> {
    let n = csr.n();
    let mut scratch = BfsScratch::new(n);
    (0..n)
        .map(|u| {
            let stats = scratch.run(csr, NodeId::new(u));
            (stats.sum_dist, n - stats.visited)
        })
        .collect()
}

/// Dense all-pairs distance matrix with [`UNREACHED`] for cross-component
/// pairs. Row `u` is `dist(u, ·)`. Memory is `4·n²` bytes — intended for
/// the facility-location solvers and small-instance exact checks.
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<u32>,
}

impl DistanceMatrix {
    /// Compute the matrix with one BFS per source, in parallel.
    pub fn compute(csr: &Csr) -> Self {
        let n = csr.n();
        let mut data = vec![UNREACHED; n * n];
        // Chunk rows: each worker reuses one scratch across its rows.
        bbncg_par::par_chunks_mut(
            data.chunks_mut(n.max(1)).collect::<Vec<_>>().as_mut_slice(),
            |start, rows| {
                let mut scratch = BfsScratch::new(n);
                for (off, row) in rows.iter_mut().enumerate() {
                    scratch.run(csr, NodeId::new(start + off));
                    for v in 0..n {
                        row[v] = scratch.dist_or_unreached(NodeId::new(v));
                    }
                }
            },
        );
        DistanceMatrix { n, data }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance from `u` to `v` ([`UNREACHED`] across components).
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> u32 {
        self.data[u.index() * self.n + v.index()]
    }

    /// Row `dist(u, ·)`.
    #[inline]
    pub fn row(&self, u: NodeId) -> &[u32] {
        &self.data[u.index() * self.n..(u.index() + 1) * self.n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn path_csr(n: usize) -> Csr {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Csr::from_edges(n, &edges)
    }

    fn cycle_csr(n: usize) -> Csr {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn path_diameter_and_ecc() {
        let csr = path_csr(6);
        assert_eq!(diameter(&csr), Diameter::Finite(5));
        let ecc = eccentricities(&csr);
        assert_eq!(ecc, vec![5, 4, 3, 3, 4, 5]);
    }

    #[test]
    fn cycle_diameter() {
        assert_eq!(diameter(&cycle_csr(8)), Diameter::Finite(4));
        assert_eq!(diameter(&cycle_csr(9)), Diameter::Finite(4));
    }

    #[test]
    fn disconnected_detected() {
        let csr = Csr::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(diameter(&csr), Diameter::Disconnected);
        assert_eq!(Diameter::Disconnected.finite(), None);
    }

    #[test]
    fn distance_sums_on_path() {
        let csr = path_csr(4);
        let sums = distance_sums(&csr);
        assert_eq!(sums[0], (1 + 2 + 3, 0));
        assert_eq!(sums[1], (1 + 1 + 2, 0));
    }

    #[test]
    fn distance_sums_count_unreachable() {
        let csr = Csr::from_edges(5, &[(0, 1), (2, 3)]);
        let sums = distance_sums(&csr);
        assert_eq!(sums[0], (1, 3));
        assert_eq!(sums[4], (0, 4));
    }

    #[test]
    fn matrix_matches_bfs_and_is_symmetric() {
        let csr = cycle_csr(7);
        let m = DistanceMatrix::compute(&csr);
        let mut scratch = BfsScratch::new(7);
        for u in 0..7 {
            scratch.run(&csr, v(u));
            for w in 0..7 {
                assert_eq!(m.dist(v(u), v(w)), scratch.dist(v(w)).unwrap());
                assert_eq!(m.dist(v(u), v(w)), m.dist(v(w), v(u)));
            }
        }
        assert_eq!(m.row(v(0))[0], 0);
    }

    #[test]
    fn matrix_unreached_across_components() {
        let csr = Csr::from_edges(3, &[(0, 1)]);
        let m = DistanceMatrix::compute(&csr);
        assert_eq!(m.dist(v(0), v(2)), UNREACHED);
        assert_eq!(m.dist(v(2), v(2)), 0);
    }

    #[test]
    fn empty_graph_diameter() {
        let csr = Csr::from_edges(0, &[]);
        assert_eq!(diameter(&csr), Diameter::Finite(0));
    }

    #[test]
    fn singleton_graph() {
        let csr = Csr::from_edges(1, &[]);
        assert_eq!(diameter(&csr), Diameter::Finite(0));
        assert_eq!(eccentricities(&csr), vec![0]);
    }
}
