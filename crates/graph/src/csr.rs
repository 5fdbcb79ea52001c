//! Compressed sparse row (CSR) adjacency for the undirected underlying
//! graph `U(G)`.
//!
//! Every distance in the game is a distance in `U(G)`, so BFS over this
//! structure is the hottest loop in the workspace. CSR keeps each
//! vertex's neighbourhood contiguous (one cache line streams several
//! neighbours) and is built in `O(n + m)` from an ownership digraph.
//! It is immutable: a profile builds its `Csr` the first time something
//! reads it and drops it when a strategy changes, while the deviation
//! engine prices candidates on the in-place-editable
//! [`CompactCsr`](crate::CompactCsr) instead.
//!
//! Multiplicity is preserved: a brace `u ⇄ v` appears twice in each
//! endpoint's list. BFS is insensitive to this (a vertex is visited
//! once), while structure analyses that need multigraph degrees read
//! them directly from list lengths.

use crate::adjacency::Adjacency;
use crate::digraph::OwnedDigraph;
use crate::node::NodeId;

/// Process-global count of [`Csr::from_digraph`] rebuilds, compiled in
/// only under the `rebuild-counter` feature. The deviation-engine
/// tests use it to prove the best-response hot path performs **zero**
/// full rebuilds per candidate deviation.
#[cfg(feature = "rebuild-counter")]
pub mod rebuild_counter {
    use std::sync::atomic::{AtomicU64, Ordering};

    static REBUILDS: AtomicU64 = AtomicU64::new(0);

    /// Rebuilds observed so far in this process.
    pub fn count() -> u64 {
        REBUILDS.load(Ordering::Relaxed)
    }

    pub(crate) fn bump() {
        REBUILDS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Undirected adjacency in compressed-sparse-row form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[u] .. offsets[u + 1]` indexes `targets` for vertex `u`.
    offsets: Vec<u32>,
    /// Concatenated neighbour lists (with multiplicity).
    targets: Vec<NodeId>,
}

impl Csr {
    /// Build the undirected view of an ownership digraph: every arc
    /// `u → v` contributes `v` to `u`'s list and `u` to `v`'s list.
    pub fn from_digraph(g: &OwnedDigraph) -> Self {
        #[cfg(feature = "rebuild-counter")]
        rebuild_counter::bump();
        let n = g.n();
        let mut degree = vec![0u32; n];
        for (u, v) in g.arcs() {
            degree[u.index()] += 1;
            degree[v.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![NodeId(0); acc as usize];
        for (u, v) in g.arcs() {
            targets[cursor[u.index()] as usize] = v;
            cursor[u.index()] += 1;
            targets[cursor[v.index()] as usize] = u;
            cursor[v.index()] += 1;
        }
        Csr { offsets, targets }
    }

    /// Build directly from an undirected edge list (used by generators
    /// that produce undirected graphs, e.g. the Lemma 5.2 shift graph).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut degree = vec![0u32; n];
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range");
            assert!(u != v, "self-loop ({u},{u})");
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![NodeId(0); acc as usize];
        for &(u, v) in edges {
            targets[cursor[u] as usize] = NodeId::new(v);
            cursor[u] += 1;
            targets[cursor[v] as usize] = NodeId::new(u);
            cursor[v] += 1;
        }
        Csr { offsets, targets }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges counted with multiplicity.
    #[inline]
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbours of `u` (with multiplicity).
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.offsets[u.index()] as usize;
        let hi = self.offsets[u.index() + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of `u` in the underlying multigraph.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u.index() + 1] - self.offsets[u.index()]) as usize
    }

    /// Degree of `u` counting each distinct neighbour once (simple-graph
    /// degree: a brace counts 1).
    pub fn simple_degree(&self, u: NodeId) -> usize {
        let mut ns: Vec<NodeId> = self.neighbors(u).to_vec();
        ns.sort_unstable();
        ns.dedup();
        ns.len()
    }

    /// Maximum multigraph degree over all vertices (0 for empty graphs).
    pub fn max_degree(&self) -> usize {
        (0..self.n())
            .map(|u| self.degree(NodeId::new(u)))
            .max()
            .unwrap_or(0)
    }

    /// Minimum multigraph degree over all vertices (0 for empty graphs).
    pub fn min_degree(&self) -> usize {
        (0..self.n())
            .map(|u| self.degree(NodeId::new(u)))
            .min()
            .unwrap_or(0)
    }

    /// Are `u` and `v` adjacent? Linear scan of the shorter list — fine
    /// for the sparse graphs of this workspace.
    pub fn adjacent(&self, u: NodeId, v: NodeId) -> bool {
        if self.degree(u) <= self.degree(v) {
            self.neighbors(u).contains(&v)
        } else {
            self.neighbors(v).contains(&u)
        }
    }

    /// All undirected edges, each once, as `(min, max)` pairs with
    /// multiplicity collapsed.
    pub fn simple_edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::with_capacity(self.m());
        for u in 0..self.n() {
            let u = NodeId::new(u);
            for &v in self.neighbors(u) {
                if u < v {
                    edges.push((u, v));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }
}

impl Adjacency for Csr {
    #[inline]
    fn n(&self) -> usize {
        Csr::n(self)
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        Csr::neighbors(self, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn from_digraph_symmetrizes() {
        let g = OwnedDigraph::from_arcs(3, &[(0, 1), (1, 2)]);
        let csr = Csr::from_digraph(&g);
        assert_eq!(csr.n(), 3);
        assert_eq!(csr.m(), 2);
        assert_eq!(csr.neighbors(v(0)), &[v(1)]);
        let mut n1: Vec<NodeId> = csr.neighbors(v(1)).to_vec();
        n1.sort_unstable();
        assert_eq!(n1, vec![v(0), v(2)]);
    }

    #[test]
    fn brace_has_multiplicity_two() {
        let g = OwnedDigraph::from_arcs(2, &[(0, 1), (1, 0)]);
        let csr = Csr::from_digraph(&g);
        assert_eq!(csr.degree(v(0)), 2);
        assert_eq!(csr.simple_degree(v(0)), 1);
        assert_eq!(csr.simple_edges(), vec![(v(0), v(1))]);
    }

    #[test]
    fn from_edges_matches_from_digraph() {
        let g = OwnedDigraph::from_arcs(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let a = Csr::from_digraph(&g);
        let b = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        for u in 0..4 {
            let mut na: Vec<NodeId> = a.neighbors(v(u)).to_vec();
            let mut nb: Vec<NodeId> = b.neighbors(v(u)).to_vec();
            na.sort_unstable();
            nb.sort_unstable();
            assert_eq!(na, nb);
        }
    }

    #[test]
    fn degree_extremes() {
        let csr = Csr::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(csr.max_degree(), 3);
        assert_eq!(csr.min_degree(), 1);
        assert!(csr.adjacent(v(0), v(3)));
        assert!(!csr.adjacent(v(1), v(2)));
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_edges(3, &[]);
        assert_eq!(csr.m(), 0);
        assert_eq!(csr.max_degree(), 0);
        assert!(csr.neighbors(v(1)).is_empty());
    }
}
