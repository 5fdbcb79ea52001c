//! Word-parallel adjacency: one bitset row per vertex.
//!
//! The deviation engine issues millions of dense, repeated,
//! single-source BFS queries over graphs that change one strategy at a
//! time. [`BitAdjacency`] mirrors such a graph as `n` rows of
//! `⌈n/64⌉` machine words — row `u` has bit `v` set iff the undirected
//! edge `{u, v}` is present — so a frontier-bitset BFS
//! ([`BitBfsScratch`](crate::BitBfsScratch)) can expand a whole
//! frontier with word-wide ORs instead of per-neighbour pointer
//! chasing.
//!
//! The structure is a *presence* matrix: a brace (the multigraph edge
//! `{u, v}` appearing twice) collapses to one set bit, which is exactly
//! what reachability and distances need. Callers that maintain a
//! multigraph alongside (the engine's
//! [`CompactCsr`](crate::CompactCsr)) decide at removal time
//! whether the *last* occurrence of an edge is gone — see
//! [`BitAdjacency::clear_edge`].

use crate::adjacency::Adjacency;
use crate::node::NodeId;

/// Undirected adjacency as an `n × ⌈n/64⌉` bit matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitAdjacency {
    n: usize,
    words: usize,
    /// Row-major bit rows; `rows[u * words ..][..words]` is row `u`.
    rows: Vec<u64>,
}

impl BitAdjacency {
    /// An edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitAdjacency {
            n,
            words,
            rows: vec![0; n * words],
        }
    }

    /// Mirror an existing undirected view (multiplicity collapses to
    /// presence).
    pub fn from_adjacency<A: Adjacency + ?Sized>(a: &A) -> Self {
        let mut bits = BitAdjacency::new(a.n());
        for u in 0..a.n() {
            let u = NodeId::new(u);
            for &v in a.neighbors(u) {
                bits.set_half(u, v);
            }
        }
        bits
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Words per row (`⌈n/64⌉`).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Bit row of `u`: bit `v` set iff `{u, v}` is present.
    #[inline]
    pub fn row(&self, u: NodeId) -> &[u64] {
        let lo = u.index() * self.words;
        &self.rows[lo..lo + self.words]
    }

    #[inline]
    fn set_half(&mut self, u: NodeId, v: NodeId) {
        self.rows[u.index() * self.words + (v.index() >> 6)] |= 1u64 << (v.index() & 63);
    }

    #[inline]
    fn clear_half(&mut self, u: NodeId, v: NodeId) {
        self.rows[u.index() * self.words + (v.index() >> 6)] &= !(1u64 << (v.index() & 63));
    }

    /// Mark the edge `{u, v}` present (idempotent).
    ///
    /// # Panics
    /// Panics on a self-loop or an out-of-range endpoint.
    pub fn set_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u != v, "self-loop at {u}");
        assert!(
            u.index() < self.n && v.index() < self.n,
            "edge {u} - {v} out of range (n = {})",
            self.n
        );
        self.set_half(u, v);
        self.set_half(v, u);
    }

    /// Mark the edge `{u, v}` absent (idempotent). The caller is
    /// responsible for multiplicity: clear only when the last
    /// occurrence of the multigraph edge is removed.
    pub fn clear_edge(&mut self, u: NodeId, v: NodeId) {
        self.clear_half(u, v);
        self.clear_half(v, u);
    }

    /// Is the edge `{u, v}` present?
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.row(u)[v.index() >> 6] & (1u64 << (v.index() & 63)) != 0
    }

    /// Degree in the *simple* graph (set bits of row `u`).
    pub fn simple_degree(&self, u: NodeId) -> usize {
        self.row(u).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Does every edge of `a` (and nothing else) appear here? Intended
    /// for tests and debug assertions.
    pub fn mirrors<A: Adjacency + ?Sized>(&self, a: &A) -> bool {
        if self.n != a.n() {
            return false;
        }
        let other = BitAdjacency::from_adjacency(a);
        self.rows == other.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn mirrors_a_csr() {
        let csr = Csr::from_edges(70, &[(0, 1), (1, 2), (68, 69), (0, 69)]);
        let bits = BitAdjacency::from_adjacency(&csr);
        assert_eq!(bits.n(), 70);
        assert_eq!(bits.words(), 2);
        assert!(bits.has_edge(v(0), v(1)));
        assert!(bits.has_edge(v(69), v(0))); // symmetric
        assert!(!bits.has_edge(v(2), v(3)));
        assert!(bits.mirrors(&csr));
        assert_eq!(bits.simple_degree(v(0)), 2);
    }

    #[test]
    fn set_clear_roundtrip() {
        let mut bits = BitAdjacency::new(5);
        bits.set_edge(v(1), v(3));
        assert!(bits.has_edge(v(3), v(1)));
        bits.set_edge(v(1), v(3)); // idempotent
        assert_eq!(bits.simple_degree(v(1)), 1);
        bits.clear_edge(v(1), v(3));
        assert!(!bits.has_edge(v(1), v(3)));
        bits.clear_edge(v(1), v(3)); // idempotent
        assert_eq!(bits, BitAdjacency::new(5));
    }

    #[test]
    fn braces_collapse_to_presence() {
        let g = crate::OwnedDigraph::from_arcs(2, &[(0, 1), (1, 0)]);
        let csr = crate::CompactCsr::from_digraph(&g);
        let bits = BitAdjacency::from_adjacency(&csr);
        assert!(bits.has_edge(v(0), v(1)));
        assert_eq!(bits.simple_degree(v(0)), 1);
    }

    #[test]
    fn degenerate_sizes() {
        let empty = BitAdjacency::new(0);
        assert_eq!(empty.n(), 0);
        assert_eq!(empty.words(), 0);
        let one = BitAdjacency::new(1);
        assert_eq!(one.words(), 1);
        assert_eq!(one.simple_degree(v(0)), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        BitAdjacency::new(3).set_edge(v(1), v(1));
    }
}
