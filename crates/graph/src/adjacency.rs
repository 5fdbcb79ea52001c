//! The adjacency abstraction shared by every undirected view.
//!
//! BFS, component labelling and the distance primitives only need "how
//! many vertices" and "who neighbours `u`", so they are written against
//! [`Adjacency`] and work identically over the immutable
//! [`Csr`](crate::Csr) and the in-place-editable
//! [`CompactCsr`](crate::CompactCsr). Slices
//! keep the hot loop monomorphic and branch-free — no iterator
//! indirection on the innermost BFS loop.

use crate::node::NodeId;

/// An undirected multigraph readable as per-vertex neighbour slices.
pub trait Adjacency {
    /// Number of vertices.
    fn n(&self) -> usize;

    /// Neighbours of `u`, with multiplicity (a brace appears twice).
    fn neighbors(&self, u: NodeId) -> &[NodeId];

    /// Degree of `u` in the underlying multigraph.
    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }
}

impl<A: Adjacency + ?Sized> Adjacency for &A {
    #[inline]
    fn n(&self) -> usize {
        (**self).n()
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        (**self).neighbors(u)
    }
}
