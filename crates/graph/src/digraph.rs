//! Directed graphs with explicit arc ownership.
//!
//! In a bounded-budget network creation game, every arc is *owned* by the
//! player at its tail: player `u` pays for and may rewire exactly the arcs
//! `u → v` it created, while distances are measured in the undirected
//! underlying graph `U(G)`. [`OwnedDigraph`] stores exactly this ownership
//! structure — one sorted target list per owner — and the undirected view
//! is derived on demand as a [CSR](crate::Csr).

use crate::node::NodeId;

/// A directed graph on `n` vertices where every arc `u → v` is owned by
/// `u`. Self-loops are forbidden and a vertex owns at most one arc to any
/// given target (the strategy `Sᵢ` of the paper is a *set*). A **brace**
/// — both `u → v` and `v → u` present — is allowed and representable.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct OwnedDigraph {
    /// `out[u]` = sorted list of targets of arcs owned by `u`.
    out: Vec<Vec<NodeId>>,
}

impl OwnedDigraph {
    /// An arcless digraph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        OwnedDigraph {
            out: vec![Vec::new(); n],
        }
    }

    /// Build from per-owner target lists. Lists are sorted and validated.
    ///
    /// # Panics
    /// Panics on self-loops, duplicate targets within one owner, or
    /// out-of-range targets.
    pub fn from_out_lists(out: Vec<Vec<NodeId>>) -> Self {
        let n = out.len();
        let mut g = OwnedDigraph { out };
        for (u, targets) in g.out.iter_mut().enumerate() {
            targets.sort_unstable();
            for w in targets.windows(2) {
                assert!(w[0] != w[1], "duplicate arc {} -> {}", u, w[0]);
            }
            for &t in targets.iter() {
                assert!(t.index() < n, "target {} out of range (n = {n})", t);
                assert!(t.index() != u, "self-loop at vertex {u}");
            }
        }
        g
    }

    /// Build from a flat arc list `(owner, target)`.
    pub fn from_arcs(n: usize, arcs: &[(usize, usize)]) -> Self {
        let mut out = vec![Vec::new(); n];
        for &(u, v) in arcs {
            out[u].push(NodeId::new(v));
        }
        Self::from_out_lists(out)
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.out.len()
    }

    /// Total number of arcs (= sum of out-degrees = sum of budgets in a
    /// game realization).
    pub fn total_arcs(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Targets of the arcs owned by `u`, sorted ascending.
    #[inline]
    pub fn out(&self, u: NodeId) -> &[NodeId] {
        &self.out[u.index()]
    }

    /// Out-degree (number of owned arcs) of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out[u.index()].len()
    }

    /// Does `u` own an arc to `v`?
    #[inline]
    pub fn has_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.out[u.index()].binary_search(&v).is_ok()
    }

    /// Is `{u, v}` a brace (arcs in both directions)?
    pub fn is_brace(&self, u: NodeId, v: NodeId) -> bool {
        self.has_arc(u, v) && self.has_arc(v, u)
    }

    /// Are `u` and `v` adjacent in the underlying undirected graph?
    pub fn adjacent(&self, u: NodeId, v: NodeId) -> bool {
        self.has_arc(u, v) || self.has_arc(v, u)
    }

    /// Add the arc `u → v`.
    ///
    /// # Panics
    /// Panics if the arc already exists, on a self-loop, or if either
    /// endpoint is out of range.
    pub fn add_arc(&mut self, u: NodeId, v: NodeId) {
        assert!(u != v, "self-loop at {u}");
        assert!(v.index() < self.n(), "target {v} out of range");
        let list = &mut self.out[u.index()];
        match list.binary_search(&v) {
            Ok(_) => panic!("arc {u} -> {v} already present"),
            Err(pos) => list.insert(pos, v),
        }
    }

    /// Remove the arc `u → v`.
    ///
    /// # Panics
    /// Panics if the arc is not present.
    pub fn remove_arc(&mut self, u: NodeId, v: NodeId) {
        let list = &mut self.out[u.index()];
        match list.binary_search(&v) {
            Ok(pos) => {
                list.remove(pos);
            }
            Err(_) => panic!("arc {u} -> {v} not present"),
        }
    }

    /// Replace arc `u → old` with `u → new` (the paper's *swap* move).
    ///
    /// # Panics
    /// Panics if `u → old` is absent or `u → new` already present.
    pub fn swap_arc(&mut self, u: NodeId, old: NodeId, new: NodeId) {
        self.remove_arc(u, old);
        self.add_arc(u, new);
    }

    /// Replace `u`'s entire owned-arc set (a full strategy deviation).
    ///
    /// # Panics
    /// Panics on invalid targets (self-loop, duplicate, out of range).
    pub fn set_out(&mut self, u: NodeId, mut targets: Vec<NodeId>) {
        targets.sort_unstable();
        for w in targets.windows(2) {
            assert!(w[0] != w[1], "duplicate target {} for {u}", w[0]);
        }
        for &t in &targets {
            assert!(t.index() < self.n(), "target {t} out of range");
            assert!(t != u, "self-loop at {u}");
        }
        self.out[u.index()] = targets;
    }

    /// Replace `u`'s owned-arc set from a sorted slice, reusing the
    /// existing list's allocation (the deviation engine's mirror calls
    /// this once per applied move; after warm-up it never allocates).
    ///
    /// # Panics
    /// Panics on invalid targets (self-loop, duplicate, unsorted, out
    /// of range).
    pub fn set_out_from_slice(&mut self, u: NodeId, targets: &[NodeId]) {
        for w in targets.windows(2) {
            assert!(w[0] < w[1], "targets of {u} not sorted/deduped");
        }
        for &t in targets {
            assert!(t.index() < self.n(), "target {t} out of range");
            assert!(t != u, "self-loop at {u}");
        }
        let list = &mut self.out[u.index()];
        list.clear();
        list.extend_from_slice(targets);
    }

    /// Iterate over all arcs as `(owner, target)` pairs in owner order.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(u, ts)| ts.iter().map(move |&v| (NodeId::new(u), v)))
    }

    /// Out-degree sequence, indexable by vertex (`deg[u.index()]`) — this
    /// is the budget vector realized by this digraph.
    pub fn out_degrees(&self) -> Vec<usize> {
        self.out.iter().map(Vec::len).collect()
    }

    /// Degree of `u` in the underlying multigraph (owned + incoming arcs;
    /// a brace contributes 2).
    pub fn underlying_degree(&self, u: NodeId) -> usize {
        let incoming: usize = self
            .out
            .iter()
            .enumerate()
            .filter(|&(w, _)| w != u.index())
            .map(|(_, ts)| ts.iter().filter(|&&t| t == u).count())
            .sum();
        self.out_degree(u) + incoming
    }

    /// Number of braces (pairs `{u,v}` with arcs both ways).
    pub fn brace_count(&self) -> usize {
        self.arcs()
            .filter(|&(u, v)| u < v && self.has_arc(v, u))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn build_and_query() {
        let g = OwnedDigraph::from_arcs(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.n(), 4);
        assert_eq!(g.total_arcs(), 4);
        assert!(g.has_arc(v(0), v(1)));
        assert!(!g.has_arc(v(1), v(0)));
        assert!(g.adjacent(v(1), v(0)));
        assert!(!g.adjacent(v(0), v(2)));
        assert_eq!(g.out_degrees(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn braces_are_representable() {
        let g = OwnedDigraph::from_arcs(2, &[(0, 1), (1, 0)]);
        assert!(g.is_brace(v(0), v(1)));
        assert_eq!(g.brace_count(), 1);
        assert_eq!(g.underlying_degree(v(0)), 2);
    }

    #[test]
    fn mutation_roundtrip() {
        let mut g = OwnedDigraph::empty(3);
        g.add_arc(v(0), v(1));
        g.add_arc(v(0), v(2));
        assert_eq!(g.out(v(0)), &[v(1), v(2)]);
        g.remove_arc(v(0), v(1));
        assert_eq!(g.out(v(0)), &[v(2)]);
        g.set_out(v(0), vec![v(1)]);
        assert_eq!(g.out(v(0)), &[v(1)]);
        g.swap_arc(v(0), v(1), v(2));
        assert_eq!(g.out(v(0)), &[v(2)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        OwnedDigraph::from_arcs(2, &[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate arc")]
    fn rejects_duplicate_arc() {
        OwnedDigraph::from_arcs(3, &[(0, 1), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn rejects_double_add() {
        let mut g = OwnedDigraph::empty(3);
        g.add_arc(v(0), v(1));
        g.add_arc(v(0), v(1));
    }

    #[test]
    fn arcs_iterator_enumerates_all() {
        let g = OwnedDigraph::from_arcs(3, &[(0, 1), (0, 2), (2, 1)]);
        let arcs: Vec<(NodeId, NodeId)> = g.arcs().collect();
        assert_eq!(arcs, vec![(v(0), v(1)), (v(0), v(2)), (v(2), v(1))]);
    }
}
