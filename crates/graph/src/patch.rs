//! An undirected CSR that can be edited in place.
//!
//! Best-response search changes exactly one player's arcs at a time,
//! but the seed implementation re-derived the whole undirected view
//! with [`Csr::from_digraph`] — an `O(n + m)` rebuild plus three fresh
//! allocations — for every deviation context. [`PatchableCsr`] stores
//! the same neighbour lists in one arena but gives every vertex's
//! block a little *slack* capacity, so swapping one vertex's
//! neighbours is a handful of in-block writes:
//!
//! * removing the edge `{u, v}` swap-removes one `v` from `u`'s block
//!   and one `u` from `v`'s block — `O(deg)`;
//! * adding `{u, v}` appends into the slack — `O(1)` amortized;
//! * [`PatchableCsr::replace_strategy`] diffs two sorted target lists
//!   and only touches the arcs that actually change.
//!
//! When an append finds its block full the arena is re-laid-out with
//! doubled slack for the overflowing vertices ([`PatchableCsr::rebuilds`]
//! counts these; geometric growth makes them amortized-free). BFS and
//! component labelling run over this structure through the
//! [`Adjacency`] trait exactly as they do over [`Csr`] — neighbour
//! blocks stay contiguous, so the cache behaviour of the hot loop is
//! unchanged.

use crate::adjacency::Adjacency;
use crate::csr::Csr;
use crate::digraph::OwnedDigraph;
use crate::node::NodeId;

/// Baseline slack reserved per vertex beyond its initial degree: one
/// deviation can raise a vertex's in-degree by at most the deviating
/// player's budget, but by exactly 1 per *arc*, so a small constant
/// absorbs almost every move sequence without re-layout.
const BASE_SLACK: u32 = 4;

/// Undirected adjacency in a slack-padded CSR arena, editable in place.
#[derive(Clone, Debug)]
pub struct PatchableCsr {
    /// `offsets[u] .. offsets[u + 1]` bounds vertex `u`'s *capacity*.
    offsets: Vec<u32>,
    /// Live length of each vertex's block (`len[u] ≤ capacity`).
    len: Vec<u32>,
    /// Arena of neighbour entries; `offsets[u] .. offsets[u] + len[u]`
    /// is live, the rest of the block is slack.
    targets: Vec<NodeId>,
    /// Number of live undirected edge *endpoints* (2 per edge).
    live_entries: usize,
    /// How many arena re-layouts block overflow has forced.
    rebuilds: u64,
    /// Bumped on **every** structural edit (edge added or removed,
    /// multiplicity changes included).
    edge_epoch: u64,
}

impl PatchableCsr {
    /// Build the undirected view of an ownership digraph, reserving
    /// [`BASE_SLACK`] spare slots per vertex.
    pub fn from_digraph(g: &OwnedDigraph) -> Self {
        let n = g.n();
        let mut degree = vec![0u32; n];
        for (u, v) in g.arcs() {
            degree[u.index()] += 1;
            degree[v.index()] += 1;
        }
        Self::with_layout(n, &degree, BASE_SLACK, |push| {
            for (u, v) in g.arcs() {
                push(u, v);
                push(v, u);
            }
        })
    }

    /// Shared arena-layout constructor: capacities are
    /// `degree[u] + slack`, entries are streamed through `fill`.
    fn with_layout(
        n: usize,
        degree: &[u32],
        slack: u32,
        fill: impl FnOnce(&mut dyn FnMut(NodeId, NodeId)),
    ) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in degree {
            acc += d + slack;
            offsets.push(acc);
        }
        let mut len = vec![0u32; n];
        let mut targets = vec![NodeId(0); acc as usize];
        let mut live_entries = 0usize;
        fill(&mut |u: NodeId, v: NodeId| {
            let slot = offsets[u.index()] + len[u.index()];
            targets[slot as usize] = v;
            len[u.index()] += 1;
            live_entries += 1;
        });
        PatchableCsr {
            offsets,
            len,
            targets,
            live_entries,
            rebuilds: 0,
            edge_epoch: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.len.len()
    }

    /// Number of undirected edges counted with multiplicity.
    #[inline]
    pub fn m(&self) -> usize {
        self.live_entries / 2
    }

    /// Neighbours of `u` (with multiplicity, in no particular order).
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.offsets[u.index()] as usize;
        &self.targets[lo..lo + self.len[u.index()] as usize]
    }

    /// Degree of `u` in the underlying multigraph.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.len[u.index()] as usize
    }

    /// How many arena re-layouts block overflow has forced. The
    /// deviation engine's tests pin this at 0 for whole dynamics runs;
    /// a nonzero value is not an error, just amortized growth.
    #[inline]
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Structural-edit counter: increases on every [`Self::add_edge`] /
    /// [`Self::remove_edge`], multiplicity-only changes included.
    /// Comparing two readings tells whether *any* edit happened between
    /// them.
    #[inline]
    pub fn edge_epoch(&self) -> u64 {
        self.edge_epoch
    }

    /// Is at least one occurrence of the undirected edge `{u, v}` live?
    /// (Linear scan of `u`'s block; blocks are small in game profiles.)
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).contains(&v)
    }

    #[inline]
    fn capacity(&self, u: NodeId) -> u32 {
        self.offsets[u.index() + 1] - self.offsets[u.index()]
    }

    /// Remove one occurrence of the undirected edge `{u, v}`
    /// (swap-remove in both endpoint blocks).
    ///
    /// # Panics
    /// Panics if the edge is not present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) {
        self.remove_half(u, v);
        self.remove_half(v, u);
        self.live_entries -= 2;
        self.edge_epoch += 1;
    }

    fn remove_half(&mut self, u: NodeId, v: NodeId) {
        let lo = self.offsets[u.index()] as usize;
        let live = self.len[u.index()] as usize;
        let block = &mut self.targets[lo..lo + live];
        let pos = block
            .iter()
            .position(|&w| w == v)
            .unwrap_or_else(|| panic!("edge {u} - {v} not present"));
        block[pos] = block[live - 1];
        self.len[u.index()] -= 1;
    }

    /// Add one occurrence of the undirected edge `{u, v}`; grows the
    /// arena if either endpoint's block is full.
    ///
    /// # Panics
    /// Panics on a self-loop or an out-of-range endpoint.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u != v, "self-loop at {u}");
        assert!(
            u.index() < self.n() && v.index() < self.n(),
            "edge {u} - {v} out of range (n = {})",
            self.n()
        );
        let u_full = self.len[u.index()] == self.capacity(u);
        let v_full = self.len[v.index()] == self.capacity(v);
        if u_full || v_full {
            let mut overflowing = [u; 2];
            let mut count = 0;
            if u_full {
                overflowing[count] = u;
                count += 1;
            }
            if v_full {
                overflowing[count] = v;
                count += 1;
            }
            self.grow(&overflowing[..count]);
        }
        self.add_half(u, v);
        self.add_half(v, u);
        self.live_entries += 2;
        self.edge_epoch += 1;
    }

    fn add_half(&mut self, u: NodeId, v: NodeId) {
        let slot = self.offsets[u.index()] + self.len[u.index()];
        self.targets[slot as usize] = v;
        self.len[u.index()] += 1;
    }

    /// Re-lay-out the arena: no vertex's capacity ever shrinks (so
    /// headroom granted by earlier growths is kept — shrinking would
    /// let two vertices ping-pong re-layouts forever), every vertex
    /// keeps at least [`BASE_SLACK`] beyond its current degree, and
    /// the overflowing vertices double (geometric growth ⇒ amortized
    /// O(1) appends).
    fn grow(&mut self, overflowing: &[NodeId]) {
        let n = self.n();
        let mut capacity: Vec<u32> = (0..n)
            .map(|u| (self.offsets[u + 1] - self.offsets[u]).max(self.len[u] + BASE_SLACK))
            .collect();
        for &u in overflowing {
            capacity[u.index()] = (capacity[u.index()] + BASE_SLACK) * 2;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &capacity {
            acc += c;
            offsets.push(acc);
        }
        let mut targets = vec![NodeId(0); acc as usize];
        for u in 0..n {
            let old_lo = self.offsets[u] as usize;
            let new_lo = offsets[u] as usize;
            let live = self.len[u] as usize;
            targets[new_lo..new_lo + live].copy_from_slice(&self.targets[old_lo..old_lo + live]);
        }
        self.offsets = offsets;
        self.targets = targets;
        self.rebuilds += 1;
    }

    /// Swap player `owner`'s neighbour block from strategy `old` to
    /// strategy `new` (both sorted ascending, as [`OwnedDigraph`]
    /// stores them): each owned arc `owner → t` contributes the
    /// undirected edge `{owner, t}`. Arcs present in both lists are
    /// left untouched, so the cost is proportional to the *diff*, not
    /// the budget.
    pub fn replace_strategy(&mut self, owner: NodeId, old: &[NodeId], new: &[NodeId]) {
        debug_assert!(old.windows(2).all(|w| w[0] < w[1]), "old not sorted");
        debug_assert!(new.windows(2).all(|w| w[0] < w[1]), "new not sorted");
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < new.len() {
            match (old.get(i), new.get(j)) {
                (Some(&o), Some(&t)) if o == t => {
                    i += 1;
                    j += 1;
                }
                (Some(&o), Some(&t)) if o < t => {
                    self.remove_edge(owner, o);
                    i += 1;
                }
                (Some(_), Some(&t)) => {
                    self.add_edge(owner, t);
                    j += 1;
                }
                (Some(&o), None) => {
                    self.remove_edge(owner, o);
                    i += 1;
                }
                (None, Some(&t)) => {
                    self.add_edge(owner, t);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
    }

    /// Does this structure describe the same multigraph as `csr`?
    /// (Order-insensitive per-vertex comparison; intended for tests
    /// and debug assertions, allocates two scratch vectors.)
    pub fn same_graph_as(&self, csr: &Csr) -> bool {
        if self.n() != csr.n() {
            return false;
        }
        let mut a: Vec<NodeId> = Vec::new();
        let mut b: Vec<NodeId> = Vec::new();
        for u in 0..self.n() {
            let u = NodeId::new(u);
            a.clear();
            a.extend_from_slice(self.neighbors(u));
            a.sort_unstable();
            b.clear();
            b.extend_from_slice(Adjacency::neighbors(csr, u));
            b.sort_unstable();
            if a != b {
                return false;
            }
        }
        true
    }
}

impl Adjacency for PatchableCsr {
    #[inline]
    fn n(&self) -> usize {
        PatchableCsr::n(self)
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        PatchableCsr::neighbors(self, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn path4() -> OwnedDigraph {
        OwnedDigraph::from_arcs(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn from_digraph_matches_csr() {
        let g = path4();
        let patch = PatchableCsr::from_digraph(&g);
        assert!(patch.same_graph_as(&Csr::from_digraph(&g)));
        assert_eq!(patch.m(), 3);
        assert_eq!(patch.degree(v(1)), 2);
    }

    #[test]
    fn remove_then_add_roundtrips() {
        let g = path4();
        let mut patch = PatchableCsr::from_digraph(&g);
        patch.remove_edge(v(1), v(2));
        assert_eq!(patch.m(), 2);
        assert_eq!(patch.degree(v(2)), 1);
        patch.add_edge(v(1), v(2));
        assert!(patch.same_graph_as(&Csr::from_digraph(&g)));
        assert_eq!(patch.rebuilds(), 0);
    }

    #[test]
    fn braces_keep_multiplicity() {
        let g = OwnedDigraph::from_arcs(2, &[(0, 1), (1, 0)]);
        let mut patch = PatchableCsr::from_digraph(&g);
        assert_eq!(patch.degree(v(0)), 2);
        // Removing one half of the brace leaves a simple edge.
        patch.remove_edge(v(0), v(1));
        assert_eq!(patch.degree(v(0)), 1);
        assert_eq!(patch.degree(v(1)), 1);
    }

    #[test]
    fn replace_strategy_applies_minimal_diff() {
        // Player 1 owns {0, 2}; deviate to {2, 3}: only 1-0 removed,
        // 1-3 added, the shared arc 1→2 untouched.
        let g = OwnedDigraph::from_arcs(4, &[(1, 0), (1, 2)]);
        let mut patch = PatchableCsr::from_digraph(&g);
        patch.replace_strategy(v(1), &[v(0), v(2)], &[v(2), v(3)]);
        let mut expect = g.clone();
        expect.set_out(v(1), vec![v(2), v(3)]);
        assert!(patch.same_graph_as(&Csr::from_digraph(&expect)));
    }

    #[test]
    fn overflow_grows_arena_and_counts_it() {
        // Funnel everyone's arc onto vertex 0 until its slack bursts.
        let n = 32;
        let g = OwnedDigraph::empty(n);
        let mut patch = PatchableCsr::from_digraph(&g);
        for u in 1..n {
            patch.add_edge(v(0), v(u));
        }
        assert_eq!(patch.degree(v(0)), n - 1);
        assert!(patch.rebuilds() > 0);
        // Graph content survives the re-layouts.
        let star: Vec<(usize, usize)> = (1..n).map(|u| (0, u)).collect();
        let csr = Csr::from_edges(n, &star);
        assert!(patch.same_graph_as(&csr));
    }

    #[test]
    fn alternating_growth_stays_amortized() {
        // Alternate appends onto two hub vertices: capacities must
        // never shrink on re-layout, so total re-layouts stay
        // logarithmic instead of one per BASE_SLACK appends.
        let n = 512;
        let g = OwnedDigraph::empty(n);
        let mut patch = PatchableCsr::from_digraph(&g);
        for t in 2..n {
            patch.add_edge(v(t % 2), v(t));
        }
        assert_eq!(patch.degree(v(0)) + patch.degree(v(1)), n - 2);
        assert!(
            patch.rebuilds() <= 16,
            "ping-pong growth must stay geometric, got {} re-layouts",
            patch.rebuilds()
        );
    }

    #[test]
    fn bfs_runs_over_patchable_adjacency() {
        let g = path4();
        let mut patch = PatchableCsr::from_digraph(&g);
        let mut bfs = crate::BfsScratch::new(4);
        let stats = bfs.run(&patch, v(0));
        assert_eq!(stats.visited, 4);
        assert_eq!(bfs.dist(v(3)), Some(3));
        // Rewire 2→3 to 2→0 in place; v3 falls off.
        patch.replace_strategy(v(2), &[v(3)], &[v(0)]);
        let stats = bfs.run(&patch, v(0));
        assert_eq!(stats.visited, 3);
        assert_eq!(bfs.dist(v(3)), None);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn removing_absent_edge_panics() {
        let mut patch = PatchableCsr::from_digraph(&path4());
        patch.remove_edge(v(0), v(3));
    }

    #[test]
    fn epochs_track_presence_vs_multiplicity() {
        // Brace {0,1}: every edit moves the edge epoch, multiplicity
        // changes included, while presence drops only with the last
        // occurrence.
        let g = OwnedDigraph::from_arcs(3, &[(0, 1), (1, 0)]);
        let mut patch = PatchableCsr::from_digraph(&g);
        assert_eq!(patch.edge_epoch(), 0);
        assert!(patch.has_edge(v(0), v(1)));

        patch.remove_edge(v(0), v(1));
        assert_eq!(patch.edge_epoch(), 1);
        assert!(patch.has_edge(v(0), v(1)), "brace half kept presence");

        patch.remove_edge(v(0), v(1));
        assert_eq!(patch.edge_epoch(), 2);
        assert!(!patch.has_edge(v(0), v(1)), "last occurrence removed");

        // Re-adding restores presence; doubling it back into a brace
        // is multiplicity only, and still an edit.
        patch.add_edge(v(0), v(1));
        patch.add_edge(v(1), v(0));
        assert_eq!(patch.edge_epoch(), 4);
        assert!(patch.has_edge(v(1), v(0)));
        assert_eq!(patch.neighbors(v(0)), &[v(1), v(1)]);
    }
}
