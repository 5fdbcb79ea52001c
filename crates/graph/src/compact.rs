//! The editable undirected CSR behind every cost kernel.
//!
//! Best-response search changes exactly one player's arcs at a time,
//! so re-deriving the undirected view with
//! [`Csr::from_digraph`](crate::Csr::from_digraph) per
//! deviation — an `O(n + m)` rebuild plus fresh allocations — would
//! dominate dynamics. [`CompactCsr`] keeps the neighbour lists in one
//! arena and edits them in place:
//!
//! * removing the edge `{u, v}` swap-removes one `v` from `u`'s row and
//!   one `u` from `v`'s row — `O(deg)`, leaving a free slot in both;
//! * adding `{u, v}` writes into a free slot; a full row is relocated
//!   alone to the arena tail with 1.5× headroom in `O(deg)`;
//! * [`CompactCsr::replace_strategy`] diffs two sorted target lists and
//!   touches only the arcs that actually change.
//!
//! Rows are allocated at **exactly** their degree, so memory is
//! `O(n + m)` at any scale, and the arena is re-packed only when dead
//! space (abandoned old rows) exceeds the live data — geometric
//! amortization without any per-row reservation. The deviation
//! engine's detach/attach cycle re-adds arcs into the slots it just
//! freed, so opening a session never relocates a row. BFS and
//! component labelling run over this structure through
//! [`Adjacency`] exactly as they do over [`Csr`](crate::Csr).

use crate::adjacency::Adjacency;
use crate::digraph::OwnedDigraph;
use crate::node::NodeId;

/// Re-pack the arena when abandoned row copies occupy more space than
/// the live entries (plus a small floor so tiny graphs never churn).
const COMPACT_FLOOR: usize = 64;

/// Undirected adjacency in an exact-capacity CSR arena, editable in
/// place with per-row relocation instead of whole-arena growth.
#[derive(Clone, Debug)]
pub struct CompactCsr {
    /// Row start of vertex `u` in the arena.
    start: Vec<u32>,
    /// Row capacity (equals the degree after build/compaction; grows
    /// geometrically only for rows that actually overflow).
    cap: Vec<u32>,
    /// Live length of each row (`len[u] ≤ cap[u]`).
    len: Vec<u32>,
    /// Arena of neighbour entries; relocated rows leave dead ranges
    /// behind until the next compaction.
    arena: Vec<NodeId>,
    /// Number of live undirected edge *endpoints* (2 per edge).
    live_entries: usize,
    /// Single-row relocations forced by overflow.
    relocations: u64,
    /// Whole-arena re-packs (the only O(n + m) events).
    compactions: u64,
}

impl CompactCsr {
    /// Build the undirected view of an ownership digraph with zero
    /// per-row slack.
    pub fn from_digraph(g: &OwnedDigraph) -> Self {
        let n = g.n();
        let mut degree = vec![0u32; n];
        for (u, v) in g.arcs() {
            degree[u.index()] += 1;
            degree[v.index()] += 1;
        }
        let mut start = Vec::with_capacity(n);
        let mut acc = 0u32;
        for &d in &degree {
            start.push(acc);
            acc += d;
        }
        let mut len = vec![0u32; n];
        let mut arena = vec![NodeId(0); acc as usize];
        let mut push = |u: NodeId, v: NodeId| {
            let slot = start[u.index()] + len[u.index()];
            arena[slot as usize] = v;
            len[u.index()] += 1;
        };
        for (u, v) in g.arcs() {
            push(u, v);
            push(v, u);
        }
        CompactCsr {
            start,
            cap: degree,
            len,
            arena,
            live_entries: acc as usize,
            relocations: 0,
            compactions: 0,
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
        let lo = self.start[u.index()] as usize;
        &self.arena[lo..lo + self.len[u.index()] as usize]
    }

    /// Degree of `u` in the underlying multigraph.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.len[u.index()] as usize
    }

    /// Single-row relocations forced by overflow so far.
    #[inline]
    pub fn relocations(&self) -> u64 {
        self.relocations
    }

    /// Whole-arena re-packs so far (the only `O(n + m)` edits).
    #[inline]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Is at least one occurrence of the undirected edge `{u, v}` live?
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).contains(&v)
    }

    /// Remove one occurrence of the undirected edge `{u, v}`
    /// (swap-remove in both endpoint rows).
    ///
    /// # Panics
    /// Panics if the edge is not present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) {
        self.remove_half(u, v);
        self.remove_half(v, u);
        self.live_entries -= 2;
    }

    fn remove_half(&mut self, u: NodeId, v: NodeId) {
        let lo = self.start[u.index()] as usize;
        let live = self.len[u.index()] as usize;
        let row = &mut self.arena[lo..lo + live];
        let pos = row
            .iter()
            .position(|&w| w == v)
            .unwrap_or_else(|| panic!("edge {u} - {v} not present"));
        row[pos] = row[live - 1];
        self.len[u.index()] -= 1;
    }

    /// Add one occurrence of the undirected edge `{u, v}`; relocates a
    /// full row to the arena tail instead of re-laying-out everything.
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
        // Compact before either endpoint relocates: a re-pack resets
        // every row's capacity to its length, which would strip the
        // headroom the other endpoint is about to write into.
        let full = |x: NodeId| self.len[x.index()] == self.cap[x.index()];
        if (full(u) || full(v)) && self.arena.len() > 2 * self.live_entries + COMPACT_FLOOR {
            self.compact();
        }
        self.ensure_slot(u);
        self.ensure_slot(v);
        self.add_half(u, v);
        self.add_half(v, u);
        self.live_entries += 2;
    }

    fn add_half(&mut self, u: NodeId, v: NodeId) {
        let slot = self.start[u.index()] + self.len[u.index()];
        self.arena[slot as usize] = v;
        self.len[u.index()] += 1;
    }

    /// Make room for one more entry in `u`'s row: move a full row to
    /// the tail with 1.5× headroom (geometric ⇒ amortized O(1) per
    /// append, and the headroom exists only on rows that actually
    /// grew).
    fn ensure_slot(&mut self, u: NodeId) {
        if self.len[u.index()] < self.cap[u.index()] {
            return;
        }
        let len = self.len[u.index()] as usize;
        let new_cap = len + (len / 2).max(1);
        let old_lo = self.start[u.index()] as usize;
        let new_lo = self.arena.len();
        self.arena.extend_from_within(old_lo..old_lo + len);
        self.arena.resize(new_lo + new_cap, NodeId(0));
        self.start[u.index()] = u32::try_from(new_lo).expect("arena exceeds u32 index space");
        self.cap[u.index()] = new_cap as u32;
        self.relocations += 1;
    }

    /// Re-pack every row at exactly its live length, dropping dead
    /// ranges and overflow headroom.
    fn compact(&mut self) {
        let n = self.n();
        let mut arena = Vec::with_capacity(self.live_entries);
        let mut start = Vec::with_capacity(n);
        for u in 0..n {
            start.push(arena.len() as u32);
            let lo = self.start[u] as usize;
            arena.extend_from_slice(&self.arena[lo..lo + self.len[u] as usize]);
        }
        self.arena = arena;
        self.start = start;
        self.cap.copy_from_slice(&self.len);
        self.compactions += 1;
    }

    /// Swap player `owner`'s neighbour row from strategy `old` to
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

    /// Does this structure describe the same multigraph as `other`?
    /// (Order-insensitive per-vertex comparison; for tests and debug
    /// assertions, allocates two scratch vectors.)
    pub fn same_graph_as<A: Adjacency>(&self, other: &A) -> bool {
        if self.n() != other.n() {
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
            b.extend_from_slice(other.neighbors(u));
            b.sort_unstable();
            if a != b {
                return false;
            }
        }
        true
    }
}

impl Adjacency for CompactCsr {
    #[inline]
    fn n(&self) -> usize {
        CompactCsr::n(self)
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        CompactCsr::neighbors(self, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn path4() -> OwnedDigraph {
        OwnedDigraph::from_arcs(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn from_digraph_matches_csr_with_zero_slack() {
        let g = path4();
        let c = CompactCsr::from_digraph(&g);
        assert!(c.same_graph_as(&Csr::from_digraph(&g)));
        assert_eq!(c.m(), 3);
        assert_eq!(c.degree(v(1)), 2);
        // Slack-free: arena holds exactly the live entries.
        assert_eq!(c.arena.len(), 2 * c.m());
    }

    #[test]
    fn remove_then_add_roundtrips_without_relocation() {
        let g = path4();
        let mut c = CompactCsr::from_digraph(&g);
        c.remove_edge(v(1), v(2));
        assert_eq!(c.m(), 2);
        c.add_edge(v(1), v(2));
        assert!(c.same_graph_as(&Csr::from_digraph(&g)));
        // Removal freed a slot in both rows; re-adding reuses it.
        assert_eq!(c.relocations(), 0);
        assert_eq!(c.compactions(), 0);
    }

    #[test]
    fn overflow_relocates_single_rows() {
        let n = 32;
        let mut c = CompactCsr::from_digraph(&OwnedDigraph::empty(n));
        for u in 1..n {
            c.add_edge(v(0), v(u));
        }
        assert_eq!(c.degree(v(0)), n - 1);
        assert!(c.relocations() > 0);
        let star: Vec<(usize, usize)> = (1..n).map(|u| (0, u)).collect();
        assert!(c.same_graph_as(&Csr::from_edges(n, &star)));
    }

    #[test]
    fn dead_space_stays_bounded() {
        // Many relocations on one hub: compaction must keep the arena
        // within a constant factor of the live entries.
        let n = 4096;
        let mut c = CompactCsr::from_digraph(&OwnedDigraph::empty(n));
        for u in 1..n {
            c.add_edge(v(0), v(u));
        }
        assert!(
            c.arena.len() <= 2 * c.live_entries + COMPACT_FLOOR + 2 * n,
            "arena {} vs live {}",
            c.arena.len(),
            c.live_entries
        );
        // Every zero-capacity leaf relocates once (O(1) each); beyond
        // that, geometric row growth keeps per-row relocations
        // logarithmic — the hub contributes only O(log n) of them.
        assert!(
            c.relocations() <= n as u64 + 32,
            "got {} relocations",
            c.relocations()
        );
    }

    #[test]
    fn compaction_keeps_the_other_endpoints_free_slot() {
        // Dead space from the hub's relocations outweighs the 3 edges
        // left, so the next full row compacts the arena. Row 1 has a
        // free slot going in; the re-pack must not strip it before
        // `add_edge` writes there, or the write lands in row 2.
        let n = 40;
        let mut c = CompactCsr::from_digraph(&OwnedDigraph::empty(n));
        for u in 1..n {
            c.add_edge(v(0), v(u));
        }
        for u in (1..n).filter(|&u| ![2, n - 2, n - 1].contains(&u)) {
            c.remove_edge(v(0), v(u));
        }
        c.add_edge(v(1), v(n - 1));
        let edges = [(0, 2), (0, n - 2), (0, n - 1), (1, n - 1)];
        assert!(c.same_graph_as(&Csr::from_edges(n, &edges)));
        assert_eq!(c.compactions(), 1);
    }

    #[test]
    fn braces_keep_multiplicity() {
        let g = OwnedDigraph::from_arcs(2, &[(0, 1), (1, 0)]);
        let mut c = CompactCsr::from_digraph(&g);
        assert_eq!(c.degree(v(0)), 2);
        c.remove_edge(v(0), v(1));
        assert_eq!(c.degree(v(0)), 1);
        assert_eq!(c.degree(v(1)), 1);
        assert!(c.has_edge(v(0), v(1)));
    }

    #[test]
    fn replace_strategy_applies_minimal_diff() {
        let g = OwnedDigraph::from_arcs(4, &[(1, 0), (1, 2)]);
        let mut c = CompactCsr::from_digraph(&g);
        c.replace_strategy(v(1), &[v(0), v(2)], &[v(2), v(3)]);
        let mut expect = g.clone();
        expect.set_out(v(1), vec![v(2), v(3)]);
        assert!(c.same_graph_as(&Csr::from_digraph(&expect)));
    }

    #[test]
    fn epochs_track_presence_vs_multiplicity() {
        let g = OwnedDigraph::from_arcs(3, &[(0, 1), (1, 0)]);
        let mut c = CompactCsr::from_digraph(&g);
        c.remove_edge(v(0), v(1));
        assert!(c.has_edge(v(0), v(1)), "brace half kept presence");
        c.remove_edge(v(0), v(1));
        assert!(!c.has_edge(v(0), v(1)), "last occurrence removed");
        // Re-adding restores presence; doubling it back into a brace
        // is multiplicity only.
        c.add_edge(v(0), v(1));
        c.add_edge(v(1), v(0));
        assert!(c.has_edge(v(1), v(0)));
        assert_eq!(c.neighbors(v(0)), &[v(1), v(1)]);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn removing_absent_edge_panics() {
        let mut c = CompactCsr::from_digraph(&path4());
        c.remove_edge(v(0), v(3));
    }

    #[test]
    fn bfs_runs_over_compact_adjacency() {
        let mut c = CompactCsr::from_digraph(&path4());
        let mut bfs = crate::BfsScratch::new(4);
        let stats = bfs.run(&c, v(0));
        assert_eq!(stats.visited, 4);
        c.replace_strategy(v(2), &[v(1), v(3)], &[v(0)]);
        let stats = bfs.run(&c, v(0));
        assert_eq!(stats.visited, 3);
        assert_eq!(bfs.dist(v(3)), None);
    }
}
