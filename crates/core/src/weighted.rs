//! The Section 6 machinery: weighted graphs, weak equilibria, and
//! poor-leaf folding.
//!
//! The proof of the 2^O(√log n) SUM bound (Theorem 6.9) rests on
//! Theorem 6.1, whose proof introduces:
//!
//! * **vertex weights** `w : V → Z⁺` with cost
//!   `c(u) = Σ_v w(v)·dist(u,v)`;
//! * **weak equilibria** — no vertex can improve by swapping *one* of
//!   its arcs (every Nash equilibrium is a weak equilibrium);
//! * **poor leaves** (degree-1, out-degree 0) which can be **folded**
//!   into their neighbour — transferring their weight — while
//!   preserving weak equilibrium;
//! * **rich leaves** (degree-1, out-degree 1), any two of which are
//!   within distance 2 in a weak equilibrium (Lemma 6.4);
//! * **Lemma 6.2**: an induced subtree of a weak equilibrium hanging
//!   off the rest of the graph has height ≤ 1 + log₂ w(T).
//!
//! Everything here is executable and checked in tests on the paper's
//! own objects: folding a SUM equilibrium's leaves must preserve weak
//! equilibrium (the key step of Corollary 6.3), and the folded trees
//! must satisfy the height/weight bound.
//!
//! Hot-path note: the only remaining [`Csr::from_digraph`] here is the
//! constructor's one-time build of the cached view. Swap pricing
//! ([`WeightedGraph::is_weak_equilibrium`]) and leaf folding
//! ([`WeightedGraph::fold_poor_leaves`]) edit a [`CompactCsr`] in
//! place, per the deviation-engine discipline.

use crate::cost::c_inf;
use bbncg_graph::{Adjacency, BfsScratch, CompactCsr, Csr, NodeId, OwnedDigraph};

/// A vertex-weighted ownership digraph for the SUM game (Section 6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedGraph {
    g: OwnedDigraph,
    csr: Csr,
    weight: Vec<u64>,
}

impl WeightedGraph {
    /// Wrap a digraph with unit weights (the unweighted game).
    pub fn unit(g: OwnedDigraph) -> Self {
        let n = g.n();
        Self::with_weights(g, vec![1; n])
    }

    /// Wrap a digraph with the given positive weights.
    ///
    /// # Panics
    /// Panics if a weight is zero or the lengths mismatch.
    pub fn with_weights(g: OwnedDigraph, weight: Vec<u64>) -> Self {
        assert_eq!(g.n(), weight.len(), "one weight per vertex");
        assert!(weight.iter().all(|&w| w > 0), "weights must be positive");
        let csr = Csr::from_digraph(&g);
        WeightedGraph { g, csr, weight }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.g.n()
    }

    /// The underlying digraph.
    pub fn graph(&self) -> &OwnedDigraph {
        &self.g
    }

    /// Weight of a vertex.
    pub fn weight(&self, u: NodeId) -> u64 {
        self.weight[u.index()]
    }

    /// Total weight `w(G)` — invariant under folding.
    pub fn total_weight(&self) -> u64 {
        self.weight.iter().sum()
    }

    /// Weighted SUM cost of `u`: `Σ_v w(v)·dist(u, v)`, with
    /// cross-component distance `C_inf = n²` (n = current vertex count).
    pub fn cost(&self, u: NodeId, scratch: &mut BfsScratch) -> u64 {
        self.cost_over(&self.csr, u, scratch)
    }

    /// Weighted SUM cost of `u` over any adjacency (shared by the
    /// cached view and the in-place swap evaluation).
    fn cost_over<A: Adjacency + ?Sized>(
        &self,
        adj: &A,
        u: NodeId,
        scratch: &mut BfsScratch,
    ) -> u64 {
        scratch.run(adj, u);
        let cinf = c_inf(self.n());
        let mut total = 0u64;
        for v in 0..self.n() {
            let v = NodeId::new(v);
            let d = match scratch.dist(v) {
                Some(d) => d as u64,
                None => cinf,
            };
            total += d * self.weight[v.index()];
        }
        total
    }

    /// Cost of `u` if the arc `u → old` is replaced by `u → new`
    /// (single-swap deviation — the weak-equilibrium move set). The
    /// swap is applied to `patch` in place and reverted before
    /// returning: no graph rebuild per candidate.
    fn swap_cost(
        &self,
        patch: &mut CompactCsr,
        u: NodeId,
        old: NodeId,
        new: NodeId,
        scratch: &mut BfsScratch,
    ) -> u64 {
        patch.remove_edge(u, old);
        patch.add_edge(u, new);
        let total = self.cost_over(patch, u, scratch);
        patch.remove_edge(u, new);
        patch.add_edge(u, old);
        total
    }

    /// Is this a **weak equilibrium**: no single-arc swap strictly
    /// decreases any owner's weighted cost? Candidate swaps are priced
    /// through one in-place-patched adjacency (the deviation-engine
    /// discipline), not per-swap rebuilds.
    pub fn is_weak_equilibrium(&self) -> bool {
        let n = self.n();
        let mut scratch = BfsScratch::new(n);
        let mut patch = CompactCsr::from_digraph(&self.g);
        for u in 0..n {
            let u = NodeId::new(u);
            if self.g.out_degree(u) == 0 {
                continue;
            }
            let current = self.cost(u, &mut scratch);
            for &old in self.g.out(u) {
                for new in 0..n {
                    let new = NodeId::new(new);
                    if new == u || self.g.has_arc(u, new) {
                        continue;
                    }
                    if self.swap_cost(&mut patch, u, old, new, &mut scratch) < current {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Degree-1 vertices with out-degree 0 (their single edge is owned
    /// by the neighbour): the paper's **poor leaves**.
    pub fn poor_leaves(&self) -> Vec<NodeId> {
        (0..self.n())
            .map(NodeId::new)
            .filter(|&u| self.csr.degree(u) == 1 && self.g.out_degree(u) == 0)
            .collect()
    }

    /// Degree-1 vertices with out-degree 1: the paper's **rich leaves**.
    pub fn rich_leaves(&self) -> Vec<NodeId> {
        (0..self.n())
            .map(NodeId::new)
            .filter(|&u| self.csr.degree(u) == 1 && self.g.out_degree(u) == 1)
            .collect()
    }

    /// Fold every poor leaf into its neighbour, repeatedly, until none
    /// remain (Corollary 6.3's preprocessing). Folding leaf `l` with
    /// supporting arc `u → l` removes `l` and adds `w(l)` to `w(u)`.
    /// Total weight is preserved; the paper shows weak equilibrium is
    /// too (asserted in tests, not here).
    ///
    /// Returns the folded graph and, for each surviving old vertex, its
    /// new id (`None` for folded-away vertices).
    pub fn fold_poor_leaves(&self) -> (WeightedGraph, Vec<Option<NodeId>>) {
        let n = self.n();
        let mut weight = self.weight.clone();
        let mut alive = vec![true; n];
        // Work on adjacencies we can edit in place: owner -> targets,
        // plus the live undirected view (degrees stay current across
        // folds, so no rebuild between iterations).
        let mut g = self.g.clone();
        let mut patch = CompactCsr::from_digraph(&g);
        loop {
            let mut folded_any = false;
            for l in 0..n {
                let l = NodeId::new(l);
                if !alive[l.index()] || patch.degree(l) != 1 || g.out_degree(l) != 0 {
                    continue;
                }
                // The unique neighbour owns the supporting arc.
                let u = patch.neighbors(l)[0];
                g.remove_arc(u, l);
                patch.remove_edge(u, l);
                weight[u.index()] += weight[l.index()];
                alive[l.index()] = false;
                folded_any = true;
            }
            if !folded_any {
                break;
            }
        }
        // Compact to the surviving vertices.
        let mut mapping: Vec<Option<NodeId>> = vec![None; n];
        let mut next = 0usize;
        for v in 0..n {
            if alive[v] {
                mapping[v] = Some(NodeId::new(next));
                next += 1;
            }
        }
        let mut out_lists: Vec<Vec<NodeId>> = vec![Vec::new(); next];
        for (u, v) in g.arcs() {
            let nu = mapping[u.index()].expect("owner alive");
            let nv = mapping[v.index()].expect("target alive");
            out_lists[nu.index()].push(nv);
        }
        let new_weights: Vec<u64> = (0..n).filter(|&v| alive[v]).map(|v| weight[v]).collect();
        let folded =
            WeightedGraph::with_weights(OwnedDigraph::from_out_lists(out_lists), new_weights);
        (folded, mapping)
    }

    /// Lemma 6.5 preprocessing: count the edges `uv` of a path whose
    /// endpoints **both** have degree 2 — the edges the Theorem 6.1
    /// proof contracts. The lemma: on any unique-shortest path of a
    /// weak equilibrium there are at most `O(log w(P))` such edges, so
    /// contracting them shrinks distances by at most a log factor.
    ///
    /// Returns `(contractible_edges, lemma_bound)` for the tree path
    /// from `a` to `b`, where the bound is `2·(log₂ w(P) + 2)`.
    /// `None` if the graph is not a connected tree (paths in trees are
    /// automatically unique shortest paths, which is the lemma's
    /// hypothesis).
    pub fn path_contraction_stats(&self, a: NodeId, b: NodeId) -> Option<(usize, usize)> {
        let n = self.n();
        if n == 0 || self.csr.m() != n - 1 {
            return None;
        }
        let mut scratch = BfsScratch::new(n);
        let stats = scratch.run(&self.csr, a);
        if !stats.spanned(n) {
            return None;
        }
        // Trace the a-b tree path.
        let mut path = vec![b];
        let mut cur = b;
        while cur != a {
            let d = scratch.dist(cur)?;
            let parent = self
                .csr
                .neighbors(cur)
                .iter()
                .copied()
                .find(|&w| scratch.dist(w) == Some(d - 1))?;
            path.push(parent);
            cur = parent;
        }
        path.reverse();
        let path_weight: u64 = path.iter().map(|&v| self.weight(v)).sum();
        let contractible = path
            .windows(2)
            .filter(|w| self.csr.degree(w[0]) == 2 && self.csr.degree(w[1]) == 2)
            .count();
        let bound = 2 * ((path_weight as f64).log2().ceil() as usize + 2);
        Some((contractible, bound))
    }

    /// Largest pairwise distance between rich leaves, or `None` when
    /// fewer than two exist. Lemma 6.4: ≤ 2 in any weak equilibrium.
    pub fn max_rich_leaf_distance(&self) -> Option<u32> {
        let rich = self.rich_leaves();
        if rich.len() < 2 {
            return None;
        }
        let mut scratch = BfsScratch::new(self.n());
        let mut best = 0;
        for (i, &a) in rich.iter().enumerate() {
            scratch.run(&self.csr, a);
            for &b in &rich[i + 1..] {
                match scratch.dist(b) {
                    Some(d) => best = best.max(d),
                    None => return Some(u32::MAX),
                }
            }
        }
        Some(best)
    }

    /// Height of the tree rooted at `root` (`None` if the graph is not
    /// a connected tree), together with the Lemma 6.2 bound
    /// `1 + log₂ w(G)`. In a weak equilibrium tree with all arcs
    /// pointing away from the root, height ≤ bound must hold.
    pub fn tree_height_and_lemma62_bound(&self, root: NodeId) -> Option<(u32, u32)> {
        let n = self.n();
        if n == 0 || self.csr.m() != n - 1 {
            return None;
        }
        let mut scratch = BfsScratch::new(n);
        let stats = scratch.run(&self.csr, root);
        if !stats.spanned(n) {
            return None;
        }
        let bound = 1 + (self.total_weight() as f64).log2().floor() as u32;
        Some((stats.max_dist, bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbncg_graph::generators;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn unit_weights_cost_matches_realization() {
        let g = generators::path(5);
        let r = crate::realization::Realization::new(g.clone());
        let wg = WeightedGraph::unit(g);
        let mut scratch = BfsScratch::new(5);
        for u in 0..5 {
            assert_eq!(
                wg.cost(v(u), &mut scratch),
                r.cost(v(u), crate::cost::CostModel::Sum)
            );
        }
    }

    #[test]
    fn nash_implies_weak_equilibrium() {
        // The binary tree SUM equilibrium must also be a weak
        // equilibrium (swap moves are a subset of deviations).
        let wg = WeightedGraph::unit(generators::perfect_binary_tree(2));
        assert!(wg.is_weak_equilibrium());
    }

    #[test]
    fn directed_path_is_not_weak_equilibrium() {
        let wg = WeightedGraph::unit(generators::path(6));
        assert!(!wg.is_weak_equilibrium());
    }

    #[test]
    fn leaf_classification() {
        // 0 -> 1 -> 2 and 3 -> 2: leaves are 0 (rich: owns its edge)
        // and 3 (rich). Add 1 -> 4 to create a poor leaf 4.
        let g = OwnedDigraph::from_arcs(5, &[(0, 1), (1, 2), (3, 2), (1, 4)]);
        let wg = WeightedGraph::unit(g);
        assert_eq!(wg.poor_leaves(), vec![v(4)]);
        assert_eq!(wg.rich_leaves(), vec![v(0), v(3)]);
    }

    #[test]
    fn folding_transfers_weight_and_preserves_total() {
        // Star: hub 0 owns arcs to 4 poor leaves.
        let wg = WeightedGraph::unit(generators::star(5));
        assert_eq!(wg.poor_leaves().len(), 4);
        let (folded, mapping) = wg.fold_poor_leaves();
        assert_eq!(folded.n(), 1);
        assert_eq!(folded.total_weight(), 5);
        assert_eq!(folded.weight(v(0)), 5);
        assert_eq!(mapping[0], Some(v(0)));
        assert_eq!(mapping[1], None);
    }

    #[test]
    fn folding_binary_tree_preserves_weak_equilibrium() {
        // The paper's key step (Corollary 6.3): folding a weak
        // equilibrium's poor leaves yields a weak equilibrium.
        let wg = WeightedGraph::unit(generators::perfect_binary_tree(3)); // n = 15
        assert!(wg.is_weak_equilibrium());
        let (folded, _) = wg.fold_poor_leaves();
        // All 8 leaves fold into their parents; then those parents
        // become poor leaves and fold too, and so on up to the root.
        assert_eq!(folded.n(), 1);
        assert_eq!(folded.total_weight(), 15);
    }

    #[test]
    fn folding_stops_at_rich_leaves() {
        // 1 -> 0, 2 -> 0: vertices 1, 2 are rich leaves (they own their
        // edges) — folding must not touch them.
        let g = OwnedDigraph::from_arcs(3, &[(1, 0), (2, 0)]);
        let wg = WeightedGraph::unit(g);
        assert!(wg.poor_leaves().is_empty());
        let (folded, _) = wg.fold_poor_leaves();
        assert_eq!(folded.n(), 3);
    }

    #[test]
    fn partially_folded_tree_is_weak_equilibrium_with_weights() {
        // Fold only the deepest layer of a binary tree by hand: parents
        // of leaves get weight 3 (self + 2 children). The resulting
        // weighted tree must still be a weak equilibrium (Lemma 6.2's
        // setting, mechanized).
        let h = 3u32;
        let n = (1usize << (h + 1)) - 1;
        let mut arcs = Vec::new();
        let internal = (1usize << h) - 1; // vertices with children
        for i in 0..internal {
            arcs.push((i, 2 * i + 1));
            arcs.push((i, 2 * i + 2));
        }
        let full = OwnedDigraph::from_arcs(n, &arcs);
        assert_eq!(full.n(), 15);
        // Drop the 8 leaves, weight their parents 1 + 2 = 3.
        let keep = internal; // 7 vertices
        let mut kept_arcs = Vec::new();
        for i in 0..(keep - 1) / 2 {
            kept_arcs.push((i, 2 * i + 1));
            kept_arcs.push((i, 2 * i + 2));
        }
        let g = OwnedDigraph::from_arcs(keep, &kept_arcs);
        let mut weights = vec![1u64; keep];
        for p in (keep - 1) / 2..keep {
            weights[p] = 3;
        }
        let wg = WeightedGraph::with_weights(g, weights);
        assert!(wg.is_weak_equilibrium());
        let (height, bound) = wg.tree_height_and_lemma62_bound(v(0)).unwrap();
        assert!(height <= bound, "height {height} > Lemma 6.2 bound {bound}");
    }

    #[test]
    fn lemma_6_5_contraction_stats_on_equilibria() {
        // Binary tree SUM equilibrium: no internal vertex of the
        // diametral path has degree 2 (root and internals have 3), so
        // nothing is contractible and the bound holds trivially.
        let wg = WeightedGraph::unit(generators::perfect_binary_tree(3));
        let leaf_a = NodeId::new(7);
        let leaf_b = NodeId::new(13);
        let (contractible, bound) = wg.path_contraction_stats(leaf_a, leaf_b).unwrap();
        assert!(contractible <= bound);
        assert_eq!(contractible, 0, "binary tree has no degree-2 chains");
        // A long path graph (not an equilibrium): almost every edge is
        // contractible, far beyond the equilibrium bound — exactly why
        // Lemma 6.5 certifies non-equilibrium shapes.
        let wg = WeightedGraph::unit(generators::path(40));
        let (contractible, bound) = wg
            .path_contraction_stats(NodeId::new(0), NodeId::new(39))
            .unwrap();
        assert!(contractible > bound);
        assert!(!wg.is_weak_equilibrium());
    }

    #[test]
    fn contraction_stats_rejects_non_trees() {
        let wg = WeightedGraph::unit(generators::cycle(5));
        assert!(wg
            .path_contraction_stats(NodeId::new(0), NodeId::new(2))
            .is_none());
    }

    #[test]
    fn rich_leaf_distance_lemma_6_4() {
        // Weak equilibrium with two rich leaves: both point at a hub.
        let g = OwnedDigraph::from_arcs(4, &[(1, 0), (2, 0), (0, 3)]);
        let wg = WeightedGraph::unit(g);
        // Leaves 1 and 2 are rich; their distance is 2.
        assert_eq!(wg.max_rich_leaf_distance(), Some(2));
        // Lemma 6.4 contrapositive: a weak equilibrium cannot have rich
        // leaves at distance > 2 — check an instance that does have
        // them and confirm it is NOT a weak equilibrium.
        let far = OwnedDigraph::from_arcs(4, &[(0, 1), (1, 2), (3, 2)]);
        // Rich leaves: 0 (owns 0->1) and 3 (owns 3->2), distance 3.
        let wg = WeightedGraph::unit(far);
        assert_eq!(wg.max_rich_leaf_distance(), Some(3));
        assert!(!wg.is_weak_equilibrium());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        WeightedGraph::with_weights(generators::path(2), vec![1, 0]);
    }
}
